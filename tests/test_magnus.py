"""The Magnus integrator against the adaptive RK45 oracle in rk45_oracle.py.

The integrator runs at rtol 1e-8 / atol 1e-10, the tolerance of the
shipped scan and contour configs; the oracle runs at rtol 1e-11. Examples
are drawn deterministically, so every run checks the same points.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rk45_oracle
from cstirap import dynamics
from cstirap.dynamics import (IntegrationError, SystemParams, hamiltonian,
                              propagate, propagate_effective, propagate_two_state)
from cstirap.phases import cap_phases, resonant_phases
from cstirap.pulses import ShapeKind, build_train, make_pair, window

MAGNUS = dict(rtol=1e-8, atol=1e-10)
AGREE = 1e-7

shapes = st.sampled_from(list(ShapeKind))
omegas = st.floats(0.5, 80.0)
delays = st.floats(0.1, 1.2)


def _dev(a, b):
    return np.max(np.abs(a - b))


def _unitarity(u):
    return np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(shapes, omegas, delays, st.floats(-20.0, 20.0), st.floats(0.0, 2.0))
def test_propagate_matches_oracle(kind, omega0, delay, delta, gamma):
    pair = make_pair(kind, omega0, 1.0, delay)
    sys = SystemParams(delta, gamma)
    assert _dev(propagate(pair, sys, **MAGNUS), rk45_oracle.propagate(pair, sys)) < AGREE


@pytest.mark.parametrize("omega0,delay", [(80.0, 0.5), (12.0, 0.9)])
def test_propagate_matches_oracle_far_detuned(omega0, delay):
    pair = make_pair(ShapeKind.SINE_SQUARED, omega0, 1.0, delay)
    sys = SystemParams(delta=100.0)
    assert _dev(propagate(pair, sys, **MAGNUS), rk45_oracle.propagate(pair, sys)) < AGREE


def test_train_matches_oracle():
    # Three resonant-phase pairs with idle time between them and decay:
    # every pair contributes its own envelope breakpoints.
    seq = resonant_phases(3)
    train = build_train(make_pair(ShapeKind.SINE_SQUARED, 20.0), seq.pump_phases,
                        seq.stokes_phases, seq.alternate_ordering, gap=0.2)
    sys = SystemParams(delta=1.5, gamma=0.3)
    assert _dev(propagate(train, sys, **MAGNUS), rk45_oracle.propagate(train, sys)) < AGREE


def test_partial_time_span_matches_oracle():
    # A window that starts inside the Stokes pulse and ends beyond the pump.
    seq = cap_phases(3)
    train = build_train(make_pair(ShapeKind.GAUSSIAN, 15.0, 1.0, 0.6),
                        seq.pump_phases, seq.stokes_phases, seq.alternate_ordering)
    t0, t1 = window(train.pairs[0])
    span = (t0 + 4.5, t1 + 1.0)
    sys = SystemParams(delta=4.0)
    got = propagate(train, sys, t_span=span, **MAGNUS)
    assert _dev(got, rk45_oracle.propagate(train, sys, t_span=span)) < AGREE
    assert _unitarity(got) < 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(shapes, omegas, delays, st.floats(-100.0, 100.0))
def test_unitary_without_decay(kind, omega0, delay, delta):
    u = propagate(make_pair(kind, omega0, 1.0, delay), SystemParams(delta), **MAGNUS)
    assert _unitarity(u) < 1e-12


@settings(max_examples=3, deadline=None, derandomize=True)
@given(shapes, omegas, delays)
def test_two_state_matches_oracle(kind, omega0, delay):
    pair = make_pair(kind, omega0, 1.0, delay)
    u = propagate_two_state(pair, **MAGNUS)
    assert _dev(u, rk45_oracle.propagate_two_state(pair)) < AGREE
    assert _unitarity(u) < 1e-12


@settings(max_examples=3, deadline=None, derandomize=True)
@given(shapes, st.floats(0.5, 20.0), delays, st.floats(20.0, 200.0), st.booleans())
def test_effective_matches_oracle(kind, omega0, delay, delta, negative):
    pair = make_pair(kind, omega0, 1.0, delay)
    delta = -delta if negative else delta
    u = propagate_effective(pair, delta, **MAGNUS)
    assert _dev(u, rk45_oracle.propagate_effective(pair, delta)) < AGREE


@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_fourth_order_convergence(gamma):
    # At fixed step counts, halving the step must cut the error against
    # the oracle about 16-fold; a second-order slip would give 4-fold.
    pair = make_pair(ShapeKind.SINE_SQUARED, 20.0, 1.0, 0.4)
    sys = SystemParams(delta=3.0, gamma=gamma)
    ref = rk45_oracle.propagate(pair, sys)
    breaks = dynamics._breakpoints(pair, window(pair))
    errs = []
    for n in (8, 16, 32):
        blocks = dynamics._chunk_products(lambda t: hamiltonian(pair, sys, t), breaks,
                                          np.full(len(breaks) - 1, n), gamma == 0)
        errs.append(_dev(dynamics._ordered_product(np.array(blocks)), ref))
    assert errs[0] / errs[1] > 12 and errs[1] / errs[2] > 12


def test_hamiltonian_stacks_over_time_arrays():
    pair = make_pair(ShapeKind.SINE_SQUARED, 6.0, 1.0, 0.3, pump_phase=0.5)
    sys = SystemParams(delta=2.0, gamma=0.8)
    t = np.linspace(-0.2, 1.5, 12).reshape(3, 4)
    stacked = hamiltonian(pair, sys, t)
    assert stacked.shape == (3, 4, 3, 3)
    for idx in np.ndindex(t.shape):
        np.testing.assert_array_equal(stacked[idx], hamiltonian(pair, sys, t[idx]))


def test_non_convergence_raises_with_location(monkeypatch):
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 64)
    pair = make_pair(ShapeKind.SINE_SQUARED, 30.0)
    with pytest.raises(IntegrationError) as err:
        propagate(pair, SystemParams())
    t0, t1 = window(pair)
    assert t0 <= err.value.time < t1
    assert "steps" in str(err.value)


@pytest.mark.parametrize("width,delay", [(1e-300, 1.0), (1e-7, 1.0), (1.0, 1e300)])
def test_step_count_beyond_limit_raises_at_start(width, delay):
    pair = make_pair(ShapeKind.SINE_SQUARED, 30.0, width=width, delay=delay)
    with pytest.raises(IntegrationError) as err:
        propagate(pair, SystemParams())
    assert err.value.time == window(pair)[0]


@pytest.mark.parametrize("tol", [1e-300, 5e-324])
def test_unreachable_tolerance_raises(monkeypatch, tol):
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 1 << 12)
    pair = make_pair(ShapeKind.SINE_SQUARED, 30.0)
    with pytest.raises(IntegrationError, match="missed"):
        propagate(pair, SystemParams(), rtol=tol, atol=tol)


def test_unmeetable_tolerance_fails_after_two_passes(monkeypatch):
    # The passes at n and 2n steps already show that rtol = atol = 1e-300
    # needs far more than _MAX_STEPS, so the point fails without a third.
    passes = []
    chunk_products = dynamics._chunk_products

    def counted(*args):
        passes.append(args)
        assert len(passes) <= 2, "a third stepping pass"
        return chunk_products(*args)

    monkeypatch.setattr(dynamics, "_chunk_products", counted)
    with pytest.raises(IntegrationError, match="missed"):
        propagate(make_pair(ShapeKind.SINE_SQUARED, 30.0), SystemParams(),
                  rtol=1e-300, atol=1e-300)
    assert len(passes) == 2
