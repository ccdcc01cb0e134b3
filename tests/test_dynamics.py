import math

import numpy as np
import pytest

from cstirap import dynamics
from cstirap.dynamics import (IntegrationError, SystemParams, effective_two_state,
                              hamiltonian, propagate, propagate_effective,
                              propagate_two_state, resonant_two_state_hamiltonian)
from cstirap.pulses import (PulsePair, PulseShape, PulseTrain, ShapeKind, make_pair,
                            train_envelopes, window)


def _unitarity(u):
    return np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))


def test_system_params_validation():
    with pytest.raises(ValueError):
        SystemParams(gamma=-0.1)
    with pytest.raises(ValueError):
        SystemParams(delta=float("inf"))


@pytest.mark.parametrize("delta,gamma", [(10 ** 400, 0.0), (-10 ** 400, 0.0), (0.0, 10 ** 400)],
                         ids=["delta", "minus-delta", "gamma"])
def test_system_params_reject_integers_beyond_float_range(delta, gamma):
    with pytest.raises(ValueError, match="detuning and decay must be finite"):
        SystemParams(delta, gamma)


def test_hamiltonian_structure():
    pair = make_pair(ShapeKind.SINE_SQUARED, 6.0, 1.0, 0.3, pump_phase=0.5)
    sys = SystemParams(delta=2.0, gamma=0.8)
    t = 0.9
    h = hamiltonian(pair, sys, t)
    wp = 6.0 * math.sin(math.pi * (t - 0.3)) ** 2 * np.exp(0.5j)
    ws = 6.0 * math.sin(math.pi * t) ** 2
    assert h[0, 1] == pytest.approx(0.5 * wp)
    assert h[1, 0] == pytest.approx(0.5 * np.conj(wp))
    assert h[1, 2] == pytest.approx(0.5 * ws)
    assert h[1, 1] == pytest.approx(2.0 - 0.4j)
    assert h[0, 0] == 0.0 and h[2, 2] == 0.0 and h[0, 2] == 0.0


def test_decay_only_amplitude():
    # No fields: state 2 just decays, |U22| = e^{-gamma*T/2}.
    pair = make_pair(ShapeKind.SINE_SQUARED, 0.0)
    u = propagate(pair, SystemParams(gamma=2.0), t_span=(0.0, 1.0))
    assert abs(u[1, 1]) == pytest.approx(math.exp(-1.0), rel=1e-8)
    assert abs(u[0, 0]) == pytest.approx(1.0, rel=1e-10)


def test_propagator_matches_fixed_step_reference(rk4_propagator):
    pair = make_pair(ShapeKind.SINE_SQUARED, 8.0)
    sys = SystemParams(delta=1.5, gamma=0.3)
    u = propagate(pair, sys)
    t0, t1 = window(pair)
    ref = rk4_propagator(lambda t: hamiltonian(pair, sys, t), t0, t1, 4000, 3)
    assert np.max(np.abs(u - ref)) < 1e-8


def test_unitarity_without_decay():
    pair = make_pair(ShapeKind.GAUSSIAN, 15.0)
    u = propagate(pair, SystemParams(delta=3.0))
    assert _unitarity(u) < 1e-8


def test_contraction_with_decay():
    pair = make_pair(ShapeKind.SINE_SQUARED, 10.0)
    u = propagate(pair, SystemParams(gamma=0.5))
    assert np.max(np.linalg.svdvals(u)) <= 1.0 + 1e-9


def test_propagated_state_1_transfers_to_3():
    c = propagate(make_pair(ShapeKind.SINE_SQUARED, 25.0), SystemParams())[:, 0]
    assert abs(c[2]) ** 2 > 0.95      # counterintuitive pair transfers 1 -> 3


def test_bad_time_span():
    pair = make_pair(ShapeKind.SINE_SQUARED, 1.0)
    with pytest.raises(ValueError):
        propagate(pair, SystemParams(), t_span=(1.0, 1.0))


def test_integration_error_carries_time():
    err = IntegrationError("step size underflow", 0.25)
    assert err.time == 0.25
    assert "0.25" in str(err)


def test_two_state_matrix_pinned_value():
    # Stokes alone at 2/T makes the matrix diag(-1/T, 1/T).
    stokes = PulseShape(ShapeKind.SINE_SQUARED, 2.0, 1.0, 0.0)
    pump = PulseShape(ShapeKind.SINE_SQUARED, 2.0, 1.0, 5.0)
    pair = PulsePair(pump, stokes)
    h = resonant_two_state_hamiltonian(pair, 0.5)
    np.testing.assert_allclose(h, [[-1.0, 0.0], [0.0, 1.0]], atol=1e-14)


def test_two_state_requires_real_envelopes():
    pair = make_pair(ShapeKind.SINE_SQUARED, 2.0, pump_phase=0.4)
    with pytest.raises(ValueError):
        resonant_two_state_hamiltonian(pair, 0.5)
    ok = make_pair(ShapeKind.SINE_SQUARED, 2.0, pump_phase=2 * math.pi)
    resonant_two_state_hamiltonian(ok, 0.5)


def test_two_state_propagator_is_su2():
    pair = make_pair(ShapeKind.SINE_SQUARED, 14.0)
    u = propagate_two_state(pair)
    assert u[1, 0] == pytest.approx(-np.conj(u[0, 1]), abs=1e-9)
    assert u[1, 1] == pytest.approx(np.conj(u[0, 0]), abs=1e-9)
    assert abs(np.linalg.det(u) - 1.0) < 1e-9


def test_effective_two_state_values():
    pair = make_pair(ShapeKind.SINE_SQUARED, 4.0)
    w_eff, d_eff = effective_two_state(pair, 100.0)
    t = 0.8
    wp = 4.0 * math.sin(math.pi * (t - 1.0 / math.pi)) ** 2
    ws = 4.0 * math.sin(math.pi * t) ** 2
    assert w_eff(t) == pytest.approx(-wp * ws / 200.0)
    assert d_eff(t) == pytest.approx((wp ** 2 - ws ** 2) / 200.0)


@pytest.mark.parametrize("kind", list(ShapeKind))
@pytest.mark.parametrize("phases", [(0.0, 0.0), (0.7, -2.1)], ids=["real", "phased"])
@pytest.mark.parametrize("delta", [100.0, -100.0])
def test_eliminated_model_views_agree(monkeypatch, kind, phases, delta):
    # effective_two_state and the generator that propagate_effective
    # integrates are one model: W_eff = 2 H01 and D_eff = 2 (H11 - H00),
    # and both are -Wp Ws/(2 Delta) and (|Wp|^2 - |Ws|^2)/(2 Delta).
    pair = make_pair(kind, 4.0, pump_phase=phases[0], stokes_phase=phases[1])
    generators = []
    chunk_products = dynamics._chunk_products
    monkeypatch.setattr(dynamics, "_chunk_products", lambda kernel, model, passes:
                        generators.append(lambda t: model(t, passes[0][0]))
                        or chunk_products(kernel, model, passes))
    propagate_effective(pair, delta, rtol=1e-6, atol=1e-8)
    w_eff, d_eff = effective_two_state(pair, delta)
    t = np.linspace(*window(pair), 41)
    trace, x, y, z = generators[0](t)
    h00, h01, h11 = trace + z, x - 1j * y, trace - z
    np.testing.assert_allclose(w_eff(t), 2.0 * h01, rtol=1e-15, atol=1e-17)
    np.testing.assert_allclose(d_eff(t), 2.0 * (h11 - h00), rtol=1e-15, atol=1e-16)
    wp, ws = train_envelopes(PulseTrain((pair,)), t)
    np.testing.assert_allclose(w_eff(t), -wp * ws / (2.0 * delta), rtol=1e-15, atol=1e-17)
    np.testing.assert_allclose(d_eff(t), (abs(wp) ** 2 - abs(ws) ** 2) / (2.0 * delta),
                               rtol=1e-15, atol=1e-16)


def test_effective_two_state_guards():
    pair = make_pair(ShapeKind.SINE_SQUARED, 4.0)
    with pytest.raises(ValueError):
        effective_two_state(pair, 0.0)
    with pytest.warns(UserWarning):
        effective_two_state(pair, 30.0)


def test_adiabatic_elimination_tracks_full_dynamics():
    # Far off resonance the eliminated model reproduces the transfer to a
    # few percent; the residual is the elimination error, not integration.
    pair = make_pair(ShapeKind.SINE_SQUARED, 40.0)
    delta = 100.0
    u3 = propagate(pair, SystemParams(delta=delta), rtol=1e-9, atol=1e-11)
    p3_full = abs(u3[2, 0]) ** 2
    u2 = propagate_effective(pair, delta, rtol=1e-9, atol=1e-11)
    p3_eff = abs(u2[1, 0]) ** 2
    assert p3_full == pytest.approx(0.42594, abs=2e-4)
    assert p3_eff == pytest.approx(0.45724, abs=2e-4)
    assert abs(p3_full - p3_eff) < 5e-2


def test_propagate_effective_rejects_zero_detuning():
    pair = make_pair(ShapeKind.SINE_SQUARED, 4.0)
    with pytest.raises(ValueError):
        propagate_effective(pair, 0.0)
