"""The Magnus integrator against the adaptive RK45 oracle in rk45_oracle.py.

The integrator runs at rtol 1e-8 / atol 1e-10, the tolerance of the
shipped scan and contour configs; the oracle runs at rtol 1e-11. Examples
are drawn deterministically, so every run checks the same points.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import rk45_oracle
from cstirap import dynamics, experiments
from cstirap.cli import parse_config
from cstirap.dynamics import (IntegrationError, SystemParams, hamiltonian, propagate,
                              propagate_effective, propagate_two_state,
                              resonant_two_state_hamiltonian)
from cstirap.phases import cap_phases, resonant_phases
from cstirap.propalg import reverse
from cstirap.pulses import (PulseTrain, ShapeKind, build_train, make_pair, train_envelopes,
                            train_window, window)

MAGNUS = dict(rtol=1e-8, atol=1e-10)
AGREE = 1e-7
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

shapes = st.sampled_from(list(ShapeKind))
omegas = st.floats(0.5, 80.0)
delays = st.floats(0.1, 1.2)


def _dev(a, b):
    return np.max(np.abs(a - b))


def _unitarity(u):
    return np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))


def _blocks(kernel, model, row, breaks, steps):
    """The block products of one pass of one point."""
    return dynamics._chunk_products(kernel, model, [(row, breaks, steps)])[0]


def _three_state(kernel, pair, sys, t_span, rtol, atol):
    """The bare product of the 3x3 kernel, unguarded, over t_span."""
    return dynamics._integrate(kernel, dynamics._generator, pair, dynamics._row(pair, sys),
                               t_span, rtol, atol)


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
        blocks = _blocks(dynamics._MAGNUS4, dynamics._generator, dynamics._row(pair, sys),
                         breaks, np.full(len(breaks) - 1, n))
        errs.append(_dev(dynamics._tree(blocks, [blocks.shape[-1]])[..., 0], ref))
    assert errs[0] / errs[1] > 12 and errs[1] / errs[2] > 12


@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_sixth_order_convergence(gamma):
    # The 3x3 generator off resonance, with and without decay, takes the
    # sixth-order step: halving the step must cut the error against the
    # oracle about 64-fold, where a fourth-order slip would give 16-fold.
    pair = make_pair(ShapeKind.SINE_SQUARED, 20.0, 1.0, 0.4)
    sys = SystemParams(delta=3.0, gamma=gamma)
    ref = rk45_oracle.propagate(pair, sys)
    breaks = dynamics._breakpoints(pair, window(pair))
    errs = []
    for n in (8, 16, 32):
        blocks = _blocks(dynamics._MAGNUS6, dynamics._generator, dynamics._row(pair, sys),
                         breaks, np.full(len(breaks) - 1, n))
        errs.append(_dev(dynamics._tree(blocks, [blocks.shape[-1]])[..., 0], ref))
    assert errs[0] / errs[1] > 40 and errs[1] / errs[2] > 40, errs


@pytest.mark.parametrize("omega0,delta", [(10.0, 1e4), (2.0, 1e4), (10.0, 3e4)])
def test_far_detuned_first_pass_does_not_falsely_converge(omega0, delta):
    # Started at half a pulse width, h * Delta >> 1, the fourth-order step
    # once accepted passes whose two Richardson estimates agreed by
    # accident: these points were 1.55e-5, 3.1e-6 and 1.8e-6 off.
    # The references: propagate at rtol 1e-11, and the unguarded
    # fourth-order kernel at rtol 1e-11, a second and independent one.
    pair = make_pair(ShapeKind.SINE_SQUARED, omega0)
    sys = SystemParams(delta)
    got = propagate(pair, sys, **MAGNUS)
    for ref in (propagate(pair, sys, rtol=1e-11, atol=1e-13),
                _three_state(dynamics._MAGNUS4, pair, sys, None, 1e-11, 1e-13)):
        assert _dev(got, ref) < 10 * MAGNUS["rtol"]


def _record_passes(monkeypatch):
    """The (order, step counts) of every stepping pass made from here on."""
    passes = []
    chunk_products = dynamics._chunk_products

    def recorded(kernel, model, batch):
        passes.extend((kernel[1], steps) for _, _, steps in batch)
        return chunk_products(kernel, model, batch)

    monkeypatch.setattr(dynamics, "_chunk_products", recorded)
    return passes


@pytest.mark.parametrize("delta,guarded", [(1e4, True), (1e7, False)])
def test_first_pass_guard_and_its_fallback(monkeypatch, delta, guarded):
    # The sixth-order kernel starts each segment with steps of
    # h ||H|| <= 3 < pi. Where the fine pass of those steps passes
    # _MAX_STEPS, the point takes the unguarded first pass and the
    # fourth-order kernel, bit for bit. The explicit t_span keeps the
    # mirrored pair on the full window.
    pair = make_pair(ShapeKind.SINE_SQUARED, 80.0)
    sys, span = SystemParams(delta), window(pair)
    passes = _record_passes(monkeypatch)
    got = propagate(pair, sys, span, **MAGNUS)
    monkeypatch.undo()
    lengths = np.diff(dynamics._breakpoints(pair, span))
    order, first = passes[0]
    if guarded:
        assert order == 6 and np.all(first >= lengths * (delta + 80.0) / 3.0), first
        return
    assert 2 * np.ceil(lengths * (delta + 80.0) / 3.0).sum() > dynamics._MAX_STEPS
    assert order == 4
    np.testing.assert_array_equal(first, np.ceil(lengths / 0.5))
    want = _three_state(dynamics._MAGNUS4, pair, sys, span, **MAGNUS)
    # propagate's polar factor at gamma = 0.
    w, _, vh = np.linalg.svd(want)
    np.testing.assert_array_equal(got, w @ vh)


def test_first_pass_guard_on_the_half_window(monkeypatch):
    # A mirrored pair integrates only [t_i, mid]: two segments, the
    # Stokes pulse's rise up to the pump's start and on to the middle,
    # each guarded.
    pair = make_pair(ShapeKind.SINE_SQUARED, 80.0)
    t_i, t_f = window(pair)
    passes = _record_passes(monkeypatch)
    propagate(pair, SystemParams(1e4), **MAGNUS)
    lengths = np.diff(dynamics._breakpoints(pair, (t_i, 0.5 * (t_i + t_f))))
    order, first = passes[0]
    assert len(lengths) == 2 and order == 6
    assert np.all(first >= lengths * (1e4 + 80.0) / 3.0), first


def test_fallback_meets_its_tolerance(monkeypatch):
    # Here the guarded first pass would need 549,302 steps, so the point
    # takes the fourth-order fallback. The reference is one fixed pass of
    # the sixth-order kernel at the guarded step counts, h ||H|| <= 3, and
    # its polar factor, as propagate takes it at gamma = 0. The explicit
    # t_span keeps the mirrored pair on the full window, whose guarded
    # pass, unlike the half's, is beyond the step limit.
    pair, sys = make_pair(ShapeKind.SINE_SQUARED, 10.0), SystemParams(1.25e6)
    span = window(pair)
    breaks = dynamics._breakpoints(pair, span)
    guarded = np.ceil(np.diff(breaks) * (sys.delta + 10.0) / 3.0).astype(np.int64)
    assert guarded.sum() == 549_302 and 2 * guarded.sum() > dynamics._MAX_STEPS
    blocks = _blocks(dynamics._MAGNUS6, dynamics._generator, dynamics._row(pair, sys), breaks,
                     guarded)
    w, _, vh = np.linalg.svd(dynamics._tree(blocks, [blocks.shape[-1]])[..., 0])
    passes = _record_passes(monkeypatch)
    got = propagate(pair, sys, span, **MAGNUS)
    assert {order for order, _ in passes} == {4}
    assert _dev(got, w @ vh) < 10 * MAGNUS["rtol"]


def _first_passes(pulses, sys, t_span=None, rtol=1e-8, atol=1e-10):
    """(job, unguarded, guarded, sized) first passes of a 3x3 point: the
    envelope rule, the guard's h ||H|| <= 3 on top of it, and the tolerance
    rule, len * top * _FIRST / tol^(1/7), on top of that."""
    train = dynamics._train(pulses)
    job = dynamics._propagation(train, sys, t_span, rtol, atol)
    spans, scale = np.diff(job.breaks), dynamics._scale(train, job.breaks)
    plain = np.maximum(np.ceil(spans / (0.5 * dynamics._min_width(train)) * scale), 1.0)
    bound = abs(sys.delta) + 0.5 * sys.gamma + dynamics._peak(train)
    guarded = np.maximum(plain, np.ceil(spans * (bound / 3.0)))
    top = scale * dynamics._peak(train)
    sized = np.maximum(guarded, np.ceil(spans * top * dynamics._FIRST / job.tol ** (1 / 7)))
    return job, plain, guarded, sized


_SEQ3 = resonant_phases(3)


@pytest.mark.parametrize("pulses,sys,rule", [
    (make_pair(ShapeKind.SINE_SQUARED, 30.0), SystemParams(0.0, 0.02), "sized"),
    (make_pair(ShapeKind.SINE_SQUARED, 30.0), SystemParams(0.0, 2.0), "sized"),
    (make_pair(ShapeKind.GAUSSIAN, 20.0, 1.0, 0.6), SystemParams(0.0, 0.5), "sized"),
    (make_pair(ShapeKind.SINE_SQUARED, 30.0), SystemParams(10.0), "sized"),
    (make_pair(ShapeKind.GAUSSIAN, 30.0), SystemParams(-30.0), "sized"),
    (build_train(make_pair(ShapeKind.SINE_SQUARED, 12.0), _SEQ3.pump_phases,
                 _SEQ3.stokes_phases, True), SystemParams(3.0, 0.5), "sized"),
    (make_pair(ShapeKind.SINE_SQUARED, 30.0), SystemParams(30.5), "guarded"),
    (make_pair(ShapeKind.SINE_SQUARED, 30.0), SystemParams(29.9, 0.4), "guarded"),
    (make_pair(ShapeKind.GAUSSIAN, 40.0), SystemParams(100.0), "guarded"),
], ids=["decay-0.02", "decay-2", "gaussian-decay", "real-kernel", "delta-at-peak",
        "phased-train", "delta-above-peak", "delta-and-decay-above-peak", "far-detuned"])
def test_tolerance_sizes_the_first_pass_where_the_couplings_set_the_bound(pulses, sys, rule):
    # Where |Delta| + gamma/2 <= peak, the couplings set the guard's bound
    # and the sixth-order local error, of order (h top)^7, sizes each
    # segment's first pass from the job's tolerance; elsewhere the guard
    # alone does.
    job, _, guarded, sized = _first_passes(pulses, sys)
    assert job.kernel[1] == 6
    want = sized if rule == "sized" else guarded
    np.testing.assert_array_equal(job.steps, want)
    if rule == "sized":
        assert np.any(sized > guarded)


def test_sized_first_pass_keeps_the_step_limit_and_the_fallback():
    # Where the sized pass would pass _MAX_STEPS the guarded one stays; a
    # tolerance near 0 gives such a pass. Where the guarded pass would too,
    # the point takes the fourth-order kernel from the unguarded pass.
    cases = [(make_pair(ShapeKind.SINE_SQUARED, 1e6), 1e-8, 6),
             (make_pair(ShapeKind.SINE_SQUARED, 30.0), 1e-300, 6),
             (make_pair(ShapeKind.SINE_SQUARED, 3e6), 1e-8, 4)]
    for pair, tol, order in cases:
        job, plain, guarded, sized = _first_passes(pair, SystemParams(0.0, 0.5), None, tol, tol)
        assert 2 * sized.sum() > dynamics._MAX_STEPS
        assert job.kernel[1] == order
        np.testing.assert_array_equal(job.steps, guarded if order == 6 else plain)


def test_shipped_far_detuned_contour_keeps_its_guarded_first_passes():
    # At Delta = 100 the detuning sets the bound for every Omega0 of the
    # shipped contour grid (2 to 80), so no first pass is sized.
    cfg = parse_config(json.loads((CONFIGS / "contour_far_detuned.json").read_text()), "contour")
    for coords in experiments.grid_coords(cfg.scan.axes):
        pair, sys, span = experiments._point(cfg.scan, coords)
        job, _, guarded, _ = _first_passes(pair, sys, span, cfg.scan.rtol, cfg.scan.atol)
        np.testing.assert_array_equal(job.steps, guarded)


def test_shipped_decay_grid_converges_in_one_round(monkeypatch):
    # Every point of configs/decay_composite.json meets its tolerance on its
    # sized first pass: the whole grid takes one _chunk_products call.
    cfg = parse_config(json.loads((CONFIGS / "decay_composite.json").read_text()), "decay")
    calls, chunk_products = [], dynamics._chunk_products
    monkeypatch.setattr(dynamics, "_chunk_products",
                        lambda *a: calls.append(len(a[2])) or chunk_products(*a))
    rows = experiments.run_scan(cfg.scan)
    assert len(rows) == 50 and all(r.error is None for r in rows)
    assert calls == [100]    # the first and the doubled pass of each point


@pytest.mark.parametrize("gamma", [0.02, 0.5, 2.0])
@pytest.mark.parametrize("pulses", [
    make_pair(ShapeKind.SINE_SQUARED, 30.0),
    build_train(make_pair(ShapeKind.SINE_SQUARED, 15.0), _SEQ3.pump_phases,
                _SEQ3.stokes_phases, True),
], ids=["pair", "train"])
def test_sized_first_pass_matches_oracle(pulses, gamma):
    # The shipped decay drive, and a resonant three-pair train on the
    # complex path, with first passes sized by the tolerance.
    sys = SystemParams(0.0, gamma)
    job, _, guarded, sized = _first_passes(pulses, sys, **MAGNUS)
    assert np.any(job.steps > guarded)
    assert _dev(propagate(pulses, sys, **MAGNUS), rk45_oracle.propagate(pulses, sys)) < AGREE


@pytest.mark.parametrize("problem", ["two_state", "effective"])
def test_sixth_order_convergence_two_state(monkeypatch, problem):
    # 2x2 generators take the closed-form su(2) step: halving the step
    # must cut the error against the oracle about 64-fold, where a
    # fourth-order slip would give 16-fold. The effective problem also
    # checks the trace part of the step.
    pair = make_pair(ShapeKind.SINE_SQUARED, 20.0, 1.0, 0.4)
    generators = []
    integrate = dynamics._integrate
    monkeypatch.setattr(dynamics, "_integrate",
                        lambda *a, **kw: generators.append(a) or integrate(*a, **kw))
    if problem == "two_state":
        propagate_two_state(pair)
        ref = rk45_oracle.propagate_two_state(pair)
    else:
        propagate_effective(pair, 10.0)
        ref = rk45_oracle.propagate_effective(pair, 10.0)
    breaks = dynamics._breakpoints(pair, window(pair))
    errs = []
    for n in (4, 8, 16):
        kernel, model, _, row = generators[0][:4]
        blocks = _blocks(kernel, model, row, breaks, np.full(len(breaks) - 1, n))
        errs.append(_dev(dynamics._tree(blocks, [blocks.shape[-1]])[..., 0], ref))
    assert errs[0] / errs[1] > 40 and errs[1] / errs[2] > 40, errs


@pytest.mark.parametrize("kernel,nodes,dim", [(dynamics._MAGNUS4, 3, 3),
                                              (dynamics._MAGNUS6, 3, 3),
                                              (dynamics._MAGNUS6_SU2, 3, 2)],
                         ids=["magnus4", "magnus6", "magnus6_su2"])
@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_kernel_evaluates_generator_once_per_block(kernel, nodes, dim, blocks):
    # Each block's steps are evaluated once, on all their nodes at once, in
    # the one call of the slab that holds the block: no probe call to learn
    # the generator's dimension or the step's node count. A slab holds
    # whole blocks, _SLAB steps at most.
    calls = []

    def generator(t, cols):
        calls.append(t.shape)
        return np.zeros((4,) + t.shape) if dim == 2 else np.zeros(t.shape + (dim, dim))

    last = 7
    total = (blocks - 1) * dynamics._CHUNK + last
    steps = np.array([total // 2, total - total // 2])
    got = _blocks(kernel, generator, np.zeros(1), np.array([0.0, 0.4, 1.0]), steps)
    per_slab = dynamics._SLAB // dynamics._CHUNK
    full, rest = divmod(blocks - 1, per_slab)
    slabs = [per_slab * dynamics._CHUNK] * full + [rest * dynamics._CHUNK + last]
    assert calls == [(nodes, m) for m in slabs]
    assert got.shape[-1] == blocks
    np.testing.assert_array_equal(got, np.broadcast_to(np.eye(dim)[:, :, None], got.shape))


_SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


@pytest.mark.parametrize("with_trace", [False, True])
def test_su2_exp_matches_scipy(with_trace):
    # exp(-i(trace + v.sigma)) in closed form, from |v| = 0 and below any
    # step's scale to many turns.
    rng = np.random.default_rng(5)
    for norm in (0.0, 1e-300, 1e-8, 0.3, 3.0, 300.0):
        v = rng.normal(size=(3, 8))
        v *= norm / np.sqrt(np.sum(v * v, axis=0))
        trace = rng.normal(0.0, 3.0, 8) if with_trace else np.zeros(8)
        got = dynamics._su2_exp(trace, v)
        for k in range(8):
            h = trace[k] * np.eye(2) + np.einsum("i,ijk->jk", v[:, k], _SIGMA)
            assert _dev(got[..., k], scipy.linalg.expm(-1j * h)) < 2e-15 * (1.0 + norm), norm


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


@pytest.mark.parametrize("call", [
    lambda pair: propagate(pair, SystemParams(), (0.0, 1e308)),
    lambda pair: propagate(pair, SystemParams(), (-1e308, 1.0)),
    lambda pair: propagate_two_state(pair, (0.0, 1e308)),
    lambda pair: propagate(replace(pair, pump=replace(pair.pump, width=2.0),
                                   stokes=replace(pair.stokes, width=2.0)),
                           SystemParams(), (0.0, 1e308)),
], ids=["propagate-end", "propagate-start", "propagate_two_state", "twice-the-steps"])
def test_window_beyond_float_range_needs_too_many_steps(call):
    # Its step count, or twice it, overflows to inf: the step limit's
    # IntegrationError, not a numpy overflow warning, which the suite turns
    # into an error.
    with pytest.raises(IntegrationError, match=r"needs over 1048576 steps"):
        call(make_pair(ShapeKind.SINE_SQUARED, 30.0))


@pytest.mark.parametrize("tol", [1e-300, 5e-324])
def test_unreachable_tolerance_raises(monkeypatch, tol):
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 1 << 12)
    pair = make_pair(ShapeKind.SINE_SQUARED, 30.0)
    with pytest.raises(IntegrationError, match="missed"):
        propagate(pair, SystemParams(), rtol=tol, atol=tol)


_PROPAGATORS = {
    "propagate": lambda pair, **tol: propagate(pair, SystemParams(), **tol),
    "propagate_two_state": lambda pair, **tol: propagate_two_state(pair, **tol),
    "propagate_effective": lambda pair, **tol: propagate_effective(pair, 100.0, **tol),
}


@pytest.mark.parametrize("name", _PROPAGATORS)
@pytest.mark.parametrize("key", ["rtol", "atol"])
@pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -1.0])
def test_tolerance_that_is_not_finite_and_positive_rejected(name, key, value):
    # Before any pass: rtol = inf would take the first pass as converged,
    # and 0, -1 or NaN would fail as if the ladder had missed them.
    pair = make_pair(ShapeKind.SINE_SQUARED, 10.0)
    with pytest.raises(ValueError, match=r"^rtol and atol must be finite numbers > 0$"):
        _PROPAGATORS[name](pair, **{key: value})


def test_unmeetable_tolerance_fails_after_two_passes(monkeypatch):
    # The passes at n and 2n steps already show that rtol = atol = 1e-300
    # needs far more than _MAX_STEPS, so the point fails without a third.
    passes = _record_passes(monkeypatch)
    with pytest.raises(IntegrationError, match="missed"):
        propagate(make_pair(ShapeKind.SINE_SQUARED, 30.0), SystemParams(),
                  rtol=1e-300, atol=1e-300)
    assert len(passes) == 2


@pytest.mark.parametrize("tol", [1e-16, 3e-16])
def test_stalled_estimate_fails_within_three_estimates(monkeypatch, tol):
    # At round-off the Richardson estimate stops falling; the point must
    # fail at the first such estimate that is not 4x below the one before,
    # instead of doubling on towards _MAX_STEPS. Three estimates take at
    # most two stepping passes each.
    passes = _record_passes(monkeypatch)
    with pytest.raises(IntegrationError, match=r"error estimate \S+, stalled after \S+\)"):
        propagate(make_pair(ShapeKind.SINE_SQUARED, 30.0), SystemParams(), rtol=tol, atol=tol)
    assert len(passes) <= 6, passes


def test_slow_drop_above_round_off_is_no_stall():
    # Without the first-pass guard, as where the guard falls back, the
    # fourth-order estimate at Delta = 1e4 falls only 2.3x from 512 to
    # 4,096 steps (7.1e-6 to 3.1e-6) before its rate sets in; the point
    # converges at 32,768 steps.
    pair, sys = make_pair(ShapeKind.SINE_SQUARED, 30.0), SystemParams(1e4)
    u = _three_state(dynamics._MAGNUS4, pair, sys, None, **MAGNUS)
    assert _unitarity(u) < 1e-12


@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_overflowing_generator_fails_the_point(gamma):
    # A detuning near the float limit overflows the step generator; the
    # NaN propagator must end in IntegrationError, not a linear-algebra or
    # conversion error.
    with pytest.raises(IntegrationError, match="missed .*: the propagator is not finite "
                                               r"\(error estimate nan\)"):
        propagate(make_pair(ShapeKind.SINE_SQUARED, 30.0), SystemParams(1e300, gamma))


def _random_stack(rng, m, hermitian, dim=3):
    k = rng.normal(size=(m, dim, dim)) + 1j * rng.normal(size=(m, dim, dim))
    return k + k.conj().swapaxes(-1, -2) if hermitian else k


@pytest.mark.parametrize("hermitian", [True, False])
def test_expm_matches_scipy(hermitian):
    # 1-norms from 1e-4 to 60 take 0 to 7 squarings (theta = 0.5).
    rng = np.random.default_rng(11)
    for norm in np.geomspace(1e-4, 60.0, 12):
        a = -1j * _random_stack(rng, 16, hermitian)
        a *= norm / np.abs(a).sum(axis=-2).max()
        got = np.moveaxis(dynamics._expm(np.moveaxis(a, 0, -1), [len(a)]), -1, 0)
        want = scipy.linalg.expm(a)
        rel = np.abs(got - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
        assert rel.max() < 1e-13, (norm, rel.max())


def _expm_branch_norms():
    # Just below and just above every theta of the degree table, then past
    # the last one with 1 to 7 squarings.
    thetas = [row[0] for row in dynamics._TAYLOR]
    near = [theta * f for theta in thetas for f in (1.0 - 1e-9, 1.0 + 1e-9)]
    return near + [0.9 * thetas[-1] * 2.0 ** k for k in range(1, 8)]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("hermitian", [True, False])
def test_expm_branches_match_scipy(hermitian, dim):
    rng = np.random.default_rng(17)
    for norm in _expm_branch_norms():
        a = -1j * _random_stack(rng, 16, hermitian, dim)
        a *= norm / np.abs(a).sum(axis=-2).max()
        got = np.moveaxis(dynamics._expm(np.moveaxis(a, 0, -1), [len(a)]), -1, 0)
        want = scipy.linalg.expm(a)
        rel = np.abs(got - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
        assert rel.max() < 1e-13, (norm, rel.max())


@pytest.mark.parametrize("kind", list(ShapeKind))
@pytest.mark.parametrize("omega0", [2.0, 12.0, 30.0, 60.0])
def test_three_state_kernel_matches_resonant_route(kind, omega0):
    # propagate lifts the two-state propagator on these pairs, so criterion
    # 4 no longer sees the 3x3 kernel at resonance; this test forces it.
    pair = make_pair(kind, omega0)
    sys = SystemParams()
    direct = _three_state(dynamics._MAGNUS4, pair, sys, None, dynamics.DEFAULT_RTOL,
                          dynamics.DEFAULT_ATOL)
    assert _dev(direct, propagate(pair, sys)) < 1e-9


@settings(max_examples=20, deadline=None, derandomize=True)
@given(shapes, omegas, st.floats(-100.0, 100.0), st.floats(0.0, 2.0),
       st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
def test_pair_propagates_as_one_pair_train(kind, omega0, delta, gamma, pump_phase,
                                           stokes_phase):
    # Inside dynamics a pair is the one-pair train it stands for: over the
    # same window both give the same propagator, bit for bit.
    pair = make_pair(kind, omega0, pump_phase=pump_phase, stokes_phase=stokes_phase)
    sys = SystemParams(delta, gamma)
    span = window(pair)
    np.testing.assert_array_equal(propagate(pair, sys, span, **MAGNUS),
                                  propagate(PulseTrain((pair,)), sys, span, **MAGNUS))


def _count_three_state(monkeypatch) -> list:
    """A list that grows by one per call of any 3x3 model, _generator,
    _gauged or _real_hamiltonian, from here on."""
    calls = []
    for name in ("_generator", "_gauged", "_real_hamiltonian"):
        model = getattr(dynamics, name)
        monkeypatch.setattr(dynamics, name, lambda *a, model=model: calls.append(1) or model(*a))
    return calls


@pytest.mark.parametrize("case,routed", [
    (dict(), True),
    (dict(sys=SystemParams(delta=1e-3)), False),
    (dict(sys=SystemParams(gamma=1e-3)), False),
    (dict(pump_phase=0.1), False),
    (dict(stokes_phase=0.1), False),
    (dict(t_span=(0.0, 1.3)), True),
    (dict(train=True), True),
])
def test_resonant_route_condition(monkeypatch, case, routed):
    # Real envelopes at Delta = gamma = 0 evaluate no 3x3 model,
    # for a pair or a train and over any t_span.
    calls = _count_three_state(monkeypatch)
    pair = make_pair(ShapeKind.SINE_SQUARED, 12.0, pump_phase=case.get("pump_phase", 0.0),
                     stokes_phase=case.get("stokes_phase", 0.0))
    pulses = build_train(pair, [0.0], [0.0], False) if case.get("train") else pair
    propagate(pulses, case.get("sys", SystemParams()), t_span=case.get("t_span"))
    assert (not calls) == routed


@pytest.mark.parametrize("kind", list(ShapeKind))
def test_resonant_train_takes_the_route(monkeypatch, kind):
    # A zero-phase three-pair train, alternating as the resonant protocol
    # does, is lifted from its two-state propagator like a single pair.
    calls = _count_three_state(monkeypatch)
    train = build_train(make_pair(kind, 12.0), [0.0] * 3, [0.0] * 3, True)
    got = propagate(train, SystemParams(), **MAGNUS)
    assert not calls
    monkeypatch.undo()
    assert _dev(got, rk45_oracle.propagate(train, SystemParams())) < AGREE


@pytest.mark.parametrize("phase", [2 * np.pi, -2 * np.pi, 4 * np.pi], ids=["2pi", "-2pi", "4pi"])
def test_resonant_route_takes_phases_modulo_two_pi(monkeypatch, phase):
    # Whole turns of either phase leave the envelopes real, as
    # propagate_two_state accepts them: the pair takes the route and gives
    # the bits of the zero-phase pair.
    calls = _count_three_state(monkeypatch)
    want = propagate(make_pair(ShapeKind.SINE_SQUARED, 12.0), SystemParams(), **MAGNUS)
    for pump_phase, stokes_phase in [(phase, 0.0), (0.0, phase), (phase, phase)]:
        pair = make_pair(ShapeKind.SINE_SQUARED, 12.0, pump_phase=pump_phase,
                         stokes_phase=stokes_phase)
        np.testing.assert_array_equal(propagate(pair, SystemParams(), **MAGNUS), want)
    assert not calls


def _complex_path(pulses, sys, t_span):
    """propagate's sixth-order 3x3 job on the complex generator A = -iH, as
    it runs off resonance: the mirrored half window where propagate takes
    it, else t_span, with the same guard bound and margin."""
    train = dynamics._train(pulses)
    row, bound = dynamics._row(train, sys), abs(sys.delta) + 0.5 * sys.gamma + dynamics._peak(train)
    if t_span is None and dynamics._mirrored(train):
        t_i, t_f = train_window(train)
        job = dynamics._plan(dynamics._MAGNUS6, dynamics._generator, train, row,
                             (t_i, 0.5 * (t_i + t_f)), margin=2.0, bound=bound,
                             result=lambda uh: reverse(uh.T) @ uh, **MAGNUS)
    else:
        job = dynamics._plan(dynamics._MAGNUS6, dynamics._generator, train, row, t_span,
                             bound=bound, **MAGNUS)
    return dynamics._ladder([job])[0]


_turns = st.sampled_from([0.0, 2 * np.pi, -2 * np.pi, 4 * np.pi])


@settings(max_examples=16, deadline=None, derandomize=True)
@given(shapes, omegas, delays, st.floats(0.0, 2.0, exclude_min=True), st.booleans(),
       st.one_of(st.none(), st.tuples(st.floats(-0.2, 0.45), st.floats(0.55, 1.2))),
       st.lists(_turns, min_size=6, max_size=6))
def test_real_gauge_matches_complex_path(kind, omega0, delay, gamma, three, span, turns):
    # At Delta = 0 with real envelopes and gamma > 0, propagate runs the 3x3
    # kernel on the real generator D* A D and maps its product back; the
    # complex generator A on the same window gives the same propagator.
    pair = make_pair(kind, omega0, 1.0, delay)
    pulses = build_train(pair, turns[:3], turns[3:], True) if three else pair
    sys = SystemParams(0.0, gamma)
    t_span = None
    if span is not None:
        t0, t1 = train_window(dynamics._train(pulses))
        t_span = (t0 + span[0] * (t1 - t0), t0 + span[1] * (t1 - t0))
    want = _complex_path(pulses, sys, t_span)
    assert _dev(propagate(pulses, sys, t_span, **MAGNUS), want) < 1e-14


@pytest.mark.parametrize("kind,gamma,case", [
    *((kind, gamma, "pair") for kind in ShapeKind for gamma in (0.02, 0.5, 2.0)),
    *((kind, 2.0, "t_span") for kind in ShapeKind),
    (ShapeKind.SINE_SQUARED, 0.5, "train"),
])
def test_real_gauge_matches_oracle(kind, gamma, case):
    # The mirrored half window, the full window of a train with a phase of
    # a whole turn, and a partial t_span.
    pair = make_pair(kind, 23.0, 1.0, 0.7)
    pulses = build_train(pair, [0.0, 2 * np.pi, 0.0], [0.0] * 3, True) if case == "train" else pair
    t0, t1 = window(pair)
    t_span = (t0 + 0.3, t1 - 0.2) if case == "t_span" else None
    sys = SystemParams(0.0, gamma)
    got = propagate(pulses, sys, t_span, **MAGNUS)
    assert _dev(got, rk45_oracle.propagate(pulses, sys, t_span)) < AGREE


def _step_exponentials(kernel, model, job, steps):
    """The step exponentials of one pass of a job, in blocks of _CHUNK steps."""
    total = int(steps.sum())
    start, h, _ = dynamics._steps(job.breaks[:-1], job.breaks[1:], steps, np.arange(total))
    blocks = [min(dynamics._CHUNK, total - k) for k in range(0, total, dynamics._CHUNK)]
    return kernel[0](lambda t: model(t, job.row[:, None]), start, h, blocks)


@settings(max_examples=24, deadline=None, derandomize=True)
@given(shapes, omegas, delays, st.floats(0.5, 300.0), st.booleans(), st.booleans(),
       st.one_of(st.none(), st.tuples(st.floats(-0.2, 0.45), st.floats(0.55, 1.2))),
       st.lists(_turns, min_size=6, max_size=6))
def test_real_kernel_matches_complex_kernel(kind, omega0, delay, delta, negative, three, span,
                                            turns):
    # At gamma = 0 with real envelopes and Delta != 0, propagate's kernel
    # reads H itself in float64 and takes the closed-form exponential; on
    # the steps of the same passes (the job's first pass and its doubling)
    # it gives _magnus6's step exponentials on A = -iH. Their products drift
    # apart by round-off, up to 2.4e-13 over a block of 512 steps at
    # Delta = 300; each kernel's block is about 1e-13 from the exact product
    # of its own steps.
    pair = make_pair(kind, omega0, 1.0, delay)
    pulses = build_train(pair, turns[:3], turns[3:], False) if three else pair
    sys = SystemParams(-delta if negative else delta)
    t_span = None
    if span is not None:
        t0, t1 = train_window(dynamics._train(pulses))
        t_span = (t0 + span[0] * (t1 - t0), t0 + span[1] * (t1 - t0))
    job = dynamics._propagation(dynamics._train(pulses), sys, t_span, **MAGNUS)
    assert (job.kernel, job.model) == (dynamics._MAGNUS6_REAL, dynamics._real_hamiltonian)
    for steps in (job.steps, 2 * job.steps):
        got = _step_exponentials(dynamics._MAGNUS6_REAL, dynamics._real_hamiltonian, job, steps)
        want = _step_exponentials(dynamics._MAGNUS6, dynamics._generator, job, steps)
        assert _dev(got, want) < 1e-13


@pytest.mark.parametrize("sys,phase,path", [
    (SystemParams(), 0.0, ("_MAGNUS6_SU2", "_route_parts")),
    (SystemParams(gamma=0.5), 2 * np.pi, ("_MAGNUS6", "_gauged")),
    (SystemParams(delta=-40.0), 0.0, ("_MAGNUS6_REAL", "_real_hamiltonian")),
    (SystemParams(delta=3.0), -2 * np.pi, ("_MAGNUS6_REAL", "_real_hamiltonian")),
    (SystemParams(delta=3.0, gamma=0.5), 0.0, ("_MAGNUS6", "_generator")),
    (SystemParams(delta=3.0), 0.3, ("_MAGNUS6", "_generator")),
    (SystemParams(), 0.3, ("_MAGNUS6", "_generator")),
])
@pytest.mark.parametrize("train", [False, True])
def test_path_rule(sys, phase, path, train):
    # Delta = gamma = 0 takes the route, Delta = 0 with gamma > 0 the real
    # gauge, gamma = 0 with Delta != 0 the real kernel on H, and everything
    # else, a phase that is not a whole turn included, the complex generator.
    pair = make_pair(ShapeKind.GAUSSIAN, 12.0, pump_phase=phase)
    pulses = build_train(pair, [0.0, phase, 0.0], [0.0] * 3, True) if train else pair
    job = dynamics._propagation(dynamics._train(pulses), sys, None, **MAGNUS)
    assert (job.kernel, job.model) == tuple(getattr(dynamics, name) for name in path)


def _guard_norm_omega(rng, m, norm):
    """m anti-Hermitian 3x3 matrices of spectral norm `norm`."""
    omega = -1j * _random_stack(rng, m, True)
    return omega * (norm / np.linalg.norm(omega, 2, axis=(1, 2)))[:, None, None]


def _degenerate_omega(rng, s):
    """i diag(1, 1, -2) s, and the same spectrum in a random basis: c0 is
    -c0_max for s > 0 and c0_max for s < 0."""
    v, _ = np.linalg.qr(_random_stack(rng, 1, False)[0])
    d = np.diag([1.0, 1.0, -2.0]) * s
    return np.array([1j * d, 1j * v @ d @ v.conj().T])


def test_closed_form_exponential_matches_scipy():
    # exp(X + iY) of the real kernel, at Omega = 0, at norms near 1e-12, up
    # to the guard's h ||H|| = 3 and beyond it, on degenerate spectra with
    # c0 = +-c0_max, and with c0 of both signs.
    rng = np.random.default_rng(23)
    stacks = [np.zeros((1, 3, 3), dtype=complex)]
    stacks += [_guard_norm_omega(rng, 16, norm) for norm in (3e-13, 1e-12, 3e-12, 1e-6, 0.05,
                                                             0.5, 1.0, 2.0, 3.0, 4.5)]
    stacks += [_degenerate_omega(rng, s) for s in (1e-12, 0.3, 1.0, -1.0, -1.4, 1.4)]
    for omega in stacks:
        x, y = (np.ascontiguousarray(np.moveaxis(part, 0, -1)) for part in (omega.real, omega.imag))
        got = np.moveaxis(dynamics._u3_exp(x, y), -1, 0)
        assert _dev(got, scipy.linalg.expm(omega)) < 1e-14
    q = -1j * stacks[5]
    q -= np.trace(q, axis1=1, axis2=2)[:, None, None] * np.eye(3) / 3.0
    assert {-1.0, 1.0} <= set(np.sign(np.linalg.det(q).real))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["x", "y"])
def test_closed_form_exponential_of_non_finite_input(bad, part):
    # A NaN or inf entry gives a step that is not finite, with no numpy
    # warning (pyproject.toml turns warnings into errors); the other steps
    # of the stack keep their values.
    rng = np.random.default_rng(5)
    omega = _guard_norm_omega(rng, 4, 2.0)
    x, y = (np.ascontiguousarray(np.moveaxis(p, 0, -1)) for p in (omega.real, omega.imag))
    (x if part == "x" else y)[0, 1, 2] = bad
    got = dynamics._u3_exp(x, y)
    assert not np.isfinite(got[..., 2]).all()
    keep = [0, 1, 3]
    assert _dev(np.moveaxis(got[..., keep], -1, 0), scipy.linalg.expm(omega[keep])) < 1e-14


def _written_hamiltonian(pulses, sys, t):
    """H as the paper writes it, from train_envelopes: Wp/2 and Ws/2 above
    the diagonal, their conjugates below it, Delta - i gamma/2 on state 2."""
    wp, ws = train_envelopes(dynamics._train(pulses), t)
    h = np.zeros(np.shape(wp) + (3, 3), dtype=complex)
    h[..., 0, 1], h[..., 1, 0] = wp / 2, np.conj(wp) / 2
    h[..., 1, 2], h[..., 2, 1] = ws / 2, np.conj(ws) / 2
    h[..., 1, 1] = sys.delta - 0.5j * sys.gamma
    return h


@settings(max_examples=40, deadline=None, derandomize=True)
@given(shapes, omegas, delays, st.booleans(), st.booleans(),
       st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6),
       st.lists(_turns, min_size=6, max_size=6), st.floats(-100.0, 100.0), st.floats(0.0, 2.0),
       st.booleans(), st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12))
def test_three_state_models_are_written_from_the_envelopes(kind, omega0, delay, three, real,
                                                           any_phases, turns, delta, gamma,
                                                           stacked, where):
    # hamiltonian is i times _generator, bit for bit the matrix written from
    # the envelopes; at Delta = 0 with whole-turn phases _gauged is its
    # real gauge Re(D* (-iH) D), D = diag(1, -i, 1), in float64.
    phases = turns if real else any_phases
    pair = make_pair(kind, omega0, 1.0, delay, pump_phase=phases[0], stokes_phase=phases[1])
    pulses = build_train(pair, phases[:3], phases[3:], True) if three else pair
    t0, t1 = train_window(dynamics._train(pulses))
    t = t0 + (t1 - t0) * (np.reshape(where, (3, 4)) if stacked else where[0])
    sys = SystemParams(0.0 if real else delta, gamma)
    h, row = _written_hamiltonian(pulses, sys, t), dynamics._row(pulses, sys)
    assert np.array_equal(hamiltonian(pulses, sys, t), h)
    assert np.array_equal(dynamics._generator(t, row), -1j * h)
    if real:
        d = np.diag([1.0, -1j, 1.0])
        got = dynamics._gauged(t, row)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.array_equal(got, (d.conj() @ (-1j * h) @ d).real)


def test_gauged_generator_is_real_and_conjugated_by_d():
    # K = D* (-iH) D with D = diag(1, -i, 1), in float64, at Delta = 0.
    train = build_train(make_pair(ShapeKind.GAUSSIAN, 12.0, 1.0, 0.4), [0.0, 2 * np.pi, 0.0],
                        [0.0] * 3, True)
    row = dynamics._row(train, SystemParams(0.0, 0.7))
    t = np.linspace(-1.0, 5.0, 24).reshape(3, 8)
    got = dynamics._gauged(t, row)
    d = np.diag([1.0, -1j, 1.0])
    want = d.conj() @ (-1j * dynamics.hamiltonian(train, SystemParams(0.0, 0.7), t)) @ d
    assert got.dtype == np.float64 and got.shape == (3, 8, 3, 3)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("case,gauged", [
    (dict(sys=SystemParams(gamma=1e-3)), True),
    (dict(sys=SystemParams(gamma=1e-3), t_span=(0.0, 1.3)), True),
    (dict(sys=SystemParams(gamma=1e-3), train=True), True),
    (dict(sys=SystemParams(delta=1e-3, gamma=1e-3)), False),
    (dict(sys=SystemParams(gamma=1e-3), pump_phase=0.1), False),
    (dict(sys=SystemParams(gamma=1e-3), stokes_phase=0.1), False),
    (dict(sys=SystemParams(delta=1e-3)), False),
    (dict(sys=SystemParams()), False),
])
def test_real_gauge_condition(monkeypatch, case, gauged):
    # Delta = 0 with real envelopes means real arithmetic: the real gauge at
    # gamma > 0, float64 block products; everything off resonance or with
    # a phase that is not a whole turn keeps complex products, and gamma = 0
    # takes the route, which evaluates no 3x3 generator.
    calls, dtypes = [], set()
    real = dynamics._gauged
    monkeypatch.setattr(dynamics, "_gauged", lambda *a: calls.append(1) or real(*a))
    chunk_products = dynamics._chunk_products

    def recorded(kernel, model, batch):
        products = chunk_products(kernel, model, batch)
        dtypes.update(p.dtype for p in products if kernel[0] is not dynamics._magnus6_su2)
        return products

    monkeypatch.setattr(dynamics, "_chunk_products", recorded)
    pair = make_pair(ShapeKind.SINE_SQUARED, 12.0, pump_phase=case.get("pump_phase", 0.0),
                     stokes_phase=case.get("stokes_phase", 0.0))
    pulses = build_train(pair, [0.0] * 3, [2 * np.pi] * 3, True) if case.get("train") else pair
    propagate(pulses, case["sys"], t_span=case.get("t_span"))
    assert bool(calls) == gauged
    routed = case["sys"] == SystemParams()
    assert dtypes == (set() if routed else {np.dtype(float if gauged else complex)})


@settings(max_examples=12, deadline=None, derandomize=True)
@given(shapes, st.sampled_from([5.0, 23.0, 60.0]), delays, st.floats(-100.0, 100.0),
       st.floats(0.0, 2.0))
def test_half_window_matches_full_window(kind, omega0, delay, delta, gamma):
    # A mirrored pair on the 3x3 path is integrated over [t_i, mid] only,
    # as S U_h^T S U_h; the full window, forced by an explicit t_span,
    # integrates both halves.
    pair = make_pair(kind, omega0, 1.0, delay)
    sys, tol = SystemParams(delta, gamma), dict(rtol=1e-10, atol=1e-12)
    full = propagate(pair, sys, train_window(PulseTrain((pair,))), **tol)
    assert _dev(propagate(pair, sys, **tol), full) < 10 * tol["rtol"]


@pytest.mark.parametrize("kind", list(ShapeKind))
@pytest.mark.parametrize("gamma", [0.0, 0.8])
def test_half_window_matches_oracle(kind, gamma):
    pair = make_pair(kind, 23.0, 1.0, 0.7)
    sys = SystemParams(delta=7.0, gamma=gamma)
    got = propagate(pair, sys, **MAGNUS)
    assert _dev(got, rk45_oracle.propagate(pair, sys)) < AGREE
    if gamma == 0.0:
        assert _unitarity(got) < 1e-12


def _other_pulse(pair, **change):
    return replace(pair, pump=replace(pair.pump, **change))


@pytest.mark.parametrize("kind", list(ShapeKind))
@pytest.mark.parametrize("case,half", [
    ("pair", True),
    ("one_pair_train", True),
    ("reversed", True),
    ("unequal_peaks", False),
    ("unequal_widths", False),
    ("three_pair_train", False),
    ("phase", False),
    ("t_span", False),
])
def test_half_window_condition(monkeypatch, kind, case, half):
    # Only one pair whose pulses differ in position alone, with real
    # envelopes and no t_span, takes the half window on the 3x3 path, to
    # half of rtol + atol.
    spans = []
    plan = dynamics._plan
    monkeypatch.setattr(dynamics, "_plan", lambda kernel, model, train, row, t_span, *a, **kw:
                        spans.append((t_span, kw.get("margin", 1.0)))
                        or plan(kernel, model, train, row, t_span, *a, **kw))
    pair = make_pair(kind, 12.0, reversed=case == "reversed",
                     pump_phase=0.3 if case == "phase" else 0.0)
    pulses = {"one_pair_train": PulseTrain((pair,)),
              "unequal_peaks": _other_pulse(pair, peak=13.0),
              "unequal_widths": _other_pulse(pair, width=1.1),
              "three_pair_train": build_train(pair, [0.0] * 3, [0.0] * 3, False),
              }.get(case, pair)
    t_span = window(pair) if case == "t_span" else None
    propagate(pulses, SystemParams(delta=5.0), t_span, **MAGNUS)
    t_i, t_f = window(pair)
    assert spans == [((t_i, 0.5 * (t_i + t_f)), 2.0) if half else (t_span, 1.0)]


@pytest.mark.parametrize("kind", list(ShapeKind))
@pytest.mark.parametrize("case,half", [
    ("pair", True),
    ("one_pair_train", True),
    ("reversed", True),
    ("unequal_peaks", False),
    ("three_pair_train", False),
    ("phase", False),
    ("t_span", False),
])
def test_route_half_window_condition(monkeypatch, kind, case, half):
    # At resonance the same rule picks the half window on the route, to a
    # quarter of rtol + atol; the route's full window takes half of it, and
    # a phase that is not a whole turn leaves the route for the 3x3 path.
    plans = []
    plan = dynamics._plan
    monkeypatch.setattr(dynamics, "_plan", lambda kernel, model, train, row, t_span, *a, **kw:
                        plans.append((kernel, t_span, kw["margin"]))
                        or plan(kernel, model, train, row, t_span, *a, **kw))
    pair = make_pair(kind, 12.0, reversed=case == "reversed",
                     pump_phase=0.3 if case == "phase" else 0.0)
    pulses = {"one_pair_train": PulseTrain((pair,)),
              "unequal_peaks": _other_pulse(pair, peak=13.0),
              "three_pair_train": build_train(pair, [0.0] * 3, [2 * np.pi] * 3, True),
              }.get(case, pair)
    t_span = window(pair) if case == "t_span" else None
    propagate(pulses, SystemParams(), t_span, **MAGNUS)
    t_i, t_f = window(pair)
    if case == "phase":
        assert plans == [(dynamics._MAGNUS6, None, 1.0)]
    else:
        want = ((t_i, 0.5 * (t_i + t_f)), 4.0) if half else (t_span, 2.0)
        assert plans == [(dynamics._MAGNUS6_SU2, *want)]


@pytest.mark.parametrize("kind", list(ShapeKind))
def test_route_mirror_reflects_the_two_state_hamiltonian(kind):
    # S = (sigma_x - sigma_z)/sqrt(2), held as sqrt(2) S, maps sigma_x to
    # -sigma_z and sigma_z to -sigma_x: for a mirrored pair S H(t) S is
    # H(t_i + t_f - t), which gives U = S U_h^T S U_h on the route.
    pair = make_pair(kind, 12.0, 1.0, 0.7)
    t_i, t_f = window(pair)
    t = np.linspace(t_i, t_f, 9)
    h = resonant_two_state_hamiltonian(pair, t)
    mirrored = 0.5 * (dynamics._SXZ @ h @ dynamics._SXZ)
    np.testing.assert_allclose(mirrored, resonant_two_state_hamiltonian(pair, t_i + t_f - t),
                               rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("kind,omega0,delay", [
    (ShapeKind.SINE_SQUARED, 0.25, 1.5), (ShapeKind.SINE_SQUARED, 3.0, None),
    (ShapeKind.SINE_SQUARED, 10.0, None), (ShapeKind.SINE_SQUARED, 23.0, 0.5),
    (ShapeKind.SINE_SQUARED, 60.0, 1.5), (ShapeKind.GAUSSIAN, 0.25, 0.5),
    (ShapeKind.GAUSSIAN, 3.0, 0.5), (ShapeKind.GAUSSIAN, 10.0, None),
    (ShapeKind.GAUSSIAN, 23.0, 1.5), (ShapeKind.GAUSSIAN, 60.0, 1.5),
])
def test_routed_windows_match_oracle(kind, omega0, delay):
    # Routed pairs on the half window, Gaussians with coarse tails, stay
    # within rtol + atol of the oracle at the shipped rtol and at 1e-6, at
    # the default delay (None) and at 0.5 and 1.5 widths, where sin^2
    # pulses leave an idle stretch between them. Integrated over the whole
    # window, sin^2 at Omega0 = 10 and rtol 1e-8 was 1.04 times rtol + atol off.
    pair = make_pair(kind, omega0, 1.0, delay)
    ref = rk45_oracle.propagate(pair, SystemParams())
    for rtol in (1e-8, 1e-6):
        tol = dict(rtol=rtol, atol=rtol / 100.0)
        assert _dev(propagate(pair, SystemParams(), **tol), ref) <= rtol + tol["atol"], rtol


def _first_pass(train, t_span=None):
    """The breakpoints and first step counts of the route's job for train."""
    job = dynamics._plan(dynamics._MAGNUS6_SU2, dynamics._route_parts, train,
                         dynamics._row(train, SystemParams()), t_span, **MAGNUS)
    return job.breaks, job.steps


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.floats(0.5, 80.0), st.floats(0.1, 1.6), st.floats(0.5, 2.0), st.booleans(),
       st.one_of(st.none(), st.tuples(st.floats(-0.2, 0.45), st.floats(0.55, 1.2))))
def test_sin2_breakpoints_and_first_passes_unchanged(omega0, delay, width, three, span):
    # sin^2 steps end at every start and end of a hump, and every segment
    # starts at steps of at most half a width, wherever the envelopes are.
    pair = make_pair(ShapeKind.SINE_SQUARED, omega0, width, delay)
    train = build_train(pair, [0.0] * 3, [0.0] * 3, True, gap=0.3) if three else PulseTrain((pair,))
    t0, t1 = train_window(train)
    t_span = (t0, t1) if span is None else (t0 + span[0] * (t1 - t0), t0 + span[1] * (t1 - t0))
    ends = {x for p in train.pairs for s in (p.pump, p.stokes)
            for x in (s.center_or_start, s.center_or_start + s.width)}
    breaks, steps = _first_pass(train, t_span)
    np.testing.assert_array_equal(breaks, sorted({*t_span, *(x for x in ends
                                                             if t_span[0] < x < t_span[1])}))
    np.testing.assert_array_equal(steps, np.ceil(np.diff(breaks) / (0.5 * width)))


@pytest.mark.parametrize("delay", [0.3, 1.0, 2.5, 6.0])
def test_gaussian_tails_start_coarser_than_the_core(delay):
    # Steps end at each Gaussian's center -/+ _CORE widths. A segment that
    # holds a center starts at half-width steps; the tails beyond every
    # core start with fewer, at least one.
    pair = make_pair(ShapeKind.GAUSSIAN, 30.0, 1.0, delay)
    centers = [pair.stokes.center_or_start, pair.pump.center_or_start]
    core = [c + k * dynamics._CORE for c in centers for k in (-1.0, 1.0)]
    breaks, steps = _first_pass(PulseTrain((pair,)))
    assert set(core) <= set(breaks)
    lo, hi = breaks[:-1], breaks[1:]
    peak = np.any([(lo <= c) & (c <= hi) for c in centers], axis=0)
    tail = (hi <= min(core)) | (lo >= max(core))
    assert tail.sum() == 2 and peak.any()
    np.testing.assert_array_equal(steps[peak], np.ceil((hi - lo)[peak] / 0.5))
    assert np.all(steps[tail] < np.ceil((hi - lo)[tail] / 0.5)) and np.all(steps >= 1)


@pytest.mark.parametrize("route", ["two_state", "three_state", "detuned"])
@pytest.mark.parametrize("case", ["unmeetable", "stalled", "over_limit"])
def test_integration_error_carries_steps_and_estimate(monkeypatch, case, route):
    # Each failure on the resonant route, on the guarded 3x3 kernel at
    # resonance (called directly: propagate takes the route there) and off
    # resonance, with the stepping passes it may take: none before the step
    # limit, two for an unmeetable tolerance and at most six for a stall.
    # Pulses 1e-7 wide, 1.0 apart, need 2e7 steps from the start; there the
    # guard falls back, and the message names the fourth order.
    passes = _record_passes(monkeypatch)
    shape = dict(width=1e-7, delay=1.0) if case == "over_limit" else {}
    pair = make_pair(ShapeKind.SINE_SQUARED, 30.0, **shape)
    sys = SystemParams(delta=1.0 if route == "detuned" else 0.0)
    tol = {"unmeetable": 1e-300, "stalled": 1e-16, "over_limit": 1e-10}[case]
    with pytest.raises(IntegrationError) as info:
        if route == "three_state":
            dynamics._integrate(dynamics._MAGNUS6, dynamics._generator, pair,
                                dynamics._row(pair, sys), None, tol, tol,
                                bound=30.0)
        else:
            propagate(pair, sys, rtol=tol, atol=tol)
    err = info.value
    order = 4 if case == "over_limit" and route != "two_state" else 6
    assert str(err).startswith(f"Magnus stepping of order {order} "), str(err)
    if case == "over_limit":
        assert err.estimate is None and err.steps > dynamics._MAX_STEPS and not passes
        return
    assert len(passes) == 2 if case == "unmeetable" else len(passes) <= 6, passes
    assert isinstance(err.steps, int) and err.steps <= dynamics._MAX_STEPS
    # The resonant route integrates this mirrored pair's half window to a
    # quarter of rtol + atol, and the detuned pair's to half of it; both
    # estimates pass 2 tol here.
    assert err.estimate > 2 * tol / (2.0 if route == "two_state" else 1.0)
    assert f"missed rtol={tol:g}, atol={tol:g} with {err.steps} steps " \
           f"(error estimate {err.estimate:.3g}" in str(err)
    assert ("stalled" in str(err)) == (case == "stalled")


@pytest.mark.parametrize("count", [1, 2, 3, 8, 13])
def test_ordered_product_matches_loop(count):
    # Ragged runs in one _tree call, each against its own Python loop: a
    # run of one, odd runs whose ends are carried by I, and runs that
    # finish at different levels of the tree.
    runs = [count, 1, 2 * count + 1, count + 2]
    rng = np.random.default_rng(count)
    u = scipy.linalg.expm(-1j * _random_stack(rng, sum(runs), True))
    got = dynamics._tree(np.moveaxis(u, 0, -1), runs)
    assert got.shape == (3, 3, len(runs))
    for k, end in enumerate(np.cumsum(runs)):
        want = u[end - runs[k]]
        for factor in u[end - runs[k] + 1:end]:
            want = factor @ want
        assert _dev(got[..., k], want) < 1e-13
