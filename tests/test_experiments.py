import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstirap import experiments
from cstirap.dynamics import SystemParams, propagate
from cstirap.experiments import (ScanSpec, SweepAxis,
                                 decay_compensation_check, decay_scan,
                                 grid_coords, monte_carlo_phase_noise, run_scan,
                                 solve_phases)
from cstirap.phases import CompositeSequence, resonant_phases
from cstirap.propalg import compose_sequence
from cstirap.pulses import ShapeKind, build_train, make_pair


def _spec(**kw):
    base = dict(axes=(), shape=ShapeKind.SINE_SQUARED, omega0=30.0,
                rtol=1e-8, atol=1e-10)
    base.update(kw)
    return ScanSpec(**base)


def test_sweep_axis_values():
    lin = SweepAxis("omega0", 1.0, 3.0, 3)
    np.testing.assert_allclose(lin.values(), [1.0, 2.0, 3.0])
    log = SweepAxis("gamma", 0.1, 10.0, 3, "log")
    np.testing.assert_allclose(log.values(), [0.1, 1.0, 10.0])


def test_sweep_axis_validation():
    with pytest.raises(ValueError):
        SweepAxis("area", 0.0, 1.0, 5)
    with pytest.raises(ValueError):
        SweepAxis("omega0", 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        SweepAxis("omega0", 2.0, 1.0, 5)
    with pytest.raises(ValueError):
        SweepAxis("gamma", 0.0, 1.0, 5, "log")
    with pytest.raises(ValueError):
        SweepAxis("gamma", 0.1, 1.0, 5, "cubic")


def test_sweep_axis_count_must_be_an_integer():
    # A float or bool count once passed and failed later, in values().
    for points in (3.0, 2.5, True, "3"):
        with pytest.raises(ValueError, match="integer count"):
            SweepAxis("omega0", 1, 2, points)
    np.testing.assert_array_equal(SweepAxis("omega0", 1, 2, np.int64(3)).values(),
                                  [1.0, 1.5, 2.0])


@pytest.mark.parametrize("start,stop", [(1, 10 ** 400), (-10 ** 400, 1)], ids=["stop", "start"])
def test_sweep_axis_rejects_integer_ends_beyond_float_range(start, stop):
    with pytest.raises(ValueError, match="axis ends must be finite"):
        SweepAxis("omega0", start, stop, 3).values()


def test_sweep_axis_rejects_a_span_beyond_float_range():
    # Both ends are finite, but stop - start is not: linspace gave
    # [nan, inf, 1e308] and warned from numpy.
    with pytest.raises(ValueError, match="axis span must be finite"):
        SweepAxis("delta", -1e308, 1e308, 3)
    assert SweepAxis("delta", -1e307, 1e308, 3).values()[-1] == 1e308


@pytest.mark.parametrize("spacing", ["linear", "log"])
def test_sweep_axis_takes_integer_ends_beyond_int64(spacing):
    # numpy holds such an integer as an object, not as a float.
    np.testing.assert_array_equal(SweepAxis("omega0", 1, 10 ** 300, 3, spacing).values(),
                                  SweepAxis("omega0", 1.0, 1e300, 3, spacing).values())


def test_scan_spec_validation():
    with pytest.raises(ValueError):
        _spec(axes=(SweepAxis("omega0", 1, 2, 2), SweepAxis("omega0", 3, 4, 2)))
    with pytest.raises(ValueError):
        _spec(gap=-0.1)


def test_grid_coords_row_major():
    axes = (SweepAxis("delay", 0.1, 0.2, 2), SweepAxis("omega0", 1.0, 2.0, 2))
    coords = grid_coords(axes)
    assert coords == [
        (("delay", 0.1), ("omega0", 1.0)),
        (("delay", 0.1), ("omega0", 2.0)),
        (("delay", 0.2), ("omega0", 1.0)),
        (("delay", 0.2), ("omega0", 2.0)),
    ]
    assert grid_coords(()) == [()]


def test_run_scan_matches_direct_integration():
    spec = _spec(axes=(SweepAxis("omega0", 10.0, 30.0, 3),),
                 sequence=resonant_phases(3))
    rows = run_scan(spec)
    seq = resonant_phases(3)
    for row in rows:
        omega0 = dict(row.coords)["omega0"]
        u = propagate(make_pair(ShapeKind.SINE_SQUARED, omega0), SystemParams(),
                      rtol=1e-8, atol=1e-10)
        m = compose_sequence([u] * 3, seq.phase_pairs(), seq.alternate_ordering)
        assert row.p3 == pytest.approx(abs(m[2, 0]) ** 2, abs=1e-12)
        assert row.infidelity == pytest.approx(1 - row.p3, abs=1e-15)
        assert row.error is None


def test_run_scan_records_point_failures():
    spec = _spec(axes=(SweepAxis("delay", -0.2, 0.4, 2),))
    rows = run_scan(spec)
    assert rows[0].error is not None and np.isnan(rows[0].p3)
    assert rows[1].error is None and rows[1].p3 > 0.9


def test_solver_seed_matches_scan_with_gap():
    # The solver composes on the scan's path, inter-pair gap included.
    spec = _spec(omega0=20.0, system=SystemParams(delta=3.0), gap=0.7,
                 sequence=resonant_phases(3))
    seed_infidelity = solve_phases(spec, budget=20).seed_infidelity
    assert seed_infidelity == pytest.approx(run_scan(spec)[0].infidelity, abs=1e-12)
    no_gap = solve_phases(_spec(omega0=20.0, system=SystemParams(delta=3.0),
                                sequence=resonant_phases(3)), budget=20)
    assert abs(no_gap.seed_infidelity - seed_infidelity) > 1e-6


def test_sweeping_system_parameters():
    spec = _spec(axes=(SweepAxis("gamma", 0.2, 0.4, 2),))
    rows = run_scan(spec)
    direct = propagate(make_pair(ShapeKind.SINE_SQUARED, 30.0),
                       SystemParams(gamma=0.4), rtol=1e-8, atol=1e-10)
    assert rows[1].p3 == pytest.approx(abs(direct[2, 0]) ** 2, abs=1e-12)
    assert rows[1].norm_loss > 1e-3


def test_gap_folding_matches_train_integration():
    # A composite with idle time between pairs: algebraic composition with
    # the folded free-evolution factor against one long integration.
    sys = SystemParams(delta=0.7, gamma=0.2)
    gap = 0.35
    base = make_pair(ShapeKind.SINE_SQUARED, 30.0)
    seq = resonant_phases(3)
    spec = _spec(axes=(), system=sys, sequence=resonant_phases(3),
                 gap=gap, rtol=1e-10, atol=1e-12)
    row = run_scan(spec)[0]
    train = build_train(base, seq.pump_phases, seq.stokes_phases,
                        seq.alternate_ordering, gap=gap)
    u = propagate(train, sys, rtol=1e-10, atol=1e-12)
    assert row.p3 == pytest.approx(abs(u[2, 0]) ** 2, abs=1e-7)


_angles = st.floats(0.0, 2 * np.pi)


@st.composite
def _trains(draw):
    n = draw(st.sampled_from([1, 3, 5]))
    return (draw(st.sampled_from(list(ShapeKind))),
            draw(st.lists(st.tuples(_angles, _angles), min_size=n, max_size=n)),
            draw(st.booleans()), draw(st.floats(-5.0, 5.0)),
            draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 0.5)))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_trains())
def test_composition_matches_train_integration(case):
    # One pair propagator composed with phases, reversals and folded gaps
    # against integrating the whole train of N phased pairs.
    kind, phase_pairs, alternate, delta, gamma, gap = case
    sys = SystemParams(delta, gamma)
    base = make_pair(kind, 15.0)
    u = propagate(base, sys, rtol=1e-9, atol=1e-11)
    composed = experiments._compose(u, sys, gap, np.array(phase_pairs), alternate)
    pump, stokes = zip(*phase_pairs)
    train = build_train(base, pump, stokes, alternate, gap=gap)
    direct = propagate(train, sys, rtol=1e-9, atol=1e-11)
    assert np.max(np.abs(composed - direct)) < 1e-7


def test_gap_scales_state_two_row():
    # With the fields off H = diag(0, Delta - i gamma/2, 0): the folded gap
    # must equal the explicit diagonal factor on the first N - 1 of N
    # unitary pair propagators.
    rng = np.random.default_rng(7)
    for _ in range(60):
        sys = SystemParams(rng.uniform(-50.0, 50.0), rng.uniform(0.0, 2.0))
        gap = 3.0 * (1.0 - rng.random())
        n, alternate = int(rng.choice([3, 5])), bool(rng.integers(2))
        u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        phase_sets = rng.uniform(0.0, 2 * np.pi, (n, 2))
        free = np.diag([1.0, np.exp(-1j * (sys.delta - 0.5j * sys.gamma) * gap), 1.0])
        want = compose_sequence([free @ u] * (n - 1) + [u], phase_sets, alternate)
        got = experiments._compose(u, sys, gap, phase_sets, alternate)
        assert np.max(np.abs(got - want)) < 1e-14
        plain = compose_sequence([u] * n, phase_sets, alternate)
        at_zero = experiments._compose(u, sys, 0.0, phase_sets, alternate)
        assert at_zero.tobytes() == plain.tobytes()


def test_monte_carlo_zero_noise_reduces_to_scan():
    spec = _spec(axes=(SweepAxis("omega0", 20.0, 24.0, 2),),
                 sequence=resonant_phases(3))
    mc = monte_carlo_phase_noise(spec, sigma=0.0, samples=4, seed=1)
    plain = run_scan(spec)
    for a, b in zip(mc, plain):
        assert a.p3 == pytest.approx(b.p3, abs=1e-12)
        assert a.infidelity == pytest.approx(b.infidelity, abs=1e-12)


def test_monte_carlo_deterministic_and_seeded():
    spec = _spec(sequence=resonant_phases(3))
    a = monte_carlo_phase_noise(spec, 0.01, 25, seed=42)
    b = monte_carlo_phase_noise(spec, 0.01, 25, seed=42)
    c = monte_carlo_phase_noise(spec, 0.01, 25, seed=43)
    assert a == b
    assert a[0].p3 != c[0].p3
    with pytest.raises(ValueError):
        monte_carlo_phase_noise(spec, -0.1, 10, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_phase_noise(spec, 0.1, 0, seed=0)


def test_monte_carlo_blocks_match_per_sample_loop():
    # One sample more than a block, so the last block holds one sample:
    # the block-wise draws and sums must equal one compose_sequence call
    # per sample, drawing the pump then the Stokes noise.
    samples = experiments._MC_BLOCK + 1
    sys = SystemParams(delta=0.4)
    spec = _spec(omega0=21.0, system=sys, sequence=resonant_phases(5))
    row = monte_carlo_phase_noise(spec, 0.05, samples, seed=9)[0]
    seq = resonant_phases(5)
    u = propagate(make_pair(ShapeKind.SINE_SQUARED, 21.0), sys, rtol=1e-8, atol=1e-10)
    acc = np.zeros(3)
    rng = experiments._noise_rng(9, 0)
    for s in range(samples):
        pump = np.array(seq.pump_phases) + rng.normal(0.0, 0.05, 5)
        stokes = np.array(seq.stokes_phases) + rng.normal(0.0, 0.05, 5)
        m = compose_sequence([u] * 5, list(zip(pump, stokes)), seq.alternate_ordering)
        acc += np.abs(m[:, 0]) ** 2
    np.testing.assert_allclose([row.p1, row.p2, row.p3], acc / samples,
                               rtol=0, atol=1e-14)


def _counting_compose(monkeypatch):
    """The initial states of every propalg.compose_sequence call."""
    calls, compose = [], experiments.propalg.compose_sequence

    def counted(*args, **kwargs):
        calls.append(args[3] if len(args) > 3 else kwargs.get("initial"))
        return compose(*args, **kwargs)

    monkeypatch.setattr(experiments.propalg, "compose_sequence", counted)
    return calls


def test_monte_carlo_composes_each_point_once(monkeypatch):
    # The shipped 1,000 samples of a point are one block, composed on state
    # 1 alone: one call per point, never a full matrix.
    calls = _counting_compose(monkeypatch)
    spec = _spec(axes=(SweepAxis("omega0", 20.0, 24.0, 3),), sequence=resonant_phases(3))
    rows = monte_carlo_phase_noise(spec, 0.01, 1000, seed=0)
    assert len(rows) == 3 and len(calls) == 3
    assert all(initial is not None for initial in calls)


def test_decay_scan_composes_twice_per_point(monkeypatch):
    calls = _counting_compose(monkeypatch)
    curves = decay_scan(_spec(sequence=resonant_phases(3)), [0.0, 0.5, 1.0])
    assert len(curves["composite"]) == 3 and len(calls) == 6
    assert all(initial is not None for initial in calls)


def test_monte_carlo_samples_share_no_draw():
    # Zero phases, so the phase sets are the draws themselves. Every
    # sample takes fresh draws from its point's stream, across the block
    # boundary too: no draw may recur in the next sample.
    zero = CompositeSequence(3, (0.0,) * 3, (0.0,) * 3, True)
    blocks = experiments._noisy_phase_blocks(zero, 0.1, experiments._MC_BLOCK + 2,
                                             seed=5, point=1)
    draws = np.concatenate(list(blocks)).reshape(experiments._MC_BLOCK + 2, -1)
    for sample, following in zip(draws, draws[1:]):
        assert not set(sample) & set(following)


def test_monte_carlo_sample_count_must_be_an_integer():
    for samples in (3.0, True, 0, np.int32(0)):
        with pytest.raises(ValueError, match="integer count"):
            monte_carlo_phase_noise(_spec(), 0.01, samples, 0)
    spec = _spec(sequence=resonant_phases(3))
    assert (monte_carlo_phase_noise(spec, 0.01, np.int64(3), 0)
            == monte_carlo_phase_noise(spec, 0.01, 3, 0))


def test_monte_carlo_noise_degrades_transfer():
    spec = _spec(omega0=23.0, sequence=resonant_phases(3),
                 rtol=1e-9, atol=1e-11)
    clean = monte_carlo_phase_noise(spec, 0.0, 1, seed=0)[0]
    noisy = monte_carlo_phase_noise(spec, 0.1, 200, seed=0)[0]
    assert noisy.infidelity > clean.infidelity


def test_decay_scan_frozen_points():
    # Back-to-back pairs at 30/T: by gammaT = 0.5 the composite has lost
    # its advantage on this drive (single 4.07e-2, three pairs 3.63e-2).
    spec = _spec(sequence=resonant_phases(3))
    curves = decay_scan(spec, [0.5, 1.0])
    single, comp = curves["single"], curves["composite"]
    assert single[0].infidelity == pytest.approx(4.07e-2, rel=2e-2)
    assert comp[0].infidelity == pytest.approx(3.63e-2, rel=2e-2)
    assert single[1].infidelity == pytest.approx(4.82e-2, rel=2e-2)
    assert comp[1].infidelity == pytest.approx(6.95e-2, rel=2e-2)
    assert [dict(r.coords)["gamma"] for r in comp] == [0.5, 1.0]


def test_decay_scan_accepts_axis_and_rejects_negative():
    spec = _spec()
    curves = decay_scan(spec, SweepAxis("gamma", 0.1, 0.3, 2))
    assert len(curves["single"]) == 2
    with pytest.raises(ValueError):
        decay_scan(spec, [-0.1, 0.2])


def test_compensation_search_monotone():
    spec = _spec(sequence=resonant_phases(3))
    res = decay_compensation_check(spec, [0.2, 0.6], threshold=2e-2, iters=12)
    (g1, o1), (g2, o2) = res.rows
    assert o1 is not None and o2 is not None
    assert o2 > o1                    # stronger decay needs a stronger drive
    assert res.exponent is not None and res.exponent > 0


def test_compensation_keeps_a_zero_decay_row_out_of_the_fit():
    # log 0 is -inf: a gamma = 0 row is searched and kept, but not fitted.
    spec = _spec(sequence=resonant_phases(3))
    res = decay_compensation_check(spec, [0.0, 0.2, 0.6], threshold=2e-2, iters=12)
    ref = decay_compensation_check(spec, [0.2, 0.6], threshold=2e-2, iters=12)
    assert res.rows[0][0] == 0.0
    assert res.rows[1:] == ref.rows and res.exponent == ref.exponent


def test_compensation_search_starts_at_or_below_omega_max():
    # The ascent once started at 5 whatever omega_max was, so a limit below
    # 5 reported every threshold unreachable. Both searches bracket the
    # same crossing, so they agree within the wider bisection width.
    spec = _spec(sequence=resonant_phases(3))
    low = decay_compensation_check(spec, [0.1], threshold=0.99, omega_max=4.0)
    high = decay_compensation_check(spec, [0.1], threshold=0.99, omega_max=40.0)
    (_, o_low), = low.rows
    (_, o_high), = high.rows
    assert o_low is not None and o_high is not None
    assert abs(o_low - o_high) <= 5.0 / 2 ** 20


def test_compensation_search_probes_omega_max():
    # The ascent probes 5 * 1.3**6 = 24.13, then steps past omega_max = 30
    # (31.37); the crossing at 24.29 lies between, so omega_max itself must
    # be probed. The searches bracket it in [24.13, 30] and [24.13, 31.37].
    spec = _spec(sequence=resonant_phases(3))
    capped = decay_compensation_check(spec, [0.2], threshold=2e-2, omega_max=30.0)
    free = decay_compensation_check(spec, [0.2], threshold=2e-2, omega_max=400.0)
    (_, o_capped), = capped.rows
    (_, o_free), = free.rows
    assert o_capped is not None and o_capped <= 30.0
    assert abs(o_capped - o_free) <= 5 * 1.3 ** 6 * 0.3 / 2 ** 20


@pytest.mark.parametrize("gammas,threshold,omega_max,iters,rows", [
    ([0.2, 0.6], 2e-2, 400.0, 12, ((0.2, 24.294899352661137), (0.6, 40.73598182487794))),
    ([0.2, 0.6], 2e-2, 5.0, 12, ((0.2, None), (0.6, None))),
    ([0.1], 0.99, 5.0, 20, ((0.1, 2.954893112182617),)),
    ([0.1], 0.99, 40.0, 20, ((0.1, 2.954893112182617),)),
    ([0.2], 2e-2, 31.4, 12, ((0.2, 24.294899352661137),)),   # brackets at 31.37
])
def test_compensation_search_from_five_is_unchanged(gammas, threshold, omega_max, iters, rows):
    # With omega_max >= 5 the ascent still starts at 5: these are the rows
    # the search gave when it started there for any omega_max.
    spec = _spec(sequence=resonant_phases(3))
    res = decay_compensation_check(spec, gammas, threshold=threshold,
                                   omega_max=omega_max, iters=iters)
    assert len(res.rows) == len(rows)
    for (g, o), (g_want, o_want) in zip(res.rows, rows):
        assert g == g_want
        assert o == (None if o_want is None else pytest.approx(o_want, rel=1e-12))


def test_compensation_rejects_negative_decay():
    with pytest.raises(ValueError, match="decay rates must be >= 0"):
        decay_compensation_check(_spec(), [0.2, -0.1], threshold=2e-2)


@pytest.mark.parametrize("iters", [2.5, -1, True])
def test_compensation_iters_must_be_a_count(iters):
    # iters=2.5 once raised TypeError from range.
    with pytest.raises(ValueError, match="iters must be an integer >= 0"):
        decay_compensation_check(_spec(), [0.2], threshold=2e-2, iters=iters)


@pytest.mark.parametrize("omega_max", [float("nan"), float("inf"), -1.0, 0.0])
def test_compensation_omega_max_must_be_positive_and_finite(omega_max):
    # NaN and -1.0 once returned rows of None, as if no drive reached the
    # threshold.
    with pytest.raises(ValueError, match="omega_max must be a finite number > 0"):
        decay_compensation_check(_spec(), [0.1], threshold=2e-2, omega_max=omega_max)


def test_compensation_overflow_is_an_error():
    # A gap phase that overflows makes every composed infidelity NaN; that
    # must not pass for a threshold no drive reaches.
    spec = _spec(sequence=resonant_phases(3), system=SystemParams(delta=3.0), gap=1e308)
    with pytest.raises(ValueError, match="not finite"):
        decay_compensation_check(spec, [0.1], threshold=0.05)


def test_compensation_unreachable_threshold():
    spec = _spec(sequence=resonant_phases(3))
    res = decay_compensation_check(spec, [0.5], threshold=1e-12, omega_max=20.0,
                                   iters=4)
    assert res.rows == ((0.5, None),)
    assert res.exponent is None
    with pytest.raises(ValueError):
        decay_compensation_check(spec, [0.5], threshold=0.0)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("call", [
    lambda: _spec(gap=_NAN),
    lambda: SweepAxis("omega0", 1.0, _INF, 3),
    lambda: SweepAxis("omega0", _NAN, 1.0, 3),
    lambda: SweepAxis("delta", -_INF, 1.0, 3),
    lambda: decay_compensation_check(_spec(), [0.2], threshold=_NAN),
    lambda: decay_scan(_spec(), [0.2, _NAN]),
    lambda: monte_carlo_phase_noise(_spec(), _NAN, 10, 0),
    lambda: _spec(gap=_INF),
    lambda: _spec(gap=10 ** 400),
    lambda: monte_carlo_phase_noise(_spec(), _INF, 10, 0),
    lambda: decay_compensation_check(_spec(), [0.1], threshold=_INF, iters=3),
    lambda: decay_scan(_spec(), [0.1, _INF]),
    lambda: decay_compensation_check(_spec(), [0.2, _INF], threshold=2e-2),
], ids=["gap", "axis-max-inf", "axis-min-nan", "axis-min-minus-inf", "threshold",
        "decay-rate", "sigma", "gap-inf", "gap-int-beyond-float", "sigma-inf",
        "threshold-inf", "decay-rate-inf", "compensation-rate-inf"])
def test_range_checks_reject_nan_and_infinity(call):
    # Each check is written so that NaN fails it, as a value out of range.
    with pytest.raises(ValueError):
        call()


def test_compensation_checks_rates_before_propagating(monkeypatch):
    # An infinite rate once failed only after the whole search at gamma = 0.2.
    calls = []
    monkeypatch.setattr(experiments.dynamics, "propagate",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="^decay rates must be finite$"):
        decay_compensation_check(_spec(), [0.2, _INF], threshold=2e-2)
    assert calls == []
