import numpy as np
import pytest

from cstirap import experiments
from cstirap.dynamics import SystemParams, propagate
from cstirap.experiments import (ScanSpec, SequenceSpec, SweepAxis,
                                 decay_compensation_check, decay_scan,
                                 grid_coords, monte_carlo_phase_noise, run_scan)
from cstirap.phases import resonant_phases
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


def test_sequence_spec_resolution():
    assert SequenceSpec().resolve().n_pairs == 1
    assert SequenceSpec("resonant", 5).resolve() == resonant_phases(5)
    exp = SequenceSpec("explicit", 3, (0.0, 1.0, 2.0), (2.0, 1.0, 0.0), False)
    seq = exp.resolve()
    assert seq.pump_phases == (0.0, 1.0, 2.0)
    assert seq.alternate_ordering is False
    with pytest.raises(ValueError):
        SequenceSpec("explicit", 3)
    with pytest.raises(ValueError):
        SequenceSpec("resonant", 4)
    with pytest.raises(ValueError):
        SequenceSpec("fancy", 3)


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
                 sequence=SequenceSpec("resonant", 3))
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
    spec = _spec(axes=(), system=sys, sequence=SequenceSpec("resonant", 3),
                 gap=gap, rtol=1e-10, atol=1e-12)
    row = run_scan(spec)[0]
    train = build_train(base, seq.pump_phases, seq.stokes_phases,
                        seq.alternate_ordering, gap=gap)
    u = propagate(train, sys, rtol=1e-10, atol=1e-12)
    assert row.p3 == pytest.approx(abs(u[2, 0]) ** 2, abs=1e-7)


def test_monte_carlo_zero_noise_reduces_to_scan():
    spec = _spec(axes=(SweepAxis("omega0", 20.0, 24.0, 2),),
                 sequence=SequenceSpec("resonant", 3))
    mc = monte_carlo_phase_noise(spec, sigma=0.0, samples=4, seed=1)
    plain = run_scan(spec)
    for a, b in zip(mc, plain):
        assert a.p3 == pytest.approx(b.p3, abs=1e-12)
        assert a.infidelity == pytest.approx(b.infidelity, abs=1e-12)


def test_monte_carlo_deterministic_and_seeded():
    spec = _spec(sequence=SequenceSpec("resonant", 3))
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
    spec = _spec(omega0=21.0, system=sys, sequence=SequenceSpec("resonant", 5))
    row = monte_carlo_phase_noise(spec, 0.05, samples, seed=9)[0]
    seq = resonant_phases(5)
    u = propagate(make_pair(ShapeKind.SINE_SQUARED, 21.0), sys, rtol=1e-8, atol=1e-10)
    acc = np.zeros(3)
    for s in range(samples):
        rng = experiments._noise_rng(9, s, 0)
        pump = np.array(seq.pump_phases) + rng.normal(0.0, 0.05, 5)
        stokes = np.array(seq.stokes_phases) + rng.normal(0.0, 0.05, 5)
        m = compose_sequence([u] * 5, list(zip(pump, stokes)), seq.alternate_ordering)
        acc += np.abs(m[:, 0]) ** 2
    np.testing.assert_allclose([row.p1, row.p2, row.p3], acc / samples,
                               rtol=0, atol=1e-14)


def test_monte_carlo_noise_degrades_transfer():
    spec = _spec(omega0=23.0, sequence=SequenceSpec("resonant", 3),
                 rtol=1e-9, atol=1e-11)
    clean = monte_carlo_phase_noise(spec, 0.0, 1, seed=0)[0]
    noisy = monte_carlo_phase_noise(spec, 0.1, 200, seed=0)[0]
    assert noisy.infidelity > clean.infidelity


def test_decay_scan_frozen_points():
    # Back-to-back pairs at 30/T: by gammaT = 0.5 the composite has lost
    # its advantage on this drive (single 4.07e-2, three pairs 3.63e-2).
    spec = _spec(sequence=SequenceSpec("resonant", 3))
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
    spec = _spec(sequence=SequenceSpec("resonant", 3))
    res = decay_compensation_check(spec, [0.2, 0.6], threshold=2e-2, iters=12)
    (g1, o1), (g2, o2) = res.rows
    assert o1 is not None and o2 is not None
    assert o2 > o1                    # stronger decay needs a stronger drive
    assert res.exponent is not None and res.exponent > 0


def test_compensation_unreachable_threshold():
    spec = _spec(sequence=SequenceSpec("resonant", 3))
    res = decay_compensation_check(spec, [0.5], threshold=1e-12, omega_max=20.0,
                                   iters=4)
    assert res.rows == ((0.5, None),)
    assert res.exponent is None
    with pytest.raises(ValueError):
        decay_compensation_check(spec, [0.5], threshold=0.0)
