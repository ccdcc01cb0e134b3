"""The batched pass ladder: every point of a batch gets the bits that it
gets when it is propagated alone, and a point that fails fails alone."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstirap import dynamics, experiments
from cstirap.dynamics import IntegrationError, SystemParams, propagate, propagate_many
from cstirap.experiments import (ScanSpec, SweepAxis, decay_scan, monte_carlo_phase_noise,
                                 run_scan)
from cstirap.phases import resonant_phases
from cstirap.pulses import ShapeKind, make_pair, window

TOL = dict(rtol=1e-8, atol=1e-10)

# (shape, Omega0, delay, Delta, gamma, explicit t_span)
_points = st.tuples(st.sampled_from(list(ShapeKind)), st.floats(0.5, 60.0), st.floats(0.1, 1.2),
                    st.sampled_from([0.0, -3.0, 40.0]), st.sampled_from([0.0, 0.6]),
                    st.booleans())


def _outcome(u):
    """What a point gives: its bits, or its error's type, text, steps and estimate."""
    if isinstance(u, Exception):
        return type(u), str(u), getattr(u, "steps", None), repr(getattr(u, "estimate", None))
    return u.tobytes()


def _alone(pulses, sys, t_span, **tol):
    try:
        return _outcome(propagate(pulses, sys, t_span, **tol))
    except (ValueError, IntegrationError) as exc:
        return _outcome(exc)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.lists(_points, min_size=1, max_size=6))
def test_batch_gives_each_point_its_bits_alone(draws):
    # Both shapes, on and off resonance, with and without decay, mirrored
    # pairs on the half window and explicit t_spans on the full one, and
    # one point whose guarded first pass passes the (lowered) step limit,
    # so that it takes the fourth-order fallback: the batch runs one ladder
    # per kernel.
    batch = []
    for kind, omega0, delay, delta, gamma, span in draws:
        pair = make_pair(kind, omega0, 1.0, delay)
        batch.append((pair, SystemParams(delta, gamma), window(pair) if span else None))
    fallback = make_pair(ShapeKind.SINE_SQUARED, 10.0)
    batch.insert(len(batch) // 2, (fallback, SystemParams(1e5), window(fallback)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_MAX_STEPS", 1 << 16)
        job = dynamics._propagation(dynamics._train(fallback), SystemParams(1e5),
                                    window(fallback), **TOL)
        assert job.kernel == dynamics._MAGNUS4
        got = [_outcome(u) for u in propagate_many(batch, **TOL)]
        assert got == [_alone(*point, **TOL) for point in batch]


def test_failing_points_fail_alone():
    # Within one ladder, points with an unmeetable tolerance or one at
    # which the estimate stalls keep their IntegrationError, steps and
    # estimate, and their neighbours keep their bits.
    pair = make_pair(ShapeKind.SINE_SQUARED, 30.0)
    cases = [(SystemParams(), 1e-8), (SystemParams(), 1e-300), (SystemParams(), 1e-16),
             (SystemParams(), 1e-10), (SystemParams(2.0, 0.3), 1e-8),
             (SystemParams(2.0, 0.3), 1e-300), (SystemParams(2.0, 0.3), 1e-9)]
    jobs = [dynamics._propagation(dynamics._train(pair), sys, None, tol, tol)
            for sys, tol in cases]
    batched = [_outcome(u) for u in dynamics._ladder(jobs)]
    assert batched == [_outcome(dynamics._ladder([job])[0]) for job in jobs]
    errors = [b for b in batched if isinstance(b, tuple)]
    assert len(errors) == 3 and sum("stalled" in e[1] for e in errors) == 1
    assert all(e[0] is IntegrationError and "missed" in e[1] for e in errors)


def test_points_that_fail_before_or_during_propagation():
    # A reversed t_span (ValueError) and a first pass beyond the step limit
    # fail before propagation, an overflowing generator during it; each
    # gets its own error, and the points between them their own bits.
    pair = make_pair(ShapeKind.GAUSSIAN, 12.0)
    narrow = make_pair(ShapeKind.SINE_SQUARED, 30.0, width=1e-7, delay=1.0)
    t_i, t_f = window(pair)
    batch = [(pair, SystemParams(1.0), None), (pair, SystemParams(1.0), (t_f, t_i)),
             (pair, SystemParams(), None), (narrow, SystemParams(), None),
             (pair, SystemParams(1e300), None), (pair, SystemParams(0.0, 0.4), None)]
    got = [_outcome(u) for u in propagate_many(batch, **TOL)]
    assert got == [_alone(*point, **TOL) for point in batch]
    assert [g[0] if isinstance(g, tuple) else None for g in got] == [
        None, ValueError, None, IntegrationError, IntegrationError, None]


def test_empty_batch():
    assert propagate_many([]) == []
    spec = ScanSpec(axes=(), shape=ShapeKind.SINE_SQUARED, omega0=30.0,
                    sequence=resonant_phases(3))
    assert decay_scan(spec, []) == {"single": [], "composite": []}


def test_no_kernel_call_exceeds_the_slab(monkeypatch):
    # A batch of points of many sizes: every kernel call evaluates whole
    # blocks of _CHUNK steps, _SLAB steps at most, and a call holds steps
    # of several points where their blocks fit.
    sizes = []

    def recorder(step):
        def recorded(generator, start, h, blocks):
            assert sum(blocks) == len(start) <= dynamics._SLAB
            assert all(0 < b <= dynamics._CHUNK for b in blocks)
            sizes.append(len(blocks))
            return step(generator, start, h, blocks)
        return recorded

    # Both sixth-order 3x3 kernels: these detuned pairs with real envelopes
    # take _MAGNUS6_REAL, and the recorded _MAGNUS6 is left for any other.
    for name in ("_MAGNUS6", "_MAGNUS6_REAL"):
        step, order = getattr(dynamics, name)
        monkeypatch.setattr(dynamics, name, (recorder(step), order))
    batch = [(make_pair(kind, omega0), SystemParams(delta), None)
             for kind in ShapeKind for omega0 in (3.0, 40.0) for delta in (2.0, 150.0)]
    got = propagate_many(batch, **TOL)
    assert len(sizes) > 1 and max(sizes) > 1
    monkeypatch.undo()
    assert [u.tobytes() for u in got] == [_alone(*point, **TOL) for point in batch]


def test_grids_split_into_batches_give_the_same_rows(monkeypatch):
    # Grids propagate in batches of _BATCH points; the rows, and the Monte
    # Carlo noise stream of each grid index, do not depend on the split,
    # nor on a point that fails before propagation (a delay <= 0).
    spec = ScanSpec(axes=(SweepAxis("omega0", 5.0, 40.0, 7),), shape=ShapeKind.GAUSSIAN,
                    omega0=30.0, system=SystemParams(2.0), sequence=resonant_phases(3), **TOL)
    delays = replace(spec, axes=(SweepAxis("delay", -0.3, 0.9, 7),))
    runs = (lambda: run_scan(spec),
            lambda: run_scan(delays),
            lambda: monte_carlo_phase_noise(spec, 0.05, 20, 4),
            lambda: decay_scan(spec, [0.0, 0.3, 0.9, 2.0]))
    # As reprs: the NaN rows of the failed points compare unequal to themselves.
    whole = [repr(run()) for run in runs]
    monkeypatch.setattr(dynamics, "_BATCH", 3)
    assert [repr(run()) for run in runs] == whole


def test_points_are_read_one_batch_ahead_of_the_ladder(monkeypatch):
    # propagate_many reads a generator at most _BATCH points ahead of the
    # ladder that takes them, so a grid's pairs are never all alive at once.
    monkeypatch.setattr(dynamics, "_BATCH", 3)
    points = [(make_pair(ShapeKind.GAUSSIAN, omega0), SystemParams(2.0), None)
              for omega0 in (4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0)]
    read, laddered = [0], []
    ladder = dynamics._ladder

    def recorded(jobs):
        laddered.append((read[0], len(jobs)))
        return ladder(jobs)

    def generator():
        for point in points:
            read[0] += 1
            yield point

    monkeypatch.setattr(dynamics, "_ladder", recorded)
    got = propagate_many(generator(), **TOL)
    assert laddered == [(3, 3), (6, 3), (7, 1)]
    monkeypatch.undo()
    assert [u.tobytes() for u in got] == [_alone(*point, **TOL) for point in points]


def test_a_point_given_as_an_exception_comes_back_as_it_is():
    pair = make_pair(ShapeKind.SINE_SQUARED, 30.0)
    exc = ValueError("delay must be > 0")
    got = propagate_many([exc, (pair, SystemParams(), None), exc], **TOL)
    assert got[0] is exc and got[2] is exc
    assert got[1].tobytes() == _alone(pair, SystemParams(), None, **TOL)


@pytest.mark.parametrize("key", ["rtol", "atol"])
@pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -1.0])
def test_bad_tolerance_fails_each_point_with_its_reason(key, value):
    pair = make_pair(ShapeKind.SINE_SQUARED, 10.0)
    tol = dict(TOL, **{key: value})
    [got] = propagate_many([(pair, SystemParams(), None)], **tol)
    assert isinstance(got, ValueError)
    assert str(got) == "rtol and atol must be finite numbers > 0"
    [row] = run_scan(ScanSpec(axes=(), shape=ShapeKind.SINE_SQUARED, omega0=10.0, **tol))
    assert row.error == "rtol and atol must be finite numbers > 0"
    assert np.isnan(row.p3)
