import dataclasses
import math

import numpy as np
import pytest

from cstirap.pulses import (GAUSSIAN_CUTOFF, PulsePair, PulseShape, PulseTrain,
                            ShapeKind, build_train, default_delay, duration,
                            envelope, make_pair, train_envelopes, train_table,
                            train_window, translate, window)


def test_sin2_support_and_values():
    s = PulseShape(ShapeKind.SINE_SQUARED, 3.0, 2.0, 1.0)
    assert envelope(s, 2.0) == pytest.approx(3.0)
    assert envelope(s, 1.5) == pytest.approx(1.5)   # sin^2(pi/4) = 1/2
    assert envelope(s, 0.999) == 0.0
    assert envelope(s, 3.001) == 0.0


def test_sin2_array_input():
    s = PulseShape(ShapeKind.SINE_SQUARED, 1.0, 1.0)
    t = np.array([-0.5, 0.25, 0.5, 1.5])
    np.testing.assert_allclose(envelope(s, t), [0.0, 0.5, 1.0, 0.0], atol=1e-15)


def test_gaussian_values():
    s = PulseShape(ShapeKind.GAUSSIAN, 2.0, 1.5, 0.5)
    assert envelope(s, 0.5) == pytest.approx(2.0)
    assert envelope(s, 2.0) == pytest.approx(2.0 * math.exp(-1.0))
    assert envelope(s, -1.0) == pytest.approx(2.0 * math.exp(-1.0))


def test_shape_validation():
    with pytest.raises(ValueError):
        PulseShape(ShapeKind.GAUSSIAN, -1.0, 1.0)
    with pytest.raises(ValueError):
        PulseShape(ShapeKind.SINE_SQUARED, 1.0, 0.0)


def test_pair_validation():
    for delay in (0.0, -0.5):
        with pytest.raises(ValueError, match="delay must be > 0"):
            make_pair(ShapeKind.SINE_SQUARED, 1.0, delay=delay)


_NON_FINITE = pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10 ** 400],
                                      ids=["nan", "inf", "-inf", "int-beyond-float"])


@_NON_FINITE
@pytest.mark.parametrize("field", ["peak", "width", "center_or_start"])
def test_shape_rejects_non_finite_values(field, bad):
    # A NaN peak once failed only in propagation, and an infinite width
    # warned from numpy there before it failed on the step limit.
    values = dict(kind=ShapeKind.SINE_SQUARED, peak=1.0, width=1.0, center_or_start=0.0)
    with pytest.raises(ValueError, match="must be finite"):
        PulseShape(**dict(values, **{field: bad}))


@_NON_FINITE
@pytest.mark.parametrize("field", ["pump_phase", "stokes_phase"])
def test_pair_rejects_non_finite_values(field, bad):
    s = PulseShape(ShapeKind.SINE_SQUARED, 1.0, 1.0)
    values = dict(pump=s, stokes=s, pump_phase=0.0, stokes_phase=0.0)
    with pytest.raises(ValueError, match="must be finite"):
        PulsePair(**dict(values, **{field: bad}))


def test_pair_fields():
    assert [f.name for f in dataclasses.fields(PulsePair)] == [
        "pump", "stokes", "pump_phase", "stokes_phase"]


@pytest.mark.parametrize("kind", list(ShapeKind))
def test_make_pair_rejects_an_infinite_delay(kind):
    with pytest.raises(ValueError, match="delay must be finite"):
        make_pair(kind, 10.0, delay=math.inf)


@_NON_FINITE
def test_make_pair_rejects_a_non_finite_delay(bad):
    # PulsePair carries no delay; make_pair is where a delay is checked.
    with pytest.raises(ValueError, match="delay must be finite"):
        make_pair(ShapeKind.SINE_SQUARED, 10.0, delay=bad)


def test_default_delays():
    assert default_delay(ShapeKind.GAUSSIAN) == 1.0
    assert default_delay(ShapeKind.SINE_SQUARED) == pytest.approx(1.0 / math.pi)
    assert default_delay(ShapeKind.GAUSSIAN, 2.5) == 2.5


def test_make_pair_sin2_geometry():
    p = translate(make_pair(ShapeKind.SINE_SQUARED, 10.0, 1.0, 0.4), 2.0)
    assert p.stokes.center_or_start == 2.0
    assert p.pump.center_or_start == pytest.approx(2.4)
    assert window(p) == (2.0, pytest.approx(3.4))
    assert duration(p) == pytest.approx(1.4)


def test_make_pair_gaussian_geometry():
    p = make_pair(ShapeKind.GAUSSIAN, 10.0, 1.0, 1.0)
    assert p.stokes.center_or_start == pytest.approx(GAUSSIAN_CUTOFF)
    assert p.pump.center_or_start == pytest.approx(GAUSSIAN_CUTOFF + 1.0)
    lo, hi = window(p)
    assert lo == pytest.approx(0.0)
    assert hi == pytest.approx(2 * GAUSSIAN_CUTOFF + 1.0)


@pytest.mark.parametrize("a,b", [(a, b) for a in ShapeKind for b in ShapeKind],
                         ids=lambda k: k.value)
def test_window_reads_pump_and_stokes_alike(a, b):
    # Each shape's own support: [start, start + width] for sin^2 and
    # centre -/+ GAUSSIAN_CUTOFF widths for a Gaussian, whichever field it
    # is. The pump's kind once chose the padding: the sin^2 pump with the
    # Gaussian Stokes got (0.0, 1.3) and lost the Gaussian's left half.
    pump, stokes = PulseShape(a, 10.0, 1.0, 0.3), PulseShape(b, 10.0, 1.5, 0.0)
    supports = [(s.center_or_start - GAUSSIAN_CUTOFF * s.width,
                 s.center_or_start + GAUSSIAN_CUTOFF * s.width)
                if s.kind is ShapeKind.GAUSSIAN else
                (s.center_or_start, s.center_or_start + s.width) for s in (pump, stokes)]
    want = min(lo for lo, _ in supports), max(hi for _, hi in supports)
    assert window(PulsePair(pump, stokes)) == want
    assert window(PulsePair(stokes, pump)) == want


@pytest.mark.parametrize("kind", list(ShapeKind))
def test_reversed_pair_exchanges_the_shapes(kind):
    fwd = make_pair(kind, 7.0, 1.2, 0.4, pump_phase=0.3, stokes_phase=-1.1)
    rev = make_pair(kind, 7.0, 1.2, 0.4, pump_phase=0.3, stokes_phase=-1.1, reversed=True)
    assert rev == PulsePair(fwd.stokes, fwd.pump, 0.3, -1.1)
    assert window(rev) == window(fwd)


def test_reversed_pair_train_table_row():
    # The row of a reversed pair, as written when the pair carried a
    # `reversed` flag and train_table exchanged the shapes.
    rev = make_pair(ShapeKind.SINE_SQUARED, 7.0, 1.2, 0.4, pump_phase=0.3,
                    stokes_phase=-1.1, reversed=True)
    want = np.array([0.0, 7.0, 1.2, 0.0, 0.3, 0.0, 7.0, 1.2, 0.4, -1.1])
    assert train_table(PulseTrain((rev,))).tobytes() == want.tobytes()


def test_counterintuitive_ordering_and_reversal():
    p = make_pair(ShapeKind.SINE_SQUARED, 1.0)
    wp, ws = train_envelopes(PulseTrain((p,)), 0.15)
    assert abs(ws) > abs(wp)    # Stokes leads
    r = make_pair(ShapeKind.SINE_SQUARED, 1.0, reversed=True)
    wp_r, ws_r = train_envelopes(PulseTrain((r,)), 0.15)
    assert abs(wp_r) > abs(ws_r)
    assert wp_r == pytest.approx(ws)
    assert ws_r == pytest.approx(wp)


def test_phases_multiply_fields_not_swap():
    p = make_pair(ShapeKind.SINE_SQUARED, 2.0, pump_phase=0.3, stokes_phase=-1.1,
                  reversed=True)
    base = make_pair(ShapeKind.SINE_SQUARED, 2.0, reversed=True)
    t = 0.7
    wp, ws = train_envelopes(PulseTrain((p,)), t)
    wp0, ws0 = train_envelopes(PulseTrain((base,)), t)
    assert wp == pytest.approx(wp0 * np.exp(0.3j))
    assert ws == pytest.approx(ws0 * np.exp(-1.1j))


def test_translate():
    p = make_pair(ShapeKind.SINE_SQUARED, 1.0)
    q = translate(p, 3.0)
    wp, ws = train_envelopes(PulseTrain((p,)), 0.4)
    wq, sq = train_envelopes(PulseTrain((q,)), 3.4)
    assert wq == pytest.approx(wp)
    assert sq == pytest.approx(ws)


def test_build_train_layout():
    base = make_pair(ShapeKind.SINE_SQUARED, 5.0)
    train = build_train(base, [0.0, 1.0, 2.0], [0.1, 1.1, 2.1], alternate=True,
                        gap=0.5)
    assert len(train.pairs) == 3
    slot = duration(base) + 0.5
    for k, pair in enumerate(train.pairs):
        assert pair.pump_phase == k * 1.0
        assert pair.stokes_phase == pytest.approx(0.1 + k)
        # The second pair's envelopes are exchanged: its pump leads.
        lead, late = (pair.pump, pair.stokes) if k == 1 else (pair.stokes, pair.pump)
        assert lead.center_or_start == pytest.approx(k * slot)
        assert late.center_or_start == pytest.approx(k * slot + base.pump.center_or_start)
    lo, hi = train_window(train)
    assert lo == pytest.approx(0.0)
    assert hi == pytest.approx(2 * slot + duration(base))


def test_build_train_no_alternation():
    base = make_pair(ShapeKind.SINE_SQUARED, 5.0)
    train = build_train(base, [0.0] * 5, [0.0] * 5, alternate=False)
    assert train.pairs == tuple(translate(base, k * duration(base)) for k in range(5))


def test_build_train_length_mismatch():
    base = make_pair(ShapeKind.SINE_SQUARED, 5.0)
    with pytest.raises(ValueError):
        build_train(base, [0.0, 0.0], [0.0], alternate=False)


def test_empty_train_rejected():
    with pytest.raises(ValueError):
        PulseTrain(())


def test_train_envelopes_isolated_pair():
    base = make_pair(ShapeKind.SINE_SQUARED, 4.0)
    train = build_train(base, [0.0, 0.4, 0.8], [0.0, 0.2, 0.6], alternate=True)
    slot = duration(base)
    t = 2 * slot + 0.5
    wp, ws = train_envelopes(train, t)
    wp2, ws2 = train_envelopes(PulseTrain((train.pairs[2],)), t)
    assert wp == pytest.approx(wp2)
    assert ws == pytest.approx(ws2)
