import math

import numpy as np
import pytest

from cstirap.pulses import (GAUSSIAN_CUTOFF, PulsePair, PulseShape, PulseTrain,
                            ShapeKind, build_train, default_delay, duration,
                            envelope, make_pair, train_envelopes, train_window,
                            translate, window)


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
    s = PulseShape(ShapeKind.SINE_SQUARED, 1.0, 1.0)
    with pytest.raises(ValueError):
        PulsePair(s, s, 0.0)


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
@pytest.mark.parametrize("field", ["delay", "pump_phase", "stokes_phase"])
def test_pair_rejects_non_finite_values(field, bad):
    s = PulseShape(ShapeKind.SINE_SQUARED, 1.0, 1.0)
    values = dict(pump=s, stokes=s, delay=0.5, pump_phase=0.0, stokes_phase=0.0)
    with pytest.raises(ValueError, match="must be finite"):
        PulsePair(**dict(values, **{field: bad}))


@pytest.mark.parametrize("kind", list(ShapeKind))
def test_make_pair_rejects_an_infinite_delay(kind):
    with pytest.raises(ValueError, match="must be finite"):
        make_pair(kind, 10.0, delay=math.inf)


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
        assert pair.stokes.center_or_start == pytest.approx(k * slot)
        assert pair.pump_phase == k * 1.0
        assert pair.stokes_phase == pytest.approx(0.1 + k)
        assert pair.reversed is (k == 1)
    lo, hi = train_window(train)
    assert lo == pytest.approx(0.0)
    assert hi == pytest.approx(2 * slot + duration(base))


def test_build_train_no_alternation():
    base = make_pair(ShapeKind.SINE_SQUARED, 5.0)
    train = build_train(base, [0.0] * 5, [0.0] * 5, alternate=False)
    assert all(not p.reversed for p in train.pairs)


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
