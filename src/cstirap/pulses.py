"""Pulse envelopes and pump-Stokes pair geometry.

Everything is dimensionless: times in units of the pulse width T, Rabi
frequencies in units of 1/T (hbar = 1). Envelopes are real; complex
character enters only through the per-pair phase factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from sys import float_info

import numpy as np

# Gaussian tails below peak*e^-25 are dynamically negligible, so each
# Gaussian is integrated on [center - 5T, center + 5T].
GAUSSIAN_CUTOFF = 5.0


class ShapeKind(Enum):
    GAUSSIAN = "gaussian"
    SINE_SQUARED = "sin2"


@dataclass(frozen=True)
class PulseShape:
    """One envelope: a Gaussian centered at `center_or_start`, or a sin^2
    hump supported on [center_or_start, center_or_start + width]."""

    kind: ShapeKind
    peak: float
    width: float
    center_or_start: float = 0.0

    def __post_init__(self):
        # Exact for integers, where np.isfinite fails on one beyond float range.
        if not all(abs(x) <= float_info.max
                   for x in (self.peak, self.width, self.center_or_start)):
            raise ValueError("pulse peak, width and position must be finite")
        if self.peak < 0:
            raise ValueError("peak Rabi frequency must be >= 0")
        if not self.width > 0:
            raise ValueError("pulse width must be > 0")


@dataclass(frozen=True)
class PulsePair:
    """A pump-Stokes pair with per-field phases.

    With reversed=False the Stokes envelope peaks a delay tau before the
    pump one (counterintuitive STIRAP ordering). reversed=True exchanges
    the two envelopes in time; the phases stay attached to their fields.
    """

    pump: PulseShape
    stokes: PulseShape
    delay: float
    pump_phase: float = 0.0
    stokes_phase: float = 0.0
    reversed: bool = False

    def __post_init__(self):
        if not all(abs(x) <= float_info.max
                   for x in (self.delay, self.pump_phase, self.stokes_phase)):
            raise ValueError("delay and phases must be finite")
        if not self.delay > 0:
            raise ValueError("delay must be > 0")


def envelope(shape: PulseShape, t):
    """Real envelope value(s) at time t (scalar or array)."""
    return _envelope(shape.kind is ShapeKind.GAUSSIAN, shape.peak, shape.width,
                     shape.center_or_start, t)


def _envelope(gaussian, peak, width, start, t):
    """Envelope values at t of pulses given by their parameters, scalars or
    arrays that broadcast with t; `gaussian` is true for a Gaussian pulse."""
    x = (t - start) / width
    if np.all(gaussian):
        return peak * np.exp(-x * x)
    hump = np.where((x >= 0.0) & (x <= 1.0), np.sin(np.pi * np.clip(x, 0.0, 1.0)) ** 2, 0.0)
    return peak * (hump if not np.any(gaussian) else np.where(gaussian, np.exp(-x * x), hump))


def pair_envelopes(pair: PulsePair, t):
    """Complex (pump, Stokes) amplitudes at time t.

    Reversal swaps which envelope each field takes; the phase factors
    e^{i alpha}, e^{i beta} are applied per field, never swapped.
    """
    return train_envelopes(PulseTrain((pair,)), t)


def default_delay(kind: ShapeKind, width: float = 1.0) -> float:
    """tau = T for Gaussian pairs and T/pi for sin^2 pairs."""
    return width if kind is ShapeKind.GAUSSIAN else width / math.pi


def make_pair(kind: ShapeKind, peak: float, width: float = 1.0, delay: float | None = None,
              pump_phase: float = 0.0, stokes_phase: float = 0.0, reversed: bool = False,
              start: float = 0.0) -> PulsePair:
    """Build a pair in the standard geometry.

    sin^2: Stokes on [start, start+T], pump on [start+tau, start+T+tau].
    Gaussian: Stokes and pump centered at -tau/2 and +tau/2 around the
    midpoint of a [start, start + 2*cutoff*T + tau] window.
    """
    if delay is None:
        delay = default_delay(kind, width)
    if kind is ShapeKind.SINE_SQUARED:
        stokes = PulseShape(kind, peak, width, start)
        pump = PulseShape(kind, peak, width, start + delay)
    else:
        mid = start + GAUSSIAN_CUTOFF * width + delay / 2.0
        stokes = PulseShape(kind, peak, width, mid - delay / 2.0)
        pump = PulseShape(kind, peak, width, mid + delay / 2.0)
    return PulsePair(pump, stokes, delay, pump_phase, stokes_phase, reversed)


def window(pair: PulsePair) -> tuple[float, float]:
    """Integration window covering both envelopes of the pair."""
    lo = min(pair.pump.center_or_start, pair.stokes.center_or_start)
    if pair.pump.kind is ShapeKind.GAUSSIAN:
        hi = max(pair.pump.center_or_start, pair.stokes.center_or_start)
        pad = GAUSSIAN_CUTOFF * max(pair.pump.width, pair.stokes.width)
        return lo - pad, hi + pad
    return lo, max(pair.pump.center_or_start + pair.pump.width,
                   pair.stokes.center_or_start + pair.stokes.width)


def duration(pair: PulsePair) -> float:
    t0, t1 = window(pair)
    return t1 - t0


def translate(pair: PulsePair, dt: float) -> PulsePair:
    return replace(
        pair,
        pump=replace(pair.pump, center_or_start=pair.pump.center_or_start + dt),
        stokes=replace(pair.stokes, center_or_start=pair.stokes.center_or_start + dt),
    )


@dataclass(frozen=True)
class PulseTrain:
    """Back-to-back pulse pairs forming one composite sequence in time."""

    pairs: tuple[PulsePair, ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("train needs at least one pair")


def build_train(base: PulsePair, pump_phases, stokes_phases, alternate: bool,
                gap: float = 0.0) -> PulseTrain:
    """Lay out N phased copies of `base`, each shifted by one pair duration
    (+gap); with alternate=True every even pair has its envelopes swapped."""
    n = len(pump_phases)
    if len(stokes_phases) != n:
        raise ValueError("phase lists must have equal length")
    slot = duration(base) + gap
    pairs = []
    for k in range(n):
        p = translate(base, k * slot)
        p = replace(p, pump_phase=pump_phases[k], stokes_phase=stokes_phases[k],
                    reversed=base.reversed ^ (alternate and k % 2 == 1))
        pairs.append(p)
    return PulseTrain(tuple(pairs))


def train_table(train: PulseTrain) -> np.ndarray:
    """A train's pulse parameters as one row of floats: per pair, the pump
    then the Stokes field, each as (gaussian, peak, width, center_or_start,
    phase), with the envelopes of a reversed pair swapped."""
    row = []
    for p in train.pairs:
        pump, stokes = (p.stokes, p.pump) if p.reversed else (p.pump, p.stokes)
        for shape, phase in ((pump, p.pump_phase), (stokes, p.stokes_phase)):
            row += [shape.kind is ShapeKind.GAUSSIAN, shape.peak, shape.width,
                    shape.center_or_start, phase]
    return np.array(row, dtype=float)


def table_envelopes(cols, t):
    """Complex (pump, Stokes) amplitudes at time t of the trains whose
    train_table entries are cols[k], scalars or arrays that broadcast with t."""
    fields = [_envelope(*cols[k:k + 4], t) * np.exp(1j * cols[k + 4])
              for k in range(0, len(cols), 5)]
    ep, es = fields[:2]
    for a, b in zip(fields[2::2], fields[3::2]):
        ep = ep + a
        es = es + b
    return ep, es


def train_envelopes(train: PulseTrain, t):
    """Complex (pump, Stokes) amplitudes of the whole train at time t."""
    return table_envelopes(train_table(train), t)


def train_window(train: PulseTrain) -> tuple[float, float]:
    lows, highs = zip(*(window(p) for p in train.pairs))
    return min(lows), max(highs)
