"""Pulse envelopes and pump-Stokes pair geometry.

Everything is dimensionless: times in units of the pulse width T, Rabi
frequencies in units of 1/T (hbar = 1). Envelopes are real; complex
character enters only through the per-pair phase factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .phases import is_finite

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
        if not is_finite(self.peak, self.width, self.center_or_start):
            raise ValueError("pulse peak, width and position must be finite")
        if self.peak < 0:
            raise ValueError("peak Rabi frequency must be >= 0")
        if not self.width > 0:
            raise ValueError("pulse width must be > 0")


@dataclass(frozen=True)
class PulsePair:
    """A pump-Stokes pair with per-field phases; its shapes say where it lies."""

    pump: PulseShape
    stokes: PulseShape
    pump_phase: float = 0.0
    stokes_phase: float = 0.0

    def __post_init__(self):
        if not is_finite(self.pump_phase, self.stokes_phase):
            raise ValueError("phases must be finite")


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


def default_delay(kind: ShapeKind, width: float = 1.0) -> float:
    """tau = T for Gaussian pairs and T/pi for sin^2 pairs."""
    return width if kind is ShapeKind.GAUSSIAN else width / math.pi


def make_pair(kind: ShapeKind, peak: float, width: float = 1.0, delay: float | None = None,
              pump_phase: float = 0.0, stokes_phase: float = 0.0,
              reversed: bool = False) -> PulsePair:
    """Build a pair in the standard geometry from t = 0 (`translate` moves it).

    sin^2: Stokes on [0, T], pump on [tau, T + tau].
    Gaussian: Stokes and pump centered at -tau/2 and +tau/2 around the
    midpoint of a [0, 2*cutoff*T + tau] window. reversed=True exchanges the
    two shapes (intuitive ordering); the phases stay with their fields.
    """
    if delay is None:
        delay = default_delay(kind, width)
    if not is_finite(delay):
        raise ValueError("delay must be finite")
    if not delay > 0:
        raise ValueError("delay must be > 0")
    if kind is ShapeKind.SINE_SQUARED:
        stokes = PulseShape(kind, peak, width, 0.0)
        pump = PulseShape(kind, peak, width, delay)
    else:
        mid = GAUSSIAN_CUTOFF * width + delay / 2.0
        stokes = PulseShape(kind, peak, width, mid - delay / 2.0)
        pump = PulseShape(kind, peak, width, mid + delay / 2.0)
    if reversed:
        pump, stokes = stokes, pump
    return PulsePair(pump, stokes, pump_phase, stokes_phase)


def _support(shape: PulseShape) -> tuple[float, float]:
    """[start, start + width] of a sin^2 hump, center -/+ cutoff*width of a Gaussian."""
    if shape.kind is ShapeKind.GAUSSIAN:
        pad = GAUSSIAN_CUTOFF * shape.width
        return shape.center_or_start - pad, shape.center_or_start + pad
    return shape.center_or_start, shape.center_or_start + shape.width


def window(pair: PulsePair) -> tuple[float, float]:
    """Integration window covering both envelopes of the pair."""
    (a, b), (c, d) = _support(pair.pump), _support(pair.stokes)
    return min(a, c), max(b, d)


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
    (+gap); with alternate=True every even pair has its envelopes exchanged."""
    n = len(pump_phases)
    if len(stokes_phases) != n:
        raise ValueError("phase lists must have equal length")
    slot = duration(base) + gap
    pairs = []
    for k in range(n):
        p = translate(base, k * slot)
        if alternate and k % 2 == 1:
            p = replace(p, pump=p.stokes, stokes=p.pump)
        pairs.append(replace(p, pump_phase=pump_phases[k], stokes_phase=stokes_phases[k]))
    return PulseTrain(tuple(pairs))


def train_table(train: PulseTrain) -> np.ndarray:
    """A train's pulse parameters as one row of floats: per pair, the pump
    then the Stokes field, each as (gaussian, peak, width, center_or_start,
    phase)."""
    row = []
    for p in train.pairs:
        for shape, phase in ((p.pump, p.pump_phase), (p.stokes, p.stokes_phase)):
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
