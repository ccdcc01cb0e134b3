"""Composite-sequence phases: the sequence type and the analytic formulas,
plus the input checks every module shares (is_count, is_finite).

The resonant and far-off-resonant phases are exact integer multiples of
pi/N; the integer numerators are computed in exact arithmetic so tables
can be regenerated without floating-point round-off. The numeric phase
solver, which needs the pair propagator, is experiments.solve_phases.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from sys import float_info


def is_count(n, least: int) -> bool:
    """An integer, numpy's too but not a bool, of at least `least`."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= least


def is_finite(*xs) -> bool:
    """Whether every x is finite. Exact for integers: one beyond float range
    fails, as NaN does (math.isfinite raises OverflowError on it)."""
    return all(abs(x) <= float_info.max for x in xs)


@dataclass(frozen=True)
class CompositeSequence:
    """N pulse pairs with per-pair pump/Stokes phases.

    alternate_ordering=True means every even pair runs backward (pump
    first), the resonant protocol; False keeps all pairs forward.
    """

    n_pairs: int
    pump_phases: tuple[float, ...]
    stokes_phases: tuple[float, ...]
    alternate_ordering: bool

    def __post_init__(self):
        if not is_count(self.n_pairs, 1) or self.n_pairs % 2 == 0:
            raise ValueError("the number of pulse pairs must be odd and positive")
        if len(self.pump_phases) != self.n_pairs or len(self.stokes_phases) != self.n_pairs:
            raise ValueError("phase lists must have length N")
        if not is_finite(*self.pump_phases, *self.stokes_phases):
            raise ValueError("phases must be finite")

    def phase_pairs(self):
        return tuple(zip(self.pump_phases, self.stokes_phases))


def _check_n(n: int):
    if not is_count(n, 1) or n % 2 == 0:
        raise ValueError("N must be a positive odd integer")


def resonant_numerators(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Integer numerators of the resonant phases over pi/N, reduced mod 2N.

    alpha_k = pi*floor(k/2) - (pi/N)*floor((k-1)/2)*(1 + floor((k-1)/2)),
    beta_k = alpha_{N+1-k}.
    """
    _check_n(n)
    alphas = []
    for k in range(1, n + 1):
        m = (k - 1) // 2
        alphas.append((n * (k // 2) - m * (1 + m)) % (2 * n))
    betas = [alphas[n - k] for k in range(1, n + 1)]
    return tuple(alphas), tuple(betas)


def cap_numerators(n: int) -> tuple[int, ...]:
    """Integer numerators of the far-off-resonant pump phases over pi/N.

    alpha_k - beta_k = (N+1-2*floor((k+1)/2)) * floor(k/2) * pi/N with all
    Stokes phases set to zero; the numerators come out even, so the tables
    quote them over 2pi/N.
    """
    _check_n(n)
    return tuple(((n + 1 - 2 * ((k + 1) // 2)) * (k // 2)) % (2 * n)
                 for k in range(1, n + 1))


def resonant_phases(n: int) -> CompositeSequence:
    """Analytic phases for resonant composite STIRAP (alternating order)."""
    na, nb = resonant_numerators(n)
    unit = math.pi / n
    return CompositeSequence(n, tuple(x * unit for x in na), tuple(x * unit for x in nb),
                             alternate_ordering=True)


def cap_phases(n: int) -> CompositeSequence:
    """Analytic phases for far-off-resonant composite STIRAP (all forward)."""
    na = cap_numerators(n)
    unit = math.pi / n
    return CompositeSequence(n, tuple(x * unit for x in na), tuple(0.0 for _ in na),
                             alternate_ordering=False)
