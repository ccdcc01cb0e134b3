"""Composite-sequence phases: analytic formulas and a numeric solver.

The resonant and far-off-resonant phases are exact integer multiples of
pi/N; the integer numerators are computed in exact arithmetic so tables
can be regenerated without floating-point round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, propalg
from .pulses import PulsePair


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
        if self.n_pairs < 1 or self.n_pairs % 2 == 0:
            raise ValueError("the number of pulse pairs must be odd and positive")
        if len(self.pump_phases) != self.n_pairs or len(self.stokes_phases) != self.n_pairs:
            raise ValueError("phase lists must have length N")

    def phase_pairs(self):
        return tuple(zip(self.pump_phases, self.stokes_phases))


def _check_n(n: int):
    if not isinstance(n, int) or n < 1 or n % 2 == 0:
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


@dataclass(frozen=True)
class SolveResult:
    sequence: CompositeSequence
    converged: bool
    infidelity: float
    seed_infidelity: float
    iterations: int


def _sequence_infidelity(u_pair, phase_pairs, alternate: bool) -> float:
    m = propalg.compose_sequence([u_pair] * len(phase_pairs), phase_pairs, alternate)
    return 1.0 - abs(m[2, 0]) ** 2


def solve_phases(n: int, pair: PulsePair, sys: dynamics.SystemParams,
                 seed: CompositeSequence, rtol: float = dynamics.DEFAULT_RTOL,
                 atol: float = dynamics.DEFAULT_ATOL, budget: int = 2000,
                 xatol: float = 1e-6, simplex_step: float = 0.01) -> SolveResult:
    """Minimize the composed infidelity 1 - |U^(N)_31|^2 over the phases.

    Derivative-free simplex search started from `seed`; alpha_1 and beta_1
    stay pinned to the seed values, removing the two exact flat directions
    (common pump shift, common Stokes shift). The returned sequence never
    has higher infidelity than the seed.
    """
    _check_n(n)
    if seed.n_pairs != n:
        raise ValueError("seed sequence must have N pairs")
    if sys.gamma != 0:
        raise ValueError("phase optimization assumes gamma = 0")

    u_pair = dynamics.propagate(pair, sys, rtol=rtol, atol=atol)
    f_seed = _sequence_infidelity(u_pair, seed.phase_pairs(), seed.alternate_ordering)
    if n == 1:
        return SolveResult(seed, True, f_seed, f_seed, 0)

    x0 = np.array(seed.pump_phases[1:] + seed.stokes_phases[1:])

    def unpack(x):
        # (N, 2) phase pairs with the first pair pinned to the seed.
        return np.column_stack([np.r_[seed.pump_phases[0], x[:n - 1]],
                                np.r_[seed.stokes_phases[0], x[n - 1:]]])

    def objective(x):
        return _sequence_infidelity(u_pair, unpack(x), seed.alternate_ordering)

    # Imported here so that the package imports without scipy's cost.
    from scipy.optimize import minimize

    dim = x0.size
    simplex = np.vstack([x0] + [x0 + simplex_step * np.eye(dim)[i] for i in range(dim)])
    res = minimize(objective, x0, method="Nelder-Mead",
                   options=dict(initial_simplex=simplex, xatol=xatol, fatol=1e-14,
                                maxiter=budget, maxfev=2 * budget))
    if res.fun <= f_seed:
        pump, stokes = unpack(res.x).T
        seq = CompositeSequence(n, tuple(pump), tuple(stokes), seed.alternate_ordering)
        return SolveResult(seq, bool(res.success), float(res.fun), f_seed, int(res.nit))
    return SolveResult(seed, False, f_seed, f_seed, int(res.nit))
