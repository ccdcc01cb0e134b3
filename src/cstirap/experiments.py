"""Parameter scans, phase-noise Monte Carlo, decay studies, phase solving.

Each takes one pair propagator per point (_pair_propagator) and composes
its sequences from it (_compose). Every grid point is an independent pure
computation, evaluated in grid order, and the Monte Carlo draws of each
grid point come from one stream of a counter-based generator keyed on
(seed, grid index), taken in sample order: results depend on the inputs
alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import dynamics, phases, propalg
from .pulses import ShapeKind, make_pair

AXIS_NAMES = ("omega0", "delay", "gamma", "delta")


@dataclass(frozen=True)
class SweepAxis:
    name: str
    start: float
    stop: float
    points: int
    spacing: str = "linear"

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(f"unknown axis {self.name!r}; choose from {AXIS_NAMES}")
        if self.points < 2:
            raise ValueError("an axis needs at least 2 points")
        if not self.start < self.stop:
            raise ValueError("axis needs start < stop")
        if self.spacing not in ("linear", "log"):
            raise ValueError("spacing must be 'linear' or 'log'")
        if self.spacing == "log" and self.start <= 0:
            raise ValueError("log spacing needs start > 0")

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class ScanSpec:
    axes: tuple[SweepAxis, ...]
    shape: ShapeKind
    omega0: float
    width: float = 1.0
    delay: float | None = None
    system: dynamics.SystemParams = field(default_factory=dynamics.SystemParams)
    sequence: phases.CompositeSequence = phases.resonant_phases(1)   # a single pair
    rtol: float = dynamics.DEFAULT_RTOL
    atol: float = dynamics.DEFAULT_ATOL
    gap: float = 0.0

    def __post_init__(self):
        names = [ax.name for ax in self.axes]
        if len(set(names)) != len(names):
            raise ValueError("swept parameters must be distinct")
        if self.gap < 0:
            raise ValueError("inter-pair gap must be >= 0")


@dataclass(frozen=True)
class FidelityResult:
    coords: tuple[tuple[str, float], ...]
    p1: float
    p2: float
    p3: float
    infidelity: float
    norm_loss: float
    error: str | None = None


def _gap_propagator(sys: dynamics.SystemParams, gap: float) -> np.ndarray:
    # Free evolution between pairs touches only state 2 (the other two
    # diagonal entries of H vanish when the fields are off).
    return np.diag([1.0, np.exp(-1j * (sys.delta - 0.5j * sys.gamma) * gap), 1.0]).astype(complex)


def _compose(u_pair, sys: dynamics.SystemParams, gap: float, phase_sets,
             alternate: bool) -> np.ndarray:
    """Composite propagators, shape (..., 3, 3), for phase sets of shape
    (..., N, 2) that all reuse one pair propagator."""
    n = np.shape(phase_sets)[-2]
    props = [u_pair] * n
    if gap > 0 and n > 1:
        # Fold the inter-pair evolution into all but the last factor; it
        # commutes with the phase imprint and with the reversal.
        g = _gap_propagator(sys, gap)
        props = [g @ u_pair] * (n - 1) + [u_pair]
    return propalg.compose_sequence(props, phase_sets, alternate)


def _pair_propagator(spec: ScanSpec, coords) -> tuple[np.ndarray, dynamics.SystemParams]:
    """The single-pair propagator at one grid point (coords override spec)."""
    over = dict(coords)
    sys = dynamics.SystemParams(over.get("delta", spec.system.delta),
                                over.get("gamma", spec.system.gamma))
    pair = make_pair(spec.shape, over.get("omega0", spec.omega0), spec.width,
                     over.get("delay", spec.delay))
    return dynamics.propagate(pair, sys, rtol=spec.rtol, atol=spec.atol), sys


_NOT_FINITE = "composed populations are not finite (the gap or the phase noise overflows)"


def _evaluate(spec: ScanSpec, coords, requests) -> list[FidelityResult]:
    """One FidelityResult per request (blocks, alternate) at one grid point,
    all from one pair propagation. `blocks` iterates over phase-set stacks
    of shape (k, N, 2); the populations are averaged over all their phase
    sets, summed block by block in order. A failed propagation gives every
    request a NaN row that carries the reason, and so does a request whose
    populations are not finite."""
    try:
        u, sys = _pair_propagator(spec, coords)
    except (dynamics.IntegrationError, ValueError) as exc:
        nan = float("nan")
        return [FidelityResult(coords, nan, nan, nan, nan, nan, str(exc))] * len(requests)
    rows = []
    for blocks, alternate in requests:
        acc, count = np.zeros(3), 0
        for phase_sets in blocks:
            m = _compose(u, sys, spec.gap, phase_sets, alternate)
            acc += np.sum(np.abs(m[:, :, 0]) ** 2, axis=0)
            count += len(phase_sets)
        error = None if np.isfinite(acc).all() else _NOT_FINITE
        p1, p2, p3 = acc / count if error is None else (float("nan"),) * 3
        rows.append(FidelityResult(coords, p1, p2, p3, 1.0 - p3, 1.0 - (p1 + p2 + p3), error))
    return rows


def _request(seq: phases.CompositeSequence):
    """The request for `seq` alone: one block holding one phase set."""
    return [np.array([seq.phase_pairs()], dtype=float)], seq.alternate_ordering


def grid_coords(axes) -> list[tuple[tuple[str, float], ...]]:
    """Row-major cartesian product of the axes, first axis outermost."""
    if not axes:
        return [()]
    values = [ax.values() for ax in axes]
    names = [ax.name for ax in axes]
    return [tuple(zip(names, combo)) for combo in product(*values)]


def run_scan(spec: ScanSpec) -> list[FidelityResult]:
    """One FidelityResult per grid point, in grid order.

    Integration failures are recorded on the affected point (error field,
    NaN populations) and the scan continues.
    """
    request = _request(spec.sequence)
    return [_evaluate(spec, c, [request])[0] for c in grid_coords(spec.axes)]


# Monte Carlo samples composed per compose_sequence call: enough to amortize
# the call, few enough to keep memory flat for any sample count.
_MC_BLOCK = 256


def _noise_rng(seed: int, point: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, point, 0, 0]))


def _noisy_phase_blocks(seq: phases.CompositeSequence, sigma: float, samples: int,
                        seed: int, point: int):
    """The phase sets of `seq` with Gaussian noise, _MC_BLOCK samples at a
    time, from the one stream _noise_rng(seed, point): sample s takes the
    next 2N draws, the pump then the Stokes noise."""
    base = np.array(seq.phase_pairs(), dtype=float)
    rng = _noise_rng(seed, point)
    for start in range(0, samples, _MC_BLOCK):
        k = min(_MC_BLOCK, samples - start)
        yield base + rng.normal(0.0, sigma, (k, 2, seq.n_pairs)).swapaxes(1, 2)


def monte_carlo_phase_noise(spec: ScanSpec, sigma: float, samples: int,
                            seed: int) -> list[FidelityResult]:
    """Mean populations over Gaussian phase noise on every alpha_k, beta_k."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if samples < 1:
        raise ValueError("need at least one sample")
    seq = spec.sequence
    return [_evaluate(spec, coords,
                      [(_noisy_phase_blocks(seq, sigma, samples, seed, i),
                        seq.alternate_ordering)])[0]
            for i, coords in enumerate(grid_coords(spec.axes))]


def decay_scan(spec: ScanSpec, gammas) -> dict[str, list[FidelityResult]]:
    """Infidelity versus decay rate for the single pair and the composite.

    Pulse pairs sit back-to-back (spec.gap, default 0). Both curves come
    from the same per-gamma pair propagation.
    """
    gammas = gammas.values() if isinstance(gammas, SweepAxis) else np.asarray(gammas, float)
    if np.any(gammas < 0):
        raise ValueError("decay rates must be >= 0")
    requests = [_request(phases.resonant_phases(1)), _request(spec.sequence)]
    rows = [_evaluate(spec, (("gamma", float(g)),), requests) for g in gammas]
    return {"single": [r[0] for r in rows], "composite": [r[1] for r in rows]}


@dataclass(frozen=True)
class CompensationResult:
    rows: tuple[tuple[float, float | None], ...]   # (gamma, minimal omega0)
    exponent: float | None                         # slope of log O0_min vs log gamma


def decay_compensation_check(spec: ScanSpec, gammas, threshold: float,
                             omega_max: float = 400.0, iters: int = 20) -> CompensationResult:
    """Minimal peak Rabi frequency reaching `threshold` at each decay rate.

    Coarse geometric ascent brackets the crossing, bisection refines it;
    unreachable thresholds are recorded as None. The exponent is fitted on
    log-log axes over the reachable rows.
    """
    if threshold <= 0:
        raise ValueError("threshold must be > 0")
    gammas = gammas.values() if isinstance(gammas, SweepAxis) else np.asarray(gammas, float)
    seq = spec.sequence

    def infid(omega0, g):
        u, sys = _pair_propagator(spec, (("omega0", omega0), ("gamma", float(g))))
        m = _compose(u, sys, spec.gap, seq.phase_pairs(), seq.alternate_ordering)
        return 1.0 - abs(m[2, 0]) ** 2

    rows = []
    for g in gammas:
        lo, hi = 0.0, None
        omega = 5.0
        while omega <= omega_max:
            if infid(omega, g) < threshold:
                hi = omega
                break
            lo = omega
            omega *= 1.3
        if hi is None:
            rows.append((float(g), None))
            continue
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if infid(mid, g) < threshold:
                hi = mid
            else:
                lo = mid
        rows.append((float(g), hi))

    fitted = [(g, o) for g, o in rows if o is not None]
    exponent = None
    if len(fitted) >= 2:
        lg = np.log([g for g, _ in fitted])
        lo_ = np.log([o for _, o in fitted])
        exponent = float(np.polyfit(lg, lo_, 1)[0])
    return CompensationResult(tuple(rows), exponent)


@dataclass(frozen=True)
class SolveResult:
    sequence: phases.CompositeSequence
    converged: bool
    infidelity: float
    seed_infidelity: float
    iterations: int


def solve_phases(spec: ScanSpec, budget: int = 2000, xatol: float = 1e-6,
                 simplex_step: float = 0.01) -> SolveResult:
    """Minimize the composed infidelity 1 - |U^(N)_31|^2 over the phases,
    at the pair, system, gap and tolerances of `spec` (its axes are unused).

    Derivative-free simplex search started from spec.sequence; alpha_1 and
    beta_1 stay pinned to the seed values, removing the two exact flat
    directions (common pump shift, common Stokes shift). The returned
    sequence never has higher infidelity than the seed. A seed whose
    infidelity is not finite raises ValueError.
    """
    if spec.system.gamma != 0:
        raise ValueError("phase optimization assumes gamma = 0")
    seed = spec.sequence
    n = seed.n_pairs
    u, sys = _pair_propagator(spec, ())

    def infidelity(phase_sets):
        m = _compose(u, sys, spec.gap, phase_sets, seed.alternate_ordering)
        return 1.0 - abs(m[2, 0]) ** 2

    f_seed = infidelity(seed.phase_pairs())
    if not np.isfinite(f_seed):
        raise ValueError(_NOT_FINITE)
    if n == 1:
        return SolveResult(seed, True, f_seed, f_seed, 0)

    x0 = np.array(seed.pump_phases[1:] + seed.stokes_phases[1:])

    def unpack(x):
        # (N, 2) phase pairs with the first pair pinned to the seed.
        return np.column_stack([np.r_[seed.pump_phases[0], x[:n - 1]],
                                np.r_[seed.stokes_phases[0], x[n - 1:]]])

    # Imported here so that the package imports without scipy's cost.
    from scipy.optimize import minimize

    simplex = np.vstack([x0, x0 + simplex_step * np.eye(x0.size)])
    res = minimize(lambda x: infidelity(unpack(x)), x0, method="Nelder-Mead",
                   options=dict(initial_simplex=simplex, xatol=xatol, fatol=1e-14,
                                maxiter=budget, maxfev=2 * budget))
    if res.fun <= f_seed:
        pump, stokes = unpack(res.x).T
        seq = phases.CompositeSequence(n, tuple(pump), tuple(stokes), seed.alternate_ordering)
        return SolveResult(seq, bool(res.success), float(res.fun), f_seed, int(res.nit))
    return SolveResult(seed, False, f_seed, f_seed, int(res.nit))
