"""Parameter scans, phase-noise Monte Carlo, decay studies, phase solving.

Each takes one pair propagator per point and composes its sequences from
it on state 1 (_compose). Scans, Monte Carlo and decay scans evaluate their
grid through _evaluate, which hands the whole grid, built point by point as
it is read, to one dynamics.propagate_many call, and composes each request
for all its points in one call (the Monte Carlo, per point and noise block);
the compensation search and the phase solver work point by point.
Every grid point is an independent pure computation, bit for bit the same
alone or in a batch, and the Monte Carlo draws of each grid point come from
one stream of a counter-based generator keyed on (seed, grid index), taken
in sample order: results depend on the inputs alone.
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
        if not phases.is_finite(self.start, self.stop):
            raise ValueError("axis ends must be finite")
        if not phases.is_finite(float(self.stop) - float(self.start)):
            raise ValueError("axis span must be finite")
        if not phases.is_count(self.points, 2):
            raise ValueError("an axis needs an integer count of at least 2 points")
        if not self.start < self.stop:
            raise ValueError("axis needs start < stop")
        if self.spacing not in ("linear", "log"):
            raise ValueError("spacing must be 'linear' or 'log'")
        if self.spacing == "log" and self.start <= 0:
            raise ValueError("log spacing needs start > 0")

    def values(self) -> np.ndarray:
        # As floats: numpy holds an integer beyond int64 as an object.
        ends = float(self.start), float(self.stop)
        if self.spacing == "log":
            return np.geomspace(*ends, self.points)
        return np.linspace(*ends, self.points)


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
        if not (phases.is_finite(self.gap) and self.gap >= 0):
            raise ValueError("inter-pair gap must be a finite number >= 0")


@dataclass(frozen=True)
class FidelityResult:
    """One table row. A failed row (`error` set) holds NaN populations: equal to
    itself (identity first) but to no copy. Compare `coords` and `error`, or reprs."""

    coords: tuple[tuple[str, float], ...]
    p1: float
    p2: float
    p3: float
    infidelity: float
    norm_loss: float
    error: str | None = None


def _compose(u_pair, sys, gap: float, phase_sets, alternate: bool, initial=None) -> np.ndarray:
    """Composite propagators (..., 3, 3), or their action on `initial`, for phase
    sets (..., N, 2) of a pair's propagator and system, or P points' (P, ..., 3, 3) and list."""
    # Fold the inter-pair evolution into all but the last factor; it
    # commutes with the phase imprint and with the reversal. With the fields
    # off, H = diag(0, Delta - i gamma/2, 0): the gap scales state 2's row
    # alone, by each point's own factor. A phase that overflows gives NaN,
    # which fails the point with _NOT_FINITE, so numpy need not warn about it.
    first = u_pair
    if gap > 0:
        first = np.array(u_pair, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            scale = [np.exp(-1j * (s.delta - 0.5j * s.gamma) * gap)
                     for s in ([sys] if isinstance(sys, dynamics.SystemParams) else sys)]
            first[..., 1, :] *= np.reshape(scale, first.shape[:-2] + (1,))
    props = [first] * (np.shape(phase_sets)[-2] - 1) + [u_pair]
    return propalg.compose_sequence(props, phase_sets, alternate, initial)


def _system(spec: ScanSpec, coords) -> dynamics.SystemParams:
    """The system at one grid point: its coords override spec."""
    over = dict(coords)
    return dynamics.SystemParams(over.get("delta", spec.system.delta),
                                 over.get("gamma", spec.system.gamma))


def _point(spec: ScanSpec, coords):
    """The (pair, system, t_span) of dynamics.propagate at one grid point."""
    sys, over = _system(spec, coords), dict(coords)
    return make_pair(spec.shape, over.get("omega0", spec.omega0), spec.width,
                     over.get("delay", spec.delay)), sys, None


def _pair_propagator(spec: ScanSpec, coords) -> tuple[np.ndarray, dynamics.SystemParams]:
    """(U, system) of the single pair at one grid point."""
    pair, sys, t_span = _point(spec, coords)
    return dynamics.propagate(pair, sys, t_span, spec.rtol, spec.atol), sys


_START = np.array([1.0, 0.0, 0.0])   # every study reads only where state 1 ends
_NOT_FINITE = "composed populations are not finite (the gap or the phase noise overflows)"


def _evaluate(spec: ScanSpec, grid, requests) -> list[list[FidelityResult]]:
    """Per grid point, one FidelityResult per request (sets, alternate): the
    populations left from state 1, averaged over phase sets `sets` (k, N, 2),
    composed for every propagated point in one call, or over the stacks that
    sets(i) yields for point i, one call each (the Monte Carlo's noise, so
    memory stays flat). A point whose system or pair is invalid goes to
    dynamics.propagate_many as its ValueError. A failed point, or a request
    whose populations are not finite, gives NaN rows with the reason."""
    def points():
        for coords in grid:
            try:
                yield _point(spec, coords)
            except ValueError as exc:
                yield exc

    props = dynamics.propagate_many(points(), spec.rtol, spec.atol)
    done = [i for i, u in enumerate(props) if not isinstance(u, Exception)]
    systems = [_system(spec, grid[i]) for i in done]
    stack = np.reshape([props[i] for i in done], (-1, 1, 3, 3))
    # Per request, the mean populations of the points in done.
    means = [[_mean(_compose(props[i], s, spec.gap, block, alternate, _START)
                    for block in sets(i)) for i, s in zip(done, systems)] if callable(sets)
             else _mean([_compose(stack, systems, spec.gap, sets, alternate, _START)])
             for sets, alternate in requests]
    means, nan = iter(zip(*means)), float("nan")
    return [[FidelityResult(coords, nan, nan, nan, nan, nan, str(u))] * len(requests)
            if isinstance(u, Exception) else [_row(coords, p) for p in next(means)]
            for coords, u in zip(grid, props)]


def _mean(states) -> np.ndarray:
    """Populations of composed states (..., k, 3) averaged over k, summed stack by stack."""
    sums, counts = zip(*((np.sum(np.abs(v) ** 2, axis=-2), v.shape[-2]) for v in states))
    return sum(sums) / sum(counts)


def _row(coords, populations) -> FidelityResult:
    """The row of mean populations (P1, P2, P3), NaN with the reason unless finite."""
    error = None if np.isfinite(populations).all() else _NOT_FINITE
    p1, p2, p3 = populations if error is None else (float("nan"),) * 3
    return FidelityResult(coords, p1, p2, p3, 1.0 - p3, 1.0 - (p1 + p2 + p3), error)


def _request(seq: phases.CompositeSequence):
    """The request for `seq` alone: one phase set."""
    return np.array([seq.phase_pairs()], dtype=float), seq.alternate_ordering


def grid_coords(axes) -> list[tuple[tuple[str, float], ...]]:
    """Row-major cartesian product of the axes, first axis outermost."""
    names = [ax.name for ax in axes]
    return [tuple(zip(names, combo)) for combo in product(*(ax.values() for ax in axes))]


def run_scan(spec: ScanSpec) -> list[FidelityResult]:
    """One FidelityResult per grid point, in grid order.

    Integration failures are recorded on the affected point (error field,
    NaN populations) and the scan continues.
    """
    return [rows[0] for rows in _evaluate(spec, grid_coords(spec.axes), [_request(spec.sequence)])]


# Monte Carlo samples per compose_sequence call (a point's shipped 1,000 in one),
# and at most _MC_PAIRS phased pairs (120 bytes each), so memory stays flat.
_MC_BLOCK = 4096
_MC_PAIRS = 2 ** 18
# Monte Carlo samples per grid point, at most. The shipped config uses 1,000;
# a million costs about 20 s a point, at a thousandth of one sample's spread.
_MAX_SAMPLES = 1_000_000


def _noise_rng(seed: int, point: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, point, 0, 0]))


def _noisy_phase_blocks(seq: phases.CompositeSequence, sigma: float, samples: int,
                        seed: int, point: int):
    """The phase sets of `seq` with Gaussian noise, in blocks of _MC_BLOCK
    samples or _MC_PAIRS pairs, from the one stream _noise_rng(seed, point):
    sample s takes the next 2N draws, the pump then the Stokes noise."""
    base = np.array(seq.phase_pairs(), dtype=float)
    rng = _noise_rng(seed, point)
    block = min(_MC_BLOCK, max(1, _MC_PAIRS // seq.n_pairs))
    for start in range(0, samples, block):
        k = min(block, samples - start)
        yield base + rng.normal(0.0, sigma, (k, 2, seq.n_pairs)).swapaxes(1, 2)


def monte_carlo_phase_noise(spec: ScanSpec, sigma: float, samples: int,
                            seed: int) -> list[FidelityResult]:
    """Mean populations over Gaussian phase noise on every alpha_k, beta_k."""
    if not (phases.is_finite(sigma) and sigma >= 0):
        raise ValueError("sigma must be a finite number >= 0")
    if not phases.is_count(samples, 1):
        raise ValueError("need an integer count of at least one sample")
    if samples > _MAX_SAMPLES:
        raise ValueError(f"samples may be at most {_MAX_SAMPLES}")
    if not phases.is_count(seed, 0):
        raise ValueError("seed must be an integer >= 0")
    seq = spec.sequence
    rows = _evaluate(spec, grid_coords(spec.axes),
                     [(lambda i: _noisy_phase_blocks(seq, sigma, samples, seed, i),
                       seq.alternate_ordering)])
    return [r[0] for r in rows]


def _decay_rates(gammas) -> np.ndarray:
    """The decay rates of a SweepAxis or an array, checked to be finite and >= 0."""
    if not isinstance(gammas, SweepAxis) and not phases.is_finite(*gammas):
        raise ValueError("decay rates must be finite")
    gammas = gammas.values() if isinstance(gammas, SweepAxis) else np.asarray(gammas, float)
    if not np.all(gammas >= 0):
        raise ValueError("decay rates must be >= 0")
    return gammas


def decay_scan(spec: ScanSpec, gammas) -> dict[str, list[FidelityResult]]:
    """Infidelity versus decay rate for the single pair and the composite.

    Pulse pairs sit back-to-back (spec.gap, default 0). Both curves come
    from the same per-gamma pair propagation.
    """
    gammas = _decay_rates(gammas)
    requests = [_request(phases.resonant_phases(1)), _request(spec.sequence)]
    rows = _evaluate(spec, [(("gamma", float(g)),) for g in gammas], requests)
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
    log-log axes over the reachable rows with gamma > 0. An infidelity
    that is not finite raises ValueError instead of passing for an
    unreachable threshold.
    """
    if not (phases.is_finite(threshold) and threshold > 0):
        raise ValueError("threshold must be a finite number > 0")
    if not phases.is_count(iters, 0):
        raise ValueError("iters must be an integer >= 0")
    if not (phases.is_finite(omega_max) and omega_max > 0):
        raise ValueError("omega_max must be a finite number > 0")
    gammas = _decay_rates(gammas)
    seq = spec.sequence

    def infid(omega0, g):
        u, sys = _pair_propagator(spec, (("omega0", omega0), ("gamma", float(g))))
        v = _compose(u, sys, spec.gap, seq.phase_pairs(), seq.alternate_ordering, _START)
        f = 1.0 - abs(v[2]) ** 2
        if not np.isfinite(f):
            raise ValueError(_NOT_FINITE)
        return f

    rows = []
    for g in gammas:
        lo, hi, omega = 0.0, None, min(5.0, omega_max)
        while lo < omega_max:   # the last probe is omega_max itself
            if infid(omega, g) < threshold:
                hi = omega
                break
            lo, omega = omega, min(omega * 1.3, omega_max)
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

    fitted = [(g, o) for g, o in rows if o is not None and g > 0]
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
    if not phases.is_count(budget, 1):
        raise ValueError("budget must be an integer >= 1")
    if not (phases.is_finite(xatol, simplex_step) and xatol > 0 and simplex_step > 0):
        raise ValueError("xatol and simplex_step must be finite numbers > 0")
    if spec.system.gamma != 0:
        raise ValueError("phase optimization assumes gamma = 0")
    seed = spec.sequence
    n = seed.n_pairs
    u, sys = _pair_propagator(spec, ())

    def infidelity(phase_sets):
        v = _compose(u, sys, spec.gap, phase_sets, seed.alternate_ordering, _START)
        return 1.0 - abs(v[2]) ** 2

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
