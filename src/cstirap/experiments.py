"""Parameter scans, phase-noise Monte Carlo, decay studies, phase solving.

Each takes one pair propagator per point and composes its sequences from
it (_compose). Scans, Monte Carlo and decay scans evaluate their grid
through _evaluate, which propagates up to _BATCH points per batch
(_pair_propagators, dynamics.propagate_many); the compensation search
and the phase solver propagate one point at a time, a batch of one. Every
grid point is an independent pure computation, bit for bit the same alone
or in a batch, and the Monte Carlo draws of each grid point come from one
stream of a counter-based generator keyed on (seed, grid index), taken in
sample order: results depend on the inputs alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from sys import float_info

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
        # Exact for integers: one beyond float range fails, as NaN does.
        if not (abs(self.start) <= float_info.max and abs(self.stop) <= float_info.max):
            raise ValueError("axis ends must be finite")
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
        if not self.gap >= 0:
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
    # diagonal entries of H vanish when the fields are off). A phase that
    # overflows gives NaN, which fails the point with _NOT_FINITE, so
    # numpy need not warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.exp(-1j * (sys.delta - 0.5j * sys.gamma) * gap)
    return np.diag([1.0, phase, 1.0]).astype(complex)


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


def _pair_propagators(spec: ScanSpec, grid) -> list:
    """Per grid point (coords override spec), (U, system) of its single
    pair, all propagated in one batch, or the ValueError or
    IntegrationError that ends that point."""
    points = []
    for coords in grid:
        over = dict(coords)
        try:
            sys = dynamics.SystemParams(over.get("delta", spec.system.delta),
                                        over.get("gamma", spec.system.gamma))
            points.append((make_pair(spec.shape, over.get("omega0", spec.omega0), spec.width,
                                     over.get("delay", spec.delay)), sys, None))
        except ValueError as exc:
            points.append(exc)
    props = iter(dynamics.propagate_many([p for p in points if not isinstance(p, Exception)],
                                         spec.rtol, spec.atol))
    out = []
    for p in points:
        u = p if isinstance(p, Exception) else next(props)
        out.append(u if isinstance(u, Exception) else (u, p[1]))
    return out


def _pair_propagator(spec: ScanSpec, coords) -> tuple[np.ndarray, dynamics.SystemParams]:
    """(U, system) of the single pair at one grid point, a batch of one."""
    prop, = _pair_propagators(spec, [coords])
    if isinstance(prop, Exception):
        raise prop
    return prop


_NOT_FINITE = "composed populations are not finite (the gap or the phase noise overflows)"


# Grid points propagated per batch: enough to share each pass's fixed cost,
# few enough to keep the memory of a batch flat for any grid size.
_BATCH = 256


def _evaluate(spec: ScanSpec, grid, requests) -> list[list[FidelityResult]]:
    """Per grid point i, the rows of _point_rows for the requests of
    requests(i), with the grid's pairs propagated in batches of _BATCH."""
    rows = []
    for first in range(0, len(grid), _BATCH):
        batch = grid[first:first + _BATCH]
        rows += [_point_rows(spec, coords, prop, requests(first + i))
                 for i, (coords, prop) in enumerate(zip(batch, _pair_propagators(spec, batch)))]
    return rows


def _point_rows(spec: ScanSpec, coords, prop, requests) -> list[FidelityResult]:
    """One FidelityResult per request (blocks, alternate) at one grid point,
    from prop, its (U, system) or the error that ended it. `blocks`
    iterates over phase-set stacks of shape (k, N, 2); the populations are
    averaged over all their phase sets, summed block by block in order. A
    failed propagation gives every request a NaN row that carries the
    reason, and so does a request whose populations are not finite."""
    if isinstance(prop, Exception):
        nan = float("nan")
        return [FidelityResult(coords, nan, nan, nan, nan, nan, str(prop))] * len(requests)
    u, sys = prop
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
    names = [ax.name for ax in axes]
    return [tuple(zip(names, combo)) for combo in product(*(ax.values() for ax in axes))]


def run_scan(spec: ScanSpec) -> list[FidelityResult]:
    """One FidelityResult per grid point, in grid order.

    Integration failures are recorded on the affected point (error field,
    NaN populations) and the scan continues.
    """
    requests = [_request(spec.sequence)]
    return [rows[0] for rows in _evaluate(spec, grid_coords(spec.axes), lambda i: requests)]


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
    if not sigma >= 0:
        raise ValueError("sigma must be >= 0")
    if not phases.is_count(samples, 1):
        raise ValueError("need an integer count of at least one sample")
    seq = spec.sequence
    rows = _evaluate(spec, grid_coords(spec.axes),
                     lambda i: [(_noisy_phase_blocks(seq, sigma, samples, seed, i),
                                 seq.alternate_ordering)])
    return [r[0] for r in rows]


def _decay_rates(gammas) -> np.ndarray:
    """The decay rates of a SweepAxis or an array, checked to be >= 0."""
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
    rows = _evaluate(spec, [(("gamma", float(g)),) for g in gammas], lambda i: requests)
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
    if not threshold > 0:
        raise ValueError("threshold must be > 0")
    if not phases.is_count(iters, 0):
        raise ValueError("iters must be an integer >= 0")
    gammas = _decay_rates(gammas)
    seq = spec.sequence

    def infid(omega0, g):
        u, sys = _pair_propagator(spec, (("omega0", omega0), ("gamma", float(g))))
        m = _compose(u, sys, spec.gap, seq.phase_pairs(), seq.alternate_ordering)
        f = 1.0 - abs(m[2, 0]) ** 2
        if not np.isfinite(f):
            raise ValueError(_NOT_FINITE)
        return f

    rows = []
    for g in gammas:
        lo, hi, omega = 0.0, None, 5.0
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
