"""Parameter scans, phase-noise Monte Carlo, and decay studies.

Every grid point is an independent pure computation, evaluated in grid
order, and the Monte Carlo draws come from a counter-based generator keyed
on (seed, sample, grid index): results depend on the inputs alone.
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
class SequenceSpec:
    """Where the composite phases come from: a single pair, the resonant or
    far-off-resonant analytic formulas, or explicit phase lists."""

    source: str = "single"
    n_pairs: int = 1
    pump_phases: tuple[float, ...] | None = None
    stokes_phases: tuple[float, ...] | None = None
    alternate: bool | None = None

    def __post_init__(self):
        if self.source not in ("single", "resonant", "cap", "explicit"):
            raise ValueError("sequence source must be single|resonant|cap|explicit")
        if self.n_pairs < 1 or self.n_pairs % 2 == 0:
            raise ValueError("N must be odd and positive")
        if self.source == "explicit" and (self.pump_phases is None
                                          or self.stokes_phases is None
                                          or self.alternate is None):
            raise ValueError("explicit sequences need phases and the ordering flag")

    def resolve(self) -> phases.CompositeSequence:
        if self.source == "single":
            return phases.CompositeSequence(1, (0.0,), (0.0,), True)
        if self.source == "resonant":
            return phases.resonant_phases(self.n_pairs)
        if self.source == "cap":
            return phases.cap_phases(self.n_pairs)
        return phases.CompositeSequence(self.n_pairs, tuple(self.pump_phases),
                                        tuple(self.stokes_phases), self.alternate)


@dataclass(frozen=True)
class ScanSpec:
    axes: tuple[SweepAxis, ...]
    shape: ShapeKind
    omega0: float
    width: float = 1.0
    delay: float | None = None
    system: dynamics.SystemParams = field(default_factory=dynamics.SystemParams)
    sequence: SequenceSpec = field(default_factory=SequenceSpec)
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


def _compose_from_pair(u_pair, seq: phases.CompositeSequence,
                       sys: dynamics.SystemParams, gap: float) -> np.ndarray:
    props = [u_pair] * seq.n_pairs
    if gap > 0 and seq.n_pairs > 1:
        # Fold the inter-pair evolution into all but the last factor; it
        # commutes with the phase imprint and with the reversal.
        g = _gap_propagator(sys, gap)
        props = [g @ u_pair] * (seq.n_pairs - 1) + [u_pair]
    return propalg.compose_sequence(props, seq.phase_pairs(), seq.alternate_ordering)


def _pair_propagator(spec: ScanSpec, coords) -> tuple[np.ndarray, dynamics.SystemParams]:
    """The single-pair propagator at one grid point (coords override spec)."""
    over = dict(coords)
    sys = dynamics.SystemParams(over.get("delta", spec.system.delta),
                                over.get("gamma", spec.system.gamma))
    pair = make_pair(spec.shape, over.get("omega0", spec.omega0), spec.width,
                     over.get("delay", spec.delay))
    return dynamics.propagate(pair, sys, rtol=spec.rtol, atol=spec.atol), sys


def _populations(m: np.ndarray) -> tuple[float, float, float]:
    return abs(m[0, 0]) ** 2, abs(m[1, 0]) ** 2, abs(m[2, 0]) ** 2


def _result(coords, m) -> FidelityResult:
    p1, p2, p3 = _populations(m)
    return FidelityResult(coords, p1, p2, p3, 1.0 - p3, 1.0 - (p1 + p2 + p3))


def _failed(coords, exc: Exception) -> FidelityResult:
    nan = float("nan")
    return FidelityResult(coords, nan, nan, nan, nan, nan, error=str(exc))


def _scan_point(spec: ScanSpec, coords) -> FidelityResult:
    try:
        u, sys = _pair_propagator(spec, coords)
    except (dynamics.IntegrationError, ValueError) as exc:
        return _failed(coords, exc)
    return _result(coords, _compose_from_pair(u, spec.sequence.resolve(), sys, spec.gap))


def grid_coords(axes) -> list[tuple[tuple[str, float], ...]]:
    """Row-major cartesian product of the axes, first axis outermost."""
    if not axes:
        return [()]
    values = [ax.values() for ax in axes]
    names = [ax.name for ax in axes]
    return [tuple(zip(names, combo)) for combo in product(*values)]


def run_scan(spec: ScanSpec, threads: int = 1) -> list[FidelityResult]:
    """One FidelityResult per grid point, in grid order.

    Integration failures are recorded on the affected point (error field,
    NaN populations) and the scan continues. `threads` is accepted for
    compatibility and changes neither the output nor the speed: points are
    evaluated one after another, each vectorized over its time steps.
    """
    return [_scan_point(spec, c) for c in grid_coords(spec.axes)]


def _noise_rng(seed: int, sample: int, point: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=[sample, point, 0, 0]))


def _mc_point(spec: ScanSpec, coords, point_index: int, sigma: float,
              samples: int, seed: int) -> FidelityResult:
    try:
        u, sys = _pair_propagator(spec, coords)
    except (dynamics.IntegrationError, ValueError) as exc:
        return _failed(coords, exc)
    seq = spec.sequence.resolve()
    n = seq.n_pairs
    acc = np.zeros(3)
    for s in range(samples):
        if sigma > 0:
            rng = _noise_rng(seed, s, point_index)
            noisy = phases.CompositeSequence(
                n, tuple(np.array(seq.pump_phases) + rng.normal(0.0, sigma, n)),
                tuple(np.array(seq.stokes_phases) + rng.normal(0.0, sigma, n)),
                seq.alternate_ordering)
        else:
            noisy = seq
        m = _compose_from_pair(u, noisy, sys, spec.gap)
        acc += _populations(m)
    p1, p2, p3 = acc / samples
    return FidelityResult(coords, p1, p2, p3, 1.0 - p3, 1.0 - (p1 + p2 + p3))


def monte_carlo_phase_noise(spec: ScanSpec, sigma: float, samples: int, seed: int,
                            threads: int = 1) -> list[FidelityResult]:
    """Mean populations over Gaussian phase noise on every alpha_k, beta_k.

    `threads` changes neither the output nor the speed (see run_scan).
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if samples < 1:
        raise ValueError("need at least one sample")
    return [_mc_point(spec, coords, i, sigma, samples, seed)
            for i, coords in enumerate(grid_coords(spec.axes))]


def decay_scan(spec: ScanSpec, gammas, threads: int = 1) -> dict[str, list[FidelityResult]]:
    """Infidelity versus decay rate for the single pair and the composite.

    Pulse pairs sit back-to-back (spec.gap, default 0). Both curves reuse
    the same per-gamma pair propagator. `threads` changes neither the
    output nor the speed (see run_scan).
    """
    gammas = gammas.values() if isinstance(gammas, SweepAxis) else np.asarray(gammas, float)
    if np.any(gammas < 0):
        raise ValueError("decay rates must be >= 0")
    seq = spec.sequence.resolve()
    single = phases.CompositeSequence(1, (0.0,), (0.0,), True)

    def point(g):
        coords = (("gamma", float(g)),)
        try:
            u, sys = _pair_propagator(spec, coords)
        except (dynamics.IntegrationError, ValueError) as exc:
            bad = _failed(coords, exc)
            return bad, bad
        return (_result(coords, _compose_from_pair(u, single, sys, spec.gap)),
                _result(coords, _compose_from_pair(u, seq, sys, spec.gap)))

    rows = [point(g) for g in gammas]
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
    seq = spec.sequence.resolve()

    def infid(omega0, g):
        u, sys = _pair_propagator(spec, (("omega0", omega0), ("gamma", float(g))))
        m = _compose_from_pair(u, seq, sys, spec.gap)
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
