"""Command line front end: JSON experiment configs in, delimited text out.

One config describes one experiment and produces one table. Comparisons
(single versus composite, different N, different detunings) are made
downstream by joining the output tables on the swept columns.

Exit codes: 0 success, 1 bad invocation or config, 2 a numerical failure
occurred (the table is still written, failed points carry NaN rows and an
`# error` comment line each).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, replace

from . import dynamics, experiments, phases
from .pulses import ShapeKind, make_pair

EXPERIMENTS = ("simulate", "scan", "contour", "montecarlo", "decay",
               "phases", "solve-phases")

_SHAPES = {"sin2": ShapeKind.SINE_SQUARED, "gaussian": ShapeKind.GAUSSIAN}

_BASE_KEYS = {"experiment", "sequence", "seed", "out"}
_INTEG_KEYS = _BASE_KEYS | {"pulse", "system", "tolerance", "gap"}
_ALLOWED_KEYS = {
    "simulate": _INTEG_KEYS | {"grid"},
    "scan": _INTEG_KEYS | {"grid"},
    "contour": _INTEG_KEYS | {"grid"},
    "montecarlo": _INTEG_KEYS | {"grid", "noise"},
    "decay": _INTEG_KEYS | {"grid"},
    "solve-phases": _INTEG_KEYS | {"solver"},
    "phases": _BASE_KEYS,
}

_GRID_ARITY = {"simulate": (0,), "scan": (1,), "contour": (2,),
               "montecarlo": (0, 1), "decay": (1,)}

# Swept parameters that are physical only when >= 0. A `delay` axis
# reaching <= 0 is not rejected here: such points fail one by one, with
# NaN rows, an `# error` line each, and exit code 2.
_NONNEGATIVE_AXES = ("omega0", "gamma")


class ConfigError(ValueError):
    """Carries the full list of config violations, not just the first."""

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    scan: experiments.ScanSpec | None   # None for the phases experiment
    sequence: experiments.SequenceSpec
    noise: tuple[float, int] | None     # (sigma, samples)
    solver: tuple[int, float, float]    # (budget, xatol, simplex_step)
    seed: int
    out: str | None
    digest: str


def _is_number(x) -> bool:
    # Exact for integers: one beyond float range fails (math.isfinite would
    # raise OverflowError on it), and so do NaN and the infinities.
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _reject_unknown(section: dict, allowed, path: str, problems: list):
    for key in section:
        if key not in allowed:
            problems.append(f"{path}.{key}: unknown key")


def _parse_pulse(data, problems):
    p = data.get("pulse")
    if p is None:
        problems.append("pulse: required for this experiment")
        return None
    if not isinstance(p, dict):
        problems.append("pulse: must be an object")
        return None
    before = len(problems)
    _reject_unknown(p, {"shape", "omega0", "width", "delay"}, "pulse", problems)
    shape = p.get("shape")
    if not isinstance(shape, str) or shape not in _SHAPES:
        problems.append("pulse.shape: must be 'sin2' or 'gaussian'")
    omega0 = p.get("omega0")
    if not _is_number(omega0) or omega0 <= 0:
        problems.append("pulse.omega0: must be a positive number")
    width = p.get("width", 1.0)
    if not _is_number(width) or width <= 0:
        problems.append("pulse.width: must be a positive number")
    delay = p.get("delay")
    if delay is not None and (not _is_number(delay) or delay <= 0):
        problems.append("pulse.delay: must be null or a positive number")
    if len(problems) > before:
        return None
    return (shape, float(omega0), float(width),
            None if delay is None else float(delay))


def _parse_system(data, problems):
    s = data.get("system", {})
    if not isinstance(s, dict):
        problems.append("system: must be an object")
        return None
    before = len(problems)
    _reject_unknown(s, {"delta", "gamma"}, "system", problems)
    delta = s.get("delta", 0.0)
    gamma = s.get("gamma", 0.0)
    if not _is_number(delta):
        problems.append("system.delta: must be a finite number")
    if not _is_number(gamma) or gamma < 0:
        problems.append("system.gamma: must be a number >= 0")
    if len(problems) > before:
        return None
    return dynamics.SystemParams(float(delta), float(gamma))


def _parse_sequence(data, experiment, problems):
    s = data.get("sequence", {})
    if not isinstance(s, dict):
        problems.append("sequence: must be an object")
        return None
    _reject_unknown(s, {"source", "n", "pump_phases", "stokes_phases", "alternate"},
                    "sequence", problems)
    source = s.get("source", "single")
    if source not in ("single", "resonant", "cap", "explicit"):
        problems.append("sequence.source: must be single|resonant|cap|explicit")
        return None
    n = s.get("n", 1)
    if not _is_int(n) or n < 1 or n % 2 == 0:
        problems.append("sequence.n: must be a positive odd integer")
        return None
    if experiment == "phases" and source not in ("resonant", "cap"):
        problems.append("sequence.source: the phases experiment prints the "
                        "'resonant' or 'cap' tables")
        return None
    if source == "explicit":
        pump, stokes = s.get("pump_phases"), s.get("stokes_phases")
        alternate = s.get("alternate")
        before = len(problems)
        for name, val in (("pump_phases", pump), ("stokes_phases", stokes)):
            if (not isinstance(val, list) or len(val) != n
                    or not all(_is_number(v) for v in val)):
                problems.append(f"sequence.{name}: must be a list of {n} numbers")
        if not isinstance(alternate, bool):
            problems.append("sequence.alternate: must be true or false")
        if len(problems) > before:
            return None
        return experiments.SequenceSpec("explicit", n,
                                        tuple(float(v) for v in pump),
                                        tuple(float(v) for v in stokes), alternate)
    for key in ("pump_phases", "stokes_phases", "alternate"):
        if key in s:
            problems.append(f"sequence.{key}: only meaningful with source 'explicit'")
    if source == "single" and n != 1:
        problems.append("sequence.n: a single pair means n = 1")
    return experiments.SequenceSpec(source, n)


def _parse_grid(data, experiment, problems):
    g = data.get("grid", [])
    if not isinstance(g, list):
        problems.append("grid: must be a list of axis objects")
        return None
    axes = []
    broken = False
    for i, entry in enumerate(g):
        path = f"grid[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{path}: must be an object")
            broken = True
            continue
        _reject_unknown(entry, {"name", "min", "max", "points", "spacing"},
                        path, problems)
        name = entry.get("name")
        lo, hi = entry.get("min"), entry.get("max")
        points = entry.get("points")
        spacing = entry.get("spacing", "linear")
        if (not isinstance(name, str) or not _is_number(lo) or not _is_number(hi)
                or not _is_int(points) or not isinstance(spacing, str)):
            problems.append(f"{path}: needs name (string), min/max (numbers), "
                            "points (integer), optional spacing")
            broken = True
            continue
        try:
            axes.append(experiments.SweepAxis(name, float(lo), float(hi),
                                              points, spacing))
        except ValueError as exc:
            problems.append(f"{path}: {exc}")
            broken = True
            continue
        if name in _NONNEGATIVE_AXES and lo < 0:
            problems.append(f"{path}: {name} axis must stay >= 0 (min is {lo:g})")
            broken = True
    if broken:
        return None
    arity = _GRID_ARITY.get(experiment)
    if arity is not None and len(axes) not in arity:
        want = " or ".join(str(a) for a in arity)
        problems.append(f"grid: {experiment!r} takes {want} swept axes, got {len(axes)}")
        return None
    if experiment == "decay" and axes and axes[0].name != "gamma":
        problems.append("grid: the decay experiment sweeps 'gamma'")
        return None
    if experiment == "contour" and len(axes) == 2 and axes[0].name == axes[1].name:
        problems.append("grid: contour axes must differ")
        return None
    return tuple(axes)


def _parse_noise(data, problems):
    nz = data.get("noise")
    if nz is None:
        problems.append("noise: required for montecarlo")
        return None
    if not isinstance(nz, dict):
        problems.append("noise: must be an object")
        return None
    before = len(problems)
    _reject_unknown(nz, {"sigma", "samples"}, "noise", problems)
    sigma = nz.get("sigma")
    samples = nz.get("samples", 1000)
    if not _is_number(sigma) or sigma < 0:
        problems.append("noise.sigma: must be a number >= 0")
    if not _is_int(samples) or samples < 1:
        problems.append("noise.samples: must be an integer >= 1")
    if len(problems) > before:
        return None
    return (float(sigma), samples)


def _parse_solver(data, problems):
    sv = data.get("solver", {})
    if not isinstance(sv, dict):
        problems.append("solver: must be an object")
        return None
    before = len(problems)
    _reject_unknown(sv, {"budget", "xatol", "simplex_step"}, "solver", problems)
    budget = sv.get("budget", 2000)
    xatol = sv.get("xatol", 1e-6)
    step = sv.get("simplex_step", 0.01)
    if not _is_int(budget) or budget < 1:
        problems.append("solver.budget: must be an integer >= 1")
    if not _is_number(xatol) or xatol <= 0:
        problems.append("solver.xatol: must be > 0")
    if not _is_number(step) or step <= 0:
        problems.append("solver.simplex_step: must be > 0")
    if len(problems) > before:
        return None
    return (budget, float(xatol), float(step))


def _parse_tolerance(data, problems):
    tol = data.get("tolerance", {})
    if not isinstance(tol, dict):
        problems.append("tolerance: must be an object")
        return None
    before = len(problems)
    _reject_unknown(tol, {"rtol", "atol"}, "tolerance", problems)
    rtol = tol.get("rtol", dynamics.DEFAULT_RTOL)
    atol = tol.get("atol", dynamics.DEFAULT_ATOL)
    for name, val in (("rtol", rtol), ("atol", atol)):
        if not _is_number(val) or val <= 0:
            problems.append(f"tolerance.{name}: must be > 0")
    if len(problems) > before:
        return None
    return (float(rtol), float(atol))


def parse_config(data, experiment: str, seed: int | None = None) -> RunConfig:
    """Validate a config mapping for `experiment` and resolve all defaults.

    Raises ConfigError listing every violation found, with key paths. A
    `seed` given here (the command line flag) overrides the config value
    and participates in the config hash.
    """
    if not isinstance(data, dict):
        raise ConfigError(("top level: must be a JSON object",))
    if experiment not in EXPERIMENTS:
        raise ConfigError((f"experiment: unknown kind {experiment!r}",))
    problems: list[str] = []

    declared = data.get("experiment")
    if declared is not None and declared != experiment:
        problems.append(f"experiment: config says {declared!r} but the "
                        f"{experiment!r} subcommand was invoked")
    for key in data:
        if key not in _ALLOWED_KEYS[experiment]:
            problems.append(f"{key}: not a valid key for {experiment!r}")

    seq = _parse_sequence(data, experiment, problems)

    pulse = sysp = tolerance = None
    gap = 0.0
    if experiment != "phases":
        pulse = _parse_pulse(data, problems)
        sysp = _parse_system(data, problems)
        tolerance = _parse_tolerance(data, problems)
        gap = data.get("gap", 0.0)
        if not _is_number(gap) or gap < 0:
            problems.append("gap: must be a number >= 0")
            gap = 0.0
        if experiment == "solve-phases" and sysp is not None and sysp.gamma != 0:
            problems.append("system.gamma: phase optimization assumes gamma = 0")

    axes = ()
    if "grid" in _ALLOWED_KEYS[experiment]:
        axes = _parse_grid(data, experiment, problems)

    noise = _parse_noise(data, problems) if experiment == "montecarlo" else None
    solver = _parse_solver(data, problems) if experiment == "solve-phases" else None
    if solver is None:
        solver = (2000, 1e-6, 0.01)

    if seed is None:
        seed = data.get("seed", 0)
    if not _is_int(seed) or not 0 <= seed < 2 ** 64:
        problems.append("seed: must be an unsigned 64-bit integer")
        seed = 0

    out = data.get("out")
    if out is not None and not isinstance(out, str):
        problems.append("out: must be a path string")
        out = None

    if problems:
        raise ConfigError(problems)

    scan = None
    resolved = {"experiment": experiment, "seed": seed,
                "sequence": _sequence_resolved(seq)}
    if experiment != "phases":
        shape_name, omega0, width, delay = pulse
        try:
            scan = experiments.ScanSpec(axes=tuple(axes), shape=_SHAPES[shape_name],
                                        omega0=omega0, width=width, delay=delay,
                                        system=sysp, sequence=seq,
                                        rtol=tolerance[0], atol=tolerance[1],
                                        gap=float(gap))
        except ValueError as exc:
            raise ConfigError((str(exc),)) from exc
        resolved["pulse"] = {"shape": shape_name, "omega0": omega0,
                             "width": width, "delay": delay}
        resolved["system"] = {"delta": sysp.delta, "gamma": sysp.gamma}
        resolved["tolerance"] = {"rtol": tolerance[0], "atol": tolerance[1]}
        resolved["gap"] = float(gap)
    if "grid" in _ALLOWED_KEYS[experiment]:
        resolved["grid"] = [{"name": ax.name, "min": ax.start, "max": ax.stop,
                             "points": ax.points, "spacing": ax.spacing}
                            for ax in axes]
    if experiment == "montecarlo":
        resolved["noise"] = {"sigma": noise[0], "samples": noise[1]}
    if experiment == "solve-phases":
        resolved["solver"] = {"budget": solver[0], "xatol": solver[1],
                              "simplex_step": solver[2]}

    return RunConfig(experiment, scan, seq, noise, solver, seed, out,
                     config_hash(resolved))


def _sequence_resolved(seq: experiments.SequenceSpec) -> dict:
    out = {"source": seq.source, "n": seq.n_pairs}
    if seq.source == "explicit":
        out["pump_phases"] = list(seq.pump_phases)
        out["stokes_phases"] = list(seq.stokes_phases)
        out["alternate"] = seq.alternate
    return out


def canonical_json(resolved: dict) -> str:
    return json.dumps(resolved, sort_keys=True, separators=(",", ":"))


def config_hash(resolved: dict) -> str:
    """Identifies the resolved experiment (defaults filled, seed included;
    output destination and thread count excluded)."""
    return hashlib.sha256(canonical_json(resolved).encode("utf-8")).hexdigest()


def emit_table(results, axis_names, digest: str) -> str:
    """CSV with swept columns first, 17 significant digits, and trailing
    comment rows: `# error row=<i>: <reason>` for each failed point (i
    counts data rows from 0), then the config hash."""
    header = ",".join(tuple(axis_names) + ("P1", "P2", "P3", "infidelity", "norm_loss"))
    lines = [header]
    for r in results:
        vals = [v for _, v in r.coords] + [r.p1, r.p2, r.p3, r.infidelity, r.norm_loss]
        lines.append(",".join("%.17g" % v for v in vals))
    for i, r in enumerate(results):
        if r.error is not None:
            reason = " ".join(r.error.split())
            lines.append(f"# error row={i}: {reason}")
    lines.append(f"# sha256={digest}")
    return "\n".join(lines) + "\n"


def print_phases(source: str, n: int) -> str:
    """Table line for the analytic phases, integer numerators.

    Resonant sequences print '(a1, b1; a2, b2; ...; aN, bN)pi/N' pairs in
    units of pi/N; far-off-resonant ones print '(c1, c2,...,  cN)2pi/N' in
    units of 2pi/N. N = 1 carries no phases and prints '(0, 0)'.
    """
    if n == 1:
        return "(0, 0)"
    if source == "resonant":
        na, nb = phases.resonant_numerators(n)
        body = "; ".join(f"{a}, {b}" for a, b in zip(na, nb))
        return f"({body})π/{n}"
    if source == "cap":
        nums = [x // 2 for x in phases.cap_numerators(n)]
        body = f"{nums[0]}, " + ",".join(str(x) for x in nums[1:-1]) + f", {nums[-1]}"
        return f"({body})2π/{n}"
    raise ValueError("phase tables exist for 'resonant' and 'cap' sequences")


def _run_table(cfg: RunConfig):
    if cfg.experiment == "montecarlo":
        sigma, samples = cfg.noise
        rows = experiments.monte_carlo_phase_noise(cfg.scan, sigma, samples, cfg.seed)
    else:
        rows = experiments.run_scan(cfg.scan)
    names = [ax.name for ax in cfg.scan.axes]
    failed = any(r.error is not None for r in rows)
    return emit_table(rows, names, cfg.digest), failed


def _run_solve(cfg: RunConfig):
    budget, xatol, step = cfg.solver
    seed_seq = cfg.sequence.resolve()
    pair = make_pair(cfg.scan.shape, cfg.scan.omega0, cfg.scan.width, cfg.scan.delay)
    try:
        res = phases.solve_phases(seed_seq.n_pairs, pair, cfg.scan.system, seed_seq,
                                  rtol=cfg.scan.rtol, atol=cfg.scan.atol,
                                  budget=budget, xatol=xatol, simplex_step=step)
    except dynamics.IntegrationError as exc:
        lines = ["k,alpha,beta", f"# error={exc}", f"# sha256={cfg.digest}"]
        return "\n".join(lines) + "\n", True
    lines = ["k,alpha,beta"]
    for k, (a, b) in enumerate(res.sequence.phase_pairs(), start=1):
        lines.append("%d,%.17g,%.17g" % (k, a, b))
    lines.append("# infidelity=%.17g" % res.infidelity)
    lines.append("# converged=%s" % ("true" if res.converged else "false"))
    lines.append(f"# sha256={cfg.digest}")
    return "\n".join(lines) + "\n", False


def run_experiment(cfg: RunConfig) -> tuple[str, bool]:
    """Returns (output text, numerical-failure flag)."""
    if cfg.experiment == "phases":
        return print_phases(cfg.sequence.source, cfg.sequence.n_pairs) + "\n", False
    if cfg.experiment == "solve-phases":
        return _run_solve(cfg)
    return _run_table(cfg)


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cstirap",
        description="Composite STIRAP experiments from JSON configs.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for kind in EXPERIMENTS:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--seed", type=_u64, help="overrides the config seed")
        p.add_argument("--threads", type=_positive_int, default=1,
                       help="accepted for compatibility; changes neither "
                            "the output nor the speed")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that code is reserved for
        # numerical failures here.
        return 0 if exc.code == 0 else 1

    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"config error: {args.config} is not valid JSON ({exc})", file=sys.stderr)
        return 1

    try:
        cfg = parse_config(data, args.experiment, seed=args.seed)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1

    if args.out is not None:
        cfg = replace(cfg, out=args.out)

    text, failed = run_experiment(cfg)
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
