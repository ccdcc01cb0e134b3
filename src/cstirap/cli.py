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
import contextlib
import hashlib
import json
import os
import sys
from dataclasses import dataclass, replace

from . import dynamics, experiments, phases
# make_pair is not called here, but the traced benchmark run
# (perfbench/tracing.py) wraps cstirap.cli.make_pair, so the name stays bound.
from .pulses import ShapeKind, make_pair

# kind -> (the top-level sections it reads besides experiment, sequence,
# seed and out, in parse order; the grid axis counts it allows). The kinds'
# order is the subcommands' order.
_PULSED = ("pulse", "system", "tolerance", "gap")
_KINDS = {
    "simulate": (_PULSED + ("grid",), (0,)),
    "scan": (_PULSED + ("grid",), (1,)),
    "contour": (_PULSED + ("grid",), (2,)),
    "montecarlo": (_PULSED + ("grid", "noise"), (0, 1)),
    "decay": (_PULSED + ("grid",), (1,)),
    "phases": ((), ()),
    "solve-phases": (_PULSED + ("solver",), ()),
}
EXPERIMENTS = tuple(_KINDS)
_ALLOWED_KEYS = {kind: {"experiment", "sequence", "seed", "out", *sections}
                 for kind, (sections, _) in _KINDS.items()}

# Swept parameters that are physical only when >= 0. A `delay` axis
# reaching <= 0 is not rejected here: such points fail one by one, with
# NaN rows, an `# error` line each, and exit code 2.
_NONNEGATIVE_AXES = ("omega0", "gamma")

# Rows per table. The shipped configs use at most 240 points per axis and
# 1,600 rows; a million rows at 5-25 ms per point is hours of integration,
# and far larger grids cannot even be laid out in memory.
_MAX_GRID_ROWS = 1_000_000
# Pulse pairs per sequence. The shipped configs use N <= 5 and the pinned
# phase tables stop at N = 9. The phase formulas (evaluated at parse time),
# the composition and the Monte Carlo draws all take time linear in N, so
# without a bound an N of 10**30 hangs the parser.
_MAX_PAIRS = 999
# Monte Carlo samples per grid point. The shipped config uses 1,000; a
# million already costs about 20 s per point, and its standard error is a
# thousandth of the spread of one sample.
_MAX_SAMPLES = 1_000_000


class ConfigError(ValueError):
    """Carries the full list of config violations, not just the first."""

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    scan: experiments.ScanSpec | None   # None for the phases experiment
    sequence: phases.CompositeSequence
    noise: tuple[float, int] | None     # (sigma, samples)
    solver: tuple[int, float, float] | None   # (budget, xatol, simplex_step)
    seed: int
    out: str | None
    digest: str


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and phases.is_finite(x)


def _positive(x) -> bool:
    return _is_number(x) and x > 0


def _nonnegative(x) -> bool:
    return _is_number(x) and x >= 0


# section -> (problem when the section is absent, or None if {} stands in;
#             key -> (default, check, conversion of a non-null value, problem)).
# The resolved section (keys in this order) is what the config hash covers.
# The "grid" table applies to each axis; its keys are in SweepAxis field order.
_SECTIONS = {
    "pulse": ("required for this experiment", {
        "shape": (None, lambda x: x in [k.value for k in ShapeKind], str,
                  "must be 'sin2' or 'gaussian'"),
        "omega0": (None, _positive, float, "must be a positive number"),
        "width": (1.0, _positive, float, "must be a positive number"),
        "delay": (None, lambda x: x is None or _positive(x), float,
                  "must be null or a positive number"),
    }),
    "system": (None, {
        "delta": (0.0, _is_number, float, "must be a finite number"),
        "gamma": (0.0, _nonnegative, float, "must be a number >= 0"),
    }),
    "tolerance": (None, {
        "rtol": (dynamics.DEFAULT_RTOL, _positive, float, "must be > 0"),
        "atol": (dynamics.DEFAULT_ATOL, _positive, float, "must be > 0"),
    }),
    "noise": ("required for montecarlo", {
        "sigma": (None, _nonnegative, float, "must be a number >= 0"),
        "samples": (1000, lambda x: phases.is_count(x, 1), int, "must be an integer >= 1"),
    }),
    "solver": (None, {
        "budget": (2000, lambda x: phases.is_count(x, 1), int, "must be an integer >= 1"),
        "xatol": (1e-6, _positive, float, "must be > 0"),
        "simplex_step": (0.01, _positive, float, "must be > 0"),
    }),
    "sequence": (None, {
        "source": ("single", lambda x: x in ("single", "resonant", "cap", "explicit"),
                   str, "must be single|resonant|cap|explicit"),
        "n": (1, lambda x: phases.is_count(x, 1) and x % 2 == 1, int,
              "must be a positive odd integer"),
        **{key: (None, lambda x: x is None or isinstance(x, list) and all(map(_is_number, x)),
                 lambda x: tuple(map(float, x)), "must be a list of numbers")
           for key in ("pump_phases", "stokes_phases")},
        "alternate": (None, lambda x: x is None or isinstance(x, bool), bool,
                      "must be true or false"),
    }),
    "grid": (None, {
        "name": (None, lambda x: x in experiments.AXIS_NAMES, str,
                 "must be one of " + "|".join(experiments.AXIS_NAMES)),
        "min": (None, _is_number, float, "must be a finite number"),
        "max": (None, _is_number, float, "must be a finite number"),
        "points": (None, lambda x: phases.is_count(x, 2), int, "must be an integer >= 2"),
        "spacing": ("linear", lambda x: x in ("linear", "log"), str,
                    "must be 'linear' or 'log'"),
    }),
}


def _parse_section(section, keys, path, problems):
    """`section` checked against the key table `keys` and resolved (defaults
    filled, keys in table order), or None after adding its problems, each
    at its key path under `path`."""
    if not isinstance(section, dict):
        problems.append(f"{path}: must be an object")
        return None
    before = len(problems)
    problems.extend(f"{path}.{key}: unknown key" for key in section if key not in keys)
    resolved = {}
    for key, (default, check, convert, problem) in keys.items():
        value = section.get(key, default)
        if check(value):
            resolved[key] = None if value is None else convert(value)
        else:
            problems.append(f"{path}.{key}: {problem}")
    return None if len(problems) > before else resolved


def _section(data, name, problems):
    """The top-level section `name`, resolved by _parse_section."""
    absent, keys = _SECTIONS[name]
    section = data.get(name, None if absent else {})
    if section is None and absent:
        problems.append(f"{name}: {absent}")
        return None
    return _parse_section(section, keys, name, problems)


def _parse_sequence(data, experiment, problems):
    s = _section(data, "sequence", problems)
    if s is None:
        return None
    source, n = s["source"], s["n"]
    before = len(problems)
    if n > _MAX_PAIRS:
        problems.append(f"sequence.n: may be at most {_MAX_PAIRS}")
    elif experiment == "phases" and source not in ("resonant", "cap"):
        problems.append("sequence.source: the phases experiment prints the "
                        "'resonant' or 'cap' tables")
    elif source == "explicit":
        for key in ("pump_phases", "stokes_phases"):
            if s[key] is None or len(s[key]) != n:
                problems.append(f"sequence.{key}: must be a list of {n} numbers")
        if s["alternate"] is None:
            problems.append("sequence.alternate: must be true or false")
    else:
        problems.extend(f"sequence.{key}: only meaningful with source 'explicit'"
                        for key in ("pump_phases", "stokes_phases", "alternate")
                        if key in data.get("sequence", {}))
        if source == "single" and n != 1:
            problems.append("sequence.n: a single pair means n = 1")
        s = {"source": source, "n": n}
    return None if len(problems) > before else s


def _parse_grid(data, experiment, problems):
    """(resolved axis entries, SweepAxis tuple), or (None, ()) after adding
    the problems."""
    g = data.get("grid", [])
    if not isinstance(g, list):
        problems.append("grid: must be a list of axis objects")
        return None, ()
    before = len(problems)
    entries, axes, rows = [], [], 1
    for i, entry in enumerate(g):
        path = f"grid[{i}]"
        axis = _parse_section(entry, _SECTIONS["grid"][1], path, problems)
        if axis is None:
            continue
        try:
            axes.append(experiments.SweepAxis(*axis.values()))
        except ValueError as exc:
            problems.append(f"{path}: {exc}")
            continue
        name, lo, points = axis["name"], axis["min"], axis["points"]
        if name in _NONNEGATIVE_AXES and lo < 0:
            problems.append(f"{path}: {name} axis must stay >= 0 (min is {lo:g})")
        if rows <= _MAX_GRID_ROWS < rows * points:
            problems.append(f"{path}: the grid may have at most {_MAX_GRID_ROWS} rows")
        rows *= points
        entries.append(axis)
    if len(problems) == before:
        arity = _KINDS[experiment][1]
        names = [ax.name for ax in axes]
        if len(axes) not in arity:
            want = " or ".join(str(a) for a in arity)
            problems.append(f"grid: {experiment!r} takes {want} swept axes, got {len(axes)}")
        elif experiment == "decay" and names != ["gamma"]:
            problems.append("grid: the decay experiment sweeps 'gamma'")
        elif experiment == "contour" and len(set(names)) < len(names):
            problems.append("grid: contour axes must differ")
    return (None, ()) if len(problems) > before else (entries, tuple(axes))


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

    # The resolved config: exactly what the hash covers.
    resolved = {"experiment": experiment,
                "sequence": _parse_sequence(data, experiment, problems)}
    axes = ()
    for name in _KINDS[experiment][0]:
        if name == "grid":
            resolved["grid"], axes = _parse_grid(data, experiment, problems)
        elif name == "gap":
            gap = data.get("gap", 0.0)
            if not _nonnegative(gap):
                problems.append("gap: must be a number >= 0")
                gap = 0.0
            resolved["gap"] = float(gap)
        else:
            resolved[name] = _section(data, name, problems)
    if experiment == "solve-phases" and resolved["system"] and resolved["system"]["gamma"]:
        problems.append("system.gamma: phase optimization assumes gamma = 0")
    if resolved.get("noise") and resolved["noise"]["samples"] > _MAX_SAMPLES:
        problems.append(f"noise.samples: may be at most {_MAX_SAMPLES}")

    seed = data.get("seed", 0) if seed is None else seed
    if not phases.is_count(seed, 0) or not seed < 2 ** 64:
        problems.append("seed: must be an unsigned 64-bit integer")
    resolved["seed"] = seed

    out = data.get("out")
    if out is not None and not isinstance(out, str):
        problems.append("out: must be a path string")

    if problems:
        raise ConfigError(problems)

    seq = resolved["sequence"]
    if seq["source"] == "explicit":
        sequence = phases.CompositeSequence(seq["n"], seq["pump_phases"],
                                            seq["stokes_phases"], seq["alternate"])
    else:   # a single pair is the resonant sequence with N = 1
        sequence = (phases.cap_phases if seq["source"] == "cap"
                    else phases.resonant_phases)(seq["n"])
    scan = None
    if experiment != "phases":
        pulse = resolved["pulse"]
        scan = experiments.ScanSpec(axes=axes, **dict(pulse, shape=ShapeKind(pulse["shape"])),
                                    system=dynamics.SystemParams(**resolved["system"]),
                                    sequence=sequence, **resolved["tolerance"],
                                    gap=resolved["gap"])
    noise, solver = (None if resolved.get(k) is None else tuple(resolved[k].values())
                     for k in ("noise", "solver"))
    return RunConfig(experiment, scan, sequence, noise, solver, seed, out,
                     config_hash(resolved))


def config_hash(resolved: dict) -> str:
    """SHA-256 of the resolved experiment as sorted, compact JSON (defaults
    filled, seed included; output destination and thread count excluded)."""
    text = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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
    try:
        res = experiments.solve_phases(cfg.scan, *cfg.solver)
    except (dynamics.IntegrationError, ValueError) as exc:
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
        # The parser admits only the resonant (alternating) and cap tables.
        source = "resonant" if cfg.sequence.alternate_ordering else "cap"
        return print_phases(source, cfg.sequence.n_pairs) + "\n", False
    if cfg.experiment == "solve-phases":
        return _run_solve(cfg)
    return _run_table(cfg)


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
        p.add_argument("--seed", type=int, help="overrides the config seed")
        p.add_argument("--threads", type=_positive_int, default=1,
                       help="accepted for compatibility; changes neither "
                            "the output nor the speed")
    return parser


def _out_problem(out: str | None) -> str | None:
    """Why no table can be written to `out` (None: stdout), checked before
    any point is computed; whatever else the system refuses shows at the write."""
    if out is None:
        return "stdout is closed" if sys.stdout is None else None
    if not out:
        return "the path is empty"
    if os.path.isdir(out):
        return f"{out} is a directory"
    folder = os.path.dirname(out)
    if folder and not os.path.isdir(folder):
        return f"{folder} is not an existing directory"
    return None


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that code is reserved for
        # numerical failures here.
        return 0 if exc.code == 0 else 1

    try:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RecursionError) as exc:   # bad JSON, UTF-8 or nesting
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
    problem = _out_problem(cfg.out)
    if problem:
        print(f"config error: out: {problem}", file=sys.stderr)
        return 1

    text, failed = run_experiment(cfg)
    try:
        with contextlib.nullcontext(sys.stdout) if cfg.out is None else open(cfg.out, "w") as fh:
            fh.write(text)
            fh.flush()
    except (OSError, ValueError) as exc:   # ValueError: a NUL in the path
        if cfg.out is None:
            # The reader has gone: the interpreter's last flush goes to /dev/null.
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        print(f"config error: out: {exc}", file=sys.stderr)
        return 1
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
