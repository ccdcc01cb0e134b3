"""Benchmark of the `cstirap` command line, the way users run it.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload is a round of CLI invocations (see workloads.py). Rounds
repeat until `--seconds` have passed; every invocation is its own process,
started from the checkout's `src/` and timed from outside. After the timed
rounds every table is checked (checks.py) and the checks' self-tests run.

--trace 0 prints the end-to-end metrics. --trace 1 runs each round twice,
plain and traced (tracing.py), and prints the per-layer metrics plus
trace.overhead_s, the traced minus the plain wall time of a round. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WARMUP = ROOT / "configs" / "phases_resonant_n5.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class BenchError(RuntimeError):
    pass


def clock() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so the child's set-up
    # stamp and the parent's start time can be subtracted.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Call:
    """One finished CLI invocation."""

    inv: workloads.Invocation
    wall_s: float
    setup_s: float
    cpu_s: float
    rss_mb: float
    code: int
    table: str
    trace: dict | None


def invoke(inv: workloads.Invocation, workdir: Path, tag: str, traced: bool) -> Call:
    config = workdir / f"{inv.label}.json"
    if not config.exists():
        config.write_text(json.dumps(inv.config))
    table = workdir / f"{inv.label}.{tag}.csv"
    stamp = workdir / f"{inv.label}.{tag}.stamp"
    trace = workdir / f"{inv.label}.{tag}.trace.json" if traced else None
    argv = [sys.executable, str(HERE / "launch.py"), str(stamp), str(trace or "-"),
            inv.experiment, "--config", str(config), "--out", str(table),
            "--threads", str(inv.threads)]
    if inv.cli_seed is not None:
        argv += ["--seed", str(inv.cli_seed)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(workdir / "stderr.log", "ab") as err:
        start = clock()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = clock()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code not in (0, 2) or not table.exists():
        raise BenchError(f"{inv.label}: cstirap exited with {code}; see {workdir / 'stderr.log'}")
    setup_end = float(stamp.read_text())
    return Call(inv, end - start, setup_end - start, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, code, table.read_text(),
                json.loads(trace.read_text()) if traced else None)


def _with_units(values: dict, section: str) -> dict:
    """Attach the units BENCHMARK.json declares, in its order."""
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} do not match {section}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def end_to_end(rounds: list[list[Call]]) -> dict:
    # Totals over the run divided by the round count, not medians of
    # rounds: the host's speed drifts over tens of seconds, and the mean
    # over the whole run spreads least between runs.
    calls = [c for r in rounds for c in r]
    wall = sum(c.wall_s for c in calls)
    values = {
        "setup_s": statistics.median(c.setup_s for c in calls),
        "run_s": wall / len(rounds),
        "points_per_s": sum(c.inv.rows() for c in calls) / (wall - sum(c.setup_s for c in calls)),
        "cpu_s": sum(c.cpu_s for c in calls) / len(rounds),
        "peak_rss_mb": statistics.median(max(c.rss_mb for c in r) for r in rounds),
    }
    return _with_units(values, "end_to_end")


def _layer_metrics(calls: list[Call]) -> dict:
    spans = {}
    props = []
    experiment_self = 0.0
    for c in calls:
        for name, (n, total, own) in c.trace["spans"].items():
            agg = spans.setdefault(name, [0, 0.0, 0.0])
            agg[0] += n
            agg[1] += total
            agg[2] += own
        props += c.trace["propagations"]
        experiment_self += c.trace["experiment_self_s"]

    def get(name):
        return spans.get(name, [0, 0.0, 0.0])

    compose_calls, compose_s, _ = get("propalg.compose_sequence")
    useful = sum(c.inv.rows() * c.inv.samples_per_row() for c in calls)
    secs = [p[0] for p in props] or [0.0]
    rhs = [p[1] for p in props] or [0]
    return {
        "cli.parse_config_s": get("cli.parse_config")[1],
        "cli.emit_table_s": get("cli.emit_table")[1],
        "pulses.make_pair_calls": get("pulses.make_pair")[0],
        "pulses.envelope_calls": get("pulses.envelope")[0],
        "pulses.envelope_s": get("pulses.envelope")[2],
        "dynamics.propagate_calls": get("dynamics.propagate")[0],
        "dynamics.propagate_self_s": get("dynamics.propagate")[2],
        "dynamics.propagate_ms_p50": 1e3 * statistics.median(secs),
        "dynamics.propagate_ms_max": 1e3 * max(secs),
        "dynamics.hamiltonian_calls": get("dynamics.hamiltonian")[0],
        "dynamics.hamiltonian_self_s": get("dynamics.hamiltonian")[2],
        "dynamics.rhs_per_propagate_p50": statistics.median(rhs),
        "dynamics.rhs_per_propagate_max": max(rhs),
        "propalg.compose_calls": compose_calls,
        "propalg.compose_s": compose_s,
        "propalg.compose_us_per_call": 1e6 * compose_s / max(compose_calls, 1),
        "phases.sequences_built": get("phases.CompositeSequence")[0],
        "experiments.self_s": experiment_self,
        "experiments.compose_useful_ratio": useful / max(compose_calls, 1),
    }


def per_layer(plain: list[list[Call]], traced: list[list[Call]]) -> dict:
    rounds = [_layer_metrics(calls) for calls in traced]
    values = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    values["trace.overhead_s"] = (statistics.median(sum(c.wall_s for c in r) for r in traced)
                                  - statistics.median(sum(c.wall_s for c in r) for r in plain))
    return _with_units(values, "per_layer")


def check_all(rounds: list[list[Call]], ref: checks.Reference) -> tuple[list[str], int]:
    problems, failed, tested = [], 0, set()
    for calls in rounds:
        for c in calls:
            found, nan_rows = checks.check_table(c.table, c.inv, ref)
            failed += nan_rows
            if (c.code == 2) != (nan_rows > 0):
                found.append(f"{c.inv.label}: exit code {c.code} with {nan_rows} NaN rows")
            problems += found
            if not found and c.inv.label not in tested:
                tested.add(c.inv.label)
                problems += checks.self_test(c.table, c.inv, ref)
    return problems, failed


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "cstirap" / "cli.py").is_file() or not WARMUP.is_file():
        raise BenchError(f"no cstirap sources or configs under {ROOT}")
    invocations = workloads.build(name, seed, ROOT / "configs")
    workdir = OUT / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    # Warm-up: byte-compiles the package and fills the file cache, which
    # users pay once, not on every run.
    warm = workloads.Invocation("warmup", "phases", json.loads(WARMUP.read_text()), 1)
    invoke(warm, workdir, "0", traced=False)

    plain, traced = [], []
    start = clock()
    while True:
        tag = str(len(plain))
        plain.append([invoke(inv, workdir, tag, False) for inv in invocations])
        if trace:
            traced.append([invoke(inv, workdir, tag + "t", True) for inv in invocations])
        # Whole rounds only; stop where the run ends closest to `seconds`.
        elapsed = clock() - start
        if elapsed + 0.5 * elapsed / len(plain) >= seconds:
            break

    rounds = plain + traced
    problems, failed = check_all(rounds, checks.Reference(seed))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if not problems:
        shutil.rmtree(workdir)
    metrics = per_layer(plain, traced) if trace else end_to_end(plain)
    return {"correct": not problems,
            "attempted": sum(c.inv.rows() for r in rounds for c in r),
            "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = sorted(workloads.BUILDERS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run(name, args.seed, args.seconds, bool(args.trace))
            for metric, m in result["metrics"].items():
                print(f"{name:24s} {metric:34s} {m['value']:.6g} {m['unit']}")
            if args.workload == "all":
                print(f"{name}: {json.dumps(result)}")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
