"""Record one point of the benchmark trajectory as BENCH_<n>.json.

    python3 tools/record_bench.py <n>

Runs the unmodified perfbench/run.py on each workload at the fixed SEED
and SECONDS, once with --trace 0 (end-to-end metrics) and once with
--trace 1 (per-layer metrics), then the tier-1 suite with --durations=10, and writes
BENCH_<n>.json at the root of the checkout with the git SHA, nproc, the
numpy and scipy versions and every metric key that BENCHMARK.json
declares. A key that a run does not report is written as null. Run it
on a committed tree: the file records HEAD and whether the tree was dirty.
SEED and SECONDS are constants, not options, so that every BENCH file
is comparable with the one before it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 0
SECONDS = 10.0
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--durations=10"]


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _perfbench(trace: int) -> dict:
    """{workload: result}, one run.py process per workload.

    One `--workload all` process would skew peak_rss_mb: a child's
    ru_maxrss includes the memory of the process it was forked from, and
    run.py grows as it checks each workload's tables.
    """
    results = {}
    for w in SPEC["workloads"]:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", w["name"],
                               "--seed", str(SEED), "--seconds", str(SECONDS),
                               "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True)
        if proc.returncode:
            sys.exit(f"perfbench {w['name']} --trace {trace} exited {proc.returncode}:\n"
                     f"{proc.stderr}")
        results[w["name"]] = json.loads(proc.stdout.splitlines()[-1])
    return results


def _tier1() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    start = time.monotonic()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.monotonic() - start
    counts = {kind: int(n) for n, kind in
              re.findall(r"(\d+) (passed|failed|xfailed|skipped|errors?)\b",
                         proc.stdout.splitlines()[-1] if proc.stdout else "")}
    durations = [{"test": test, "s": float(s)} for s, test in
                 re.findall(r"^([\d.]+)s (?:call|setup|teardown)\s+(\S+)$", proc.stdout, re.M)]
    return {"exit_code": proc.returncode, "wall_s": round(wall, 2), **counts,
            "slowest": durations}


def _values(result: dict | None, section: str) -> dict:
    metrics = (result or {}).get("metrics", {})
    return {m["name"]: metrics.get(m["name"], {}).get("value") for m in SPEC[section]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int, help="the number in BENCH_<n>.json")
    args = parser.parse_args()

    plain = _perfbench(0)
    traced = _perfbench(1)
    workloads = {}
    for w in SPEC["workloads"]:
        name = w["name"]
        runs = [r for r in (plain.get(name), traced.get(name)) if r]
        workloads[name] = {
            "correct": len(runs) == 2 and all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": _values(plain.get(name), "end_to_end"),
            "per_layer": _values(traced.get(name), "per_layer"),
        }
    record = {
        "n": args.n,
        "sha": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "perfbench": {"seed": SEED, "seconds": SECONDS},
        "workloads": workloads,
        "tier1": _tier1(),
    }
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
