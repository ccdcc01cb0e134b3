"""Record one point of the benchmark trajectory as BENCH_<n>.json.

    python3 tools/record_bench.py <n>

Runs the unmodified perfbench/run.py on each workload at the fixed SEED
and SECONDS, once with --trace 0 (end-to-end metrics) and once with
--trace 1 (per-layer metrics), then the tier-1 suite with --durations=10, and writes
BENCH_<n>.json at the root of the checkout with the git SHA, nproc, the
numpy and scipy versions and every metric key that BENCHMARK.json
declares. A key that a run does not report is written as null. Run it
on a committed tree: the file records HEAD and whether the tree was dirty.

The host's speed drifts between recordings, so the files are compared
through `versus_parent`, not with each other. The parent is the commit
named by the newest BENCH_<m>.json with m < n. Its committed files are
unpacked with `git archive` into a temporary directory, and each tree's
own perfbench/run.py runs PAIRS alternating pairs per workload: pair k
runs both trees at seed SEED + k, and the tree that runs first alternates
from pair to pair. Per end-to-end metric the key holds both medians, both
sides' quartiles, the ratio change/parent and the number of pairs the
change won. Ten pairs is the fewest on which a gain is claimed: the change
must win nine tenths of them, and its median must differ from the
parent's by more than the parent's interquartile range.

SEED, SECONDS and PAIRS are constants, not options, so that every BENCH
file is comparable with the one before it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 0
SECONDS = 10.0
PAIRS = 10
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--durations=10"]


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _run(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """The result of the perfbench/run.py of `tree` on one workload.

    One process per workload: one `--workload all` process would skew
    peak_rss_mb, since a child's ru_maxrss includes the memory of the
    process it was forked from, and run.py grows as it checks each
    workload's tables.
    """
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS),
                           "--trace", str(trace)],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"perfbench {workload} --trace {trace} in {tree} exited "
                 f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _perfbench(trace: int) -> dict:
    return {w["name"]: _run(ROOT, w["name"], SEED, trace) for w in SPEC["workloads"]}


def _parent_sha(n: int) -> str:
    """The commit recorded by the newest BENCH_<m>.json with m < n."""
    older = [(int(m[1]), path) for path in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name)) and int(m[1]) < n]
    if not older:
        sys.exit(f"no BENCH_<m>.json with m < {n} names a parent commit")
    return json.loads(max(older)[1].read_text())["sha"]


def _compare(metric: dict, parent: list, change: list) -> dict:
    """Medians, quartiles (first, third), the ratio of the medians
    change/parent and the pairs the change won."""
    if None in parent or None in change:
        return {"parent": None, "change": None, "ratio": None, "won": None,
                "parent_quartiles": None, "change_quartiles": None}
    sign = 1.0 if metric["better"] == "higher" else -1.0
    p, c = statistics.median(parent), statistics.median(change)
    return {"parent": p, "change": c, "ratio": c / p if p else None,
            "won": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
            "parent_quartiles": _quartiles(parent), "change_quartiles": _quartiles(change)}


def _quartiles(values: list) -> list:
    """The first and third quartiles (exclusive method)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def _versus_parent(sha: str) -> dict:
    """PAIRS alternating end-to-end runs of the parent and this tree."""
    workloads = {}
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp)
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
        for w in SPEC["workloads"]:
            runs = {parent: [], ROOT: []}
            for k in range(PAIRS):
                for tree in (parent, ROOT) if k % 2 == 0 else (ROOT, parent):
                    runs[tree].append(_run(tree, w["name"], SEED + k, 0))
            values = {tree: [_values(r, "end_to_end") for r in rs]
                      for tree, rs in runs.items()}
            workloads[w["name"]] = {
                "correct": all(r["correct"] for rs in runs.values() for r in rs),
                "end_to_end": {
                    m["name"]: _compare(m, [v[m["name"]] for v in values[parent]],
                                        [v[m["name"]] for v in values[ROOT]])
                    for m in SPEC["end_to_end"]},
            }
    return {"sha": sha, "pairs": PAIRS, "workloads": workloads}


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

    parent_sha = _parent_sha(args.n)
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
        "versus_parent": _versus_parent(parent_sha),
    }
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
