"""Compare the tables of every shipped config between two source trees.

    python3 tools/compare_tables.py <parent-src> <change-src>

Runs each configs/*.json of this checkout at --seed 42 on both trees, each
run in a fresh process with that tree's src/ directory on PYTHONPATH, and
prints per table the largest difference between numeric cells, or
`identical` when both outputs are equal byte for byte, and whether the
comment lines are equal. A text cell (a header, the phases line) must
match exactly, and NaN matches only NaN.

A solve-phases table is compared on its solved phases and its infidelity
instead: the Nelder-Mead search stops anywhere in a basin where the
infidelity is at round-off, so its phases may move by up to the config's
solver xatol under changes far below the propagator's tolerance. Its
`# infidelity=` line is compared as a number; its other comment lines must
be equal.

Exits 1 when a table differs by more than BOUND (a phase by more than
xatol), when its comment lines or exit codes differ, or when a run fails
with a config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 42
BOUND = 1e-7
# The default of solver.xatol in cstirap.cli.
DEFAULT_XATOL = 1e-6


def _run(src: Path, config: Path, out: Path) -> int:
    experiment = json.loads(config.read_text())["experiment"]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "cstirap.cli", experiment,
                           "--config", str(config), "--out", str(out), "--seed", str(SEED)],
                          env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 2):
        sys.exit(f"{config.name} on {src} exited {proc.returncode}:\n{proc.stderr}")
    return proc.returncode


def _split(text: str):
    lines = text.splitlines()
    return ([line for line in lines if not line.startswith("#")],
            [line for line in lines if line.startswith("#")])


def _cell_diff(a: str, b: str) -> float:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return 0.0 if a == b else math.inf
    if math.isnan(x) or math.isnan(y):
        return 0.0 if math.isnan(x) and math.isnan(y) else math.inf
    return abs(x - y)


def _max_diff(rows_a, rows_b, columns=None) -> float:
    """The largest cell difference over `columns` (all when None); rows or
    cells that do not pair up count as infinitely far apart."""
    if len(rows_a) != len(rows_b):
        return math.inf
    worst = 0.0
    for ra, rb in zip(rows_a, rows_b):
        ca, cb = ra.split(","), rb.split(",")
        if len(ca) != len(cb):
            return math.inf
        for i in range(len(ca)) if columns is None else columns:
            worst = max(worst, _cell_diff(ca[i], cb[i]))
    return worst


def _infidelity(comments) -> str:
    return next((c.split("=", 1)[1] for c in comments if c.startswith("# infidelity=")), "nan")


def compare(config: Path, parent: Path, change: Path, tmp: Path) -> bool:
    """Print one line for `config` and return whether it is within bounds."""
    outs = [tmp / f"{side}-{config.stem}.csv" for side in ("parent", "change")]
    codes = [_run(src, config, out) for src, out in zip((parent, change), outs)]
    (rows_a, notes_a), (rows_b, notes_b) = (_split(out.read_text()) for out in outs)
    data = json.loads(config.read_text())
    if data["experiment"] == "solve-phases":
        xatol = data.get("solver", {}).get("xatol", DEFAULT_XATOL)
        moved = _max_diff(rows_a[1:], rows_b[1:], columns=(1, 2))
        infid = [_infidelity(notes_a), _infidelity(notes_b)]
        drift = _cell_diff(*infid)
        same_notes = ([c for c in notes_a if not c.startswith("# infidelity=")]
                      == [c for c in notes_b if not c.startswith("# infidelity=")])
        ok = (rows_a[:1] == rows_b[:1] and moved <= xatol and drift <= BOUND)
        detail = (f"max phase move {moved:.3g} (xatol {xatol:g}), "
                  f"infidelity {infid[0]} -> {infid[1]} (diff {drift:.3g})")
    else:
        worst = _max_diff(rows_a, rows_b)
        same_notes = notes_a == notes_b
        ok = worst <= BOUND
        detail = f"max cell diff {worst:.3g}"
    if outs[0].read_bytes() == outs[1].read_bytes():
        detail = "identical"
    ok = ok and same_notes and codes[0] == codes[1]
    print(f"{config.name:28s} {detail}; comment lines "
          f"{'equal' if same_notes else 'differ'}; exit {codes[0]}/{codes[1]}; "
          f"{'ok' if ok else 'FAIL'}", flush=True)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path, help="src/ directory of the parent tree")
    parser.add_argument("change_src", type=Path, help="src/ directory of the changed tree")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        results = [compare(config, args.parent_src.resolve(), args.change_src.resolve(),
                           Path(tmp))
                   for config in sorted((ROOT / "configs").glob("*.json"))]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
