"""Output checks for the tables the CLI writes.

The checks never compare with a stored copy of earlier output. They test
properties every correct table has (grid coordinates, row count,
infidelity = 1 - P3, populations summing to one with the norm loss,
unitarity at gamma = 0, the trailing hash line) and compare a seeded
sample of rows with the independent integrator in reference.py.
"""

from __future__ import annotations

import math
import random
import re

import numpy as np

import reference

POP_TOL = 1e-6          # reference vs CLI populations (CLI runs at rtol 1e-8 or 1e-9)
# |norm_loss| at gamma = 0, per unit of the config's rtol. RK45 at rtol 1e-8
# leaves up to 2.5e-7 on the shipped 40x40 resonant contour.
UNITARY_PER_RTOL = 100.0
MC_SIGMAS = 5.0         # Monte Carlo means must agree within this many standard errors
MC_CLAIM = (23.0, 1e-4)  # the paper's claim: mean infidelity at Omega0 = 23 stays below 1e-4
SAMPLED_ROWS = {"scan": 3, "contour": 2, "decay": 3, "montecarlo": 2}
_HASH = re.compile(r"# sha256=[0-9a-f]{64}")
_COLUMNS = ("P1", "P2", "P3", "infidelity", "norm_loss")


def _grid(config: dict):
    axes = config.get("grid", [])
    values = [np.geomspace(a["min"], a["max"], a["points"]) if a.get("spacing") == "log"
              else np.linspace(a["min"], a["max"], a["points"]) for a in axes]
    mesh = np.meshgrid(*values, indexing="ij")
    return [a["name"] for a in axes], np.stack([m.ravel() for m in mesh], 1)


class Reference:
    """Reference values for sampled rows, computed once per run."""

    def __init__(self, seed: int):
        self.seed = seed
        self._cache = {}

    def sample(self, inv, rows: int) -> list[int]:
        rng = random.Random(f"rows:{self.seed}:{inv.label}")
        return sorted(rng.sample(range(rows), min(rows, SAMPLED_ROWS[inv.experiment])))

    def _train(self, inv, coords: dict):
        cfg = inv.config
        pulse, system, seq = cfg["pulse"], cfg.get("system", {}), cfg.get("sequence", {})
        return reference.make_train(
            seq.get("source", "single"), seq.get("n", 1), pulse["shape"],
            coords.get("omega0", pulse["omega0"]), coords.get("delay", pulse.get("delay")),
            coords.get("delta", system.get("delta", 0.0)),
            coords.get("gamma", system.get("gamma", 0.0)))

    def populations(self, inv, index: int, coords: dict):
        key = (inv.label, index)
        if key not in self._cache:
            u = reference.train_propagator(self._train(inv, coords))
            self._cache[key] = reference.populations(u)
        return self._cache[key]

    def monte_carlo(self, inv, index: int, coords: dict):
        key = (inv.label, index, "mc")
        if key not in self._cache:
            noise = inv.config["noise"]
            self._cache[key] = reference.monte_carlo(
                self._train(inv, coords), noise["sigma"], noise["samples"],
                seed=(self.seed % 2 ** 63, index))
        return self._cache[key]


def parse_table(text: str):
    """(header, rows as a float array, last line)."""
    lines = text.splitlines()
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    if not body:
        return [], np.zeros((0, 0)), ""
    rows = [[float(x) for x in ln.split(",")] for ln in body[1:]]
    return body[0].split(","), np.array(rows, dtype=float), lines[-1]


def check_table(text: str, inv, ref: Reference) -> tuple[list[str], int]:
    """Problems found in one table, and its count of NaN (failed) rows."""
    names, coords = _grid(inv.config)
    try:
        header, rows, last = parse_table(text)
    except ValueError as exc:
        return [f"{inv.label}: unparseable table ({exc})"], len(coords)
    problems = []
    if header != names + list(_COLUMNS):
        problems.append(f"{inv.label}: header {header}")
    if not _HASH.fullmatch(last):
        problems.append(f"{inv.label}: no trailing '# sha256=' line")
    if rows.shape != (len(coords), len(names) + len(_COLUMNS)):
        problems.append(f"{inv.label}: {rows.shape[0]} rows, expected {len(coords)}")
        return problems, 0
    k = len(names)
    if not np.allclose(rows[:, :k], coords, rtol=1e-12, atol=0.0):
        problems.append(f"{inv.label}: grid coordinates differ from the configured axes")
    failed = np.isnan(rows[:, k:]).any(axis=1)
    good = rows[~failed]
    p1, p2, p3, infid, loss = (good[:, k + i] for i in range(5))
    if np.any(np.abs(infid - (1.0 - p3)) > 1e-15):
        problems.append(f"{inv.label}: infidelity != 1 - P3")
    if np.any(np.abs(p1 + p2 + p3 + loss - 1.0) > 1e-12):
        problems.append(f"{inv.label}: P1 + P2 + P3 + norm_loss != 1")
    if np.any((good[:, k:k + 3] < -1e-9) | (good[:, k:k + 3] > 1.0 + 1e-9)):
        problems.append(f"{inv.label}: population outside [0, 1]")
    gamma_col = names.index("gamma") if "gamma" in names else None
    gammas = (good[:, gamma_col] if gamma_col is not None
              else np.full(len(good), inv.config.get("system", {}).get("gamma", 0.0)))
    unitary_tol = UNITARY_PER_RTOL * inv.config.get("tolerance", {}).get("rtol", 1e-10)
    if np.any(np.abs(loss[gammas == 0.0]) > unitary_tol):
        problems.append(f"{inv.label}: |norm_loss| > {unitary_tol:g} at gamma = 0")
    for i in ref.sample(inv, len(coords)):
        if failed[i]:
            continue
        at = dict(zip(names, coords[i]))
        if inv.experiment == "montecarlo":
            problems += _check_mc_row(inv, ref, i, at, rows[i, k + 3])
        else:
            want = ref.populations(inv, i, at)
            got = rows[i, k:k + 3]
            if np.max(np.abs(got - want)) > POP_TOL:
                problems.append(f"{inv.label} row {i}: P = {got.tolist()}, reference {want}")
    if inv.experiment == "montecarlo":
        problems += _check_mc_claim(inv, ref, names, coords, rows, failed)
    return problems, int(failed.sum())


def _check_mc_row(inv, ref, i, at, infid):
    mean, se = ref.monte_carlo(inv, i, at)
    limit = MC_SIGMAS * math.sqrt(2.0) * se + POP_TOL
    if abs(infid - mean) > limit:
        return [f"{inv.label} row {i}: mean infidelity {infid:.6e}, "
                f"reference {mean:.6e} +- {se:.1e}"]
    return []


def _check_mc_claim(inv, ref, names, coords, rows, failed):
    omega, bound = MC_CLAIM
    hit = np.flatnonzero(np.isclose(coords[:, names.index("omega0")], omega))
    if len(hit) != 1 or failed[hit[0]]:
        return [f"{inv.label}: no row at omega0 = {omega}"]
    i = int(hit[0])
    infid = rows[i, len(names) + 3]
    problems = [] if infid < bound else [
        f"{inv.label}: mean infidelity {infid:.3e} at omega0 = {omega} is not below {bound}"]
    return problems + _check_mc_row(inv, ref, i, dict(zip(names, coords[i])), infid)


def self_test(text: str, inv, ref: Reference) -> list[str]:
    """The checks must reject damaged copies of a table they accept."""
    lines = text.splitlines(keepends=True)
    names, coords = _grid(inv.config)
    k = len(names)
    index = ref.sample(inv, len(coords))[0]
    if inv.experiment == "montecarlo":
        # Elsewhere the sampling error of 1,000 samples can exceed 1e-4.
        index = int(np.flatnonzero(np.isclose(coords[:, names.index("omega0")], MC_CLAIM[0]))[0])
    row = 1 + index                                 # line 0 is the header
    cells = lines[row].rstrip("\n").split(",")
    pops = [float(c) for c in cells[k:k + 3]]
    step = -1e-4 if pops[2] >= 0.5 else 1e-4       # keeps P3 inside [0, 1]

    bumped = list(cells)
    bumped[k + 2] = "%.17g" % (pops[2] + step)
    # The same P3 with the larger of P1, P2 paying for it and infidelity
    # made consistent: every property still holds, so only the comparison
    # with the reference can catch it.
    consistent = list(bumped)
    j = 0 if pops[0] >= pops[1] else 1
    consistent[k + j] = "%.17g" % (pops[j] - step)
    consistent[k + 3] = "%.17g" % (1.0 - (pops[2] + step))

    def replaced(new_cells):
        return "".join(lines[:row] + [",".join(new_cells) + "\n"] + lines[row + 1:])

    damaged = {
        "P3 moved by 1e-4": replaced(bumped),
        "P3 moved by 1e-4, consistent": replaced(consistent),
        "row missing": "".join(lines[:row] + lines[row + 1:]),
    }
    missed = []
    for what, copy in damaged.items():
        problems, _ = check_table(copy, inv, ref)
        if not problems:
            missed.append(f"{inv.label}: self-test '{what}' was not rejected")
    return missed
