"""The benchmark's workloads: CLI invocations built from the shipped configs.

Each workload is one round of `cstirap` invocations. The seed moves the
grid end points by a small amount (or, for the Monte Carlo, picks the
noise seed), so different seeds give different inputs while the work per
round stays within about a percent.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Invocation:
    label: str
    experiment: str
    config: dict
    threads: int
    cli_seed: int | None = None

    def rows(self) -> int:
        out = 1
        for axis in self.config.get("grid", []):
            out *= axis["points"]
        return out

    def samples_per_row(self) -> int:
        """Compositions behind one emitted row."""
        return self.config["noise"]["samples"] if self.experiment == "montecarlo" else 1


def _shipped(configs: Path, name: str) -> dict:
    with open(configs / f"{name}.json") as fh:
        cfg = json.load(fh)
    cfg.pop("out", None)
    return cfg


def _jitter_axis(axis: dict, rng: random.Random, points: int, shift: float) -> dict:
    """The shipped axis on `points` points, each end pulled inwards by up
    to `shift` of the span."""
    span = axis["max"] - axis["min"]
    return dict(axis, points=points,
                min=axis["min"] + rng.uniform(0.0, shift) * span,
                max=axis["max"] - rng.uniform(0.0, shift) * span)


def _scan_resonant(configs, rng):
    invs = []
    for label in ("scan_resonant_sin2", "scan_resonant_gaussian"):
        cfg = _shipped(configs, label)
        cfg["grid"] = [_jitter_axis(cfg["grid"][0], rng, 24, 0.005)]
        invs.append(Invocation(label, "scan", cfg, threads=1))
    return invs


def _contour_far_detuned(configs, rng):
    cfg = _shipped(configs, "contour_far_detuned")
    cfg["grid"] = [_jitter_axis(axis, rng, 4, 0.005) for axis in cfg["grid"]]
    return [Invocation("contour_far_detuned", "contour", cfg, threads=2)]


def _montecarlo(configs, rng):
    cfg = _shipped(configs, "montecarlo_phase_noise")
    return [Invocation("montecarlo_phase_noise", "montecarlo", cfg, threads=1,
                       cli_seed=rng.randrange(2 ** 32))]


def _decay_gamma(configs, rng):
    cfg = _shipped(configs, "decay_composite")
    cfg["grid"] = [_jitter_axis(cfg["grid"][0], rng, 50, 0.002)]
    return [Invocation("decay_composite", "decay", cfg, threads=1)]


BUILDERS = {
    "scan-resonant": _scan_resonant,
    "contour-far-detuned": _contour_far_detuned,
    "montecarlo-phase-noise": _montecarlo,
    "decay-gamma": _decay_gamma,
}


def build(name: str, seed: int, configs: Path) -> tuple[Invocation, ...]:
    """One round of the workload's invocations."""
    rng = random.Random(f"{name}:{seed}")
    return tuple(BUILDERS[name](configs, rng))
