"""Spans around the calls into each cstirap layer, for the traced run.

The tracer replaces public functions through module attributes from
outside the package; nothing in cstirap is edited. Each call becomes a
span with a parent (the enclosing span on the same thread). Spans are
folded into per-name totals as they close, because the hot layers
(Hamiltonian and envelope evaluation) produce millions of them; what is
kept per span is only what the per-layer metrics need: the duration and
right-hand-side count of every propagation, and the intervals covered by
the children of each experiment-level span.
"""

from __future__ import annotations

import functools
import json
import threading
from time import perf_counter

# (metric layer name, module, attribute) of every wrapped function. A name
# imported with `from .x import y` is bound in the importing module too,
# so it is replaced there as well.
WRAPPED = (
    ("cli.parse_config", "cstirap.cli", "parse_config"),
    ("cli.emit_table", "cstirap.cli", "emit_table"),
    ("pulses.make_pair", "cstirap.pulses", "make_pair"),
    ("pulses.make_pair", "cstirap.experiments", "make_pair"),
    ("pulses.make_pair", "cstirap.cli", "make_pair"),
    ("pulses.envelope", "cstirap.pulses", "envelope"),
    ("dynamics.propagate", "cstirap.dynamics", "propagate"),
    ("dynamics.hamiltonian", "cstirap.dynamics", "hamiltonian"),
    ("propalg.compose_sequence", "cstirap.propalg", "compose_sequence"),
    ("experiments.run_scan", "cstirap.experiments", "run_scan"),
    ("experiments.monte_carlo_phase_noise", "cstirap.experiments", "monte_carlo_phase_noise"),
    ("experiments.decay_scan", "cstirap.experiments", "decay_scan"),
)
EXPERIMENT_SPANS = {"experiments.run_scan", "experiments.monte_carlo_phase_noise",
                    "experiments.decay_scan"}


class _Frame:
    __slots__ = ("name", "child_time", "rhs", "intervals")

    def __init__(self, name):
        self.name = name
        self.child_time = 0.0
        self.rhs = 0
        self.intervals = [] if name in EXPERIMENT_SPANS else None


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread = []       # one {name: [calls, total_s, self_s]} per thread
        self._experiment = None     # the open experiment-level frame, if any
        self.propagations = []      # (seconds, rhs evaluations) per propagate call
        self.experiment_self = 0.0

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.stats = {}
            with self._lock:
                self._per_thread.append(local.stats)
        return local.stack, local.stats

    def span(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, stats = self._state()
            frame = _Frame(name)
            if frame.intervals is not None:
                self._experiment = frame
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._close(stack, stats, frame, start, end)
        return traced

    def _close(self, stack, stats, frame, start, end):
        stack.pop()
        duration = end - start
        entry = stats.get(frame.name)
        if entry is None:
            entry = stats[frame.name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame.child_time
        if frame.name == "dynamics.propagate":
            self.propagations.append((duration, frame.rhs))
        if frame.intervals is not None:
            self._experiment = None
            self.experiment_self += duration - _covered(frame.intervals, start, end)
        if stack:
            parent = stack[-1]
            parent.child_time += duration
            if frame.name == "dynamics.hamiltonian":
                parent.rhs += 1
            if parent.intervals is not None:
                parent.intervals.append((start, end))
        elif self._experiment is not None:
            # A root span on a worker thread of the experiment's pool.
            with self._lock:
                self._experiment.intervals.append((start, end))

    def install(self):
        import importlib

        import cstirap.phases
        for name, module, attr in WRAPPED:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.span(name, getattr(mod, attr)))
        # Every CompositeSequence runs __post_init__ once when built.
        seq = cstirap.phases.CompositeSequence
        seq.__post_init__ = self.span("phases.CompositeSequence", seq.__post_init__)

    def summary(self) -> dict:
        totals = {}
        for stats in self._per_thread:
            for name, (calls, total, own) in stats.items():
                agg = totals.setdefault(name, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += own
        return {"spans": totals, "propagations": self.propagations,
                "experiment_self_s": self.experiment_self}

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.summary(), fh)


def _covered(intervals, start, end) -> float:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
