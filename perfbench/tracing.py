"""Per-layer spans recorded from the benchmark's own files.

Each span wraps one call into a layer's public function, patched at the name
its caller looks up (the package imports by name, so e.g. the kernel is
patched as ``analytic_uav_centric.conditional_coverage``, not only in
``laplace``). Spans hold a name, start, end, the span that caused them and
the sweep point they belong to; they stay in memory in flat arrays and are
written out once, when the run ends. A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from uavnoma import analytic_uav_centric, analytic_user_centric, cli, laplace, montecarlo

SPAN_NAMES = (
    "cli.evaluate_point",
    "uav.coverage_pair",
    "uc.coverage",
    "laplace.cond_cov",
    "laplace.radial",
    "laplace.ring",
    "specfun.faa",
    "mc.geometry",
    "mc.evaluate",
)


def _batch_bytes(batch) -> int:
    return sum(v.nbytes for v in vars(batch).values() if isinstance(v, np.ndarray))


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.point = array("q")
        self._stack = [-1]
        self.point_id = -1
        self.quad_calls = 0
        self.geometry_trials = 0
        self.evaluate_trials = 0
        self.batch_bytes = 0

    def wrap(self, span: str, fn, after=None):
        name_id = SPAN_NAMES.index(span)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._stack[-1])
            self.point.append(self.point_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_radial(self, args, result):
        self.quad_calls += result.method == laplace.QUADRATURE

    def _count_geometry(self, args, batch):
        self.geometry_trials += batch.trials
        self.batch_bytes += _batch_bytes(batch)

    def _count_evaluate(self, args, result):
        self.evaluate_trials += args[0].trials

    @contextmanager
    def patched(self):
        """Install the spans for the duration of the block."""
        targets = [
            (cli, "evaluate_point", "cli.evaluate_point", None),
            (analytic_uav_centric, "coverage_pair", "uav.coverage_pair", None),
            (analytic_user_centric, "coverage_typical", "uc.coverage", None),
            (analytic_user_centric, "coverage_fixed", "uc.coverage", None),
            (analytic_uav_centric, "conditional_coverage", "laplace.cond_cov", None),
            (analytic_user_centric, "conditional_coverage", "laplace.cond_cov", None),
            (laplace.RadialTailExponent, "derivatives", "laplace.radial",
             self._count_radial),
            (laplace.NearestRingExponent, "derivatives", "laplace.ring", None),
            (laplace, "exp_composition_derivatives", "specfun.faa", None),
            (montecarlo, "simulate_user_centric", "mc.geometry", self._count_geometry),
            (montecarlo, "simulate_uav_centric", "mc.geometry", self._count_geometry),
            (montecarlo, "evaluate_user_centric", "mc.evaluate", self._count_evaluate),
            (montecarlo, "evaluate_uav_centric", "mc.evaluate", self._count_evaluate),
        ]
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
        try:
            for owner, attr, span, after in targets:
                setattr(owner, attr, self.wrap(span, getattr(owner, attr), after))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int8),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "point": np.array(self.point, dtype=np.int64),
        }

    def summary(self) -> dict:
        """Calls and summed self time per span name, plus the counters."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child_time = np.bincount(
            a["parent"][has_parent],
            weights=duration[has_parent],
            minlength=len(duration),
        )
        self_time = duration - child_time
        calls = np.bincount(a["name"], minlength=len(SPAN_NAMES))
        self_sum = np.bincount(a["name"], weights=self_time, minlength=len(SPAN_NAMES))
        return {
            "spans": len(duration),
            "layers": {
                span: [int(calls[i]), float(self_sum[i])]
                for i, span in enumerate(SPAN_NAMES)
            },
            "quad_calls": self.quad_calls,
            "geometry_trials": self.geometry_trials,
            "evaluate_trials": self.evaluate_trials,
            "batch_bytes": self.batch_bytes,
        }

    def write(self, path: Path) -> None:
        np.savez(path, names=np.array(SPAN_NAMES), **self.arrays())
