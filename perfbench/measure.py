"""The measuring process of one benchmark run, a fresh interpreter.

It imports uavnoma and parses the workload's configs (the moment it is ready
is one set-up sample), then:

* untraced: alternates sweep passes, each sweeping every config through
  ``uavnoma.cli.main(["sweep", ...])`` into its own CSVs, with point passes,
  each evaluating every point alone with ``cli.evaluate_point``, serial,
  until each kind has had its share of the run (at least one sweep pass and
  the workload's minimum of point passes);
* traced: makes one sweep pass, then evaluates every point twice, once
  untraced and once traced, back to back, and writes the spans to the job's
  spans file.

It notes the peak resident sets of itself after its first sweep pass and of
its largest pool worker (the workers are reaped when each sweep ends).

Prints one JSON line; the parent (run.py) checks every output against the
pinned references and turns the timings into metrics.
"""

import contextlib
import io
import itertools
import json
import resource
import sys
import time
from pathlib import Path

from uavnoma import cli


def load(config: str):
    raw = cli.load_config(config)
    return (
        cli.parse_network(raw.get("network", {})),
        cli.parse_link(raw.get("link", {})),
        cli.parse_sweep(raw.get("sweep", {})),
    )


def sweep_pass(configs: list[str], out_dir: Path, index: int) -> list:
    calls = []
    for config in configs:
        out = out_dir / f"{Path(config).stem}.pass{index}.csv"
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["sweep", "--config", config, "--out", str(out)])
        except Exception as exc:  # reported as a failed sweep
            rc, error = None, repr(exc)
        calls.append(
            {"out": str(out), "wall_s": time.perf_counter() - t0, "rc": rc, "error": error}
        )
    return calls


def point_order(parsed) -> list[tuple[int, float]]:
    """Points of all parts taken in turn, so each part's samples spread over
    the whole pass rather than one stretch of it."""
    return [
        pair
        for group in itertools.zip_longest(
            *[[(i, v) for v in spec.values] for i, (_, _, spec) in enumerate(parsed)]
        )
        for pair in group
        if pair is not None
    ]


def point_pass(parsed, order) -> list:
    """[part index, value, seconds or None, rows or error] per point."""
    samples = []
    for i, value in order:
        cfg, link, spec = parsed[i]
        t0 = time.perf_counter()
        try:
            rows = cli.evaluate_point(cfg, link, spec, value)
        except Exception as exc:  # a point that raises counts as failed
            samples.append([i, value, None, repr(exc)])
            continue
        samples.append([i, value, time.perf_counter() - t0, rows])
    return samples


def paired_passes(parsed, order, tracer) -> tuple[list, list]:
    """An untraced and a traced pass, made point by point: each point is
    evaluated untraced and traced back to back, which of the two goes first
    alternating from point to point, so the host's drift and a warm second
    evaluation cancel out of the tracing overhead."""
    untraced, traced = [], []
    for k, point in enumerate(order):
        for run_traced in ((False, True) if k % 2 == 0 else (True, False)):
            if not run_traced:
                untraced += point_pass(parsed, [point])
                continue
            tracer.point_id += 1
            with tracer.patched():
                traced += point_pass(parsed, [point])
    return untraced, traced


def maxrss_kb(who) -> int:
    return resource.getrusage(who).ru_maxrss


def main() -> None:
    job = json.loads(sys.argv[1])
    configs, out_dir = job["configs"], Path(job["out_dir"])
    parsed = [load(config) for config in configs]
    result = {
        "ready": time.monotonic(),
        "csv_columns": cli.CSV_COLUMNS,
        "workers": cli.worker_count(),
    }
    order = point_order(parsed)
    sweeps, points = [], []

    if job["trace"]:
        from tracing import Tracer

        sweeps.append(sweep_pass(configs, out_dir, 0))
        result["maxrss_self_kb"] = maxrss_kb(resource.RUSAGE_SELF)
        result["load_s"] = []
        for _ in range(5):
            t0 = time.perf_counter()
            for config in configs:
                load(config)
            result["load_s"].append(time.perf_counter() - t0)
        tracer = Tracer()
        points.extend(paired_passes(parsed, order, tracer))
        tracer.write(Path(job["spans_file"]))
        result["tracer"] = tracer.summary()
    else:
        # Sweep passes and point passes alternate, so both metrics sample the
        # host over the whole run rather than one half of it.
        swept = evaluated = 0.0

        def points_wanted():
            return evaluated < job["latency_budget_s"] or len(points) < job["min_passes"]

        while not sweeps or swept < job["sweep_budget_s"] or points_wanted():
            if not sweeps or swept < job["sweep_budget_s"]:
                t0 = time.perf_counter()
                sweeps.append(sweep_pass(configs, out_dir, len(sweeps)))
                swept += time.perf_counter() - t0
                if len(sweeps) == 1:
                    # the sweep's own peak, before any point pass ran here
                    result["maxrss_self_kb"] = maxrss_kb(resource.RUSAGE_SELF)
            if points_wanted():
                t0 = time.perf_counter()
                points.append(point_pass(parsed, order))
                evaluated += time.perf_counter() - t0

    result["sweep_passes"] = sweeps
    result["point_passes"] = points
    result["maxrss_children_kb"] = maxrss_kb(resource.RUSAGE_CHILDREN)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
