"""The uavnoma benchmark: set-up time, sweep throughput, point latency, and
per-layer traces, on three workloads built from the shipped configs.

Run from the repository root:

    python3 perfbench/run.py --workload analytic-uav --seed 1 --seconds 4 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes one sweep pass, one untraced and one traced point pass,
and reports the per-layer metrics and the tracing overhead. Every metric is
printed by name with its unit; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--smoke`` runs one or two cheap points per workload (seconds, not minutes).
See perfbench/README.md for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MAX_PROBLEMS_SHOWN = 20

END_TO_END_UNITS = {
    "setup_s": "s",
    "sweep_points_per_s": "points/s",
    "point_s_p50": "s",
    "point_s_tail": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

PER_LAYER_UNITS = {
    "cli.load_s": "s",
    "cli.evaluate_point.self_s": "s",
    "cli.pool_efficiency": "ratio",
    "uav.coverage_pair.calls": "count",
    "uav.coverage_pair.self_s": "s",
    "uc.coverage.calls": "count",
    "uc.coverage.self_s": "s",
    "laplace.cond_cov.calls_per_point": "calls/point",
    "laplace.cond_cov.self_s": "s",
    "laplace.radial.calls": "count",
    "laplace.radial.self_s": "s",
    "laplace.radial.series_frac": "ratio",
    "laplace.radial.quad_calls": "count",
    "laplace.ring.calls": "count",
    "laplace.ring.self_s": "s",
    "specfun.faa.calls": "count",
    "specfun.faa.self_s": "s",
    "mc.geometry.calls": "count",
    "mc.geometry.trials": "count",
    "mc.geometry.self_s": "s",
    "mc.geometry.us_per_trial": "us",
    "mc.evaluate.calls": "count",
    "mc.evaluate.trials": "count",
    "mc.evaluate.self_s": "s",
    "mc.reuse_ratio": "ratio",
    "mc.batch_mb": "MB",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}

# Counts that do not depend on the host; they must repeat exactly between runs.
HOST_INDEPENDENT = tuple(
    name
    for name, unit in PER_LAYER_UNITS.items()
    if unit in ("count", "calls/point")
) + ("laplace.radial.series_frac", "mc.reuse_ratio", "mc.batch_mb")


class Tally:
    """Points attempted and failed, with the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, points: int, failed: int, problems: list[str]):
        self.attempted += points
        self.failed += failed
        self.problems.extend(problems)


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    # users get the default pool size (all cores)
    env.pop("UAVNOMA_THREADS", None)
    return env


def setup_probes(config_paths: list[str], repeats: int) -> list[float]:
    """Time from spawning a fresh interpreter until it has imported uavnoma and
    parsed the configs."""
    walls = []
    for _ in range(repeats):
        spawned = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *config_paths],
            env=child_env(),
            cwd=ROOT,
            check=True,
            stdout=subprocess.PIPE,
            text=True,
        )
        walls.append(float(done.stdout) - spawned)
    return walls


def measure(job: dict) -> tuple[dict, float]:
    """Run measure.py on the job; returns its result and its own set-up time
    (spawn until it had imported uavnoma and parsed the configs)."""
    spawned = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), json.dumps(job)],
        env=child_env(),
        cwd=ROOT,
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result, result["ready"] - spawned


def check_sweeps(result: dict, parts, refs: dict, trials: int, tally: Tally) -> int:
    """Check every sweep CSV; returns the points of sweeps that completed."""
    from checks import check_csv

    points_done = 0
    for calls in result["sweep_passes"]:
        for (part, _, values), call in zip(parts, calls):
            if call["rc"] != 0:
                tally.add(len(values), len(values), [f"sweep {part.name}: {call}"])
                continue
            failed, problems = check_csv(
                Path(call["out"]), part.name, part.mode, values, refs,
                result["csv_columns"], trials,
            )
            tally.add(len(values), failed, problems)
            points_done += len(values)
    return points_done


def check_points(
    samples: list, parts, refs: dict, trials: int, tally: Tally
) -> list[float]:
    """Check the rows of one serial pass; returns the times of the points that
    completed."""
    from checks import check_point

    times = []
    for i, value, seconds, rows in samples:
        part = parts[i][0]
        if seconds is None:
            tally.add(1, 1, [f"{part.name} {value}: {rows}"])
            continue
        times.append(seconds)
        problems = check_point(part.name, part.mode, rows, refs, trials)
        tally.add(1, bool(problems), problems)
    return times


def tail_percentile(min_samples: int) -> int:
    """Highest whole percentile with at least ten samples beyond it, at the
    workload's minimum sample count; fixed per workload so a faster program
    that completes more passes is compared at the same percentile."""
    return max(0, math.floor(100 * (min_samples - 10) / min_samples))


def nearest_rank(samples: list[float], pct: float) -> float:
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def pool_workers(result: dict, parts) -> int:
    return min(result["workers"], max(len(values) for _, _, values in parts))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(parts, job, smoke: bool, refs, trials, tally, prov) -> dict:
    # three probes before and three after the measuring process, whose own
    # start is the middle sample
    probes = 0 if smoke else 3
    setup = setup_probes(job["configs"], probes)
    result, child_setup = measure(job)
    setup += [child_setup] + setup_probes(job["configs"], probes)

    points_done = check_sweeps(result, parts, refs, trials, tally)
    sweep_wall = sum(c["wall_s"] for calls in result["sweep_passes"] for c in calls)
    workers = pool_workers(result, parts)
    peak_kb = result["maxrss_self_kb"] + workers * result["maxrss_children_kb"]

    samples = []
    for point_pass in result["point_passes"]:
        samples.extend(check_points(point_pass, parts, refs, trials, tally))
    pct = tail_percentile(len(result["point_passes"][0]) * job["min_passes"])

    prov.update(
        setup_s_samples=setup,
        sweep_passes=len(result["sweep_passes"]),
        pool_workers=workers,
        latency_passes=len(result["point_passes"]),
        point_samples=len(samples),
        point_s_tail_percentile=pct,
    )
    return {
        "setup_s": statistics.median(setup),
        "sweep_points_per_s": points_done / sweep_wall,
        "point_s_p50": statistics.median(samples),
        "point_s_tail": nearest_rank(samples, pct),
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
    }


def per_layer(parts, job, refs, trials, tally, prov) -> dict:
    result, _ = measure(job)
    check_sweeps(result, parts, refs, trials, tally)
    workers = pool_workers(result, parts)
    pool_capacity = sum(
        call["wall_s"] * min(workers, len(values))
        for (_, _, values), call in zip(parts, result["sweep_passes"][0])
    )
    untraced_pass, traced_pass = result["point_passes"]
    untraced = sum(check_points(untraced_pass, parts, refs, trials, tally))
    traced = sum(check_points(traced_pass, parts, refs, trials, tally))

    summary = result["tracer"]
    layers = summary["layers"]
    points = len(traced_pass)
    radial_calls = layers["laplace.radial"][0]
    quad_calls = summary["quad_calls"]
    geometry_trials = summary["geometry_trials"]
    evaluate_trials = summary["evaluate_trials"]

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "cli.load_s": statistics.median(result["load_s"]),
        "cli.pool_efficiency": ratio(untraced, pool_capacity),
        "laplace.cond_cov.calls_per_point": ratio(layers["laplace.cond_cov"][0], points),
        "laplace.radial.series_frac": ratio(radial_calls - quad_calls, radial_calls),
        "laplace.radial.quad_calls": quad_calls,
        "mc.geometry.trials": geometry_trials,
        "mc.geometry.us_per_trial": 1e6 * ratio(layers["mc.geometry"][1], geometry_trials),
        "mc.evaluate.trials": evaluate_trials,
        "mc.reuse_ratio": ratio(evaluate_trials, geometry_trials),
        "mc.batch_mb": summary["batch_bytes"] / 1e6,
        "trace.overhead_s": traced - untraced,
        "trace.overhead_frac": ratio(traced - untraced, untraced),
    }
    for span, (calls, self_s) in layers.items():
        metrics[f"{span}.calls"] = calls
        metrics[f"{span}.self_s"] = self_s
    prov.update(
        pool_workers=workers,
        untraced_pass_s=untraced,
        traced_pass_s=traced,
        spans=summary["spans"],
        spans_file=job["spans_file"],
        mc_batch_mb="computed from the batch array sizes",
    )
    return {name: metrics[name] for name in PER_LAYER_UNITS}


# ---------------------------------------------------------------------------
# provenance and entry point
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(workload: str, seed: int, seconds: int, trace: int, smoke: bool) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "uavnoma").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one or two cheap points")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "uavnoma" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no uavnoma sources under {ROOT}", file=sys.stderr)
        return 2
    from checks import REFERENCES, load_references
    from workloads import MC_TRIALS, SMOKE_MC_TRIALS, WORKLOADS, write_configs

    workload = WORKLOADS[args.workload]
    refs = load_references(REFERENCES)
    trials = SMOKE_MC_TRIALS if args.smoke else MC_TRIALS
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    written = write_configs(workload, args.seed, work / "configs", args.smoke)
    parts = [
        (part, path, [float(v) for v in json.loads(path.read_text())["sweep"]["values"]])
        for part, path in written
    ]
    (work / "out").mkdir()
    min_passes = 1 if args.smoke else workload.min_passes
    job = {
        "configs": [str(path) for _, path, _ in parts],
        "out_dir": str(work / "out"),
        "trace": args.trace,
        "sweep_budget_s": args.seconds / 2,
        "latency_budget_s": args.seconds / 2,
        "min_passes": min_passes,
        "spans_file": str((work / "spans.npz").relative_to(ROOT)),
    }

    tally = Tally()
    prov = provenance(workload.name, args.seed, args.seconds, args.trace, args.smoke)
    if args.trace:
        metrics = per_layer(parts, job, refs, trials, tally, prov)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(parts, job, args.smoke, refs, trials, tally, prov)
        units = END_TO_END_UNITS

    for problem in tally.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"check failed: {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"failed_frac = {tally.failed / tally.attempted!r} ratio")
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
