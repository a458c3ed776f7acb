"""Repeat the benchmark over seeds, then summarise or compare sets of runs.

From the repository root:

    # ten untraced runs per workload, one result record per line
    python3 perfbench/repeat.py run --seeds 1-10 --out set-a.jsonl
    # one traced run per workload, appended to the same set
    python3 perfbench/repeat.py run --seeds 1 --trace 1 --out set-a.jsonl
    # spreads: (q3 - q1) / median of every end-to-end metric, against its bound
    python3 perfbench/repeat.py summary set-a.jsonl
    # a second set: medians within the bounds, counters identical
    python3 perfbench/repeat.py summary set-b.jsonl --against set-a.jsonl
    # record a set as the baseline later runs compare their counters with
    python3 perfbench/repeat.py summary set-a.jsonl --baseline perfbench/baseline.json

Runs are made one after another, never in parallel, so they do not compete
for the cores they measure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
from run import HOST_INDEPENDENT  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_set(args) -> None:
    workloads = args.workloads or [w["name"] for w in BENCHMARK["workloads"]]
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in seed_list(args.seeds):
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
                    "--trace", str(args.trace),
                ]
                t0 = time.perf_counter()
                done = subprocess.run(
                    command, cwd=ROOT, capture_output=True, text=True, timeout=900
                )
                wall = time.perf_counter() - t0
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    sys.exit(f"{workload} seed {seed} failed:\n{done.stderr}")
                prov = next(
                    (json.loads(l[11:]) for l in lines if l.startswith("provenance ")), {}
                )
                record = {
                    "workload": workload, "seed": seed, "trace": args.trace,
                    "wall_s": wall, "result": json.loads(lines[-1]), "provenance": prov,
                }
                out.write(json.dumps(record) + "\n")
                out.flush()
                print(f"{workload} seed={seed} trace={args.trace} {wall:.1f}s "
                      f"correct={record['result']['correct']}", flush=True)


def load(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


def medians(records: list[dict]) -> dict:
    """Per workload and end-to-end metric: median, quartiles and spread."""
    table = {}
    for workload in dict.fromkeys(r["workload"] for r in records if not r["trace"]):
        runs = [r for r in records if r["workload"] == workload and not r["trace"]]
        table[workload] = {"runs": len(runs), "wall_s": statistics.median(r["wall_s"] for r in runs)}
        for metric in BENCHMARK["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            table[workload][metric["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            }
    return table


def traced(records: list[dict]) -> dict:
    return {
        r["workload"]: {k: v["value"] for k, v in r["result"]["metrics"].items()}
        for r in records
        if r["trace"]
    }


def summary(args) -> int:
    records = load(args.set)
    table = medians(records)
    bad = 0
    for r in records:
        if not r["result"]["correct"]:
            bad += 1
            print(f"INCORRECT {r['workload']} seed={r['seed']} failed={r['result']['failed']}")
    for workload, row in table.items():
        print(f"{workload}: {row['runs']} runs, median run wall {row['wall_s']:.1f}s")
        for metric in BENCHMARK["end_to_end"]:
            cell, bound = row[metric["name"]], metric["bound"]
            flag = "ok" if cell["spread"] < bound / 3 else "wide" if cell["spread"] <= bound else "OVER"
            bad += flag == "OVER"
            print(f"  {metric['name']:20s} median {cell['median']:.6g} {metric['unit']:9s}"
                  f" spread {cell['spread']:.3f} bound {bound} {flag}")
    if args.against:
        bad += compare(load(args.against), records, table)
    if args.baseline:
        first = next(r for r in records if r["trace"] == 0)
        Path(args.baseline).write_text(json.dumps({
            "provenance": {k: first["provenance"].get(k) for k in (
                "git_commit", "src_sha256", "nproc", "python", "numpy", "scipy",
                "platform", "pool_workers", "seconds")},
            "end_to_end": table,
            "per_layer": traced(records),
        }, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


def compare(first: list[dict], second: list[dict], table: dict) -> int:
    """Second set against the first: medians within bounds, counters identical."""
    bad = 0
    before = medians(first)
    for workload, row in table.items():
        for metric in BENCHMARK["end_to_end"]:
            if workload not in before:
                continue
            a = before[workload][metric["name"]]["median"]
            b = row[metric["name"]]["median"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            flag = "ok" if worse <= metric["bound"] else "WORSE"
            bad += flag != "ok"
            print(f"  {workload} {metric['name']}: {a:.6g} -> {b:.6g} ({worse:+.3f} worse) {flag}")
    counters_a, counters_b = traced(first), traced(second)
    for workload in counters_a.keys() & counters_b.keys():
        moved = [n for n in HOST_INDEPENDENT if counters_a[workload][n] != counters_b[workload][n]]
        bad += bool(moved)
        print(f"  {workload} counters: " + ("identical" if not moved else f"MOVED {moved}"))
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--workloads", nargs="*")
    p_run.add_argument("--seeds", default="1-10")
    p_run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_run.add_argument("--out", required=True)
    p_sum = sub.add_parser("summary")
    p_sum.add_argument("set")
    p_sum.add_argument("--against")
    p_sum.add_argument("--baseline")
    args = parser.parse_args(argv)
    if args.command == "run":
        run_set(args)
        return 0
    return summary(args)


if __name__ == "__main__":
    sys.exit(main())
