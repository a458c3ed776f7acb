"""Output checks against pinned references, and the command that pins them.

Every workload point has a pinned reference per user role:

* analytic values must lie within ``ANALYTIC_TOL`` (1e-6) of the reference;
* a Monte Carlo estimate must lie within a two-sample binomial bound of the
  pinned estimate, which was drawn with ``REF_TRIALS`` trials under
  ``REF_SEED``, and must have run the workload's trial count. The bound takes z = ``MC_Z`` on the pooled proportion, so a
  fresh workload seed or a deliberate change of the random-stream layout
  passes while a biased estimator fails.

Regenerate the pins (a few minutes, serial) from the repository root with

    python3 perfbench/checks.py
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")
ANALYTIC_TOL = 1e-6
MC_Z = 6.0
REF_SEED = 20240601
REF_TRIALS = 50_000


def point_key(part_name: str, value: float, role: str) -> str:
    # same rendering as the sweep CSV, so CSV rows and in-process rows share keys
    return f"{part_name}|{value:.10g}|{role}"


def load_references(path: Path = REFERENCES) -> dict:
    return json.loads(Path(path).read_text())["points"]


def mc_bound(p: float, n: int, p_ref: float, n_ref: int) -> float:
    """z times the standard error of p - p_ref under the pooled proportion.

    One success is added to each side of the pool so the bound stays
    positive when both estimates are 0 or 1.
    """
    pooled = (p * n + p_ref * n_ref + 1.0) / (n + n_ref + 2.0)
    return MC_Z * math.sqrt(pooled * (1.0 - pooled) * (1.0 / n + 1.0 / n_ref))


def false_failure_probability(p_ref: float, n_ref: int, n: int) -> float:
    """P(an unbiased n-trial estimate fails the check), taking p_ref as truth."""
    import numpy as np
    from scipy.stats import binom

    k = np.arange(n + 1)
    p = k / n
    pooled = (k + p_ref * n_ref + 1.0) / (n + n_ref + 2.0)
    bound = MC_Z * np.sqrt(pooled * (1.0 - pooled) * (1.0 / n + 1.0 / n_ref))
    fails = np.abs(p - p_ref) > bound
    return float(binom.pmf(k[fails], n, p_ref).sum())


def check_row(
    part_name: str, mode: str, row: dict, refs: dict, trials: int
) -> str | None:
    """Problem with one output row, or None. Row fields are floats or None;
    ``trials`` is the trial count every MC point must have run."""
    key = point_key(part_name, row["value"], row["user_role"])
    ref = refs.get(key)
    if ref is None:
        return f"{key}: no pinned reference"
    if mode == "analytic":
        got = row["p_analytic"]
        if got is None or row["p_mc"] is not None:
            return f"{key}: analytic mode must fill p_analytic only"
        if not abs(got - ref["p_analytic"]) <= ANALYTIC_TOL:
            return f"{key}: p_analytic {got!r} vs pinned {ref['p_analytic']!r}"
        return None
    got = row["p_mc"]
    if got is None or row["p_analytic"] is not None or not row["trials"]:
        return f"{key}: mc mode must fill p_mc and trials only"
    if row["trials"] != trials:
        return f"{key}: ran {row['trials']!r} trials, not {trials}"
    bound = mc_bound(got, trials, ref["p_mc"], ref["trials"])
    if not abs(got - ref["p_mc"]) <= bound:
        return (
            f"{key}: p_mc {got!r} over {trials} trials is outside "
            f"{ref['p_mc']!r} +- {bound:.3g}"
        )
    return None


def check_point(
    part_name: str, mode: str, rows: list[dict], refs: dict, trials: int
) -> list[str]:
    """Problems with the two rows of one point (empty when it passes)."""
    if len(rows) != 2:
        return [f"{part_name}: expected 2 rows per point, got {len(rows)}"]
    problems = (check_row(part_name, mode, r, refs, trials) for r in rows)
    return [p for p in problems if p]


def _number(text: str) -> float | None:
    return float(text) if text else None


def check_csv(
    path: Path, part_name: str, mode: str, values: list[float], refs: dict,
    header: str, trials: int,
) -> tuple[int, list[str]]:
    """Check one sweep CSV; returns (points failed, problems)."""
    with open(path, newline="") as handle:
        lines = list(csv.reader(handle))
    if not lines or ",".join(lines[0]) != header:
        return len(values), [f"{path.name}: header is not CSV_COLUMNS"]
    rows = lines[1:]
    if len(rows) != 2 * len(values):
        return len(values), [
            f"{path.name}: {len(rows)} rows for {len(values)} points"
        ]
    columns = header.split(",")
    failed, problems = 0, []
    for i, value in enumerate(values):
        pair = [dict(zip(columns, r)) for r in rows[2 * i : 2 * i + 2]]
        if any(r["value"] != f"{value:.10g}" for r in pair):
            failed += 1
            problems.append(f"{path.name}: rows of point {i} are not value {value}")
            continue
        parsed = [
            {
                "value": value,
                "user_role": r["user_role"],
                "p_analytic": _number(r["p_analytic"]),
                "p_mc": _number(r["p_mc"]),
                "trials": _number(r["trials"]),
            }
            for r in pair
        ]
        point_problems = check_point(part_name, mode, parsed, refs, trials)
        failed += bool(point_problems)
        problems.extend(point_problems)
    return failed, problems


def regenerate(path: Path = REFERENCES) -> None:
    """Pin every full-size workload point (analytic once, MC at REF_TRIALS)."""
    from uavnoma import cli
    from workloads import MC_TRIALS, WORKLOADS, part_config

    points, worst = {}, 0.0
    for workload in WORKLOADS.values():
        for part in workload.parts:
            raw = part_config(part, REF_SEED, REF_TRIALS)
            cfg = cli.parse_network(raw["network"])
            link = cli.parse_link(raw["link"])
            spec = cli.parse_sweep(raw["sweep"])
            for value in spec.values:
                for row in cli.evaluate_point(cfg, link, spec, value):
                    key = point_key(part.name, value, row["user_role"])
                    if part.mode == "analytic":
                        points[key] = {"p_analytic": row["p_analytic"]}
                    else:
                        points[key] = {"p_mc": row["p_mc"], "trials": row["trials"]}
                        worst = max(
                            worst,
                            false_failure_probability(
                                row["p_mc"], row["trials"], MC_TRIALS
                            ),
                        )
                print(key.rsplit("|", 1)[0], flush=True)
    Path(path).write_text(
        json.dumps(
            {
                "command": "python3 perfbench/checks.py",
                "analytic_tol": ANALYTIC_TOL,
                "mc_z": MC_Z,
                "mc_reference_seed": REF_SEED,
                "mc_reference_trials": REF_TRIALS,
                "mc_worst_false_failure_per_check": worst,
                "points": points,
            },
            indent=1,
        )
        + "\n"
    )


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    regenerate()
