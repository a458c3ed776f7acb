"""Tests of the benchmark itself, at smoke size (a few seconds per workload).

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--seed", "3", "--seconds", "1", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_matches_the_runner():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS
    assert any(m["name"] == "setup_s" for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--trace", str(trace), "--smoke")
    result = result_of(done)
    expected = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in expected}
    lines = done.stdout.splitlines()
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(
            line.startswith(f"{metric['name']} = ") and line.endswith(f" {metric['unit']}")
            for line in lines
        ), metric["name"]
    assert "failed_frac = 0.0 ratio" in lines
    provenance = json.loads(
        next(line for line in lines if line.startswith("provenance "))[11:]
    )
    for key in ("nproc", "python", "numpy", "scipy", "git_commit", "seed", "pool_workers"):
        assert key in provenance
    if not trace:
        assert "point_s_tail_percentile" in provenance
        assert "point_samples" in provenance


@pytest.mark.parametrize(
    "workload, key, field, shift",
    [
        ("analytic-uav", "uav_m1_power|-60|near", "p_analytic", 1e-3),
        ("mc-shared-geometry", "mc_uav_power|-60|far", "p_mc", 0.2),
    ],
)
def test_tampered_reference_counts_in_failed_frac(
    tmp_path, monkeypatch, capsys, workload, key, field, shift
):
    pinned = json.loads(checks.REFERENCES.read_text())
    pinned["points"][key][field] += shift
    tampered = tmp_path / "references.json"
    tampered.write_text(json.dumps(pinned))
    monkeypatch.setattr(checks, "REFERENCES", tampered)
    args = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"]
    assert run.main([*args, "--smoke"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    failed_frac = next(line for line in lines if line.startswith("failed_frac = "))
    assert float(failed_frac.split()[2]) == result["failed"] / result["attempted"] > 0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(
        "--workload", WORKLOAD_NAMES[0], "--trace", "0",
        cwd=tmp_path, script=tmp_path / HERE.name / "run.py",
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_mc_check_rejects_a_point_that_ran_other_than_the_workload_trials():
    key = "mc_uav_power|-60|far"
    ref = checks.load_references()[key]
    row = {"value": -60.0, "user_role": "far", "p_analytic": None,
           "p_mc": ref["p_mc"], "trials": 5000}
    refs = {key: ref}
    assert checks.check_row("mc_uav_power", "mc", row, refs, 5000) is None
    assert checks.check_row("mc_uav_power", "mc", row, refs, 4000) is not None


def test_mc_bound_accepts_an_unbiased_estimate_and_rejects_a_bias():
    assert checks.false_failure_probability(0.5, checks.REF_TRIALS, 5000) < 1e-6
    assert checks.false_failure_probability(0.001, checks.REF_TRIALS, 5000) < 1e-6
    # a 5-point bias at p = 0.5 with 5k trials is far outside the bound
    assert 0.05 > checks.mc_bound(0.55, 5000, 0.5, checks.REF_TRIALS)


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in (11, 22, 32, 24, 224):
        pct = run.tail_percentile(n)
        samples = list(range(n))
        beyond = [s for s in samples if s > run.nearest_rank(samples, pct)]
        assert len(beyond) >= 10
        assert len([s for s in samples if s > run.nearest_rank(samples, pct + 1)]) < 10
