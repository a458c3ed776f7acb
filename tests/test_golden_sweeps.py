"""Golden pins of the sweep CSVs of every shipped config, in both modes.

Each shipped config is copied with ``sweep.mode`` set to ``mc`` and
``sweep.trials`` to a few hundred, swept through ``uavnoma sweep``, and the
SHA-256 of the CSV is compared with a pin. ``mc`` mode leaves ``p_analytic``
empty, so the bytes depend only on the random-stream layout, the evaluation
phase and the CSV format: a pin moves only when one of those changes on
purpose. The same configs with ``sweep.mode`` set to ``analytic`` pin the
closed forms' CSVs, which leave every Monte Carlo column empty. Regenerate
both tables with

    PYTHONPATH=src python tests/test_golden_sweeps.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from uavnoma import montecarlo
from uavnoma.cli import main

REPO = Path(__file__).resolve().parent.parent
CONFIGS = sorted(p.name for p in (REPO / "configs").glob("*.json"))
TRIALS = 300

CSV_SHA256 = {
    "uav_centric_power_los_m2.json": "174dd6fda3059abf0fc309c4b9837abf9ebbe3e2df501f1732ad7debfcf0be89",
    "uav_centric_power_nlos_ipsic00.json": "a743d63d6253fc28466263385a81a606d9ac469abdeab80a783ccebd7a4dddb7",
    "uav_centric_power_nlos_ipsic01.json": "34832e157b44db25eb7fbd41b611c5d0257f9b1c6a822a10f9e8bb91424bbb28",
    "uav_centric_power_nlos_ipsic05.json": "7617b530942db5273bf64a684d40ae1b2b30cb7c330fafd99963ec82cb9be7be",
    "uav_centric_rate_noma_m3.json": "64621fe3dacf69c01e1630cd7e04f98507678c23a5a8756f3f83f0329f651df4",
    "uav_centric_rate_oma_m3.json": "6147aa55525ea24941e91981be928432e8585e98ecb0319a79f4c5ccd4519f50",
    "user_centric_fixed_distance.json": "5058257d035822e830fa06767b8cc6d2c7da3a7425aa0ba78732898df8991869",
    "user_centric_power_los_m2.json": "9decba060c8af4a4c7390605b73cdb5d51c843384fb28d43f3782bb8481d3566",
    "user_centric_power_nlos_ipsic00.json": "b61f61ebea53b7f7df23be169fb1be5f1a569e3c1830e2a8b4474d7eb3e84617",
    "user_centric_power_nlos_ipsic01.json": "00da2430082e7b7631533fe5ed5abe89147f14a2c0a77f18eeb42881ee1040bd",
    "user_centric_power_nlos_ipsic03.json": "b23c7d0b591a8960b48034f237e926444de47d0e06934f1eadb3cc23dff6b3cd",
    "user_centric_rate_noma_m3.json": "e88037e0c831c1bfe0a01e0d46be1680d03992822469ead1a6ccbf1d71612a21",
    "user_centric_rate_oma_m3.json": "5ccf2cc0ed7aed5da3b5843f2dbe20d4226aba006a225bafa7ea650adec835be",
}

ANALYTIC_CSV_SHA256 = {
    "uav_centric_power_los_m2.json": "b3a9c85a0141ad4c83b6be470acc998f98a541d845ba2beb7771f70d8ce2c039",
    "uav_centric_power_nlos_ipsic00.json": "9083c53741696cb3ff7be97340f7f5eabf5f6eada0db24971cb9dfc004486f7c",
    "uav_centric_power_nlos_ipsic01.json": "d1c8f9396092233017076f16a59f44afd772c1ee032dfc77e635f7875b6564fc",
    "uav_centric_power_nlos_ipsic05.json": "18a772528f80a58d8bc8d5487d13f942bd77d4cd32d54e5469f7aa5fad2b874e",
    "uav_centric_rate_noma_m3.json": "bbf3ebea49585f400922277bca6581b8f6906d0d15e671b50f36b535b33396ad",
    "uav_centric_rate_oma_m3.json": "d5c4cba0c1b0a0ece1cfe1710b97aa5d90cb0c9a6f89da1302c6f78baae8bed0",
    "user_centric_fixed_distance.json": "643058392c966f5e0a667e9f901694ec13a0081737419560a7123231479f97d4",
    "user_centric_power_los_m2.json": "b57e12c1a674aca1645463cc7fa66975fd13e76dc1621d268a5bd7f8b88e22c0",
    "user_centric_power_nlos_ipsic00.json": "9fd1d161c24e6a5aa2b4352deb4431c442633f282cd5770bf5f72e94d04436be",
    "user_centric_power_nlos_ipsic01.json": "dfceabde94fd753be8419e8282f42833e07dcf625c8ee6941949f397798a7502",
    "user_centric_power_nlos_ipsic03.json": "38a11625caf9779019b84495ef9f1bae6b16bd4ff15c2f33440d5e7c0db83190",
    "user_centric_rate_noma_m3.json": "f585608ebb01766c9eedde0a9d5b8d83cdc966d17ecab6662568933de5c6add3",
    "user_centric_rate_oma_m3.json": "c8764beb2404c91ed5641274064e1afeee1b86f31f32f72dcc42fdef41d3a1cd",
}


def sweep_digest(name: str, work_dir: Path, mode: str = "mc") -> str:
    """SHA-256 of the ``mode`` sweep CSV of shipped config ``name``."""
    raw = json.loads((REPO / "configs" / name).read_text())
    raw["sweep"]["mode"] = mode
    raw["sweep"]["trials"] = TRIALS
    config = work_dir / name
    config.write_text(json.dumps(raw))
    out = work_dir / f"{Path(name).stem}.csv"
    if main(["sweep", "--config", str(config), "--out", str(out)]) != 0:
        raise RuntimeError(f"sweep of {name} failed")
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_every_shipped_config_is_pinned():
    assert sorted(CSV_SHA256) == CONFIGS
    assert sorted(ANALYTIC_CSV_SHA256) == CONFIGS


@pytest.mark.parametrize("name", CONFIGS)
def test_analytic_sweep_csv_is_pinned(name, tmp_path):
    assert sweep_digest(name, tmp_path, "analytic") == ANALYTIC_CSV_SHA256[name]


@pytest.mark.parametrize("name", CONFIGS)
def test_mc_sweep_csv_is_pinned(name, tmp_path, monkeypatch):
    monkeypatch.setenv("UAVNOMA_THREADS", "1")
    assert sweep_digest(name, tmp_path) == CSV_SHA256[name]


@pytest.mark.parametrize(
    "name",
    [
        "uav_centric_power_nlos_ipsic00.json",
        "user_centric_power_nlos_ipsic01.json",
        "user_centric_fixed_distance.json",  # eight geometry groups
    ],
)
def test_mc_sweep_csv_is_pinned_on_two_threads(name, tmp_path, monkeypatch):
    # TRIALS is 10 blocks, one range at the shipped range length: ranges of
    # one block cut every batch over two threads
    pools = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setenv("UAVNOMA_THREADS", "2")
    monkeypatch.setattr(montecarlo, "_MIN_RANGE_BLOCKS", 1)
    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 2)
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Recording)
    assert sweep_digest(name, tmp_path) == CSV_SHA256[name]
    groups = 8 if name == "user_centric_fixed_distance.json" else 1
    assert pools == [2] * groups


if __name__ == "__main__":
    os.environ["UAVNOMA_THREADS"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        for table, mode in (("CSV_SHA256", "mc"), ("ANALYTIC_CSV_SHA256", "analytic")):
            print(f"{table} = {{")
            for name in CONFIGS:
                with contextlib.redirect_stdout(io.StringIO()):
                    digest = sweep_digest(name, Path(tmp), mode)
                print(f'    "{name}": "{digest}",')
            print("}")
