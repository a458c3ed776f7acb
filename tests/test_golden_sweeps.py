"""Golden pins of the Monte Carlo sweep CSVs of every shipped config.

Each shipped config is copied with ``sweep.mode`` set to ``mc`` and
``sweep.trials`` to a few hundred, swept through ``uavnoma sweep``, and the
SHA-256 of the CSV is compared with a pin. ``mc`` mode leaves ``p_analytic``
empty, so the bytes depend only on the random-stream layout, the evaluation
phase and the CSV format: a pin moves only when one of those changes on
purpose. Regenerate the pins with

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


def sweep_digest(name: str, work_dir: Path) -> str:
    """SHA-256 of the ``mc`` sweep CSV of shipped config ``name``."""
    raw = json.loads((REPO / "configs" / name).read_text())
    raw["sweep"]["mode"] = "mc"
    raw["sweep"]["trials"] = TRIALS
    config = work_dir / name
    config.write_text(json.dumps(raw))
    out = work_dir / f"{Path(name).stem}.csv"
    if main(["sweep", "--config", str(config), "--out", str(out)]) != 0:
        raise RuntimeError(f"sweep of {name} failed")
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_every_shipped_config_is_pinned():
    assert sorted(CSV_SHA256) == CONFIGS


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
        for name in CONFIGS:
            with contextlib.redirect_stdout(io.StringIO()):
                digest = sweep_digest(name, Path(tmp))
            print(f'    "{name}": "{digest}",')
