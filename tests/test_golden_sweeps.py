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
    "uav_centric_power_los_m2.json": "6aa6187cf612beacf74f348b8c5d1ada51288de53dc8284fea2c62ba43f321f6",
    "uav_centric_power_nlos_ipsic00.json": "05ccea1037be3a9467d16047dc7d944b547710f09211005c0658d38cca7ee231",
    "uav_centric_power_nlos_ipsic01.json": "c3de1160b1acaf569f0a89e08a3034e5cf466e9fc69c04971a2c013e5dcfc375",
    "uav_centric_power_nlos_ipsic05.json": "cb574e79f03de75e4c2bc28736ae9b79525cbb29b5734d389960c2b4a25f7252",
    "uav_centric_rate_noma_m3.json": "4884aa9a1ecf61abf9cc027d4976e6669180ddc0f1c0586be3a3c0af7a86a9fe",
    "uav_centric_rate_oma_m3.json": "b850d59956dee3379dba5719e4643b0c3a6d4befb55484c10a45d0522d8108d7",
    "user_centric_fixed_distance.json": "9ddbd7058f15e5982448654b73bc78e54ae319d85a6357aa6217a4941e3b67fb",
    "user_centric_power_los_m2.json": "fd2caaa00f07b02ec9412191e98ba75147d514ea3bf92ae12c08de5ba7f12491",
    "user_centric_power_nlos_ipsic00.json": "425eb92fe833778f335d8a42cd1e748b8b0ccbb50b3370d059cdabdb97729339",
    "user_centric_power_nlos_ipsic01.json": "2d6b83a8a10ab598d6abc146504db7d88375674f4b2e377872727fbffcf01e8f",
    "user_centric_power_nlos_ipsic03.json": "4905370ed2da8d2aceee0bcd2b87ced002fb911a184f528f8f7fc7c26fc01228",
    "user_centric_rate_noma_m3.json": "77c96b887165b356e646667a66db0ddbb198bdbdb7c1e157aa24d0f38bd1ede1",
    "user_centric_rate_oma_m3.json": "b18f625e27ad3ad59643d33adbe8bd55ccaa81ff4ddbaabbe55fb459207c1ab4",
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
    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 1)
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

    monkeypatch.setattr(montecarlo, "_MIN_RANGE_BLOCKS", 1)
    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 2)
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Recording)
    assert sweep_digest(name, tmp_path) == CSV_SHA256[name]
    groups = 8 if name == "user_centric_fixed_distance.json" else 1
    assert pools == [2] * groups


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for table, mode in (("CSV_SHA256", "mc"), ("ANALYTIC_CSV_SHA256", "analytic")):
            print(f"{table} = {{")
            for name in CONFIGS:
                with contextlib.redirect_stdout(io.StringIO()):
                    digest = sweep_digest(name, Path(tmp), mode)
                print(f'    "{name}": "{digest}",')
            print("}")
