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
from pathlib import Path

import pytest

from uavnoma.cli import main

REPO = Path(__file__).resolve().parent.parent
CONFIGS = sorted(p.name for p in (REPO / "configs").glob("*.json"))
TRIALS = 300

CSV_SHA256 = {
    "uav_centric_power_los_m2.json": "ff26667769953d79fbe67cb43607c59d9028955bd918f10843a7fb8bdbe621c2",
    "uav_centric_power_nlos_ipsic00.json": "ce4a690e93162e97f316f5a78f27e9626e131b2b5e56f42be63ff25e741a3c0a",
    "uav_centric_power_nlos_ipsic01.json": "9eb1303e110e309bea6cb791a33a032f4a58116bbfa1136727561d29b884dc84",
    "uav_centric_power_nlos_ipsic05.json": "19f0da03fec42dbcee873028152f43887376b4f9d47680bd5ea5365c0d19afcb",
    "uav_centric_rate_noma_m3.json": "02c3dacaf5e783537628b42a3626701df7da767d6893c6f02295e56e135b26f9",
    "uav_centric_rate_oma_m3.json": "92dbac813f01df528a78f16eeb406c0ebe2fa4dd012b3391f4eafe0f8f8aa0e3",
    "user_centric_fixed_distance.json": "8351cd8a6bc1ecfc92349ddcd3e10982a5340807cd48844615ecf8faf8ed67cb",
    "user_centric_power_los_m2.json": "ef4759e90d4b0d5bfb4e0ce777983d9e9dbb232e5867911a915e80ad33836813",
    "user_centric_power_nlos_ipsic00.json": "4266a4833b32a4b44f79db03aa8aff816672e3678949200a283bbb420029a56a",
    "user_centric_power_nlos_ipsic01.json": "3301b32fd3f57e089bdcfc3010ad86ae42a94d8a3dea91f702d0066012dd6694",
    "user_centric_power_nlos_ipsic03.json": "a21a252ab3b908b0f6fe389849dd156e82e5b09660c3c4295741c392fe10d1a9",
    "user_centric_rate_noma_m3.json": "adaeb9c3528c6a41cfa491141507d50d129329cc53ce56bbbc61fbb038ce5ec5",
    "user_centric_rate_oma_m3.json": "6ac752cc305a1cb741f73ca11b521e9f5ba76d2e2b1c0d30ac7d31c6b24be2b2",
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


if __name__ == "__main__":
    os.environ["UAVNOMA_THREADS"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            with contextlib.redirect_stdout(io.StringIO()):
                digest = sweep_digest(name, Path(tmp))
            print(f'    "{name}": "{digest}",')
