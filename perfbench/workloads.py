"""Benchmark workloads and the sweep configs generated for them.

Every workload is a list of parts. A part is one shipped config from
``configs/`` with its ``sweep.mode``, ``sweep.trials`` and ``sweep.seed``
overridden (and, for one, its values narrowed). The generated files are the
only input the program sees.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ROOT / "configs"

MC_TRIALS = 5_000
SMOKE_MC_TRIALS = 500


@dataclass(frozen=True)
class Part:
    """One generated sweep config.

    values             sweep values; None keeps the shipped ones
    smoke              values run at smoke size; None means the first value
    """

    name: str
    source: str
    mode: str
    values: tuple[float, ...] | None = None
    smoke: tuple[float, ...] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    parts: tuple[Part, ...]
    # serial point-latency passes every run makes at least; fixes the tail
    # percentile (see run.tail_percentile)
    min_passes: int


def _user_centric_parts() -> tuple[Part, ...]:
    return tuple(
        Part(path.stem, path.name, "analytic")
        for path in sorted(SHIPPED.glob("user_centric_*.json"))
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analytic-uav",
            "UAV-centric closed forms (m=1 power sweep, m=3 rate points): nested "
            "adaptive quad, the exponent series and Faa di Bruno take the time",
            (
                Part("uav_m1_power", "uav_centric_power_nlos_ipsic00.json", "analytic"),
                Part(
                    "uav_m3_rate",
                    "uav_centric_rate_noma_m3.json",
                    "analytic",
                    values=(0.25, 1.25, 2.0),
                    smoke=(),
                ),
            ),
            min_passes=2,
        ),
        Workload(
            "analytic-user",
            "all seven user-centric closed-form sweeps: one radial-tail exponent "
            "per kernel call and the split radial integral, 56 points of 4-17 ms",
            _user_centric_parts(),
            min_passes=4,
        ),
        Workload(
            "mc-shared-geometry",
            "Monte Carlo power sweeps at 5k trials: every point shares one "
            "geometry key, so reuse across points would lift sweep throughput, "
            "while a point evaluated alone cannot reuse",
            (
                Part("mc_uav_power", "uav_centric_power_nlos_ipsic00.json", "mc"),
                Part("mc_user_power", "user_centric_power_nlos_ipsic01.json", "mc"),
            ),
            min_passes=2,
        ),
    )
}


def part_config(part: Part, seed: int, trials: int, smoke: bool = False) -> dict:
    """The generated config of one part: the shipped file with overrides."""
    raw = json.loads((SHIPPED / part.source).read_text())
    sweep = raw["sweep"]
    if part.values is not None:
        sweep["values"] = list(part.values)
    if smoke:
        sweep["values"] = (
            sweep["values"][:1] if part.smoke is None else list(part.smoke)
        )
    sweep["mode"] = part.mode
    sweep["seed"] = seed
    if part.mode == "mc":
        sweep["trials"] = trials
    return raw


def write_configs(
    workload: Workload, seed: int, out_dir: Path, smoke: bool = False
) -> list[tuple[Part, Path]]:
    """Write the workload's configs; parts left empty at smoke size are skipped."""
    out_dir.mkdir(parents=True, exist_ok=True)
    trials = SMOKE_MC_TRIALS if smoke else MC_TRIALS
    written = []
    for part in workload.parts:
        raw = part_config(part, seed, trials, smoke)
        if not raw["sweep"]["values"]:
            continue
        path = out_dir / f"{part.name}.json"
        path.write_text(json.dumps(raw, indent=1))
        written.append((part, path))
    return written
