"""Tests for the command-line front end."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uavnoma import analytic_uav_centric, analytic_user_centric, montecarlo, quadrature
from uavnoma.cli import (
    CSV_COLUMNS,
    SWEEP_AXES,
    ConfigError,
    SweepSpec,
    _format_row,
    apply_axis,
    evaluate_point,
    load_config,
    main,
    parse_link,
    parse_network,
    parse_sweep,
    worker_count,
)
from uavnoma.scenario import NOMA, SWEPT_FIELDS, NetworkConfig, NomaLink

REPO = Path(__file__).resolve().parent.parent

BASE_CONFIG = {
    "network": {
        "uav_density_per_m2": 1.2732395447351628e-06,
        "tx_power_dbm": -30.0,
        "alpha_desired": 3.0,
    },
    "link": {
        "power_split_far": 0.6,
        "rate_near_bpcu": 1.0,
        "rate_far_bpcu": 0.5,
        "ipsic": 0.0,
        "fixed_user_dist_m": 300.0,
    },
    "sweep": {
        "axis": "tx_power_dbm",
        "values": [-40.0, -30.0],
        "strategy": "user-centric",
        "access": "noma",
        "mode": "both",
        "trials": 2000,
        "seed": 7,
    },
}


def _empty_disc_count(line, trials, radius):
    """The count of an empty-disc warning of a batch of ``trials`` trials."""
    match = re.fullmatch(
        rf"warning: (\d+) of {trials} trials found no UAV in the {radius} m "
        r"simulation disc; their Monte Carlo coverage follows the empty-disc "
        r"convention, not the closed forms'",
        line,
    )
    assert match, line
    return int(match[1])


# two user-centric points whose radial coverage exceeds 1 by less than its
# error estimate, which the range check must admit
OVERSHOOT_WITHIN_ESTIMATE = {
    "noma-m2": {
        "network": {
            "uav_density_per_m2": 4.5558673019532404e-05,
            "uav_height_m": 9.325375443373922,
            "tx_power_dbm": -70.49341329826996,
            "alpha_desired": 2.0,
            "alpha_interf": 8.239734176491869,
            "m_desired": 2,
            "m_interf": 2,
            "noise_watts": 1.1943215116604912e-15,
        },
        "link": {
            "power_split_far": 0.48505273772052726,
            "rate_near_bpcu": 1e-09,
            "rate_far_bpcu": 1e-09,
            "ipsic": 0.2129490749808305,
            "fixed_user_dist_m": 44.785841230048824,
        },
        "sweep": {
            "strategy": "user-centric",
            "access": "noma",
            "axis": "ipsic",
            "values": [0.2129490749808305],
        },
    },
    "oma-m1": {
        "network": {
            "uav_density_per_m2": 3.2824876731407244e-08,
            "uav_height_m": 26408.292725637188,
            "tx_power_dbm": 125.49277784088002,
            "alpha_desired": 2.0,
            "alpha_interf": 7.0088331881962285,
            "m_desired": 1,
            "m_interf": 4,
            "noise_watts": 1.1943215116604912e-15,
        },
        "link": {
            "power_split_far": 0.999999999,
            "rate_near_bpcu": 1e-09,
            "rate_far_bpcu": 14.615065400100884,
            "ipsic": 0.0,
            "fixed_user_dist_m": 1058.4392489851193,
        },
        "sweep": {
            "strategy": "user-centric",
            "access": "oma",
            "axis": "ipsic",
            "values": [0.0],
        },
    },
}


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# every float field of the network and link sections
FLOAT_FIELDS = [
    ("network", key)
    for key in (
        "uav_density_per_m2",
        "tx_power_dbm",
        "alpha_desired",
        "uav_height_m",
        "alpha_interf",
        "sim_disc_radius_m",
        "noise_watts",
        "noise_dbm",
        "noise_bandwidth_hz",
    )
] + [
    ("link", key)
    for key in (
        "power_split_far",
        "rate_near_bpcu",
        "rate_far_bpcu",
        "ipsic",
        "fixed_user_dist_m",
    )
]


@pytest.fixture(autouse=True)
def single_worker(monkeypatch):
    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 1)


class TestConfigParsing:
    def test_defaults_fill_in(self):
        cfg = parse_network({})
        assert cfg.uav_height == 100.0
        assert cfg.noise_power == pytest.approx(1.1943215116604912e-15, rel=1e-9)

    def test_noise_alternatives(self):
        a = parse_network({"noise_dbm": -119.22878745280337})
        b = parse_network({"noise_bandwidth_hz": 300e3})
        assert a.noise_power == pytest.approx(b.noise_power, rel=1e-9)
        c = parse_network({"noise_watts": 2e-15})
        assert c.noise_power == 2e-15

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="network.uav_heihgt_m"):
            parse_network({"uav_heihgt_m": 100.0})
        with pytest.raises(ConfigError, match="network.user_density_per_m2"):
            parse_network({"user_density_per_m2": 1e-5})
        # the UAV-centric Monte Carlo has no ring half-width: its nearest
        # neighbor interferes from its drawn distance
        with pytest.raises(
            ConfigError, match="^network.hole_halfwidth_m: unknown field$"
        ):
            parse_network({"hole_halfwidth_m": 0.1})

    def test_field_type_diagnostic(self):
        with pytest.raises(ConfigError, match="network.tx_power_dbm"):
            parse_network({"tx_power_dbm": "loud"})

    def test_power_split_implies_near_share(self):
        link = parse_link({"power_split_far": 0.7})
        assert link.pw_near == pytest.approx(0.3)

    @pytest.mark.parametrize(
        "first, second",
        [
            ("noise_watts", "noise_dbm"),
            ("noise_watts", "noise_bandwidth_hz"),
            ("noise_dbm", "noise_bandwidth_hz"),
        ],
    )
    def test_noise_given_twice_exits_2_naming_both(self, tmp_path, capsys, first, second):
        values = {"noise_watts": 1e-13, "noise_dbm": -100.0, "noise_bandwidth_hz": 1e6}
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["network"].update({first: values[first], second: values[second]})
        assert main(["analytic", "--config", write_config(tmp_path, payload)]) == 2
        err = capsys.readouterr().err
        assert f"network.{first}" in err and f"network.{second}" in err
        assert "unknown field" not in err

    def test_sweep_requires_axis(self):
        with pytest.raises(ConfigError, match="sweep.axis"):
            parse_sweep({"values": [1.0]})

    def test_sweep_rejects_unknown_axis(self):
        with pytest.raises(ConfigError, match="unknown axis"):
            parse_sweep({"axis": "bananas", "values": [1.0]})

    def test_apply_axis_power_split(self):
        cfg = parse_network({})
        link = parse_link({})
        _, link2 = apply_axis(cfg, link, "power_split_far", 0.8)
        assert (link2.pw_far, link2.pw_near) == (0.8, pytest.approx(0.2))

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("network", "m_desired", 1.7),
            ("sweep", "trials", 2.9),
            ("network", "uav_height_m", True),
            ("sweep", "values", [-30.0, False]),
            ("network", "tx_power_dbm", "-30"),
        ],
    )
    def test_lossy_casts_exit_2(self, tmp_path, capsys, section, key, value):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload[section][key] = value
        out = tmp_path / "o.csv"
        path = write_config(tmp_path, payload)
        assert main(["sweep", "--config", path, "--out", str(out)]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "literal", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400]
    )
    @pytest.mark.parametrize("section,key", FLOAT_FIELDS)
    def test_non_finite_float_exits_2(self, tmp_path, capsys, section, key, literal):
        # json reads NaN, Infinity and 1e400 as floats; NaN passes every
        # range check, so the configs must reject non-finite values outright.
        # An integer of 401 digits is exact in JSON but overflows a float
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload[section][key] = "@"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload).replace('"@"', literal))
        assert main(["analytic", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {section}")

    def test_integral_float_is_an_integer(self):
        assert parse_network({"m_desired": 2.0}).m_desired == 2
        assert type(parse_network({"m_desired": 2.0}).m_desired) is int

    def test_load_config_reports_json_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"network": {,}}')
        with pytest.raises(ConfigError, match="line 1"):
            load_config(str(path))

    @pytest.mark.parametrize("axis", SWEEP_AXES)
    def test_empty_sections_read_the_model_defaults(self, axis):
        assert parse_network({}) == NetworkConfig()
        assert parse_link({}) == NomaLink()
        values = [0.3, 0.5]
        assert parse_sweep({"axis": axis, "values": values}) == SweepSpec(
            axis, tuple(values)
        )

    def test_sweep_axes_move_exactly_the_swept_network_fields(self):
        # each axis moves one field; those of the network are the ones that
        # the points of one sweep may differ in
        cfg, link = NetworkConfig(), NomaLink()
        moved = set()
        for axis in SWEEP_AXES:
            changed = [
                name
                for before, after in zip((cfg, link), apply_axis(cfg, link, axis, 0.3))
                for name in vars(before)
                if getattr(after, name) != getattr(before, name)
            ]
            assert len(changed) == 1, (axis, changed)
            moved.update(name for name in changed if hasattr(cfg, name))
        assert moved == set(SWEPT_FIELDS)

    def test_strategy_and_access_are_checked_by_the_spec(self):
        spec = parse_sweep({"axis": "ipsic", "values": [0.0]})
        with pytest.raises(ConfigError, match="^sweep.strategy: unknown strategy"):
            SweepSpec("ipsic", (0.0,), strategy="drone-centric")
        with pytest.raises(ConfigError, match="^sweep.access: unknown access"):
            dataclasses.replace(spec, access="tdma")

    def test_power_split_is_one_field(self):
        link = NomaLink(pw_far=0.7)
        assert link.pw_near == 1.0 - 0.7
        assert "pw_near" not in {f.name for f in dataclasses.fields(NomaLink)}
        for pw_far in (0.0, 1.0, 1.5):
            refusal = r"^link.power_split_far: pw_far must lie in \(0, 1\)"
            with pytest.raises(ConfigError, match=refusal):
                parse_link({"power_split_far": pw_far})


# every JSON scalar, including floats half-way between integers and the
# NaN and infinities that Python's json accepts
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True),
    st.integers(-50, 50).map(lambda n: n + 0.5),
    st.text(max_size=4),
)


def _parsed(parse, section):
    try:
        return parse(section)
    except ConfigError:
        return None


def _is_number(value):
    return type(value) in (int, float)


class TestConfigParsingProperties:
    """Numbers pass unchanged or are rejected: no truncation, no bool as number."""

    @settings(max_examples=300, deadline=None)
    @given(value=JSON_SCALARS)
    def test_integer_field(self, value):
        spec = _parsed(parse_sweep, {"axis": "ipsic", "values": [0.0], "trials": value})
        if spec is not None:
            assert _is_number(value)
            assert type(spec.trials) is int and spec.trials == value
        if not _is_number(value) or (type(value) is float and not value.is_integer()):
            assert spec is None
        if type(value) is int and value >= 1:
            assert spec is not None

    @settings(max_examples=300, deadline=None)
    @given(value=JSON_SCALARS)
    def test_float_field(self, value):
        cfg = _parsed(parse_network, {"uav_height_m": value})
        if cfg is not None:
            assert _is_number(value)
            assert type(cfg.uav_height) is float and cfg.uav_height == value
        if not _is_number(value) or not math.isfinite(value * value):
            assert cfg is None
        if type(value) is float and 1.0 <= value and math.isfinite(value * value):
            assert cfg is not None

    @settings(max_examples=300, deadline=None)
    @given(value=JSON_SCALARS)
    def test_seed_range(self, value):
        spec = _parsed(parse_sweep, {"axis": "ipsic", "values": [0.0], "seed": value})
        in_range = _is_number(value) and 0 <= value < 2**64
        if spec is not None:
            assert in_range and spec.seed == value
        if type(value) is int:
            assert (spec is not None) == in_range


class TestSweepCommand:
    def test_csv_schema_and_reproducibility(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg_path, "--out", str(out1)]) == 0
        assert main(["sweep", "--config", cfg_path, "--out", str(out2)]) == 0
        data1 = out1.read_bytes()
        assert data1 == out2.read_bytes()
        lines = data1.decode().splitlines()
        assert lines[0] == CSV_COLUMNS
        # 2 sweep points x 2 user roles
        assert len(lines) == 1 + 4
        first = lines[1].split(",")
        assert first[0] == "user-centric" and first[1] == "noma"
        assert first[2] == "typical" and first[3] == "tx_power_dbm"
        assert float(first[5]) > 0 and float(first[6]) > 0

    def test_analytic_only_leaves_mc_columns_empty(self, tmp_path):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["sweep"]["mode"] = "analytic"
        cfg_path = write_config(tmp_path, payload)
        out = tmp_path / "a.csv"
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[5] != "" and row[6] == "" and row[9] == "" and row[10] == ""

    def test_uav_centric_roles(self, tmp_path):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["network"]["alpha_desired"] = 3.5
        payload["link"] = {"rate_near_bpcu": 1.5, "rate_far_bpcu": 1.0, "ipsic": 0.0}
        payload["sweep"].update(
            {"strategy": "uav-centric", "mode": "analytic", "values": [-30.0]}
        )
        cfg_path = write_config(tmp_path, payload)
        out = tmp_path / "u.csv"
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
        roles = [line.split(",")[2] for line in out.read_text().splitlines()[1:]]
        assert roles == ["near", "far"]

    @pytest.mark.parametrize(
        "sweep",
        [
            {},
            # four points in three geometry groups, one of them split
            {"axis": "fixed_user_dist", "values": [300.0, 100.0, 300.0, 600.0],
             "mode": "mc", "trials": 500},
        ],
        ids=["power", "fixed_user_dist"],
    )
    def test_worker_pool_output_matches_serial(self, tmp_path, monkeypatch, sweep):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["sweep"].update(sweep)
        cfg_path = write_config(tmp_path, payload)
        serial = tmp_path / "serial.csv"
        pooled = tmp_path / "pooled.csv"
        assert main(["sweep", "--config", cfg_path, "--out", str(serial)]) == 0
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 2)
        assert main(["sweep", "--config", cfg_path, "--out", str(pooled)]) == 0
        assert serial.read_bytes() == pooled.read_bytes()

    def test_default_thread_count_is_usable_cores(self, monkeypatch):
        # the cores this process may run on, not the host's
        monkeypatch.undo()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert worker_count() == 3

    def test_thread_count_without_affinity_is_cpu_count(self, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity
        monkeypatch.undo()
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert worker_count() == 6

    @pytest.mark.parametrize(
        "sweep, batches",
        [
            ({"strategy": "user-centric"}, 1),
            ({"strategy": "uav-centric"}, 1),
            ({"axis": "fixed_user_dist", "values": [100.0, 450.0]}, 2),
        ],
        ids=["user", "uav", "two-batches"],
    )
    def test_empty_discs_warn_once_per_batch(self, tmp_path, capsys, sweep, batches):
        # a 200 m disc holds 0.16 UAVs per trial on average: 85% are empty
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["network"]["sim_disc_radius_m"] = 200.0
        payload["sweep"].update(sweep, mode="mc", trials=500)
        cfg_path = write_config(tmp_path, payload)
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == batches
        for line in lines:
            assert 380 < _empty_disc_count(line, 500, 200) < 470, line

    @pytest.mark.parametrize(
        "name", ["uav_centric_power_nlos_ipsic00.json", "user_centric_fixed_distance.json"]
    )
    def test_shipped_config_sweep_leaves_stderr_empty(self, tmp_path, capsys, name):
        # the 10 km disc holds 400 UAVs per trial: e^-400 of the discs are empty
        config = str(REPO / "configs" / name)
        out = str(tmp_path / "o.csv")
        assert main(["sweep", "--config", config, "--out", out, "--trials", "320"]) == 0
        assert capsys.readouterr().err == ""

    def test_flag_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "o.csv"
        assert (
            main(
                [
                    "sweep",
                    "--config",
                    cfg_path,
                    "--out",
                    str(out),
                    "--trials",
                    "500",
                    "--seed",
                    "9",
                ]
            )
            == 0
        )
        row = out.read_text().splitlines()[1].split(",")
        assert row[9] == "500" and row[10] == "9"

    def test_flags_do_not_carry_over_to_the_next_call(self, tmp_path):
        # one parser serves every call in a process; a flag given once must
        # not outlive its call
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["sweep"].update({"mode": "mc", "trials": 200})
        cfg_path = write_config(tmp_path, payload)
        out = tmp_path / "o.csv"
        sweep = ["sweep", "--config", cfg_path, "--out", str(out)]
        assert main([*sweep, "--trials", "7"]) == 0
        assert out.read_text().splitlines()[1].split(",")[9] == "7"
        assert main(sweep) == 0
        assert out.read_text().splitlines()[1].split(",")[9] == "200"

    def test_parse_error_exits_2_and_the_next_call_succeeds(self, tmp_path, capsys):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["sweep"]["mode"] = "analytic"
        cfg_path = write_config(tmp_path, payload)
        with pytest.raises(SystemExit) as missing_out:
            main(["sweep", "--config", cfg_path])
        assert missing_out.value.code == 2
        assert "--out" in capsys.readouterr().err
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 4

    def test_infeasible_points_warn_by_axis_value(self, tmp_path, capsys):
        # from rate_near 1.5 on, the shipped m=3 rate sweep has an infeasible
        # far decode threshold for the typical user and an infeasible SIC
        # chain for the fixed user; the warnings leave the CSV and stdout alone
        shipped = REPO / "configs" / "user_centric_rate_noma_m3.json"
        payload = json.loads(shipped.read_text())
        payload["sweep"].update({"mode": "mc", "trials": 200})
        cfg_path = write_config(tmp_path, payload)
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        tail = (
            "infeasible for this power allocation; the affected coverage is "
            "exactly zero"
        )
        assert captured.err.splitlines() == [
            f"warning: rate_near={value}: {role} coefficient is {tail}"
            for value in ("1.5", "1.75", "2")
            for role in ("far decode", "fixed user near/SIC chain")
        ]
        assert captured.out == f"wrote {out}: 8 points, 1 geometry batch\n"

    @pytest.mark.parametrize(
        "sweep,batches",
        [
            ({}, "1 geometry batch"),
            ({"mode": "analytic"}, "0 geometry batches"),
            (
                {"axis": "fixed_user_dist", "values": [100.0, 450.0, 100.0],
                 "mode": "mc", "trials": 200},
                "2 geometry batches",
            ),
        ],
        ids=["power", "analytic", "fixed_user_dist"],
    )
    def test_success_line_counts_geometry_batches(
        self, tmp_path, capsys, sweep, batches
    ):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["sweep"].update(sweep)
        cfg_path = write_config(tmp_path, payload)
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
        points = len(payload["sweep"]["values"])
        assert capsys.readouterr().out == f"wrote {out}: {points} points, {batches}\n"


class TestUnwritableOut:
    @pytest.mark.parametrize("strategy", ["user-centric", "uav-centric"])
    def test_exits_2_before_any_point(self, tmp_path, capsys, monkeypatch, strategy):
        calls = []

        def counting(owner, name):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for owner in (analytic_user_centric, analytic_uav_centric):
            counting(owner, "conditional_coverage")
        for name in ("simulate_user_centric", "simulate_uav_centric"):
            counting(montecarlo, name)
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["sweep"]["strategy"] = strategy
        cfg_path = write_config(tmp_path, payload)
        # an executable regular file passes os.access as a folder would
        afile = tmp_path / "afile"
        afile.write_text("")
        afile.chmod(0o755)
        for out in (tmp_path / "missing" / "o.csv", tmp_path, afile / "o.csv"):
            assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 2
            assert f"error: --out {out}" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "missing").exists()


class TestGeometryGrouping:
    """A sweep simulates each MC geometry once and estimates every point of it
    from that batch."""

    @pytest.mark.parametrize("strategy", ["user-centric", "uav-centric"])
    def test_power_sweep_simulates_once(self, tmp_path, monkeypatch, strategy):
        calls = []

        def counting(name):
            real = getattr(montecarlo, name)

            def simulate(*args):
                calls.append(name)
                return real(*args)

            return simulate

        for name in ("simulate_user_centric", "simulate_uav_centric"):
            monkeypatch.setattr(montecarlo, name, counting(name))
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["sweep"].update(
            {"strategy": strategy, "mode": "mc", "values": [-40.0, -30.0, -20.0]}
        )
        cfg_path = write_config(tmp_path, payload)
        out = str(tmp_path / "o.csv")
        assert main(["sweep", "--config", cfg_path, "--out", out]) == 0
        expected = "simulate_" + strategy.replace("-", "_")
        assert calls == [expected]
        # a point evaluated alone reuses nothing
        cfg, link = parse_network(payload["network"]), parse_link(payload["link"])
        spec = parse_sweep(payload["sweep"])
        for value in spec.values[:2]:
            evaluate_point(cfg, link, spec, value)
        assert calls == [expected] * 3

    @pytest.mark.parametrize("mode", ["analytic", "mc", "both"])
    @pytest.mark.parametrize("access", ["noma", "oma"])
    @pytest.mark.parametrize("strategy", ["user-centric", "uav-centric"])
    def test_interleaved_geometries_match_point_by_point(
        self, tmp_path, capsys, strategy, access, mode
    ):
        # a point is a one-point sweep: its rows are the sweep's, byte for byte
        dense, sparse = 2.0e-6, BASE_CONFIG["network"]["uav_density_per_m2"]
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["sweep"].update(
            {
                "axis": "uav_density",
                "values": [dense, sparse, dense],
                "strategy": strategy,
                "access": access,
                "mode": mode,
                "trials": 300,
            }
        )
        cfg_path = write_config(tmp_path, payload)
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
        batches = "0 geometry batches" if mode == "analytic" else "2 geometry batches"
        assert capsys.readouterr().out.endswith(f"3 points, {batches}\n")
        cfg = parse_network(payload["network"])
        link = parse_link(payload["link"])
        spec = parse_sweep(payload["sweep"])
        expected = [CSV_COLUMNS] + [
            ",".join(_format_row(row))
            for value in spec.values
            for row in evaluate_point(cfg, link, spec, value)
        ]
        assert out.read_text().splitlines() == expected

    @pytest.mark.parametrize(
        "strategy, layout",
        [("uav-centric", [(1, 3_840), (1, 3_840)]), ("user-centric", [(1, 768)])],
    )
    def test_lone_point_layout(self, monkeypatch, strategy, layout):
        # a UAV-centric point's near and far values take a pass each, the
        # user-centric point's two values one pass together
        shapes = []
        integrate_many = quadrature.integrate_many

        def recorded(integrand, boxes, groups):
            def shaped(owner, *axes):
                shapes.append(owner.shape)
                return integrand(owner, *axes)

            return integrate_many(shaped, boxes, groups)

        monkeypatch.setattr(quadrature, "integrate_many", recorded)
        cfg, link = parse_network(BASE_CONFIG["network"]), parse_link(BASE_CONFIG["link"])
        spec = parse_sweep({**BASE_CONFIG["sweep"], "strategy": strategy, "mode": "analytic"})
        evaluate_point(cfg, link, spec, -30.0)
        assert shapes == layout


def _printed(out, user):
    """What a point command printed after "<user>: p=" on that user's line."""
    return next(line for line in out.splitlines() if line.startswith(f"{user}: "))[
        len(f"{user}: p=") :
    ]


class TestPointCommands:
    def test_analytic_point(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        assert main(["analytic", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        assert "typical: p=" in out and "fixed: p=" in out

    def test_analytic_infeasible_warns_and_prints_zero(self, tmp_path, capsys):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["link"]["ipsic"] = 0.9
        payload["link"]["fixed_user_dist_m"] = 90_000.0
        cfg_path = write_config(tmp_path, payload)
        assert main(["analytic", "--config", cfg_path]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert "typical: p=0.000000" in captured.out

    @pytest.mark.parametrize("strategy", ["user-centric", "uav-centric"])
    @pytest.mark.parametrize("access", ["noma", "oma"])
    def test_rate_whose_threshold_overflows_gives_zero(
        self, tmp_path, capsys, strategy, access
    ):
        # 2^2000 overflows a float: the threshold is infeasible, not an error
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["link"]["rate_near_bpcu"] = 2000.0
        payload["sweep"].update(strategy=strategy, access=access, trials=64)
        cfg_path = write_config(tmp_path, payload)
        subject = "typical" if strategy == "user-centric" else "near"
        for command in ("analytic", "mc"):
            assert main([command, "--config", cfg_path]) == 0
            captured = capsys.readouterr()
            assert "near/SIC chain coefficient is infeasible" in captured.err
            assert f"{subject}: p=0.000000" in captured.out
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.count(": near/SIC chain coefficient") == 2
        # the fixed user's NOMA SIC chain decodes the 2000-bpcu signal first
        fixed = 2 if (strategy, access) == ("user-centric", "noma") else 0
        assert err.count("fixed user near/SIC chain coefficient") == fixed
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        subject_rows = [row for row in rows if row[2] == subject]
        assert len(subject_rows) == 2
        assert all(row[5] == "0" and row[6] == "0" for row in subject_rows)

    def test_user_centric_fixed_user_infeasible_warns(self, tmp_path, capsys):
        # typical rate 0.5, fixed rate 0.9, full SIC residue: the fixed user's
        # SIC chain is infeasible while every coefficient of the typical user
        # is finite; the fixed user's coverage then rests on its far role
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["link"].update(rate_near_bpcu=0.5, rate_far_bpcu=0.9, ipsic=1.0)
        cfg_path = write_config(tmp_path, payload)
        warning = (
            "fixed user near/SIC chain coefficient is infeasible for this power "
            "allocation; the affected coverage is exactly zero"
        )
        for command in (["analytic"], ["mc", "--trials", "200"]):
            assert main([*command, "--config", cfg_path]) == 0
            captured = capsys.readouterr()
            assert captured.err == f"warning: {warning}\n"
            assert "fixed: p=0.000000" not in captured.out
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: tx_power_dbm={value}: {warning}" for value in ("-40", "-30")
        ]

    @pytest.mark.parametrize(
        "strategy, network, printed",
        [
            ("user-centric", {"alpha_desired": 100}, ("0.000000", "0.000000")),
            ("user-centric", {"uav_density_per_m2": 1e-300}, ("0.000000", "0.827920")),
            ("uav-centric", {"alpha_desired": 100}, ("0.000000", "0.000000")),
            ("uav-centric", {"uav_density_per_m2": 1e-300}, ("0.000000", "0.000000")),
        ],
    )
    def test_overflow_to_a_dead_node_is_silent(
        self, tmp_path, capsys, strategy, network, printed
    ):
        # d^alpha overflows: c = m M d^alpha is infinite (a dead node) and the
        # interference scale 1 / (m_I d0^alpha_I) tends to 0, its limit; the
        # values are right, and numpy must not warn about them
        payload = {"network": network, "sweep": {"strategy": strategy}}
        cfg_path = write_config(tmp_path, payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analytic", "--config", cfg_path]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        users = ("typical", "fixed") if strategy == "user-centric" else ("near", "far")
        for user, p in zip(users, printed):
            assert f"{user}: p={p}" in captured.out

    @pytest.mark.parametrize("name", sorted(OVERSHOOT_WITHIN_ESTIMATE))
    def test_overshoot_within_its_error_estimate_answers(self, tmp_path, capsys, name):
        # the radial coverage leaves [0, 1] by less than its own error
        # estimate (1.1e-14 against 1.43e-14, 6.9e-15 against 8.7e-15); that
        # is no numerical error, and the value is reported, not clamped
        payload = OVERSHOOT_WITHIN_ESTIMATE[name]
        assert main(["analytic", "--config", write_config(tmp_path, payload)]) == 0
        assert "typical: p=1.000000" in capsys.readouterr().out
        cfg = parse_network(payload["network"])
        link = parse_link(payload["link"])
        access = payload["sweep"]["access"]
        users = analytic_user_centric.TYPICAL, analytic_user_centric.FIXED
        values = [(user, cfg, link) for user in users]
        form = analytic_user_centric.FORM
        results = quadrature.coverage_quadratures(form, values, access)
        worst = max(results, key=lambda result: result.value)
        assert 1.0 < worst.value <= 1.0 + worst.estimate

    @pytest.mark.parametrize("m_desired", [19, 20, 30])
    @pytest.mark.parametrize("strategy", ["user-centric", "uav-centric"])
    def test_high_fading_order_answers(self, tmp_path, capsys, strategy, m_desired):
        # the coverage sum's factors (-c)^n/n! and d^n/dc^n exp(-f) once left
        # the double range here; its Taylor coefficients do not
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["network"]["m_desired"] = m_desired
        payload["sweep"]["strategy"] = strategy
        cfg_path = write_config(tmp_path, payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analytic", "--config", cfg_path]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        users = ("typical", "fixed") if strategy == "user-centric" else ("near", "far")
        for user in users:
            assert f"{user}: p=" in captured.out

    def test_high_fading_order_matches_monte_carlo(self, tmp_path, capsys):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["network"]["m_desired"] = 20
        cfg_path = write_config(tmp_path, payload)
        assert main(["analytic", "--config", cfg_path]) == 0
        analytic = _printed(capsys.readouterr().out, "typical")
        assert main(["mc", "--config", cfg_path, "--trials", "20000", "--seed", "11"]) == 0
        line = _printed(capsys.readouterr().out, "typical")
        low, high = (float(x) for x in line.split("ci99=[")[1].split("]")[0].split(","))
        assert low <= float(analytic.split()[0]) <= high, (analytic, line)

    def test_mc_point(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        assert main(["mc", "--config", cfg_path, "--trials", "800", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "ci99=" in out and "trials=800" in out

    def test_mc_point_warns_of_empty_discs(self, tmp_path, capsys):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["network"]["sim_disc_radius_m"] = 200.0
        cfg_path = write_config(tmp_path, payload)
        assert main(["mc", "--config", cfg_path, "--trials", "500"]) == 0
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert 380 < _empty_disc_count(line, 500, 200) < 470
        assert "trials=500 seed=7" in captured.out

    def test_flags_override_the_sweep_section(self, tmp_path, capsys):
        # the command decides the mode; every flag given beats the config
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["sweep"]["mode"] = "analytic"
        path = write_config(tmp_path, payload)
        flags = ["--strategy", "uav-centric", "--access", "oma", "--trials", "300"]
        assert main(["mc", "--config", path, *flags, "--seed", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "strategy=uav-centric access=oma"
        assert [line.split(":")[0] for line in lines[1:]] == ["near", "far"]
        assert all(line.endswith("trials=300 seed=4") for line in lines[1:])

    def test_strategy_flag(self, tmp_path, capsys):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["network"]["alpha_desired"] = 3.5
        payload["link"] = {"rate_near_bpcu": 1.5, "rate_far_bpcu": 1.0}
        cfg_path = write_config(tmp_path, payload)
        assert main(["analytic", "--config", cfg_path, "--strategy", "uav-centric"]) == 0
        out = capsys.readouterr().out
        assert "near: p=" in out and "far: p=" in out

    @pytest.mark.parametrize(
        "strategy, network, link, silent_user",
        [
            ("user-centric", {"alpha_desired": 12.0}, {"fixed_user_dist_m": 1e26}, "fixed"),
            ("user-centric", {"alpha_desired": 3.5}, {"fixed_user_dist_m": 1e89}, "fixed"),
            ("user-centric", {"alpha_desired": 3.0}, {"fixed_user_dist_m": 1e103}, "fixed"),
            ("user-centric", {"alpha_desired": 3.5, "uav_height_m": 1e100}, {}, "typical"),
            ("uav-centric", {"alpha_desired": 3.5, "uav_height_m": 1e100}, {}, "far"),
        ],
    )
    def test_path_loss_that_overflows_fails_the_decode(
        self, tmp_path, capsys, strategy, network, link, silent_user
    ):
        # d^alpha_d overflows a float: that user decodes nothing, and numpy
        # must not warn about it
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["network"].update(network)
        payload["link"].update(link)
        payload["sweep"].update(strategy=strategy, trials=200)
        path = write_config(tmp_path, payload)
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["mc", "--config", path]) == 0
            assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "Warning" not in captured.err
        assert _printed(captured.out, silent_user).startswith("0.000000 ")
        assert len(out.read_text().splitlines()) == 5


class TestErrors:
    def test_missing_file_exits_2(self, capsys):
        assert main(["analytic", "--config", "/nonexistent.json"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"network": {"tx_power_dbm": []}}')
        assert main(["analytic", "--config", str(path)]) == 2
        assert "tx_power_dbm" in capsys.readouterr().err

    def test_unknown_section_exits_2(self, tmp_path):
        path = write_config(tmp_path, {"nettwork": {}})
        assert main(["analytic", "--config", path]) == 2

    @pytest.mark.parametrize(
        "section, value",
        [("network", None), ("link", "ab"), ("sweep", 5), ("link", [["ipsic", 0.5]])],
    )
    def test_section_that_is_no_object_exits_2(self, tmp_path, capsys, section, value):
        # a list of pairs would cast to a dict and be read as a section
        path = write_config(tmp_path, {section: value})
        assert main(["analytic", "--config", path]) == 2
        assert capsys.readouterr().err.startswith(f"error: {section}: ")

    def test_directory_config_exits_2(self, tmp_path, capsys):
        assert main(["analytic", "--config", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path}: ")

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"link": {"ipsic": 0.5}} \xff')
        assert main(["analytic", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_exits_2(self, tmp_path, capsys, seed):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["sweep"]["seed"] = seed
        out = str(tmp_path / "o.csv")
        assert main(["sweep", "--config", write_config(tmp_path, payload), "--out", out]) == 2
        assert "sweep.seed" in capsys.readouterr().err
        path = write_config(tmp_path, BASE_CONFIG, name="ok.json")
        assert main(["sweep", "--config", path, "--out", out, "--seed", str(seed)]) == 2
        assert main(["mc", "--config", path, "--trials", "10", "--seed", str(seed)]) == 2
        assert capsys.readouterr().err.count("sweep.seed") == 2
        # validate refuses it before any check runs
        assert main(["validate", "--quick", "--seed", str(seed)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --seed: must be a 64-bit unsigned integer\n"

    @pytest.mark.parametrize(
        "changes, named, rule",
        [
            ({"sweep": {"values": []}}, "sweep.values", "non-empty"),
            ({"sweep": {"values": [-30.0, math.nan]}}, "sweep.values", "finite"),
            ({"sweep": {"mode": "fast"}}, "sweep.mode", "unknown mode"),
            (
                {"sweep": {"axis": "uav_density", "values": [1e-6, 0.0]}},
                "sweep.values",
                "must be positive",
            ),
            (
                {"network": {"tx_power_dbm": 4000.0}},
                "network.tx_power_dbm",
                "must be finite, got inf (from 4000.0)",
            ),
            ({"network": {"uav_density_per_m2": 0.0}}, "network.uav_density_per_m2", "positive"),
            ({"network": {"uav_density_per_m2": -1e-6}}, "network.uav_density_per_m2", "positive"),
            # a JSON integer no float holds, echoed capped
            (
                {"network": {"uav_density_per_m2": 10**400}},
                "network.uav_density_per_m2",
                "expected float, got 10000000000000000000... (401 characters)",
            ),
            # 2^53 + 1 lies between two floats: the message names the nearest
            (
                {"network": {"uav_density_per_m2": 2**53 + 1}},
                "network.uav_density_per_m2",
                "got 9007199254740993, which no float holds exactly (nearest 9007199254740992.0)",
            ),
            (
                {"network": {"m_desired": 10**400}},
                "network.m_desired",
                "must be finite, got 10000000000000000000... (401 characters)",
            ),
            ({"network": {"alpha_desired": 1.99}}, "network.alpha_desired", "at least 2"),
            ({"network": {"m_interf": 0}}, "network.m_interf", "positive integer"),
            ({"network": {"sim_disc_radius_m": 0.0}}, "network.sim_disc_radius_m", "positive"),
            ({"network": {"sim_disc_radius_m": -10.0}}, "network.sim_disc_radius_m", "positive"),
            ({"network": {"noise_watts": -1.0}}, "network.noise_watts", "must be positive"),
            ({"link": {"rate_near_bpcu": 0.0}}, "link.rate_near_bpcu", "must be positive"),
            ({"link": {"rate_far_bpcu": -0.5}}, "link.rate_far_bpcu", "must be positive"),
            ({"link": {"power_split_far": 1.0}}, "link.power_split_far", "lie in (0, 1)"),
            ({"link": {"fixed_user_dist_m": 0.0}}, "link.fixed_user_dist_m", "positive"),
            ({"link": {"fixed_user_dist_m": -300.0}}, "link.fixed_user_dist_m", "positive"),
        ],
    )
    def test_refused_value_exits_2_naming_it(self, tmp_path, capsys, changes, named, rule):
        payload = json.loads(json.dumps(BASE_CONFIG))
        for section, keys in changes.items():
            payload[section].update(keys)
        out = tmp_path / "o.csv"
        path = write_config(tmp_path, payload)
        assert main(["sweep", "--config", path, "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith(f"error: {named}: ") and err.count("\n") == 1, err
        assert rule in err and len(err) < 160, err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[]", "5", "null", '"network"'])
    def test_top_level_that_is_no_object_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["analytic", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: top level must be an object\n"

    def test_zero_trials_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG)
        out = str(tmp_path / "o.csv")
        assert main(["sweep", "--config", path, "--out", out, "--trials", "0"]) == 2
        assert not Path(out).exists()
        assert main(["mc", "--config", path, "--trials", "0"]) == 2
        assert capsys.readouterr().err.count("sweep.trials") == 2

    def test_uav_centric_fixed_user_dist_sweep_exits_2(self, tmp_path, capsys):
        # the UAV-centric strategy has no fixed user: every row would be equal
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["sweep"].update(
            axis="fixed_user_dist", values=[100.0, 200.0], strategy="uav-centric"
        )
        out = tmp_path / "o.csv"
        path = write_config(tmp_path, payload)
        assert main(["sweep", "--config", path, "--out", str(out)]) == 2
        assert "sweep.axis: fixed_user_dist" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("trials", [10**21, 2**60])
    @pytest.mark.parametrize("strategy", ["user-centric", "uav-centric"])
    def test_trial_count_no_batch_can_hold_exits_2(
        self, tmp_path, capsys, strategy, trials
    ):
        # numpy refuses both shapes before it allocates anything: the first
        # is past its index range, the second past its byte count
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["sweep"].update(strategy=strategy, trials=float(trials))
        path = write_config(tmp_path, payload)
        out = tmp_path / "o.csv"
        assert main(["mc", "--config", path, "--trials", str(trials)]) == 2
        assert main(["sweep", "--config", path, "--out", str(out)]) == 2
        line = f"error: a batch of {trials} trials does not fit in memory"
        assert capsys.readouterr().err.splitlines() == [line, line]
        assert not out.exists()

    @pytest.mark.parametrize("strategy", ["user-centric", "uav-centric"])
    def test_uav_field_no_block_can_hold_exits_2(self, tmp_path, capsys, strategy):
        # 1e12 UAVs per m^2 on the 10 km disc, 3.14e20 per trial: past what
        # numpy's Poisson sampler draws, refused before anything is allocated
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["network"]["uav_density_per_m2"] = 1e12
        payload["sweep"].update(strategy=strategy, mode="mc")
        path = write_config(tmp_path, payload)
        out = tmp_path / "o.csv"
        assert main(["mc", "--config", path]) == 2
        assert main(["sweep", "--config", path, "--out", str(out)]) == 2
        line = "error: a UAV field of 3.14e+20 points per trial does not fit in memory"
        assert capsys.readouterr().err.splitlines() == [line, line]
        assert not out.exists()
        # the closed forms need no field
        assert main(["analytic", "--config", path]) == 0

    @pytest.mark.parametrize("order", [101, 200, 10**6])
    @pytest.mark.parametrize("strategy", ["user-centric", "uav-centric"])
    def test_fading_order_past_the_closed_forms_exits_2(
        self, tmp_path, capsys, strategy, order
    ):
        # the kernel met NaN at 200 (exit 3) and had not returned after 60 s
        # at 1e6; now every mode that runs closed forms refuses the order
        # before any point
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["network"]["m_desired"] = order
        payload["sweep"]["strategy"] = strategy
        path = write_config(tmp_path, payload)
        out = tmp_path / "o.csv"
        assert main(["analytic", "--config", path]) == 2
        assert main(["sweep", "--config", path, "--out", str(out)]) == 2
        line = (
            "error: network.m_desired: the closed forms take orders up to 100, "
            f"got {order} (mode mc takes any)"
        )
        assert capsys.readouterr().err.splitlines() == [line, line]
        assert not out.exists()

    @pytest.mark.parametrize("strategy", ["user-centric", "uav-centric"])
    def test_monte_carlo_takes_any_fading_order(self, tmp_path, capsys, strategy):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["network"]["m_desired"] = 200
        payload["sweep"].update(strategy=strategy, mode="mc", trials=64)
        path = write_config(tmp_path, payload)
        out = tmp_path / "o.csv"
        assert main(["mc", "--config", path]) == 0
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_text().count(strategy) == 2 * len(payload["sweep"]["values"])

    def test_closed_forms_take_order_100(self, tmp_path, capsys):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["network"]["m_desired"] = 100
        assert main(["analytic", "--config", write_config(tmp_path, payload)]) == 0
        assert "typical: p=" in capsys.readouterr().out

    @pytest.mark.parametrize("order", [11, 10**5, 10**6])
    @pytest.mark.parametrize("strategy", ["user-centric", "uav-centric"])
    def test_interferer_order_past_the_closed_forms_exits_2(
        self, tmp_path, capsys, strategy, order
    ):
        # the radial tail's recurrences take m_I array steps: at 1e5 one
        # point took 7.0 s UAV-centric and 1.9 s user-centric before the
        # bound. Every mode that runs closed forms refuses the order before
        # any point
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["network"]["m_interf"] = order
        payload["sweep"]["strategy"] = strategy
        path = write_config(tmp_path, payload)
        out = tmp_path / "o.csv"
        assert main(["analytic", "--config", path]) == 2
        assert main(["sweep", "--config", path, "--out", str(out)]) == 2
        line = (
            "error: network.m_interf: the closed forms take orders up to 10, "
            f"got {order} (mode mc takes any)"
        )
        assert capsys.readouterr().err.splitlines() == [line, line]
        assert not out.exists()

    @pytest.mark.parametrize("strategy", ["user-centric", "uav-centric"])
    def test_monte_carlo_takes_any_interferer_order(self, tmp_path, capsys, strategy):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["network"]["m_interf"] = 11
        payload["sweep"].update(strategy=strategy, mode="mc", trials=64)
        path = write_config(tmp_path, payload)
        out = tmp_path / "o.csv"
        assert main(["mc", "--config", path]) == 0
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_text().count(strategy) == 2 * len(payload["sweep"]["values"])

    @pytest.mark.parametrize("strategy", ["user-centric", "uav-centric"])
    def test_closed_forms_take_interferer_order_10(self, tmp_path, capsys, strategy):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["network"]["m_interf"] = 10
        payload["sweep"]["strategy"] = strategy
        assert main(["analytic", "--config", write_config(tmp_path, payload)]) == 0
        user = "typical" if strategy == "user-centric" else "near"
        assert f"{user}: p=" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "section, key, field",
        [
            ("network", "uav_height_m", "uav_height"),
            ("network", "sim_disc_radius_m", "sim_disc_radius"),
            ("link", "fixed_user_dist_m", "fixed_user_dist"),
        ],
    )
    def test_length_whose_square_overflows_exits_2(
        self, tmp_path, capsys, section, key, field
    ):
        # the Monte Carlo squares every length; 1e200 m has no finite square
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload[section][key] = 1e200
        path = write_config(tmp_path, payload)
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analytic", "--config", path]) == 2
            assert main(["mc", "--config", path]) == 2
            assert main(["sweep", "--config", path, "--out", str(out)]) == 2
        line = (
            f"error: {section}.{key}: {field} must be at most about 1.34e154 m, so that "
            "its square is finite, got 1e+200"
        )
        assert capsys.readouterr().err.splitlines() == [line] * 3
        assert not out.exists()

    @pytest.mark.parametrize("strategy", ["user-centric", "uav-centric"])
    @pytest.mark.parametrize(
        "section, key",
        [
            ("network", "uav_height_m"),
            ("network", "sim_disc_radius_m"),
            ("link", "fixed_user_dist_m"),
        ],
    )
    def test_largest_accepted_length_runs_silently(
        self, tmp_path, capsys, strategy, section, key
    ):
        largest = math.sqrt(sys.float_info.max)
        beyond = math.nextafter(largest, math.inf)
        assert math.isfinite(largest * largest) and not math.isfinite(beyond * beyond)
        payload = {section: {key: largest}, "sweep": {"strategy": strategy, "trials": 64}}
        path = write_config(tmp_path, payload)
        # a disc that wide holds too many UAVs for any batch
        fits = key != "sim_disc_radius_m"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analytic", "--config", path]) == 0
            assert main(["mc", "--config", path]) == (0 if fits else 2)
        assert capsys.readouterr().err == (
            ""
            if fits
            else "error: a UAV field of 7.19e+302 points per trial does not fit in memory\n"
        )

    def test_failed_batch_allocation_exits_2(self, tmp_path, capsys, monkeypatch):
        # a shape numpy accepts but the host cannot hold; the refusal is
        # simulated, so nothing large is allocated
        empty = np.empty

        def refuse(shape, *args, **kwargs):
            if isinstance(shape, tuple) and shape[-1:] == (1234,):  # the batch
                raise MemoryError
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", refuse)
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["mc", "--config", path, "--trials", "1234"]) == 2
        assert capsys.readouterr().err == (
            "error: a batch of 1234 trials does not fit in memory\n"
        )

    def test_numerical_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        from uavnoma.errors import NumericalError

        def explode(*args, **kwargs):
            raise NumericalError("synthetic quadrature failure", 1.0)

        # a point's closed forms run through the sweep's integration routine
        monkeypatch.setattr("uavnoma.quadrature.integrate_many", explode)
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["analytic", "--config", path]) == 3
        assert "numerical error" in capsys.readouterr().err


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        result = subprocess.run(
            [sys.executable, "-m", "uavnoma.cli", "analytic", "--config", cfg_path],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "typical: p=" in result.stdout

    def test_start_up_loads_what_the_mode_needs(self, tmp_path):
        # a Monte Carlo process loads no scipy (about 0.2 s and 26 MB at
        # start-up) and no process pool: its 2,048 trials, two ranges of 32
        # blocks, are drawn on two threads. The closed forms load
        # scipy.special at their first value; scipy.integrate (the validation
        # references) and scipy.stats are never loaded.
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["sweep"]["trials"] = 2048
        cfg_path = write_config(tmp_path, payload)
        probe = (
            "import sys, uavnoma, uavnoma.cli\n"
            "from uavnoma import montecarlo\n"
            "montecarlo._usable_cores = lambda: 2\n"
            f"assert uavnoma.cli.main([sys.argv[1], '--config', {cfg_path!r}]) == 0\n"
            "print(*(name in sys.modules for name in sys.argv[2:]))\n"
        )
        loaded = {
            "mc": ("scipy", "multiprocessing", "concurrent.futures.process"),
            "analytic": ("scipy.special", "scipy.integrate", "scipy.stats"),
        }
        seen = {}
        for command, modules in loaded.items():
            result = subprocess.run(
                [sys.executable, "-c", probe, command, *modules],
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
            seen[command] = result.stdout.splitlines()[-1]
        assert seen == {"mc": "False False False", "analytic": "True False False"}

    def test_production_imports_leave_references_unloaded(self):
        # the references and scipy.integrate load only for ``uavnoma validate``
        # and the tests, never with the package or any production module
        modules = sorted(
            f"uavnoma.{path.stem}"
            for path in (REPO / "src" / "uavnoma").glob("*.py")
            if path.stem not in ("__init__", "validation")
        )
        code = (
            f"import sys, uavnoma, {', '.join(modules)}; "
            "print('uavnoma.validation' in sys.modules, 'scipy.integrate' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert len(modules) >= 10
        assert result.stdout.strip() == "False False"


class TestShippedConfigs:
    @pytest.mark.parametrize("name", sorted(p.name for p in (REPO / "configs").glob("*.json")))
    def test_configs_parse(self, name):
        raw = load_config(str(REPO / "configs" / name))
        parse_network(raw.get("network", {}))
        parse_link(raw.get("link", {}))
        parse_sweep(raw.get("sweep", {}))


class TestReadme:
    def test_config_block_is_true(self):
        # network and link show their defaults; sweep is an example
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        [block] = re.findall(r"```jsonc\n(.*?)```", readme, re.DOTALL)
        raw = json.loads(re.sub(r"//.*", "", block))
        assert sorted(raw) == ["link", "network", "sweep"]
        assert parse_network(raw["network"]) == parse_network({})
        assert parse_link(raw["link"]) == parse_link({})
        parse_sweep(raw["sweep"])


class TestValidateQuick:
    def test_quick_validation_passes(self, capsys):
        assert main(["validate", "--quick"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 8 and "FAIL" not in out
