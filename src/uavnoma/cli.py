"""Command-line front end: single points, parameter sweeps, and cross-checks.

Subcommands
-----------
analytic   one configuration point through the closed forms
mc         one configuration point through seeded Monte Carlo
sweep      iterate one axis from a config file and write a CSV
validate   run the cross-check suite of ``validation`` (exit nonzero on any
           failure)

Configs are JSON with ``network``, ``link``, and (for sweeps) ``sweep``
sections, each read through its table of keys in ``SECTIONS``: a key left
out takes its model's default, and dBm is converted to watts here, once. A
sweep axis names the key it moves (``AXIS_KEYS``). A strategy is named as
``scenario.ROLES`` names it ("user-centric" or "uav-centric") in configs,
flags and CSVs alike, and each point's rows list its two users in ``ROLES``
order. Command-line flags
override the config's sweep section. A sweep groups its points by
``montecarlo.geometry_key`` and simulates each group's batch once; groups
run one after another in the calling process, and each batch is drawn on
threads over block ranges (``montecarlo``), at most one per core this
process may use (``taskset -c 0 uavnoma sweep ...`` draws on one). A batch
whose trials find no UAV in the disc says how many in a ``warning:`` line,
and a point says in one ``warning:`` line per role which role of which user
(``scenario.ROLE_TABLE``) has an infeasible decode coefficient. An
analytic-only sweep simulates nothing. The closed forms of all a sweep's
points are computed before any group, together, by the one routine of both
strategies (``quadrature.coverage_sweep``): the values share array passes of
the kernel (``quadrature.integrate_many``), so an 8-point user-centric sweep
is one pass and a UAV-centric point's two users share one, and a user's
values along a power sweep, which differ in N/P alone, share the kernel's
exponents: they are formed once for all the sweep's powers. A point
evaluated alone (``evaluate_point``) integrates each of its values in passes
of its own. Output rows keep input order. The argument parser is built once
per process, on the first ``main`` call.

A mode that computes closed forms (``analytic``, ``both``) takes fading
orders up to ``quadrature.MAX_CLOSED_FORM_ORDERS``: 100 on the serving link
and 10 on the interfering links. The closed forms refuse a higher order
with ``DomainError``; ``main`` asks them first, so that such a config exits
2 before any point. ``mc`` takes any order.

Exit codes: 0 success, 1 validation failure, 2 malformed configuration (a
trial count too large for any batch included), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields, replace
from typing import Callable, NamedTuple

from . import analytic_uav_centric, analytic_user_centric, montecarlo, quadrature
from .errors import DomainError, NumericalError
from .scenario import (
    FAR,
    NEAR,
    NOMA,
    OMA,
    ROLE_TABLE,
    ROLES,
    UAV_CENTRIC,
    USER_CENTRIC,
    NetworkConfig,
    NomaLink,
    dbm_to_watts,
    noise_from_bandwidth,
)

CSV_COLUMNS = (
    "strategy,access,user_role,axis,value,p_analytic,p_mc,ci_low,ci_high,trials,seed"
)


class ConfigError(Exception):
    """Configuration file problem; the message carries the field path."""


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    values: tuple[float, ...]
    strategy: str = USER_CENTRIC
    access: str = NOMA
    mode: str = "both"  # analytic | mc | both
    trials: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in ROLES:
            raise ConfigError(f"sweep.strategy: unknown strategy {self.strategy!r}")
        if self.access not in (NOMA, OMA):
            raise ConfigError(f"sweep.access: unknown access {self.access!r}")
        if self.axis not in SWEEP_AXES:
            raise ConfigError(f"sweep.axis: unknown axis {self.axis!r}")
        if self.axis == "fixed_user_dist" and self.strategy == UAV_CENTRIC:
            raise ConfigError("sweep.axis: fixed_user_dist is user-centric only")
        if not self.values:
            raise ConfigError("sweep.values: must be non-empty")
        if any(not math.isfinite(v) for v in self.values):
            raise ConfigError("sweep.values: all values must be finite")
        if self.mode not in ("analytic", "mc", "both"):
            raise ConfigError(f"sweep.mode: unknown mode {self.mode!r}")
        if self.trials < 1:
            raise ConfigError("sweep.trials: must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("sweep.seed: must be a 64-bit unsigned integer")


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _as_kind(value, kind):
    """``value`` as ``kind`` without loss, or None.

    JSON integers that a float holds exactly widen to float and integral
    floats narrow to int; nothing else converts, so 1.7 is no int and true
    is no number.
    """
    if kind is float and type(value) is int:
        try:
            widened = float(value)
        except OverflowError:
            return None
        return widened if widened == value else None
    if kind is int and type(value) is float and value.is_integer():
        return int(value)
    return value if type(value) is kind else None


def _numbers(values: list) -> tuple[float, ...]:
    numbers = tuple(_as_kind(v, float) for v in values)
    if None in numbers:
        raise DomainError("expected a list of numbers")
    return numbers


class Key(NamedTuple):
    """A config key: the model field it sets, its JSON type, and the
    conversion of its value to model units."""

    field: str
    kind: type = float
    to_model: Callable = lambda value: value


# each section's model and keys, in reading order; a key left out leaves its
# field at the model's default, and a field without one is required
SECTIONS = {
    "network": (NetworkConfig, {
        # at most one of the three noise keys
        "noise_watts": Key("noise_power"),
        "noise_dbm": Key("noise_power", float, dbm_to_watts),
        "noise_bandwidth_hz": Key("noise_power", float, noise_from_bandwidth),
        "uav_density_per_m2": Key("uav_density"),
        "tx_power_dbm": Key("tx_power", float, dbm_to_watts),
        "alpha_desired": Key("alpha_desired"),
        "uav_height_m": Key("uav_height"),
        "alpha_interf": Key("alpha_interf"),
        "m_desired": Key("m_desired", int),
        "m_interf": Key("m_interf", int),
        "sim_disc_radius_m": Key("sim_disc_radius"),
    }),
    "link": (NomaLink, {
        "power_split_far": Key("pw_far"),
        "rate_near_bpcu": Key("rate_near"),
        "rate_far_bpcu": Key("rate_far"),
        "ipsic": Key("ipsic"),
        "fixed_user_dist_m": Key("fixed_user_dist"),
    }),
    "sweep": (SweepSpec, {
        "strategy": Key("strategy", str),
        "access": Key("access", str),
        "values": Key("values", list, _numbers),
        "axis": Key("axis", str),
        "mode": Key("mode", str),
        "trials": Key("trials", int),
        "seed": Key("seed", int),
    }),
}

# each sweep axis and the config key whose value it sets
AXIS_KEYS = {
    "tx_power_dbm": ("network", "tx_power_dbm"),
    "rate_near": ("link", "rate_near_bpcu"),
    "rate_far": ("link", "rate_far_bpcu"),
    "ipsic": ("link", "ipsic"),
    "uav_density": ("network", "uav_density_per_m2"),
    "fixed_user_dist": ("link", "fixed_user_dist_m"),
    "power_split_far": ("link", "power_split_far"),
}
SWEEP_AXES = tuple(AXIS_KEYS)


def _read(name: str, section: dict):
    """The model of config section ``name``, read through its ``SECTIONS``
    keys in order; the first fault raises ``ConfigError`` naming its path."""
    model, keys = SECTIONS[name]
    first_key = {}
    for key in keys:
        if key in section:
            first = first_key.setdefault(keys[key].field, key)
            if first != key:
                raise ConfigError(f"{name}.{first}, {name}.{key}: give one of them")
    required = {f.name for f in fields(model) if f.default is MISSING}
    kwargs = {}
    for key, (field, kind, to_model) in keys.items():
        if key not in section:
            if field in required:
                raise ConfigError(f"{name}.{key}: required field is missing")
            continue
        value = _as_kind(section[key], kind)
        if value is None:
            raise ConfigError(
                f"{name}.{key}: expected {kind.__name__}, got {section[key]!r}"
            )
        try:
            kwargs[field] = to_model(value)
        except DomainError as exc:
            raise ConfigError(f"{name}.{key}: {exc}") from None
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise ConfigError(f"{name}.{unknown[0]}: unknown field")
    try:
        return model(**kwargs)
    except DomainError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def parse_network(section: dict) -> NetworkConfig:
    return _read("network", section)


def parse_link(section: dict) -> NomaLink:
    return _read("link", section)


def parse_sweep(section: dict) -> SweepSpec:
    return _read("sweep", section)


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such file") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    unknown = set(raw) - set(SECTIONS)
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown top-level section")
    for name, section in raw.items():
        if not isinstance(section, dict):
            raise ConfigError(f"{name}: section must be an object, got {section!r}")
    return raw


def apply_axis(
    cfg: NetworkConfig, link: NomaLink, axis: str, value: float
) -> tuple[NetworkConfig, NomaLink]:
    """``cfg`` and ``link`` with ``axis`` at ``value``, converted as the
    axis's config key converts it."""
    if axis not in AXIS_KEYS:
        raise ConfigError(f"unknown axis {axis!r}")
    name, key = AXIS_KEYS[axis]
    field, _, to_model = SECTIONS[name][1][key]
    models = {"network": cfg, "link": link}
    try:
        models[name] = replace(models[name], **{field: to_model(value)})
    except DomainError as exc:
        raise ConfigError(f"sweep.values: {value!r} on axis {axis}: {exc}") from None
    return models["network"], models["link"]


# ---------------------------------------------------------------------------
# point evaluation
# ---------------------------------------------------------------------------


def _analytic_pair(cfg, link, strategy, access) -> tuple[float, float]:
    """Closed-form coverage of the two users, in ``ROLES[strategy]`` order,
    each by its single-value function."""
    if strategy == USER_CENTRIC:
        uc = analytic_user_centric
        return uc.coverage_typical(cfg, link, access), uc.coverage_fixed(cfg, link, access)
    uav = analytic_uav_centric
    return tuple(uav.coverage_pair(user, cfg, link, access) for user in ROLES[strategy])


def _analytic_sweep(spec: SweepSpec, points) -> list[tuple]:
    """Closed-form coverage of the two users of every sweep point
    ``(value, cfg, link)``, all values integrated together
    (``quadrature.coverage_sweep``); pairs of None when the mode runs no
    closed form."""
    if spec.mode not in ("analytic", "both"):
        return [(None, None)] * len(points)
    uc = spec.strategy == USER_CENTRIC
    form = (analytic_user_centric if uc else analytic_uav_centric).FORM
    pairs = [(cfg, link) for _, cfg, link in points]
    return quadrature.coverage_sweep(form, pairs, spec.access)


def _group_rows(spec: SweepSpec, points, analytic) -> list[list[dict]]:
    """Rows of each sweep point ``(value, cfg, link)`` of one group, given
    the closed-form pair of each.

    The points share one MC geometry key, so the mode's MC batch is
    simulated once, from the first point, and estimated at every point; a
    batch with empty discs says how many on stderr.
    """
    batch = None
    if spec.mode in ("mc", "both"):
        _, first_cfg, first_link = points[0]
        try:
            batch = montecarlo.simulate(
                first_cfg, first_link, spec.strategy, spec.trials, spec.seed
            )
        except MemoryError as exc:
            raise ConfigError(str(exc)) from None
        empty = montecarlo.empty_disc_trials(batch)
        if empty:
            print(
                f"warning: {empty} of {batch.trials} trials found no UAV in the "
                f"{first_cfg.sim_disc_radius:g} m simulation disc; their Monte "
                "Carlo coverage follows the empty-disc convention, not the "
                "closed forms'",
                file=sys.stderr,
            )
    return [
        _point_rows(spec, value, cfg, link, pair, batch)
        for (value, cfg, link), pair in zip(points, analytic)
    ]


def _point_rows(spec, value, cfg, link, analytic, batch) -> list[dict]:
    """The two rows of one point, keyed by ``CSV_COLUMNS``; without a batch
    the MC cells are None."""
    mc = (
        montecarlo.estimate(batch, cfg, link, spec.access)
        if batch is not None
        else (None, None)
    )
    rows = []
    for role, p_analytic, estimate in zip(ROLES[spec.strategy], analytic, mc):
        sampled = (
            (estimate.p_hat, estimate.ci_low, estimate.ci_high, spec.trials, spec.seed)
            if estimate
            else (None,) * 5
        )
        cells = (spec.strategy, spec.access, role, spec.axis, value, p_analytic, *sampled)
        rows.append(dict(zip(CSV_COLUMNS.split(","), cells)))
    return rows


def evaluate_point(
    cfg: NetworkConfig, link: NomaLink, spec: SweepSpec, value: float
) -> list[dict]:
    """Rows of one sweep point, simulated afresh: nothing is reused. Its
    closed forms are the single-value functions, the one-point case of a
    sweep's."""
    point = (value, *apply_axis(cfg, link, spec.axis, value))
    analytic = (
        _analytic_pair(*point[1:], spec.strategy, spec.access)
        if spec.mode in ("analytic", "both")
        else (None, None)
    )
    return _group_rows(spec, [point], [analytic])[0]


def worker_count() -> int:
    """Most threads a batch is drawn on: the cores this process may use."""
    return montecarlo._usable_cores()


def run_sweep(
    cfg: NetworkConfig, link: NomaLink, spec: SweepSpec, out_path: str
) -> int:
    """Write the sweep's CSV; returns the number of MC geometry batches.

    The closed forms of every point are computed first, all values together
    in the array passes of the strategy's ``coverage_sweep``. Then points
    that share an MC geometry key form one group, which simulates its batch
    once (on ``montecarlo``'s threads); groups run one after another and rows
    keep input order. An analytic-only sweep simulates nothing, so all its
    points form one group. An ``out_path`` that cannot be written raises
    ``ConfigError`` before any point is computed.
    """
    _check_writable(out_path)
    points = [(v, *apply_axis(cfg, link, spec.axis, v)) for v in spec.values]
    for value, _, point_link in points:
        where = f"{spec.axis}={value:.10g}: "
        _warn_infeasible(point_link, spec.strategy, spec.access, where)
    groups: dict = {}
    for index, (_, point_cfg, point_link) in enumerate(points):
        key = (
            None
            if spec.mode == "analytic"
            else montecarlo.geometry_key(point_cfg, point_link, spec.strategy)
        )
        groups.setdefault(key, []).append(index)
    analytic = _analytic_sweep(spec, points)
    point_rows = [None] * len(points)
    for members in groups.values():
        group_rows = _group_rows(
            spec, [points[i] for i in members], [analytic[i] for i in members]
        )
        for index, rows in zip(members, group_rows):
            point_rows[index] = rows
    with open(out_path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS.split(","))
        for rows in point_rows:
            for row in rows:
                writer.writerow(_format_row(row))
    return 0 if spec.mode == "analytic" else len(groups)


def _check_writable(path: str) -> None:
    folder = os.path.dirname(os.path.abspath(path))
    if (
        os.path.isdir(path)
        or not os.path.isdir(folder)
        or not os.access(folder, os.W_OK | os.X_OK)
        or (os.path.exists(path) and not os.access(path, os.W_OK))
    ):
        raise ConfigError(f"--out {path}: cannot write a file there")


def _format_row(row: dict) -> list[str]:
    """The cells of ``row`` in ``CSV_COLUMNS`` order: names as they are,
    integers whole, other numbers to 10 digits, None empty."""
    def cell(x):
        if x is None:
            return ""
        if isinstance(x, (str, int)):
            return str(x)
        return f"{x:.10g}"

    return [cell(row[column]) for column in CSV_COLUMNS.split(",")]


_DECODES = {NEAR: "near/SIC chain", FAR: "far decode"}


def _warn_infeasible(link, strategy, access, where=""):
    # every role each user of ``ROLE_TABLE`` plays; a user is named only
    # where it is the partner and plays both (the user-centric fixed user)
    for role in ROLE_TABLE[strategy]:
        named = role.partner and role.below != role.above
        prefix = f"{role.user} user " if named else ""
        for played, coeff in role.coefficients(link, access).items():
            if not math.isfinite(coeff):
                print(
                    f"warning: {where}{prefix}{_DECODES[played]} coefficient is "
                    "infeasible for this power allocation; the affected coverage "
                    "is exactly zero",
                    file=sys.stderr,
                )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavnoma",
        description="Coverage probability of NOMA aerial-base-station networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="JSON configuration path")
        p.add_argument("--strategy", choices=sorted(ROLES), help="association strategy")
        p.add_argument("--access", choices=[NOMA, OMA], help="multiple-access mode")

    p_analytic = sub.add_parser("analytic", help="closed-form coverage of one point")
    common(p_analytic)
    p_analytic.set_defaults(mode="analytic")

    p_mc = sub.add_parser("mc", help="Monte Carlo coverage of one point")
    common(p_mc)
    p_mc.set_defaults(mode="mc")
    p_mc.add_argument("--trials", type=int, help="number of trials")
    p_mc.add_argument("--seed", type=int, help="64-bit unsigned seed")

    p_sweep = sub.add_parser("sweep", help="run the sweep of a config file")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--trials", type=int, help="override sweep.trials")
    p_sweep.add_argument("--seed", type=int, help="override sweep.seed")

    p_val = sub.add_parser("validate", help="run the cross-check suite")
    p_val.add_argument("--quick", action="store_true", help="reduced trial counts")
    p_val.add_argument("--seed", type=int, default=20_240_601)
    return parser


def _with_flags(spec: SweepSpec, args) -> SweepSpec:
    """``spec`` with every flag given on the command line in place of its
    config value; ``SweepSpec`` rejects a bad value with ``ConfigError``."""
    flags = {f.name: getattr(args, f.name, None) for f in fields(SweepSpec)}
    return replace(spec, **{k: v for k, v in flags.items() if v is not None})


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            from . import validation

            return validation.run_validation(args.quick, args.seed)

        raw = load_config(args.config)
        cfg = parse_network(raw.get("network", {}))
        link = parse_link(raw.get("link", {}))

        section = raw.get("sweep", {})
        if args.command != "sweep":
            # one point: the sweep section gives strategy, access, trials and seed
            section = {**section, "axis": "ipsic", "values": [0.0]}
        spec = _with_flags(parse_sweep(section), args)
        if spec.mode != "mc":
            try:
                quadrature.check_orders(cfg)
            except DomainError as exc:
                raise ConfigError(f"network.{exc} (mode mc takes any)") from None

        if args.command == "sweep":
            batches = run_sweep(cfg, link, spec, args.out)
            print(
                f"wrote {args.out}: {len(spec.values)} points, "
                f"{batches} geometry batch{'' if batches == 1 else 'es'}"
            )
            return 0

        _warn_infeasible(link, spec.strategy, spec.access)
        rows = evaluate_point(cfg, link, spec, link.ipsic)
        print(f"strategy={spec.strategy} access={spec.access}")
        for row in rows:
            if spec.mode == "analytic":
                print(f"{row['user_role']}: p={row['p_analytic']:.6f}")
            else:
                print(
                    f"{row['user_role']}: p={row['p_mc']:.6f} "
                    f"ci99=[{row['ci_low']:.6f}, {row['ci_high']:.6f}] "
                    f"trials={row['trials']} seed={row['seed']}"
                )
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, DomainError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
