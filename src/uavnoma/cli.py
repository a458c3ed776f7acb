"""Command-line front end: single points, parameter sweeps, and cross-checks.

Subcommands
-----------
analytic   one configuration point through the closed forms
mc         one configuration point through seeded Monte Carlo
sweep      iterate one axis from a config file and write a CSV
validate   run the internal cross-check suite (exit nonzero on any failure)

Configs are JSON with ``network``, ``link``, and (for sweeps) ``sweep``
sections; dBm values are accepted at this boundary only and converted to
watts once. A sweep groups its points by Monte Carlo geometry key and
simulates each group's batch once. An analytic-only sweep simulates nothing
and runs in the calling process, where every closed form is one array pass;
a sweep of two or more geometry groups dispatches them to a process pool
whose size comes from UAVNOMA_THREADS (at least 1; default: all cores).
Output rows keep input order.

Exit codes: 0 success, 1 validation failure, 2 malformed configuration,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import analytic_uav_centric, analytic_user_centric, montecarlo
from .errors import DomainError, NumericalError
from .laplace import RadialTailExponent, conditional_coverage
from .scenario import (
    NOMA,
    OMA,
    UAV_CENTRIC,
    USER_CENTRIC,
    NetworkConfig,
    NomaLink,
    dbm_to_watts,
    noise_from_bandwidth,
    thresholds,
)

CSV_COLUMNS = (
    "strategy,access,user_role,axis,value,p_analytic,p_mc,ci_low,ci_high,trials,seed"
)

SWEEP_AXES = (
    "tx_power_dbm",
    "rate_near",
    "rate_far",
    "ipsic",
    "uav_density",
    "fixed_user_dist",
    "power_split_far",
)

_STRATEGY_NAMES = {"user-centric": USER_CENTRIC, "uav-centric": UAV_CENTRIC}


class ConfigError(Exception):
    """Configuration file problem; the message carries the field path."""


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    values: tuple[float, ...]
    strategy: str
    access: str
    mode: str  # analytic | mc | both
    trials: int
    seed: int

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ConfigError(f"sweep.axis: unknown axis {self.axis!r}")
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


def _take(section: dict, path: str, key: str, kind, default):
    if key not in section:
        if default is None:
            raise ConfigError(f"{path}.{key}: required field is missing")
        return default
    value = section.pop(key)
    converted = _as_kind(value, kind)
    if converted is None:
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {value!r}")
    return converted


def _reject_unknown(section: dict, path: str):
    if section:
        name = sorted(section)[0]
        raise ConfigError(f"{path}.{name}: unknown field")


def parse_network(section: dict) -> NetworkConfig:
    section = dict(section)
    noise_watts = None
    if "noise_watts" in section:
        noise_watts = _take(section, "network", "noise_watts", float, None)
    elif "noise_dbm" in section:
        noise_watts = dbm_to_watts(_take(section, "network", "noise_dbm", float, None))
    else:
        noise_watts = noise_from_bandwidth(
            _take(section, "network", "noise_bandwidth_hz", float, 300e3)
        )
    kwargs = dict(
        uav_density=_take(
            section, "network", "uav_density_per_m2", float, 1.0 / (500.0**2 * math.pi)
        ),
        tx_power=dbm_to_watts(_take(section, "network", "tx_power_dbm", float, -30.0)),
        alpha_desired=_take(section, "network", "alpha_desired", float, 3.0),
        noise_power=noise_watts,
        uav_height=_take(section, "network", "uav_height_m", float, 100.0),
        alpha_interf=_take(section, "network", "alpha_interf", float, 4.0),
        m_desired=_take(section, "network", "m_desired", int, 1),
        m_interf=_take(section, "network", "m_interf", int, 1),
        sim_disc_radius=_take(section, "network", "sim_disc_radius_m", float, 10_000.0),
        hole_halfwidth=_take(section, "network", "hole_halfwidth_m", float, 0.1),
    )
    _reject_unknown(section, "network")
    try:
        return NetworkConfig(**kwargs)
    except DomainError as exc:
        raise ConfigError(f"network: {exc}") from None


def parse_link(section: dict) -> NomaLink:
    section = dict(section)
    pw_far = _take(section, "link", "power_split_far", float, 0.6)
    kwargs = dict(
        pw_far=pw_far,
        pw_near=1.0 - pw_far,
        rate_near=_take(section, "link", "rate_near_bpcu", float, 1.0),
        rate_far=_take(section, "link", "rate_far_bpcu", float, 0.5),
        ipsic=_take(section, "link", "ipsic", float, 0.0),
        fixed_user_dist=_take(section, "link", "fixed_user_dist_m", float, 300.0),
    )
    _reject_unknown(section, "link")
    try:
        return NomaLink(**kwargs)
    except DomainError as exc:
        raise ConfigError(f"link: {exc}") from None


def parse_sweep(section: dict) -> SweepSpec:
    section = dict(section)
    strategy = _take(section, "sweep", "strategy", str, "user-centric")
    if strategy not in _STRATEGY_NAMES:
        raise ConfigError(f"sweep.strategy: unknown strategy {strategy!r}")
    access = _take(section, "sweep", "access", str, NOMA)
    if access not in (NOMA, OMA):
        raise ConfigError(f"sweep.access: unknown access {access!r}")
    values = tuple(
        _as_kind(v, float) for v in _take(section, "sweep", "values", list, None)
    )
    if None in values:
        raise ConfigError("sweep.values: expected a list of numbers")
    spec = SweepSpec(
        axis=_take(section, "sweep", "axis", str, None),
        values=values,
        strategy=_STRATEGY_NAMES[strategy],
        access=access,
        mode=_take(section, "sweep", "mode", str, "both"),
        trials=_take(section, "sweep", "trials", int, 10_000),
        seed=_take(section, "sweep", "seed", int, 0),
    )
    _reject_unknown(section, "sweep")
    return spec


def load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such file") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    unknown = set(raw) - {"network", "link", "sweep"}
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown top-level section")
    return raw


def apply_axis(
    cfg: NetworkConfig, link: NomaLink, axis: str, value: float
) -> tuple[NetworkConfig, NomaLink]:
    try:
        if axis == "tx_power_dbm":
            return replace(cfg, tx_power=dbm_to_watts(value)), link
        if axis == "uav_density":
            return replace(cfg, uav_density=value), link
        if axis == "rate_near":
            return cfg, replace(link, rate_near=value)
        if axis == "rate_far":
            return cfg, replace(link, rate_far=value)
        if axis == "ipsic":
            return cfg, replace(link, ipsic=value)
        if axis == "fixed_user_dist":
            return cfg, replace(link, fixed_user_dist=value)
        if axis == "power_split_far":
            return cfg, replace(link, pw_far=value, pw_near=1.0 - value)
    except DomainError as exc:
        raise ConfigError(f"sweep.values: {value!r} on axis {axis}: {exc}") from None
    raise ConfigError(f"unknown axis {axis!r}")


# ---------------------------------------------------------------------------
# point evaluation
# ---------------------------------------------------------------------------


def _analytic_pair(cfg, link, strategy, access) -> dict[str, float]:
    if strategy == USER_CENTRIC:
        return {
            "typical": analytic_user_centric.coverage_typical(cfg, link, access),
            "fixed": analytic_user_centric.coverage_fixed(cfg, link, access),
        }
    return {
        "near": analytic_uav_centric.coverage_pair(
            analytic_uav_centric.NEAR, cfg, link, access
        ),
        "far": analytic_uav_centric.coverage_pair(
            analytic_uav_centric.FAR, cfg, link, access
        ),
    }


def _mc_geometry_key(cfg, link, strategy) -> tuple:
    if strategy == USER_CENTRIC:
        return montecarlo.user_centric_geometry_key(cfg, link.fixed_user_dist)
    return montecarlo.uav_centric_geometry_key(cfg)


def _mc_batch(cfg, link, spec):
    if spec.strategy == USER_CENTRIC:
        return montecarlo.simulate_user_centric(
            cfg, link.fixed_user_dist, spec.trials, spec.seed
        )
    return montecarlo.simulate_uav_centric(cfg, spec.trials, spec.seed)


def _mc_pair(batch, cfg, link, spec) -> dict:
    if spec.strategy == USER_CENTRIC:
        estimates = montecarlo.estimate_user_centric(batch, cfg, link, spec.access)
    else:
        estimates = montecarlo.estimate_uav_centric(batch, cfg, link, spec.access)
    return {est.user_role: est for est in estimates}


def _strategy_label(strategy: str) -> str:
    return "user-centric" if strategy == USER_CENTRIC else "uav-centric"


def _group_rows(spec: SweepSpec, points) -> list[list[dict]]:
    """Rows of each sweep point ``(value, cfg, link)`` of one group.

    The points share one MC geometry key, so the mode's MC batch is
    simulated once, from the first point, and estimated at every point.
    """
    batch = None
    if spec.mode in ("mc", "both"):
        _, first_cfg, first_link = points[0]
        batch = _mc_batch(first_cfg, first_link, spec)
    return [_point_rows(spec, value, cfg, link, batch) for value, cfg, link in points]


def _point_rows(spec, value, cfg, link, batch) -> list[dict]:
    analytic = (
        _analytic_pair(cfg, link, spec.strategy, spec.access)
        if spec.mode in ("analytic", "both")
        else {}
    )
    mc = _mc_pair(batch, cfg, link, spec) if batch is not None else {}
    roles = ("typical", "fixed") if spec.strategy == USER_CENTRIC else ("near", "far")
    rows = []
    for role in roles:
        estimate = mc.get(role)
        rows.append(
            {
                "strategy": _strategy_label(spec.strategy),
                "access": spec.access,
                "user_role": role,
                "axis": spec.axis,
                "value": value,
                "p_analytic": analytic.get(role),
                "p_mc": estimate.p_hat if estimate else None,
                "ci_low": estimate.ci_low if estimate else None,
                "ci_high": estimate.ci_high if estimate else None,
                "trials": spec.trials if estimate else None,
                "seed": spec.seed if estimate else None,
            }
        )
    return rows


def evaluate_point(
    cfg: NetworkConfig, link: NomaLink, spec: SweepSpec, value: float
) -> list[dict]:
    """Rows of one sweep point, simulated afresh: nothing is reused."""
    point = (value, *apply_axis(cfg, link, spec.axis, value))
    return _group_rows(spec, [point])[0]


def worker_count() -> int:
    env = os.environ.get("UAVNOMA_THREADS")
    if not env:
        return os.cpu_count() or 1
    try:
        count = int(env)
    except ValueError:
        raise ConfigError(f"UAVNOMA_THREADS: expected an integer, got {env!r}")
    if count < 1:
        raise ConfigError(f"UAVNOMA_THREADS: must be at least 1, got {env!r}")
    return count


def run_sweep(
    cfg: NetworkConfig, link: NomaLink, spec: SweepSpec, out_path: str
) -> int:
    """Write the sweep's CSV; returns the number of MC geometry batches.

    Points that share an MC geometry key form one task, which simulates its
    batch once. An analytic-only sweep simulates nothing, so all its points
    form one task, evaluated in this process. Two or more tasks go to the
    process pool; rows keep input order.
    """
    points = [(v, *apply_axis(cfg, link, spec.axis, v)) for v in spec.values]
    for value, point_cfg, point_link in points:
        where = f"{spec.axis}={value:.10g}: "
        _warn_infeasible(point_cfg, point_link, spec.strategy, spec.access, where)
    groups: dict = {}
    for index, (_, point_cfg, point_link) in enumerate(points):
        key = (
            None
            if spec.mode == "analytic"
            else _mc_geometry_key(point_cfg, point_link, spec.strategy)
        )
        groups.setdefault(key, []).append(index)
    tasks = [[points[i] for i in members] for members in groups.values()]
    workers = min(worker_count(), len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_group_rows, [spec] * len(tasks), tasks))
    else:
        results = [_group_rows(spec, task) for task in tasks]
    point_rows = [None] * len(points)
    for members, group_rows in zip(groups.values(), results):
        for index, rows in zip(members, group_rows):
            point_rows[index] = rows
    with open(out_path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS.split(","))
        for rows in point_rows:
            for row in rows:
                writer.writerow(_format_row(row))
    return 0 if spec.mode == "analytic" else len(groups)


def _format_row(row: dict) -> list[str]:
    def number(x):
        if x is None:
            return ""
        if isinstance(x, int):
            return str(x)
        return f"{x:.10g}"

    return [
        row["strategy"],
        row["access"],
        row["user_role"],
        row["axis"],
        number(row["value"]),
        number(row["p_analytic"]),
        number(row["p_mc"]),
        number(row["ci_low"]),
        number(row["ci_high"]),
        number(row["trials"]),
        number(row["seed"]),
    ]


def _warn_infeasible(cfg, link, strategy, access, where=""):
    ts = thresholds(link, cfg, strategy, access)
    bad = [name for name in ("near_joint", "far_own") if not ts.is_feasible(name)]
    for name in bad:
        role = "near/SIC chain" if name == "near_joint" else "far decode"
        print(
            f"warning: {where}{role} coefficient is infeasible for this power "
            "allocation; the affected coverage is exactly zero",
            file=sys.stderr,
        )


# ---------------------------------------------------------------------------
# validation suite
# ---------------------------------------------------------------------------


def _radial_panels(u_break: float) -> list[float]:
    """Panel edges in u = pi lam r^2 for the piecewise references: 0, 50
    log-spaced panels from 1e-12 up to the cutoff u = 46, and ``u_break``.

    The log-spaced edges put nodes wherever the coverage mass sits, down to
    u = 1e-12; an adaptive rule over [0, 46] can miss mass packed below
    u = 0.01 without noticing.
    """
    edges = {0.0, *np.geomspace(1e-12, 46.0, 51).tolist()}
    if u_break < 46.0:
        edges.add(u_break)
    return sorted(edges)


def adaptive_coverage_pair(
    role: str, cfg: NetworkConfig, link: NomaLink, access: str = NOMA
) -> float:
    """UAV-centric pair coverage by tight nested adaptive quadrature.

    The reference for the array rule of ``analytic_uav_centric.coverage_pair``:
    the placement density integrated over r given R, then the
    nearest-neighbor law over u = pi lam R^2 on the panels of
    ``_radial_panels`` with a break at R = h, both at epsabs = 1e-12 and
    epsrel = 1e-11.
    """
    from scipy import integrate

    if role == analytic_uav_centric.NEAR:
        lo, hi, density = 0.0, 0.25, 32.0
    else:
        lo, hi, density = 0.25, 0.5, 32.0 / 3.0
    tol = dict(epsabs=1e-12, epsrel=1e-11, limit=200)

    def placement(R: float) -> float:
        return integrate.quad(
            lambda r: density * r / R**2 * analytic_uav_centric.coverage_cond_pair(
                r, R, role, cfg, link, access
            ),
            lo * R,
            hi * R,
            **tol,
        )[0]

    pl = math.pi * cfg.uav_density
    edges = _radial_panels(pl * cfg.uav_height**2)
    return math.fsum(
        integrate.quad(
            lambda u: placement(math.sqrt(u / pl)) * math.exp(-u), a, b, **tol
        )[0]
        for a, b in zip(edges, edges[1:])
    )


def piecewise_user_centric_coverage(
    subject: str, cfg: NetworkConfig, link: NomaLink, access: str = NOMA
) -> float:
    """User-centric coverage of the "typical" or "fixed" user by piecewise quad.

    The reference for the array rule of ``analytic_user_centric``: the radial
    integral in u = pi lam r^2 with weight e^(-u) on the panels of
    ``_radial_panels`` with a break at u_k = pi lam r_k^2, each panel by
    ``quad`` at epsabs = 1e-14, epsrel = 1e-10. The conditional coverage is
    written out here from the kernel and the thresholds: the typical user is
    served at r, the fixed user at r_k, and both see the interference beyond
    the typical user's serving distance.
    """
    from scipy import integrate

    fixed = subject == "fixed"
    ts = thresholds(
        link.with_swapped_rates() if fixed else link, cfg, USER_CENTRIC, access
    )
    if access == OMA:
        inner = outer = ts.coeff("oma")
    elif fixed:
        inner, outer = ts.coeff("far_own"), ts.coeff("near_joint")
    else:
        inner, outer = ts.coeff("near_joint"), ts.coeff("far_own")
    pl = math.pi * cfg.uav_density
    u_k = pl * link.fixed_user_dist**2

    def integrand(u: float) -> float:
        exclusion = math.hypot(math.sqrt(u / pl), cfg.uav_height)
        served = math.hypot(link.fixed_user_dist, cfg.uav_height) if fixed else exclusion
        return math.exp(-u) * conditional_coverage(
            cfg.m_desired,
            inner if u < u_k else outer,
            cfg.noise_power,
            served,
            cfg.alpha_desired,
            analytic_user_centric.laplace_exponent_uc(cfg, exclusion),
        )

    edges = _radial_panels(u_k)
    return math.fsum(
        integrate.quad(integrand, a, b, epsabs=1e-14, epsrel=1e-10, limit=200)[0]
        for a, b in zip(edges, edges[1:])
    )


def quadrature_exponent_derivatives(
    exponent: RadialTailExponent, s: float, order: int
) -> list[float]:
    """eta^(k)(s), k = 0..order, of a radial-tail exponent by adaptive quadrature.

    The reference for the hypergeometric form of
    ``RadialTailExponent.derivatives``. l = d0 x^(-1/(aI-2)) maps [d0, inf)
    onto (0, 1] and turns the heavy l^(1-aI) tail into the bounded powers of
    x below; with p = aI/(aI-2), q = P/(mI d0^aI) and z = s q,

      k = 0:  scale Int_0^1 z phi(y)/y dx,  y = z x^p,
              phi(y) = 1 - (1+y)^(-mI)  (phi(y)/y -> mI at y = 0)
      k >= 1: scale sign_k (mI)_k q^k Int_0^1 x^(p(k-1)) (1 + z x^p)^(-mI-k) dx

    with scale = 2 pi lam d0^2/(aI-2); no factor leaves double range down to
    aI = 2.001. Raises ``NumericalError`` when ``quad`` misses 1e-8 relative.
    """
    from scipy import integrate

    m_i = exponent.m_interf
    a_i = exponent.alpha_interf
    d0 = exponent.lower_dist3d
    p = a_i / (a_i - 2.0)
    q = exponent.tx_power / (m_i * d0**a_i)
    z = s * q
    scale = 2.0 * math.pi * exponent.density * d0 * d0 / (a_i - 2.0)

    def phi_over_y(y):
        # -expm1(-m log1p(y)) avoids the 1 - (1+y)^(-m) cancellation
        return -math.expm1(-m_i * math.log1p(y)) / y if y > 0.0 else m_i

    values = []
    for k in range(order + 1):
        if k == 0:
            f = lambda x: z * phi_over_y(z * x**p)
            factor = 1.0
        else:
            f = lambda x, _k=k: x ** (p * (_k - 1)) * (1.0 + z * x**p) ** (-m_i - _k)
            factor = (-1.0) ** (k + 1) * math.prod(range(m_i, m_i + k)) * q**k
        value, err = integrate.quad(
            f, 0.0, 1.0, epsabs=0.0, epsrel=1e-11, limit=300, full_output=1
        )[:2]
        if value != 0.0 and err > 1e-8 * abs(value):
            raise NumericalError(
                "interference exponent quadrature out of tolerance", err
            )
        values.append(factor * scale * value)
    return values


def _validate_checks(quick: bool, seed: int):
    density = 1.0 / (500.0**2 * math.pi)
    cfg = NetworkConfig(
        uav_density=density, tx_power=1e-6, alpha_desired=3.0, m_interf=1
    )
    cfg_uav = replace(cfg, alpha_desired=3.5)
    link_uav = NomaLink(rate_near=1.5, rate_far=1.0, ipsic=0.0)

    def special_case_identity():
        worst = 0.0
        for dist in (150.0, 450.0, 1200.0):
            for s in np.logspace(2.0, 8.0, 13):
                general = analytic_user_centric.laplace_exponent_uc(
                    cfg, dist
                ).value_at(float(s))
                closed = analytic_user_centric.rayleigh_tail_exponent_arctan(
                    float(s), dist, cfg
                )
                worst = max(worst, abs(general - closed) / closed)
        return worst, 1e-8

    def ring_identity():
        worst = 0.0
        for R in (220.0, 470.0, 900.0):
            for s in np.logspace(2.0, 10.0, 9):
                general = analytic_uav_centric.nearest_ring_exponent_ucav(
                    cfg, R
                ).value_at(float(s))
                closed = analytic_uav_centric.rayleigh_ring_exponent(float(s), R, cfg)
                worst = max(worst, abs(general - closed) / closed)
        return worst, 1e-12

    def hypergeometric_vs_quadrature():
        worst = 0.0
        cases = [(2, 3.5, 300.0, z) for z in (1e-3, 0.5, 0.94, 0.96, 3.0, 1e3)]
        cases += [(1, 2.05, 314.0, z) for z in (0.5, 0.99, 50.0)]
        for m_i, a_i, d0, z in cases:
            exponent = RadialTailExponent(density, 1e-6, a_i, m_i, d0)
            s = z * m_i * d0**a_i / 1e-6
            reference = quadrature_exponent_derivatives(exponent, s, 2)
            for got, want in zip(exponent.derivatives(s, 2).values, reference):
                worst = max(worst, abs(got - want) / abs(want))
        return worst, 1e-8

    def derivative_finite_differences():
        rng = np.random.default_rng(seed)
        worst = 0.0
        draws = 5 if quick else 20
        for _ in range(draws):
            dist = rng.uniform(150.0, 900.0)
            s0 = rng.uniform(0.3, 3.0) * dist**4 / (1e-6) * 1e-3
            exponent = analytic_user_centric.laplace_exponent_uc(cfg, dist)
            transform = lambda s: math.exp(-exponent.value_at(s))
            etas = exponent.derivatives(s0, 1).values
            analytic_d1 = -etas[1] * math.exp(-etas[0])
            h = s0 * 1e-5
            fd = (transform(s0 + h) - transform(s0 - h)) / (2.0 * h)
            worst = max(worst, abs(analytic_d1 - fd) / abs(fd))
        return worst, 1e-4

    def analytic_vs_mc_user_centric():
        trials = 20_000 if quick else 100_000
        link = NomaLink(rate_near=1.0, rate_far=0.5, ipsic=0.0, fixed_user_dist=300.0)
        est, est_fixed = montecarlo.run_user_centric(cfg, link, NOMA, trials, seed)
        gap = abs(est.p_hat - analytic_user_centric.coverage_typical(cfg, link, NOMA))
        gap_fixed = abs(
            est_fixed.p_hat - analytic_user_centric.coverage_fixed(cfg, link, NOMA)
        )
        return max(gap, gap_fixed), 0.02

    def analytic_vs_mc_uav_centric():
        trials = 20_000 if quick else 100_000
        gap = max(
            abs(
                est.p_hat
                - analytic_uav_centric.coverage_pair(est.user_role, cfg_uav, link_uav)
            )
            for est in montecarlo.run_uav_centric(cfg_uav, link_uav, NOMA, trials, seed)
        )
        return gap, 0.02

    def array_rule_vs_adaptive():
        # a sparse network with a steep serving link, where the near user's
        # coverage falls off within the first few percent of its disc
        sparse = replace(
            cfg_uav, uav_density=density / 100.0, uav_height=30.0,
            alpha_desired=4.5, m_desired=3,
        )
        near = analytic_uav_centric.NEAR
        result = analytic_uav_centric.pair_quadrature(near, sparse, link_uav)
        error = abs(result.value - adaptive_coverage_pair(near, sparse, link_uav))
        return error, 1e-6, f"(estimate {result.estimate:.3e})"

    def ring_series_coefficient():
        R = 430.0
        l_i = math.hypot(R, cfg.uav_height)
        s = 0.5 * l_i**cfg.alpha_interf / cfg.tx_power
        exact = analytic_uav_centric.nearest_ring_exponent_ucav(cfg, R).value_at(s)
        series = analytic_uav_centric.nearest_ring_exponent_series(s, R, cfg, 120)
        return abs(series - exact) / exact, 1e-9

    return [
        ("closed-form identity (arctan vs general)", special_case_identity),
        ("nearest-ring identity (elementary vs general)", ring_identity),
        ("hypergeometric vs quadrature exponent", hypergeometric_vs_quadrature),
        ("transform derivative vs finite differences", derivative_finite_differences),
        ("nearest-ring binomial series", ring_series_coefficient),
        ("analytic vs MC, user-centric", analytic_vs_mc_user_centric),
        ("analytic vs MC, UAV-centric", analytic_vs_mc_uav_centric),
        ("UAV-centric array rule vs adaptive quadrature, sparse", array_rule_vs_adaptive),
    ]


def run_validation(quick: bool, seed: int) -> int:
    failures = 0
    for name, check in _validate_checks(quick, seed):
        achieved, bound, *note = check()
        ok = achieved <= bound
        failures += not ok
        print(
            f"{'PASS' if ok else 'FAIL'}  {name}: {achieved:.3e} <= {bound:.0e}",
            *note,
        )
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavnoma",
        description="Coverage probability of NOMA aerial-base-station networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="JSON configuration path")
        p.add_argument(
            "--strategy", choices=sorted(_STRATEGY_NAMES), help="association strategy"
        )
        p.add_argument("--access", choices=[NOMA, OMA], help="multiple-access mode")

    p_analytic = sub.add_parser("analytic", help="closed-form coverage of one point")
    common(p_analytic)

    p_mc = sub.add_parser("mc", help="Monte Carlo coverage of one point")
    common(p_mc)
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


def _point_spec(raw: dict, args, mode: str) -> SweepSpec:
    sweep_section = raw.get("sweep", {})
    spec = parse_sweep({**sweep_section, "axis": "ipsic", "values": [0.0]})
    strategy = args.strategy or _strategy_label(spec.strategy)
    access = args.access or spec.access
    trials = getattr(args, "trials", None)
    if trials is None:
        trials = spec.trials
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = spec.seed
    return SweepSpec(
        axis=spec.axis,
        values=spec.values,
        strategy=_STRATEGY_NAMES[strategy],
        access=access,
        mode=mode,
        trials=trials,
        seed=seed,
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return run_validation(args.quick, args.seed)

        raw = load_config(args.config)
        cfg = parse_network(raw.get("network", {}))
        link = parse_link(raw.get("link", {}))

        if args.command == "sweep":
            spec = parse_sweep(raw.get("sweep", {}))
            if args.trials is not None:
                spec = replace(spec, trials=args.trials)
            if args.seed is not None:
                spec = replace(spec, seed=args.seed)
            batches = run_sweep(cfg, link, spec, args.out)
            print(
                f"wrote {args.out}: {len(spec.values)} points, "
                f"{batches} geometry batch{'' if batches == 1 else 'es'}"
            )
            return 0

        mode = "analytic" if args.command == "analytic" else "mc"
        spec = _point_spec(raw, args, mode)
        ipsic = link.ipsic
        _warn_infeasible(cfg, link, spec.strategy, spec.access)
        rows = evaluate_point(cfg, link, spec, ipsic)
        print(f"strategy={_strategy_label(spec.strategy)} access={spec.access}")
        for row in rows:
            if mode == "analytic":
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
