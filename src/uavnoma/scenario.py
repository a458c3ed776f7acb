"""Deployment configuration, unit conversion, and NOMA threshold algebra.

Everything downstream (closed-form coverage and Monte Carlo alike) consumes
the immutable value types defined here. All internal computation is in linear
units (watts, meters); dBm appears only at I/O boundaries. Every field has
its default here, which a config that leaves the field out takes. A pair has
one power split, ``pw_far``; the near-role user takes ``1 - pw_far``.

Each association strategy has one name, the one configs, flags and CSVs
use: ``USER_CENTRIC`` ("user-centric") and ``UAV_CENTRIC`` ("uav-centric").
``ROLES`` names the two users of each, the subject first.

Every user has one decode rule, ``thresholds``: the two coefficients of the
subject (the user whose rate is ``rate_near``) in the near and in the far
role, at unit transmit power, so that transmit power enters the decode
rule as N/P alone (``ThresholdSet``). The partner is the link with swapped
rates, so the UAV-centric far user is the partner in the far role, and the
user-centric fixed user the partner in the role the typical user does not
play. No other module picks a coefficient by access.

Infeasible decode coefficients are represented by the ``INFEASIBLE`` sentinel
(+inf) rather than an exception: power/rate sweeps legitimately cross the
feasibility boundary, and an infinite coefficient makes the corresponding
coverage probability exactly zero downstream. A threshold that overflows a
float is infeasible too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Sequence

from .errors import DomainError

INFEASIBLE = math.inf

USER_CENTRIC = "user-centric"
UAV_CENTRIC = "uav-centric"
# the two users of each strategy, subject first (see ``thresholds``)
ROLES = {USER_CENTRIC: ("typical", "fixed"), UAV_CENTRIC: ("near", "far")}
NOMA = "noma"
OMA = "oma"


def dbm_to_watts(dbm: float) -> float:
    """Convert a power in dBm to watts; inf where the power overflows."""
    try:
        return 10.0 ** (dbm / 10.0) * 1e-3
    except OverflowError:
        return math.inf


def noise_from_bandwidth(bw_hz: float) -> float:
    """Thermal noise power in watts for a given bandwidth: -174 + 10 log10(BW) dBm."""
    if bw_hz <= 0.0:
        raise DomainError(f"bandwidth must be positive, got {bw_hz}")
    return dbm_to_watts(-174.0 + 10.0 * math.log10(bw_hz))


def _check_finite(config, lengths: tuple[str, ...]) -> None:
    """Raise ``DomainError`` naming the first field of ``config`` that is NaN
    or infinite, or the first of its ``lengths`` whose square is; NaN would
    pass every range check below, and the Monte Carlo squares each length."""
    for field in fields(config):
        value = getattr(config, field.name)
        if not math.isfinite(value):
            raise DomainError(f"{field.name} must be finite, got {value!r}")
        if field.name in lengths and not math.isfinite(value * value):
            raise DomainError(
                f"{field.name} must be at most about 1.34e154 m, so that its "
                f"square is finite, got {value!r}"
            )


@dataclass(frozen=True)
class NetworkConfig:
    """Physical and deployment parameters of the aerial cellular network.

    uav_density        aerial base stations per m^2 of ground plane
    uav_height         flight height in meters (>= 1 m so path gain stays finite)
    tx_power           per-UAV transmit power in watts
    alpha_desired      path-loss exponent of the serving link
    alpha_interf       path-loss exponent of interfering links (> 2)
    m_desired          integer Nakagami fading order of the serving link
    m_interf           integer Nakagami fading order of interfering links
    noise_power        AWGN power in watts
    sim_disc_radius    Monte Carlo deployment disc radius in meters

    Each length must have a finite square: at most about 1.34e154 m.
    """

    uav_density: float = 1.0 / (500.0**2 * math.pi)
    tx_power: float = dbm_to_watts(-30.0)
    alpha_desired: float = 3.0
    noise_power: float = noise_from_bandwidth(300e3)
    uav_height: float = 100.0
    alpha_interf: float = 4.0
    m_desired: int = 1
    m_interf: int = 1
    sim_disc_radius: float = 10_000.0

    def __post_init__(self):
        _check_finite(self, ("uav_height", "sim_disc_radius"))
        if self.uav_density <= 0.0:
            raise DomainError("uav_density must be positive")
        if self.tx_power <= 0.0 or self.noise_power <= 0.0:
            raise DomainError("powers must be strictly positive")
        if self.uav_height < 1.0:
            raise DomainError("uav_height must be at least 1 m")
        if self.alpha_interf <= 2.0:
            raise DomainError("alpha_interf must exceed 2 (finite interference)")
        if self.alpha_desired < 2.0:
            raise DomainError("alpha_desired must be at least 2")
        if self.m_desired < 1 or self.m_desired != int(self.m_desired):
            raise DomainError("m_desired must be a positive integer")
        if self.m_interf < 1 or self.m_interf != int(self.m_interf):
            raise DomainError("m_interf must be a positive integer")
        if self.sim_disc_radius <= 0.0:
            raise DomainError("sim_disc_radius must be positive")


# the network fields a sweep varies (its tx_power_dbm and uav_density axes);
# every other axis moves the link
SWEPT_FIELDS = ("tx_power", "uav_density")


def sweep_config(cfgs: Sequence[NetworkConfig]) -> NetworkConfig:
    """The first of a sweep's configs, after checking that every other one
    differs from it in ``SWEPT_FIELDS`` alone."""
    def rest(cfg):
        return {k: v for k, v in vars(cfg).items() if k not in SWEPT_FIELDS}

    shared = cfgs[0]
    common = rest(shared)
    if any(rest(cfg) != common for cfg in cfgs[1:]):
        raise DomainError(
            "the points of one sweep may differ in tx_power and uav_density only"
        )
    return shared


@dataclass(frozen=True)
class NomaLink:
    """Power split, target rates, and SIC quality of one NOMA pair.

    pw_far             power fraction of the far-role user, in (0, 1); the
                       near-role user takes the rest, ``pw_near``
    rate_near          target rate (BPCU) of the near user; in the
                       user-centric strategy this is the typical user's rate
    rate_far           target rate of the far user; user-centric: the rate of
                       the fixed user already attached to the serving UAV
    ipsic              residual fraction of the cancelled signal left by
                       imperfect SIC (0 = perfect, 1 = failed/no SIC)
    fixed_user_dist    horizontal distance of the fixed user from the serving
                       UAV in meters (user-centric strategy only)
    """

    pw_far: float = 0.6
    rate_near: float = 1.0
    rate_far: float = 0.5
    ipsic: float = 0.0
    fixed_user_dist: float = 300.0

    def __post_init__(self):
        _check_finite(self, ("fixed_user_dist",))
        if not 0.0 < self.pw_far < 1.0:
            raise DomainError("power fractions must be strictly positive")
        if not 0.0 <= self.ipsic <= 1.0:
            raise DomainError("ipsic must lie in [0, 1]")
        if self.rate_near <= 0.0 or self.rate_far <= 0.0:
            raise DomainError("target rates must be positive")
        if self.fixed_user_dist <= 0.0:
            raise DomainError("fixed_user_dist must be positive")

    @property
    def pw_near(self) -> float:
        """Power fraction of the near-role user."""
        return 1.0 - self.pw_far

    def with_swapped_rates(self) -> "NomaLink":
        """Rates seen from the partner user's perspective (power split kept)."""
        return replace(self, rate_near=self.rate_far, rate_far=self.rate_near)


def sinr_threshold(rate: float, access: str = NOMA) -> float:
    """Linear SINR threshold for a target rate: 2^R - 1, or 2^(2R) - 1 under
    orthogonal access where the pair shares the block in equal time slots.
    A threshold too large for a float is INFEASIBLE."""
    if access == NOMA:
        exponent = rate
    elif access == OMA:
        exponent = 2.0 * rate
    else:
        raise DomainError(f"unknown access {access!r}")
    try:
        return 2.0**exponent - 1.0
    except OverflowError:
        return INFEASIBLE


@dataclass(frozen=True)
class ThresholdSet:
    """Linear thresholds and decode coefficients of one subject: the user
    whose target rate is ``link.rate_near``. The partner is the subject of
    ``link.with_swapped_rates()``.

    A decode coefficient kappa turns the user's SINR conditions into the
    fading condition ``gain > kappa * (noise/P + I_1) * dist3d^alpha``, I_1
    being the interference at unit transmit power: the condition
    ``gain > M * (noise + P I_1) * dist3d^alpha`` at transmit power P, with
    M = kappa / P. INFEASIBLE (inf) marks a coefficient with a non-positive
    denominator or an infinite threshold, which forces the associated
    coverage probability to exactly 0.

    eps_own    threshold of the subject's own signal
    eps_other  threshold of the partner's signal
    near       coefficient of the subject in the near role: under NOMA the
               SIC chain, max(partner decode ahead of SIC, own decode after
               it) on the shared fading draw; under OMA its own slot
    far        coefficient of the subject in the far role: its own signal
               decoded directly, the partner's as interference
    """

    eps_own: float
    eps_other: float
    near: float
    far: float


def cross_residue(link: NomaLink, strategy: str) -> float:
    """Residue of the subject's own signal while, in the near role, it
    decodes the partner's ahead of SIC: the ipSIC fraction under UAV-centric
    association (the printed cross SINR), the whole signal under
    user-centric association."""
    return link.ipsic if strategy == UAV_CENTRIC else 1.0


def _coefficient(
    eps: float, split_own: float, residue: float, split_other: float
) -> float:
    """kappa such that ``sinr(received, split_own, split_other, residue, ...)
    > eps`` reads ``gain > kappa * (noise/P + I_1) * dist3d^alpha``."""
    if eps == INFEASIBLE:
        return INFEASIBLE
    denominator = split_own - residue * eps * split_other
    return eps / denominator if denominator > 0.0 else INFEASIBLE


def thresholds(link: NomaLink, strategy: str, access: str = NOMA) -> ThresholdSet:
    """Decode coefficients kappa of the subject for one strategy and access,
    at unit transmit power (see ``ThresholdSet``).

    The strategy decides one thing, ``cross_residue``. Infeasible power
    allocation, e.g. an SIC residue larger than the near user's own power
    share, yields INFEASIBLE coefficients rather than an error.
    """
    if strategy not in ROLES:
        raise DomainError(f"unknown strategy {strategy!r}")
    eps_own = sinr_threshold(link.rate_near, access)
    eps_other = sinr_threshold(link.rate_far, access)
    if access == OMA:
        alone = _coefficient(eps_own, 1.0, 0.0, 1.0)
        return ThresholdSet(eps_own, eps_other, alone, alone)
    own = _coefficient(eps_own, link.pw_near, link.ipsic, link.pw_far)
    residue = cross_residue(link, strategy)
    cross = _coefficient(eps_other, link.pw_far, residue, link.pw_near)
    far = _coefficient(eps_own, link.pw_far, 1.0, link.pw_near)
    return ThresholdSet(eps_own, eps_other, max(own, cross), far)
