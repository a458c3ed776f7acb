"""Deployment configuration, unit conversion, NOMA threshold algebra, and
the role of every user.

Everything downstream (closed-form coverage and Monte Carlo alike) consumes
the immutable value types defined here. All internal computation is in linear
units (watts, meters); dBm appears only at I/O boundaries. Every field has
its default here, which a config that leaves the field out takes. A pair has
one power split, ``pw_far``; the near-role user takes ``1 - pw_far``.

Each association strategy has one name, the one configs, flags and CSVs
use: ``USER_CENTRIC`` ("user-centric") and ``UAV_CENTRIC`` ("uav-centric").

Every user has one decode rule, ``thresholds``: the two coefficients of the
subject (the user whose rate is ``rate_near``) or of its partner (whose
rate is ``rate_far``) in the near and in the far role, at unit transmit
power, so that transmit power enters the decode rule as N/P alone
(``ThresholdSet``). Both users decode on the point's one link.

``ROLE_TABLE`` states once what each user of each strategy is (a ``Role``),
in ``ROLES`` order, the subject first: the UAV-centric near user is the
subject in the near role and the far user its partner in the far role; the
user-centric typical user is the subject, near while its serving distance r
lies below the fixed user's r_k and far beyond, and the fixed user its
partner in the other role, at r_k. The Monte Carlo, both closed forms and
the CLI's warnings read their users from it, and only ``thresholds`` reads
which of the link's two rates is a user's own.

Infeasible decode coefficients are represented by the ``INFEASIBLE`` sentinel
(+inf) rather than an exception: power/rate sweeps legitimately cross the
feasibility boundary, and an infinite coefficient makes the corresponding
coverage probability exactly zero downstream. A threshold that overflows a
float is infeasible too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

from .errors import DomainError, shown

INFEASIBLE = math.inf

USER_CENTRIC = "user-centric"
UAV_CENTRIC = "uav-centric"
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


def _check_ranges(config, ranges: dict, lengths: tuple[str, ...]) -> None:
    """Raise ``DomainError`` naming the first field of ``config`` outside its
    range, its entry in ``ranges`` a test and the words that state it. A
    field must first be finite (an infinity passes most tests, and an
    integer must be one a float holds), and each of its ``lengths`` must
    have a finite square, since the Monte Carlo squares each length."""
    for field in fields(config):
        name, value = field.name, getattr(config, field.name)
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        test, rule = ranges[name]
        if not math.isfinite(number):
            rule = "be finite"
        elif name in lengths and not math.isfinite(number * number):
            rule = "be at most about 1.34e154 m, so that its square is finite"
        elif test(value):
            continue
        raise DomainError(f"{name} must {rule}, got {shown(value)}", name)


def _positive(value) -> bool:
    return value > 0.0


def _order(value) -> bool:
    return value >= 1 and value == int(value)


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
        _check_ranges(self, _NETWORK_RANGES, ("uav_height", "sim_disc_radius"))


# the range of each NetworkConfig field
_NETWORK_RANGES = {
    "uav_density": (_positive, "be positive"),
    "tx_power": (_positive, "be positive"),
    "alpha_desired": (lambda v: v >= 2.0, "be at least 2"),
    "noise_power": (_positive, "be positive"),
    "uav_height": (lambda v: v >= 1.0, "be at least 1 m"),
    "alpha_interf": (lambda v: v > 2.0, "exceed 2 (finite interference)"),
    "m_desired": (_order, "be a positive integer"),
    "m_interf": (_order, "be a positive integer"),
    "sim_disc_radius": (_positive, "be positive"),
}


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
        _check_ranges(self, _LINK_RANGES, ("fixed_user_dist",))

    @property
    def pw_near(self) -> float:
        """Power fraction of the near-role user."""
        return 1.0 - self.pw_far


# the range of each NomaLink field
_LINK_RANGES = {
    "pw_far": (lambda v: 0.0 < v < 1.0, "lie in (0, 1)"),
    "rate_near": (_positive, "be positive"),
    "rate_far": (_positive, "be positive"),
    "ipsic": (lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]"),
    "fixed_user_dist": (_positive, "be positive"),
}


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
    """Linear thresholds and decode coefficients of one user of a pair: the
    subject, whose own target rate is ``link.rate_near``, or its partner,
    whose own rate is ``link.rate_far``; the other user's rate is the other
    one, and the power split and ipSIC are the link's for both.

    A decode coefficient kappa turns the user's SINR conditions into the
    fading condition ``gain > kappa * (noise/P + I_1) * dist3d^alpha``, I_1
    being the interference at unit transmit power: the condition
    ``gain > M * (noise + P I_1) * dist3d^alpha`` at transmit power P, with
    M = kappa / P. INFEASIBLE (inf) marks a coefficient with a non-positive
    denominator or an infinite threshold, which forces the associated
    coverage probability to exactly 0.

    eps_own    threshold of the user's own signal
    eps_other  threshold of the other user's signal
    near       coefficient of the user in the near role: under NOMA the
               SIC chain, max(other decode ahead of SIC, own decode after
               it) on the shared fading draw; under OMA its own slot
    far        coefficient of the user in the far role: its own signal
               decoded directly, the other user's as interference
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


def thresholds(
    link: NomaLink, strategy: str, access: str = NOMA, partner: bool = False
) -> ThresholdSet:
    """Decode coefficients kappa of the subject, or of its partner if
    ``partner``, for one strategy and access, at unit transmit power (see
    ``ThresholdSet``).

    The strategy decides one thing, ``cross_residue``. Infeasible power
    allocation, e.g. an SIC residue larger than the near user's own power
    share, yields INFEASIBLE coefficients rather than an error.
    """
    if strategy not in ROLES:
        raise DomainError(f"unknown strategy {strategy!r}")
    rates = link.rate_near, link.rate_far
    rate_own, rate_other = rates[::-1] if partner else rates
    eps_own = sinr_threshold(rate_own, access)
    eps_other = sinr_threshold(rate_other, access)
    if access == OMA:
        alone = _coefficient(eps_own, 1.0, 0.0, 1.0)
        return ThresholdSet(eps_own, eps_other, alone, alone)
    own = _coefficient(eps_own, link.pw_near, link.ipsic, link.pw_far)
    residue = cross_residue(link, strategy)
    cross = _coefficient(eps_other, link.pw_far, residue, link.pw_near)
    far = _coefficient(eps_own, link.pw_far, 1.0, link.pw_near)
    return ThresholdSet(eps_own, eps_other, max(own, cross), far)


NEAR = "near"
FAR = "far"


class Role(NamedTuple):
    """One user of a strategy (see ``ROLE_TABLE``).

    strategy   the strategy it belongs to
    user       its name, as output rows give it
    partner    it is the subject's partner: on the point's link its own rate
               is ``rate_far`` and the other user's ``rate_near``
    below      the role, NEAR or FAR, it plays while the typical user's
               serving distance r lies below r_k
    above      the role it plays from r_k on; a UAV-centric user plays one
               role throughout
    distance   where its serving distance comes from: "serving", the drawn
               r; "fixed", the link's r_k; "disc" or "ring", its placement
               within R/4 or from R/4 to R/2 of the serving UAV, whose
               nearest neighbor lies at R
    """

    strategy: str
    user: str
    partner: bool
    below: str
    above: str
    distance: str

    def coefficients(self, link: NomaLink, access: str = NOMA) -> dict[str, float]:
        """The user's decode coefficient in each role it plays, near first."""
        ts = thresholds(link, self.strategy, access, self.partner)
        # a ThresholdSet names its two coefficients by role
        return {r: getattr(ts, r) for r in (NEAR, FAR) if r in (self.below, self.above)}

    def plays_near(self, below):
        """Where the user plays the near role, given ``below``, where r lies
        below r_k: True or False for a user of one role, else an array."""
        if self.below == self.above:
            return self.below == NEAR
        return below if self.below == NEAR else ~below


# the users of each strategy, the subject first
ROLE_TABLE = {
    USER_CENTRIC: (
        Role(USER_CENTRIC, "typical", False, NEAR, FAR, "serving"),
        Role(USER_CENTRIC, "fixed", True, FAR, NEAR, "fixed"),
    ),
    UAV_CENTRIC: (
        Role(UAV_CENTRIC, "near", False, NEAR, NEAR, "disc"),
        Role(UAV_CENTRIC, "far", True, FAR, FAR, "ring"),
    ),
}
ROLES = {s: tuple(role.user for role in table) for s, table in ROLE_TABLE.items()}


def role_of(strategy: str, user: str) -> Role:
    """The ``ROLE_TABLE`` entry of ``user`` under ``strategy``."""
    for entry in ROLE_TABLE.get(strategy, ()):
        if entry.user == user:
            return entry
    raise DomainError(f"unknown {strategy} user {user!r}")
