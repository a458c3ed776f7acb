"""Closed-form coverage of the UAV-centric association strategy.

The typical UAV sits at the origin with its nearest neighbor at horizontal
distance R; it serves a near user drawn from the disc of radius R/4 and a far
user from the ring R/4..R/2. Conditioned on R the interference splits into
the neighbor itself, handled as a thin-ring term at 3-D distance
l_I = sqrt(R^2 + h^2) with weight l_I / R, and the population beyond it,
which reuses the radial-tail exponent with lower limit l_I. Unconditional
coverage is the double integral over the user-placement density and the
nearest-neighbor law.

The thin-ring construction is a limit device; the implementation always uses
its closed elementary form, and the binomial-series expansion of the ring
term is kept only as a validation path (``nearest_ring_exponent_series``).

Both integrals use one fixed Gauss-Legendre tensor rule:

* placement: 12 nodes, linear in the user radius r, weighted by its density;
* nearest neighbor: 64 nodes in t = sqrt(u), u = pi lam R^2, split at
  t_b = max(t_h, 0.2), where t_h = sqrt(pi lam) h marks R = h and the ring
  weight l_I / R turns from ~h/R to ~1: 24 nodes on [0, t_b] with
  t = t_b y^2, 40 log-spaced nodes on [t_b, sqrt(46)].

The 12 placement nodes of one R share its exponent, so a near/far pair
costs 2 x 12 x 64 = 1,536 kernel calls. Against converged references
(nested adaptive quadrature at 1e-11 with a breakpoint at R = h, or
24 x 512-node Gauss-Legendre) the rule is within 8.3e-7 over h = 30..5000 m,
alpha_d = 2.5..4.5, -30 and +30 dBm, fading orders 1 and 3, and within
1.7e-6 down to h = 1 m. It reaches 5e-5 in sparse networks (lam / 100)
with steep serving links (m >= 3, alpha_d >= 3.5, -30 dBm), where the near
user's coverage falls off within the first few percent of its disc;
``uavnoma validate`` compares it with adaptive quadrature at one point.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .laplace import (
    NearestRingExponent,
    RadialTailExponent,
    SumExponent,
    conditional_coverage,
)
from .scenario import NOMA, OMA, UAV_CENTRIC, NetworkConfig, NomaLink, thresholds

NEAR = "near"
FAR = "far"

_PLACEMENT_NODES = 12
_RADIAL_NODES_BELOW_H = 24
_RADIAL_NODES_ABOVE_H = 40
# e^(-46) ~ 1e-20: the nearest-neighbor law beyond u = 46 is negligible
_T_CUTOFF = math.sqrt(46.0)
# the lower panel spans at least u = 0.04, so a low UAV does not stretch
# the log-spaced panel over the near-empty start of the law
_T_SPLIT_MIN = 0.2


def tail_exponent_ucav(cfg: NetworkConfig, R: float) -> RadialTailExponent:
    """Exponent of the interferers beyond the nearest neighbor (3-D lower limit)."""
    l_i = math.hypot(R, cfg.uav_height)
    return RadialTailExponent(
        cfg.uav_density, cfg.tx_power, cfg.alpha_interf, cfg.m_interf, l_i
    )


def nearest_ring_exponent_ucav(cfg: NetworkConfig, R: float) -> NearestRingExponent:
    """Exponent of the nearest interfering UAV at horizontal distance R."""
    l_i = math.hypot(R, cfg.uav_height)
    return NearestRingExponent(
        l_i / R, cfg.tx_power, cfg.alpha_interf, cfg.m_interf, l_i
    )


def laplace_exponent_ucav(cfg: NetworkConfig, R: float) -> SumExponent:
    """Total conditional exponent: nearest neighbor plus the population tail."""
    if R <= 0.0:
        raise DomainError("R must be positive")
    return SumExponent([nearest_ring_exponent_ucav(cfg, R), tail_exponent_ucav(cfg, R)])


def rayleigh_ring_exponent(s: float, R: float, cfg: NetworkConfig) -> float:
    """Elementary ring exponent for Rayleigh interference links:

        eta(s) = (l_I / R) * s P / (l_I^aI + s P).

    Valid only for m_interf = 1.
    """
    l_i = math.hypot(R, cfg.uav_height)
    sp = s * cfg.tx_power
    return (l_i / R) * sp / (l_i**cfg.alpha_interf + sp)


def nearest_ring_exponent_series(
    s: float, R: float, cfg: NetworkConfig, terms: int
) -> float:
    """Binomial-series form of the ring exponent, kept as a validation path:

        eta(s) = (l_I/R) (1 - sum_U (-1)^U C(mI+U-1, U) x^U),
        x = s P / (mI l_I^aI), |x| < 1.

    C(mI+U-1, U) is the coefficient whose partial sums converge to
    (1+x)^(-mI); see tests for the numerical pin.
    """
    l_i = math.hypot(R, cfg.uav_height)
    x = s * cfg.tx_power / (cfg.m_interf * l_i**cfg.alpha_interf)
    partial = sum(
        (-1.0) ** u * math.comb(cfg.m_interf + u - 1, u) * x**u for u in range(terms)
    )
    return (l_i / R) * (1.0 - partial)


def _pair_coefficient(ts, role: str, access: str) -> float:
    if role == NEAR:
        return ts.coeff("near_joint") if access == NOMA else ts.coeff("oma")
    if role == FAR:
        return ts.coeff("far_own") if access == NOMA else ts.coeff("oma_far")
    raise DomainError(f"unknown role {role!r}")


def coverage_cond_pair(
    r: float,
    R: float,
    role: str,
    cfg: NetworkConfig,
    link: NomaLink,
    access: str = NOMA,
) -> float:
    """Coverage of one paired user conditioned on its radius and on R.

    The near role requires r <= R/4 and runs the SIC chain; the far role
    requires R/4 <= r <= R/2 and decodes directly. Infeasible power
    allocation gives exactly 0.
    """
    if role == NEAR and not 0.0 <= r <= 0.25 * R + 1e-9:
        raise DomainError(f"near user requires r <= R/4, got r={r}, R={R}")
    if role == FAR and not 0.25 * R - 1e-9 <= r <= 0.5 * R + 1e-9:
        raise DomainError(f"far user requires R/4 <= r <= R/2, got r={r}, R={R}")
    ts = thresholds(link, cfg, UAV_CENTRIC, access)
    coeff = _pair_coefficient(ts, role, access)
    return conditional_coverage(
        cfg.m_desired,
        coeff,
        cfg.noise_power,
        math.hypot(r, cfg.uav_height),
        cfg.alpha_desired,
        laplace_exponent_ucav(cfg, R),
    )


def _unit_rule(n: int) -> list[tuple[float, float]]:
    """(node, weight) pairs of the n-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return [(0.5 * (1.0 + xi), 0.5 * wi) for xi, wi in zip(x.tolist(), w.tolist())]


_UNIT_RULES = {
    n: _unit_rule(n)
    for n in (
        _PLACEMENT_NODES,
        _RADIAL_NODES_BELOW_H,
        _RADIAL_NODES_ABOVE_H,
        _RADIAL_NODES_BELOW_H + _RADIAL_NODES_ABOVE_H,
    )
}

# (r / R, weight) per role, linear in r: the near user has density 32r/R^2
# on [0, R/4], i.e. 2y dy with r = yR/4; the far user 32r/(3R^2) on
# [R/4, R/2], i.e. (2/3)(1 + y) dy with r = (1 + y)R/4
_PLACEMENT_RULES = {
    NEAR: [(0.25 * y, 2.0 * y * w) for y, w in _UNIT_RULES[_PLACEMENT_NODES]],
    FAR: [
        (0.25 * (1.0 + y), 2.0 / 3.0 * (1.0 + y) * w)
        for y, w in _UNIT_RULES[_PLACEMENT_NODES]
    ],
}


def _placement_average(cond_fn, R: float, role: str) -> float:
    """Average a conditional quantity ``cond_fn(r, R)`` over the user placement.

    The weights integrate the placement density exactly, so a constant
    averages to itself.
    """
    return sum(w * cond_fn(q * R, R) for q, w in _PLACEMENT_RULES[role])


def _squared_panel(end: float, n: int) -> list[tuple[float, float]]:
    """(t, weight) pairs on [0, end] with t = end y^2, clustered at t = 0."""
    return [(end * y * y, 2.0 * end * y * w) for y, w in _UNIT_RULES[n]]


def _log_panel(start: float, end: float, n: int) -> list[tuple[float, float]]:
    """(t, weight) pairs on [start, end] with log t uniform in y."""
    span = math.log(end / start)
    nodes = []
    for y, w in _UNIT_RULES[n]:
        t = start * math.exp(span * y)
        nodes.append((t, t * span * w))
    return nodes


def _radial_rule(cfg: NetworkConfig) -> list[tuple[float, float]]:
    """(R, weight) pairs of the integral over the nearest-neighbor law.

    With u = pi lam R^2 = t^2 the law is 2t e^(-t^2) dt on [0, sqrt(46)].
    The rule splits at t_b = max(t_h, 0.2), t_h being where R = h: a
    squared panel below t_b, a log-spaced one above. When t_b lies beyond
    the cutoff one squared panel takes all the nodes.
    """
    root_pl = math.sqrt(math.pi * cfg.uav_density)
    t_b = max(root_pl * cfg.uav_height, _T_SPLIT_MIN)
    if t_b < _T_CUTOFF:
        nodes = _squared_panel(t_b, _RADIAL_NODES_BELOW_H) + _log_panel(
            t_b, _T_CUTOFF, _RADIAL_NODES_ABOVE_H
        )
    else:
        nodes = _squared_panel(
            _T_CUTOFF, _RADIAL_NODES_BELOW_H + _RADIAL_NODES_ABOVE_H
        )
    return [(t / root_pl, 2.0 * t * math.exp(-t * t) * w) for t, w in nodes]


def coverage_pair(
    role: str, cfg: NetworkConfig, link: NomaLink, access: str = NOMA
) -> float:
    """Unconditional coverage of the near or far paired user.

    Inner average over the user placement given R, outer integral over the
    nearest-neighbor law; the placement nodes of one R share its exponent.
    """
    if access not in (NOMA, OMA):
        raise DomainError(f"unknown access {access!r}")
    ts = thresholds(link, cfg, UAV_CENTRIC, access)
    coeff = _pair_coefficient(ts, role, access)
    if not math.isfinite(coeff):
        return 0.0

    total = 0.0
    for R, weight in _radial_rule(cfg):
        exponent = laplace_exponent_ucav(cfg, R)

        def cond(r: float, _R: float, exponent=exponent) -> float:
            return conditional_coverage(
                cfg.m_desired,
                coeff,
                cfg.noise_power,
                math.hypot(r, cfg.uav_height),
                cfg.alpha_desired,
                exponent,
            )

        total += weight * _placement_average(cond, R, role)
    return min(max(total, 0.0), 1.0)
