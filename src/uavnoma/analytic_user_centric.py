"""Closed-form coverage of the user-centric association strategy.

The typical user sits at the origin and attaches to the nearest UAV at random
horizontal distance r; a fixed user is already attached to the same UAV at
horizontal distance r_k. Whether the typical user plays the near role
(r < r_k, SIC chain) or the far role (r > r_k, single decode) decides the
decode coefficient; conditioned on r, coverage follows from the interference
Laplace transform with exclusion at the 3-D serving distance, and the
unconditional value integrates against the nearest-point density.

The normative algorithm is the derivative-of-Laplace engine in ``laplace``
(hypergeometric exponent, recursion kernel). The radial integral runs in
t = sqrt(u), u = pi lam r^2, where the nearest-UAV law is 2t e^(-t^2) dt, on
two cells split at t_k = sqrt(pi lam) r_k and ending at sqrt(46) (e^(-46) ~
1e-20): ``quadrature.integrate`` evaluates the kernel on 64 and 128
Gauss-Legendre nodes per cell in one array pass and returns the 128-node
value, with |Q_64 - Q_128| as its error estimate. A cell whose estimate
exceeds its share of the absolute tolerance ``quadrature.TOLERANCE`` (1e-7)
is bisected until it meets it, to a fixed depth, past which the value
raises ``NumericalError``; coverage mass packed below u = 0.01 with r_k far
out (a low UAV and a steep serving link) is found this way.

The arctan exponent of Rayleigh interference with quartic path loss is kept
here as a validation path; the mapped exponent quadrature of ``uavnoma
validate`` is the reference for any other interference order and path-loss
exponent, and ``cli.piecewise_user_centric_coverage`` the reference for the
radial integral.
"""

from __future__ import annotations

import math

import numpy as np

from . import quadrature
from .laplace import RadialTailExponent, check_probability, conditional_coverage
from .scenario import NOMA, USER_CENTRIC, NetworkConfig, NomaLink, thresholds

NEAR = "near"
FAR = "far"
OMA_CASE = "oma"

# base rule of each radial cell; the check rule doubles it
_RADIAL_NODES = 64
# beyond u = t^2 = 46 the e^(-u) weight is below 1e-20: nothing left to integrate
_T_CUTOFF = math.sqrt(46.0)


def laplace_exponent_uc(cfg: NetworkConfig, serving_dist3d) -> RadialTailExponent:
    """Interference Laplace exponent with exclusion at the serving distance."""
    return RadialTailExponent(
        cfg.uav_density,
        cfg.tx_power,
        cfg.alpha_interf,
        cfg.m_interf,
        serving_dist3d,
    )


def rayleigh_tail_exponent_arctan(s: float, dist3d: float, cfg: NetworkConfig) -> float:
    """Elementary exponent for Rayleigh interference with quartic path loss:

        eta(s) = pi lam sqrt(s P) arctan(sqrt(s P) / d0^2).

    Valid only for m_interf = 1, alpha_interf = 4.
    """
    sp = math.sqrt(s * cfg.tx_power)
    return math.pi * cfg.uav_density * sp * math.atan(sp / dist3d**2)


def _case_coefficient(ts, case: str) -> float:
    if case == NEAR:
        return ts.coeff("near_joint")
    if case == FAR:
        return ts.coeff("far_own")
    if case == OMA_CASE:
        return ts.coeff("oma")
    raise ValueError(f"unknown case {case!r}")


def coverage_cond(r: float, case: str, cfg: NetworkConfig, link: NomaLink) -> float:
    """Typical-user coverage conditioned on its horizontal serving distance.

    case selects the decode chain: "near" (SIC on the fixed user's signal,
    then own), "far" (single decode), or "oma" (orthogonal benchmark).
    """
    access = "oma" if case == OMA_CASE else NOMA
    ts = thresholds(link, cfg, USER_CENTRIC, access)
    coeff = _case_coefficient(ts, case)
    dist3d = math.hypot(r, cfg.uav_height)
    return conditional_coverage(
        cfg.m_desired,
        coeff,
        cfg.noise_power,
        dist3d,
        cfg.alpha_desired,
        laplace_exponent_uc(cfg, dist3d),
    )


def _integrate_split(
    cfg: NetworkConfig, break_radius: float, inner_coeff, outer_coeff, conditional
) -> float:
    """Integrate a conditional coverage against the nearest-UAV law.

    ``conditional(coeff, r)`` is the kernel at decode coefficients ``coeff``
    and serving radii ``r`` (arrays); below ``break_radius`` it takes
    ``inner_coeff``, beyond it ``outer_coeff``.
    """
    root_pl = math.sqrt(math.pi * cfg.uav_density)
    t_k = root_pl * break_radius

    def integrand(t):
        coeff = np.where(t < t_k, inner_coeff, outer_coeff)
        return 2.0 * t * np.exp(-t * t) * conditional(coeff, t / root_pl)

    if t_k < _T_CUTOFF:
        lo, hi = [[0.0], [t_k]], [[t_k], [_T_CUTOFF]]
    else:
        lo, hi = [[0.0]], [[_T_CUTOFF]]
    value = quadrature.integrate(integrand, lo, hi, [[_RADIAL_NODES]] * len(lo)).value
    check_probability(value, "radial coverage")
    return value


def coverage_typical(cfg: NetworkConfig, link: NomaLink, access: str = NOMA) -> float:
    """Unconditional coverage of the typical user.

    The near branch integrates over r in (0, r_k) and the far branch over
    (r_k, inf) against the nearest-UAV distance density; under orthogonal
    access both branches share the doubled-rate coefficient.
    """
    ts = thresholds(link, cfg, USER_CENTRIC, access)
    if access == NOMA:
        coeff_near, coeff_far = ts.coeff("near_joint"), ts.coeff("far_own")
    else:
        coeff_near = coeff_far = ts.coeff("oma")
    if not (math.isfinite(coeff_near) or math.isfinite(coeff_far)):
        return 0.0

    def conditional(coeff, r):
        dist3d = np.hypot(r, cfg.uav_height)
        return conditional_coverage(
            cfg.m_desired,
            coeff,
            cfg.noise_power,
            dist3d,
            cfg.alpha_desired,
            laplace_exponent_uc(cfg, dist3d),
        )

    return _integrate_split(
        cfg, link.fixed_user_dist, coeff_near, coeff_far, conditional
    )


def coverage_fixed(cfg: NetworkConfig, link: NomaLink, access: str = NOMA) -> float:
    """Unconditional coverage of the fixed user at horizontal distance r_k.

    The fixed user's role is the complement of the typical user's: while the
    typical user is near (r < r_k) the fixed user decodes its own signal
    treating the pair signal as noise; while the typical user is far the
    fixed user runs the SIC chain. Its interference is modeled with the same
    serving-distance exclusion as the typical user's, so the exponent keeps
    the typical user's conditioning radius while the received power sits at
    the fixed 3-D distance R_k.
    """
    ts_fixed = thresholds(link.with_swapped_rates(), cfg, USER_CENTRIC, access)
    if access == NOMA:
        coeff_far_role, coeff_near_role = (
            ts_fixed.coeff("far_own"),
            ts_fixed.coeff("near_joint"),
        )
    else:
        coeff_far_role = coeff_near_role = ts_fixed.coeff("oma")
    dist_fixed = math.hypot(link.fixed_user_dist, cfg.uav_height)

    def conditional(coeff, r):
        return conditional_coverage(
            cfg.m_desired,
            coeff,
            cfg.noise_power,
            dist_fixed,
            cfg.alpha_desired,
            laplace_exponent_uc(cfg, np.hypot(r, cfg.uav_height)),
        )

    return _integrate_split(
        cfg, link.fixed_user_dist, coeff_far_role, coeff_near_role, conditional
    )
