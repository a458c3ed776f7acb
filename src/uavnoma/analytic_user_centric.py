"""Closed-form coverage of the user-centric association strategy.

The typical user sits at the origin and attaches to the nearest UAV at random
horizontal distance r; a fixed user is already attached to the same UAV at
horizontal distance r_k. Whether the typical user plays the near role
(r < r_k, SIC chain) or the far role (r > r_k, single decode) decides the
decode coefficient; conditioned on r, coverage follows from the interference
Laplace transform with exclusion at the 3-D serving distance, and the
unconditional value integrates against the nearest-point density.

The normative algorithm is the derivative-of-Laplace engine in ``laplace``
(hypergeometric exponent, recursion kernel). The arctan exponent of Rayleigh
interference with quartic path loss is kept here as a validation path; the
mapped exponent quadrature of ``uavnoma validate`` is the reference for any
other interference order and path-loss exponent.
"""

from __future__ import annotations

import math

from scipy import integrate

from .errors import NumericalError
from .laplace import RadialTailExponent, conditional_coverage
from .scenario import NOMA, USER_CENTRIC, NetworkConfig, NomaLink, thresholds

NEAR = "near"
FAR = "far"
OMA_CASE = "oma"

# absolute tolerance of the radial integrals; figure-level resolution is ~1e-2
_RADIAL_ABS_TOL = 1e-7
# beyond this the e^(-u) weight is below 1e-20: nothing left to integrate
_U_CUTOFF = 46.0


def laplace_exponent_uc(cfg: NetworkConfig, serving_dist3d: float) -> RadialTailExponent:
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


def _integrate_split(cfg: NetworkConfig, break_radius: float, inner_fn, outer_fn):
    """Integrate fn(r) f_r(r) dr over (0, break) and (break, inf).

    Substituting u = pi lam r^2 turns the density into the weight e^(-u),
    which tames the semi-infinite tail.
    """
    pl = math.pi * cfg.uav_density
    u_break = pl * break_radius**2

    def radius(u: float) -> float:
        return math.sqrt(u / pl)

    inner = 0.0
    if u_break > 0.0:
        inner, err = integrate.quad(
            lambda u: inner_fn(radius(u)) * math.exp(-u),
            0.0,
            min(u_break, _U_CUTOFF),
            epsabs=_RADIAL_ABS_TOL,
            epsrel=1e-6,
            limit=200,
            full_output=1,
        )[:2]
        if err > 1e-4:
            raise NumericalError("radial quadrature out of tolerance", err)
    outer = 0.0
    if u_break < _U_CUTOFF:
        outer, err = integrate.quad(
            lambda u: outer_fn(radius(u)) * math.exp(-u),
            u_break,
            math.inf,
            epsabs=_RADIAL_ABS_TOL,
            epsrel=1e-6,
            limit=200,
            full_output=1,
        )[:2]
        if err > 1e-4:
            raise NumericalError("radial quadrature out of tolerance", err)
    return min(max(inner + outer, 0.0), 1.0)


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

    def branch(coeff):
        def fn(r: float) -> float:
            dist3d = math.hypot(r, cfg.uav_height)
            return conditional_coverage(
                cfg.m_desired,
                coeff,
                cfg.noise_power,
                dist3d,
                cfg.alpha_desired,
                laplace_exponent_uc(cfg, dist3d),
            )

        return fn

    return _integrate_split(
        cfg, link.fixed_user_dist, branch(coeff_near), branch(coeff_far)
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

    def role(coeff):
        def fn(r: float) -> float:
            exclusion = math.hypot(r, cfg.uav_height)
            return conditional_coverage(
                cfg.m_desired,
                coeff,
                cfg.noise_power,
                dist_fixed,
                cfg.alpha_desired,
                laplace_exponent_uc(cfg, exclusion),
            )

        return fn

    return _integrate_split(
        cfg, link.fixed_user_dist, role(coeff_far_role), role(coeff_near_role)
    )
