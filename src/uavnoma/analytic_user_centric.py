"""Closed-form coverage of the user-centric association strategy.

The typical user sits at the origin and attaches to the nearest UAV at random
horizontal distance r; a fixed user is already attached to the same UAV at
horizontal distance r_k. Whether the typical user plays the near role
(r < r_k, SIC chain) or the far role (r >= r_k, single decode) decides the
decode coefficient, and the fixed user plays the other role. Conditioned on
r, each user's coverage follows from the interference Laplace transform with
exclusion at the typical user's 3-D serving distance (``coverage_cond`` for
the typical user, ``_coverage_cond_fixed`` for the fixed user), and the
unconditional value integrates it against the nearest-point density.

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
``validation.piecewise_user_centric_coverage``, adaptive Gauss-Kronrod in u
on log-spaced panels, is the reference for the radial integral.
"""

from __future__ import annotations

import math

import numpy as np

from . import quadrature
from .laplace import RadialTailExponent, check_probability, conditional_coverage
from .scenario import NOMA, USER_CENTRIC, NetworkConfig, NomaLink, thresholds

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


def _role_coefficient(near, link: NomaLink, cfg: NetworkConfig, access: str):
    """Decode coefficient of the subject of ``link``: its near-role (SIC
    chain) coefficient where ``near`` holds, its far-role one elsewhere."""
    ts = thresholds(link, cfg, USER_CENTRIC, access)
    return np.where(near, ts.near, ts.far)


def coverage_cond(r, cfg: NetworkConfig, link: NomaLink, access: str = NOMA):
    """Typical-user coverage conditioned on its horizontal serving distance r.

    r may be an array. The typical user runs the SIC chain (near role) where
    r < r_k and decodes its own signal directly (far role) beyond, the rule
    of the Monte Carlo's ``near_case``.
    """
    dist3d = np.hypot(r, cfg.uav_height)
    return conditional_coverage(
        cfg.m_desired,
        _role_coefficient(np.less(r, link.fixed_user_dist), link, cfg, access),
        cfg.noise_power,
        dist3d,
        cfg.alpha_desired,
        laplace_exponent_uc(cfg, dist3d),
    )


def _coverage_cond_fixed(r, cfg: NetworkConfig, link: NomaLink, access: str = NOMA):
    """Fixed-user coverage conditioned on the typical user's serving distance r.

    The fixed user plays the complement of the typical user's role at swapped
    rates: it decodes directly while the typical user is near (r < r_k) and
    runs the SIC chain beyond. Its signal arrives from the fixed 3-D distance
    R_k, and its interference keeps the typical user's exclusion radius.
    """
    return conditional_coverage(
        cfg.m_desired,
        _role_coefficient(
            np.greater_equal(r, link.fixed_user_dist),
            link.with_swapped_rates(),
            cfg,
            access,
        ),
        cfg.noise_power,
        math.hypot(link.fixed_user_dist, cfg.uav_height),
        cfg.alpha_desired,
        laplace_exponent_uc(cfg, np.hypot(r, cfg.uav_height)),
    )


def _integrate(cfg: NetworkConfig, link: NomaLink, conditional) -> float:
    """Integrate ``conditional(r)``, a coverage given the serving radii r
    (arrays), against the nearest-UAV law, with a cell edge at r_k."""
    root_pl = math.sqrt(math.pi * cfg.uav_density)
    t_k = root_pl * link.fixed_user_dist

    def integrand(t):
        return 2.0 * t * np.exp(-t * t) * conditional(t / root_pl)

    if t_k < _T_CUTOFF:
        lo, hi = [[0.0], [t_k]], [[t_k], [_T_CUTOFF]]
    else:
        lo, hi = [[0.0]], [[_T_CUTOFF]]
    value = quadrature.integrate(integrand, lo, hi, [[_RADIAL_NODES]] * len(lo)).value
    check_probability(value, "radial coverage")
    return value


def coverage_typical(cfg: NetworkConfig, link: NomaLink, access: str = NOMA) -> float:
    """Unconditional coverage of the typical user: ``coverage_cond`` against
    the nearest-UAV distance density."""
    return _integrate(cfg, link, lambda r: coverage_cond(r, cfg, link, access))


def coverage_fixed(cfg: NetworkConfig, link: NomaLink, access: str = NOMA) -> float:
    """Unconditional coverage of the fixed user at horizontal distance r_k,
    its conditional coverage against the typical user's nearest-UAV law."""
    return _integrate(cfg, link, lambda r: _coverage_cond_fixed(r, cfg, link, access))
