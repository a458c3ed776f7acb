"""Closed-form coverage of the user-centric association strategy.

The typical user sits at the origin and attaches to the nearest UAV at random
horizontal distance r; a fixed user is already attached to the same UAV at
horizontal distance r_k. Each user's decode coefficient switches at r = r_k,
between the near role (SIC chain) and the far role (single decode), as
``scenario.ROLE_TABLE`` says: the typical user is near below r_k, the fixed
user near from r_k on. Conditioned on r, each user's coverage follows from
the interference Laplace transform with exclusion at the typical user's 3-D
serving distance (``coverage_cond``), and the unconditional value integrates
it against the nearest-point density.

The normative algorithm is the derivative-of-Laplace engine in ``laplace``
(hypergeometric exponent, recursion kernel). The radial integral runs in
t = sqrt(u), u = pi lam r^2, where the nearest-UAV law is 2t e^(-t^2) dt, on
two cells split at t_k = sqrt(pi lam) r_k and ending at sqrt(46) (e^(-46) ~
1e-20): ``quadrature.integrate_many`` evaluates the kernel on 64 and 128
Gauss-Legendre nodes per cell in one array pass and returns the 128-node
value, with |Q_64 - Q_128| as its error estimate. A cell whose estimate
exceeds its share of the absolute tolerance ``quadrature.TOLERANCE`` (1e-7)
is bisected until it meets it, to a fixed depth, past which the value
raises ``NumericalError``; coverage mass packed below u = 0.01 with r_k far
out (a low UAV and a steep serving link) is found this way.
``validation.piecewise_user_centric_coverage``, adaptive Gauss-Kronrod in u
on log-spaced panels, is the reference for the radial integral.

``FORM`` hands this strategy to ``quadrature.coverage_quadratures``, the
closed forms' one integration routine, which integrates many typical and
fixed values at once, the values of a sweep (``quadrature.coverage_sweep``):
their cells share the kernel's passes, so the 16 values of an 8-point sweep
(384 nodes each) take one pass. Each value is one row (``_value``) of what
varies along a sweep: its noise N/P, its density, its two decode
coefficients at unit power and r_k. The integrand reads the row of the value
each node belongs to, a per-node array only for the fields that differ
within the pass; each value equals, bit for bit, the one integrated alone,
so values of one row are integrated once: under OMA each user decodes in its
own slot, so along a ``rate_near`` sweep the fixed user's row, which reads
``rate_far`` alone, repeats at every point. A value whose coefficients are
both infeasible is exactly 0 without an integral. ``radial_quadratures``,
``coverage_typical`` and ``coverage_fixed`` are its cases for this strategy.

The kernel runs at unit transmit power (see ``laplace``): transmit power
enters the rows as N/P alone. So a user's values along a power sweep, rows
equal but for N/P, share one evaluation of the exponent
(``quadrature.coverage_quadratures``): the 16 values of an 8-point power
sweep take 768 kernel nodes, each with 8 noises.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import quadrature
from .laplace import RadialTailExponent, conditional_coverage
from .scenario import NOMA, ROLES, USER_CENTRIC, NetworkConfig, NomaLink, role_of

TYPICAL, FIXED = ROLES[USER_CENTRIC]

# base rule of each radial cell; the check rule doubles it
_RADIAL_NODES = 64


def laplace_exponent_uc(
    cfg: NetworkConfig, serving_dist3d, density=None
) -> RadialTailExponent:
    """Unit-power interference Laplace exponent with exclusion at the serving
    distance. ``density``, which may be an array of one value per distance,
    replaces ``cfg.uav_density``."""
    if density is None:
        density = cfg.uav_density
    return RadialTailExponent(density, cfg.alpha_interf, cfg.m_interf, serving_dist3d)


class _Value(NamedTuple):
    """What the kernel and the integrand read of one typical or fixed value."""

    root_pl: float  # sqrt(pi lam)
    noise: float  # N/P
    uav_density: float
    fixed_user_dist: float
    below: float  # decode coefficient while r < r_k
    above: float  # decode coefficient while r >= r_k
    fixed_dist3d: float  # R_k, the fixed user's distance; 0 for the typical user


def _value(user: str, cfg: NetworkConfig, link: NomaLink, access: str) -> _Value:
    """The row of one value: the user's decode coefficients below r_k and
    from r_k on (``scenario.ROLE_TABLE``), at unit power beside the noise
    N/P; the fixed user is served from the fixed 3-D distance R_k."""
    role = role_of(USER_CENTRIC, user)
    coefficients = role.coefficients(link, access)
    r_k = link.fixed_user_dist
    return _Value(
        math.sqrt(math.pi * cfg.uav_density), cfg.noise_power / cfg.tx_power,
        cfg.uav_density, r_k, coefficients[role.below], coefficients[role.above],
        math.hypot(r_k, cfg.uav_height) if role.distance == "fixed" else 0.0,
    )


def _conditional(r, cfg, v: _Value):
    """The coverage of value ``v`` given the typical user's serving radius r.

    The user decodes at coefficient ``v.below`` where r < r_k and at
    ``v.above`` beyond; its signal arrives from the serving distance
    sqrt(r^2 + h^2), or from ``v.fixed_dist3d`` for the fixed user, and its
    interference keeps the typical user's exclusion radius, all at unit
    power: noise N/P and the unit-power exponent at ``v``'s density. The
    fields of ``v`` may be per-node arrays (``quadrature.NodeFields``); those
    of ``cfg`` are the ones the values share.
    """
    dist3d = np.hypot(r, cfg.uav_height)
    return conditional_coverage(
        cfg.m_desired,
        np.where(np.less(r, v.fixed_user_dist), v.below, v.above),
        v.noise,
        np.where(v.fixed_dist3d > 0.0, v.fixed_dist3d, dist3d),
        cfg.alpha_desired,
        laplace_exponent_uc(cfg, dist3d, v.uav_density),
    )


def coverage_cond(
    r, cfg: NetworkConfig, link: NomaLink, access: str = NOMA, user: str = TYPICAL
):
    """Coverage of ``user``, the typical user by default, conditioned on the
    typical user's horizontal serving distance r, which may be an array.

    The typical user runs the SIC chain (near role) where r < r_k and
    decodes its own signal directly (far role) beyond; the fixed user plays
    the other role at swapped rates, served from the fixed 3-D distance R_k,
    and its interference keeps the typical user's exclusion radius. Fading
    orders past ``quadrature.MAX_CLOSED_FORM_ORDERS`` raise ``DomainError``.
    """
    quadrature.check_orders(cfg)
    return _conditional(r, cfg, _value(user, cfg, link, access))


def _cells(t_k: float) -> tuple[list, list, list]:
    """Radial cells in t, split at t_k unless it lies past the cutoff."""
    if t_k < quadrature.T_CUTOFF:
        return [[0.0], [t_k]], [[t_k], [quadrature.T_CUTOFF]], [[_RADIAL_NODES]] * 2
    return [[0.0]], [[quadrature.T_CUTOFF]], [[_RADIAL_NODES]]


def _integrand(shared: NetworkConfig, rows: list[_Value]):
    """The radial integrand in t of ``rows``, on the cells of ``_cells``;
    ``shared`` holds the fields the rows' configs have in common."""
    fields = quadrature.NodeFields(rows)

    def integrand(owner, t):
        v = fields.at(owner)
        return 2.0 * t * np.exp(-t * t) * _conditional(t / v.root_pl, shared, v)

    return integrand


FORM = quadrature.ClosedForm(
    USER_CENTRIC,
    _value,
    lambda row: _cells(row.root_pl * row.fixed_user_dist),
    _integrand,
    lambda row: math.isfinite(row.below) or math.isfinite(row.above),
)


def radial_quadratures(
    values: Sequence[tuple[str, NetworkConfig, NomaLink]], access: str = NOMA
) -> list[quadrature.Quadrature]:
    """Coverage of each ``(user, cfg, link)``, user "typical" or "fixed", with
    its error estimate: its conditional coverage against the nearest-UAV law,
    with a cell edge at r_k, all values together
    (``quadrature.coverage_quadratures``)."""
    return quadrature.coverage_quadratures(FORM, values, access)


def coverage_typical(cfg: NetworkConfig, link: NomaLink, access: str = NOMA) -> float:
    """Unconditional coverage of the typical user: ``coverage_cond`` against
    the nearest-UAV distance density."""
    return radial_quadratures([(TYPICAL, cfg, link)], access)[0].value


def coverage_fixed(cfg: NetworkConfig, link: NomaLink, access: str = NOMA) -> float:
    """Unconditional coverage of the fixed user at horizontal distance r_k,
    its conditional coverage against the typical user's nearest-UAV law."""
    return radial_quadratures([(FIXED, cfg, link)], access)[0].value
