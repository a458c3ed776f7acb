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
1e-20): ``quadrature.integrate_many`` evaluates the kernel on 64 and 128
Gauss-Legendre nodes per cell in one array pass and returns the 128-node
value, with |Q_64 - Q_128| as its error estimate. A cell whose estimate
exceeds its share of the absolute tolerance ``quadrature.TOLERANCE`` (1e-7)
is bisected until it meets it, to a fixed depth, past which the value
raises ``NumericalError``; coverage mass packed below u = 0.01 with r_k far
out (a low UAV and a steep serving link) is found this way.
``validation.piecewise_user_centric_coverage``, adaptive Gauss-Kronrod in u
on log-spaced panels, is the reference for the radial integral.

``radial_quadratures`` integrates many typical and fixed values at once, the
values of a sweep (``coverage_sweep``): their cells share the kernel's passes,
so the 16 values of an 8-point sweep (384 nodes each) take one pass. Each
value is one row (``_value``) of what varies along a sweep: its noise N/P,
its density, its two decode coefficients at unit power and r_k. The
integrand reads the row of the value each node belongs to, a per-node array
only for the fields that differ within the pass; each value equals, bit
for bit, the one integrated alone, so values of one row are integrated once
(``quadrature.integrate_rows``): under OMA each user decodes in its own
slot, so along a ``rate_near`` sweep the fixed user's row, which reads
``rate_far`` alone, repeats at every point.
``coverage_typical`` and ``coverage_fixed`` are its one-value case.

The kernel runs at unit transmit power (see ``laplace``): transmit power
enters the rows as N/P alone. Unlike the UAV-centric integrand this one
keeps nothing between passes: a sweep is one pass.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import quadrature
from .errors import DomainError
from .laplace import RadialTailExponent, check_probability, conditional_coverage
from .scenario import (
    NOMA,
    ROLES,
    USER_CENTRIC,
    NetworkConfig,
    NomaLink,
    sweep_config,
    thresholds,
)

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
    fixed: bool  # the fixed user, served from fixed_dist3d
    fixed_dist3d: float


def _value(user: str, cfg: NetworkConfig, link: NomaLink, access: str) -> _Value:
    """The typical user runs the SIC chain (near role) where r < r_k and
    decodes its own signal directly (far role) beyond, the rule of the Monte
    Carlo's ``near_case``. The fixed user plays the complement of that role
    at swapped rates, served from the fixed 3-D distance R_k. Both take their
    decode coefficients at unit power, beside the noise N/P."""
    root_pl = math.sqrt(math.pi * cfg.uav_density)
    fields = root_pl, cfg.noise_power / cfg.tx_power, cfg.uav_density
    r_k = link.fixed_user_dist
    if user == TYPICAL:
        ts = thresholds(link, USER_CENTRIC, access)
        return _Value(*fields, r_k, ts.near, ts.far, False, 0.0)
    if user == FIXED:
        ts = thresholds(link.with_swapped_rates(), USER_CENTRIC, access)
        return _Value(
            *fields, r_k, ts.far, ts.near, True, math.hypot(r_k, cfg.uav_height)
        )
    raise DomainError(f"unknown user {user!r}")


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
        np.where(v.fixed, v.fixed_dist3d, dist3d),
        cfg.alpha_desired,
        laplace_exponent_uc(cfg, dist3d, v.uav_density),
    )


def coverage_cond(r, cfg: NetworkConfig, link: NomaLink, access: str = NOMA):
    """Typical-user coverage conditioned on its horizontal serving distance r.

    r may be an array. The typical user runs the SIC chain (near role) where
    r < r_k and decodes its own signal directly (far role) beyond, the rule
    of the Monte Carlo's ``near_case``.
    """
    return _conditional(r, cfg, _value(TYPICAL, cfg, link, access))


def _coverage_cond_fixed(r, cfg: NetworkConfig, link: NomaLink, access: str = NOMA):
    """Fixed-user coverage conditioned on the typical user's serving distance r.

    The fixed user plays the complement of the typical user's role at swapped
    rates: it decodes directly while the typical user is near (r < r_k) and
    runs the SIC chain beyond. Its signal arrives from the fixed 3-D distance
    R_k, and its interference keeps the typical user's exclusion radius.
    """
    return _conditional(r, cfg, _value(FIXED, cfg, link, access))


def _cells(t_k: float) -> tuple[list, list, list]:
    """Radial cells in t, split at t_k unless it lies past the cutoff."""
    if t_k < quadrature.T_CUTOFF:
        return [[0.0], [t_k]], [[t_k], [quadrature.T_CUTOFF]], [[_RADIAL_NODES]] * 2
    return [[0.0]], [[quadrature.T_CUTOFF]], [[_RADIAL_NODES]]


def radial_quadratures(
    values: Sequence[tuple[str, NetworkConfig, NomaLink]], access: str = NOMA
) -> list[quadrature.Quadrature]:
    """Coverage of each ``(user, cfg, link)``, user "typical" or "fixed", with
    its error estimate: its conditional coverage against the nearest-UAV law,
    with a cell edge at r_k.

    The configs may differ in ``scenario.SWEPT_FIELDS`` alone. All values
    share the passes of one ``quadrature.integrate_many`` call (see the module
    docstring), one integral per distinct row, each equal, bit for bit, to
    the value integrated alone.
    """
    shared = sweep_config([cfg for _, cfg, _ in values])
    rows = [_value(user, cfg, link, access) for user, cfg, link in values]

    def make_integrand(distinct):
        fields = quadrature.NodeFields(distinct)

        def integrand(owner, t):
            v = fields.at(owner)
            return 2.0 * t * np.exp(-t * t) * _conditional(t / v.root_pl, shared, v)

        return integrand

    found = quadrature.integrate_rows(
        make_integrand, rows, lambda row: _cells(row.root_pl * row.fixed_user_dist)
    )
    results = [found[row] for row in rows]
    check_probability(
        [result.value for result in results],
        "radial coverage",
        shared.m_desired,
        [result.estimate for result in results],
    )
    return results


def coverage_typical(cfg: NetworkConfig, link: NomaLink, access: str = NOMA) -> float:
    """Unconditional coverage of the typical user: ``coverage_cond`` against
    the nearest-UAV distance density."""
    return radial_quadratures([(TYPICAL, cfg, link)], access)[0].value


def coverage_fixed(cfg: NetworkConfig, link: NomaLink, access: str = NOMA) -> float:
    """Unconditional coverage of the fixed user at horizontal distance r_k,
    its conditional coverage against the typical user's nearest-UAV law."""
    return radial_quadratures([(FIXED, cfg, link)], access)[0].value


def coverage_sweep(
    points: Sequence[tuple[NetworkConfig, NomaLink]], access: str = NOMA
) -> list[tuple[float, float]]:
    """(typical, fixed) coverage of every ``(cfg, link)`` point of a sweep,
    all values integrated together (``radial_quadratures``)."""
    values = [(user, cfg, link) for cfg, link in points for user in (TYPICAL, FIXED)]
    found = [result.value for result in radial_quadratures(values, access)]
    return list(zip(found[::2], found[1::2]))
