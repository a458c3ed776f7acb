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
its closed elementary form. ``coverage_cond_pair`` is the one conditional
coverage of a paired user, and the closed form integrates it on its nodes.

Both integrals run in one ``quadrature.integrate_many`` call over two cells
in the plane of (x, y):

* y in [0, 1] is the user placement, linear in the user radius r and
  weighted by its density;
* x is the nearest neighbor in t = sqrt(u), u = pi lam R^2, split at
  t_b = max(t_h, 0.2), where t_h = sqrt(pi lam) h marks R = h and the ring
  weight l_I / R turns from ~h/R to ~1: x in [0, 1] gives t = t_b x^2
  (clustered at t = 0), x in [1, 2] gives log t uniform on [t_b, sqrt(46)].
  When t_b lies beyond the cutoff one squared cell spans [0, sqrt(46)].

The base rule has 12 placement nodes and 24 (squared cell) or 40 (log cell)
radial nodes, 64 when one cell takes all; the check rule doubles every
count, so a near/far value evaluates the kernel on 3,840 nodes in one array
pass. The value returned is the doubled rule's, and |Q_n - Q_2n| is its
error estimate. A cell whose estimate exceeds its share of the absolute
tolerance ``quadrature.TOLERANCE`` (1e-7) is bisected along both axes,
placement included, which is where sparse networks (lam / 100) with steep
serving links (m >= 3, alpha_d >= 3.5, -30 dBm) need the nodes: the near
user's coverage falls off within the first few percent of its disc. Past
the fixed depth of the refinement the value raises ``NumericalError``.
``uavnoma validate`` compares the result at such a sparse point with
adaptive Gauss-Kronrod cubature over (u, r/R) on log-spaced panels
(``validation.adaptive_coverage_pair``).

``FORM`` hands this strategy to ``quadrature.coverage_quadratures``, the
closed forms' one integration routine, which integrates many near and far
values at once, the values of a sweep (``quadrature.coverage_sweep``): their
cells share the kernel's passes, so a point's near and far values (2 x 3,840
nodes) take one. Each value is one row (``_pair_value``) of what varies
along a sweep: the user's decode coefficient at unit power in the one role
``scenario.ROLE_TABLE`` gives it, its noise N/P, its density, its placement
and the cells' split point. The integrand reads the row of the value each
node belongs to, a per-node array only for the fields that differ within the
pass; each value equals, bit for bit, the one integrated alone, so values of
one row are integrated once: along a ``rate_near`` sweep the far user's
coefficient depends on ``rate_far`` alone. An infeasible coefficient gives
exactly 0 without an integral. ``pair_quadratures`` and ``coverage_pair``
are its cases for this strategy.

The kernel runs at unit power (see ``laplace``): transmit power enters as
the row's N/P alone, and the exponents read R and the density alone. A pass
on the same R and density as the last pass reuses its exponents, and their
coefficients wherever s is equal too (``_pair_integrand``): an 8-point
power sweep evaluates them once.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import quadrature
from .errors import DomainError
from .laplace import (
    ExponentSum,
    NearestRingExponent,
    RadialTailExponent,
    conditional_coverage,
)
from .scenario import NOMA, ROLES, UAV_CENTRIC, NetworkConfig, NomaLink, role_of

NEAR, FAR = ROLES[UAV_CENTRIC]

# base rule (nodes per axis) of each cell; the check rule doubles them
_PLACEMENT_NODES = 12
_RADIAL_NODES_BELOW_H = 24
_RADIAL_NODES_ABOVE_H = 40
# the lower panel spans at least u = 0.04, so a low UAV does not stretch
# the log-spaced panel over the near-empty start of the law
_T_SPLIT_MIN = 0.2


def laplace_exponent_ucav(
    cfg: NetworkConfig, R, density=None
) -> tuple[NearestRingExponent, RadialTailExponent]:
    """Parts of the unit-power conditional exponent: the nearest neighbor at
    horizontal distance R and the population beyond it (3-D lower limit).

    The conditional transform is exp(-(ring + tail)); ``conditional_coverage``
    takes the parts and sums their Taylor-coefficient arrays. ``density``,
    which may be an array of one value per R, replaces ``cfg.uav_density``.
    """
    if np.any(np.asarray(R) <= 0.0):
        raise DomainError("R must be positive")
    if density is None:
        density = cfg.uav_density
    l_i = np.hypot(R, cfg.uav_height)
    common = cfg.alpha_interf, cfg.m_interf, l_i
    return NearestRingExponent(l_i / R, *common), RadialTailExponent(density, *common)


def coverage_cond_pair(
    r, R, role: str, cfg: NetworkConfig, link: NomaLink, access: str = NOMA
):
    """Coverage of one paired user conditioned on its radius r and on R.

    r and R may be arrays that broadcast together. The near role requires
    r <= R/4 and runs the SIC chain; the far role requires R/4 <= r <= R/2
    and decodes directly. Infeasible power allocation gives exactly 0.
    """
    v = _pair_value(role, cfg, link, access)
    r, R = np.broadcast_arrays(r, R)
    if role_of(UAV_CENTRIC, role).distance == "disc":
        span, inside = "r <= R/4", (0.0 <= r) & (r <= 0.25 * R + 1e-9)
    else:
        span = "R/4 <= r <= R/2"
        inside = (0.25 * R - 1e-9 <= r) & (r <= 0.5 * R + 1e-9)
    if not np.all(inside):
        bad = np.unravel_index(np.argmin(inside), inside.shape)
        raise DomainError(f"{role} user requires {span}, got r={r[bad]}, R={R[bad]}")
    return _pair_kernel(r, cfg, v, ExponentSum(*laplace_exponent_ucav(cfg, R)))


def _pair_kernel(r, cfg, v: _PairValue, interference):
    """The conditional coverage of value ``v`` at radius r: m_d, h and alpha_d
    of ``cfg``, and ``v``'s decode coefficient and N/P, which may be per-node
    arrays (``quadrature.NodeFields``); ``interference`` is at unit power."""
    return conditional_coverage(
        cfg.m_desired,
        v.coeff,
        v.noise,
        np.hypot(r, cfg.uav_height),
        cfg.alpha_desired,
        interference,
    )


# the placement axis y in [0, 1] of each user's distance (``Role.distance``)
# as (offset, weight): the user radius is r = (offset + y) R/4 and its
# density weight (offset + y) dy. The near user has density 32r/R^2 on the
# disc [0, R/4], i.e. 2y dy with r = yR/4; the far user 32r/(3R^2) on the
# ring [R/4, R/2], i.e. (2/3)(1 + y) dy with r = (1 + y)R/4
_PLACEMENT = {"disc": (0.0, 2.0), "ring": (1.0, 2.0 / 3.0)}


def _placement(y, offset, weight):
    """r / R and the placement density at y."""
    base = offset + y
    return 0.25 * base, weight * base


def _cells(t_b: float) -> tuple[list, list, list]:
    """Lower corners, upper corners and base rules of the (x, y) cells."""
    if t_b < quadrature.T_CUTOFF:
        return (
            [(0.0, 0.0), (1.0, 0.0)],
            [(1.0, 1.0), (2.0, 1.0)],
            [(_RADIAL_NODES_BELOW_H, _PLACEMENT_NODES),
             (_RADIAL_NODES_ABOVE_H, _PLACEMENT_NODES)],
        )
    return (
        [(0.0, 0.0)],
        [(1.0, 1.0)],
        [(_RADIAL_NODES_BELOW_H + _RADIAL_NODES_ABOVE_H, _PLACEMENT_NODES)],
    )


class _PairValue(NamedTuple):
    """What the kernel and the integrand read of one near or far value."""

    coeff: float  # decode coefficient at unit transmit power
    noise: float  # N/P
    uav_density: float
    root_pl: float  # sqrt(pi lam)
    t_b: float
    t_end: float  # min(t_b, sqrt(46))
    span: float  # log(sqrt(46) / t_b)
    offset: float
    weight: float


def _pair_value(role, cfg, link, access) -> _PairValue:
    """The row of one value: the user's decode coefficient in the one role
    it plays and its placement, as ``scenario.ROLE_TABLE`` gives them."""
    entry = role_of(UAV_CENTRIC, role)
    (coeff,) = entry.coefficients(link, access).values()
    root_pl = math.sqrt(math.pi * cfg.uav_density)
    # t_b = max(t_h, 0.2), t_h = sqrt(pi lam) h being where R = h
    t_b = max(root_pl * cfg.uav_height, _T_SPLIT_MIN)
    return _PairValue(
        coeff,
        cfg.noise_power / cfg.tx_power,
        cfg.uav_density,
        root_pl,
        t_b,
        min(t_b, quadrature.T_CUTOFF),
        math.log(quadrature.T_CUTOFF / t_b),
        *_PLACEMENT[entry.distance],
    )


def _pair_integrand(shared: NetworkConfig, values: list[_PairValue]):
    """The pair coverage integrand over (x, y) on the cells ``_cells(t_b)`` of
    each value; ``shared`` holds the fields the values have in common. The
    unit-power exponents read R and the density alone, so a pass on the
    bitwise-equal R and density of the last pass keeps its ``ExponentSum``,
    for one ``integrate_many`` call, and that sum's memo reuses its
    coefficients wherever s is equal too."""
    fields = quadrature.NodeFields(values)
    last = None  # R, density and interference of the last pass

    def integrand(owner, x, y):
        nonlocal last
        v = fields.at(owner)
        # x < 1: t = t_end x^2; x >= 1: t = t_b exp(span (x - 1))
        squared = x < 1.0
        t = np.where(squared, v.t_end * x * x, v.t_b * np.exp(v.span * (x - 1.0)))
        dt_dx = np.where(squared, 2.0 * v.t_end * x, t * v.span)
        R = t / v.root_pl
        r_over_R, density = _placement(y, v.offset, v.weight)
        if last is None or not all(map(np.array_equal, last[:2], (R, v.uav_density))):
            parts = laplace_exponent_ucav(shared, R, v.uav_density)
            last = R, v.uav_density, ExponentSum(*parts)
        return (
            2.0 * t * np.exp(-t * t) * dt_dx * density
            * _pair_kernel(r_over_R * R, shared, v, last[2])
        )

    return integrand


FORM = quadrature.ClosedForm(
    UAV_CENTRIC,
    _pair_value,
    lambda row: _cells(row.t_b),
    _pair_integrand,
    lambda row: math.isfinite(row.coeff),
)


def pair_quadratures(
    values: Sequence[tuple[str, NetworkConfig, NomaLink]], access: str = NOMA
) -> list[quadrature.Quadrature]:
    """Coverage of each ``(role, cfg, link)`` with its error estimate, all
    values together (``quadrature.coverage_quadratures``)."""
    return quadrature.coverage_quadratures(FORM, values, access)


def coverage_pair(
    role: str, cfg: NetworkConfig, link: NomaLink, access: str = NOMA
) -> float:
    """Unconditional coverage of the near or far paired user.

    Inner average over the user placement given R, outer integral over the
    nearest-neighbor law, to the absolute tolerance ``quadrature.TOLERANCE``.
    """
    return pair_quadratures([(role, cfg, link)], access)[0].value
