"""Independent references and the ``uavnoma validate`` cross-check suite.

Nothing in the production path imports this module: ``uavnoma validate``
loads it when it runs, and the tests import the references from here. It
holds

* the elementary exponents of special cases (``rayleigh_tail_exponent_arctan``,
  ``rayleigh_ring_exponent``) and the binomial series of the ring exponent
  (``nearest_ring_exponent_series``), written at transmit power P, against
  which the unit-power exponents of ``laplace`` are checked at s P, and the
  densities of the nearest-UAV distance and of the user placement, against
  which the samplers of ``spatial`` are;
* three integrals on one adaptive Gauss-Kronrod helper over arrays of nodes
  (``_adaptive``): ``quadrature_exponent_derivatives``, the reference for the
  hypergeometric exponent, and ``adaptive_coverage_pair`` and
  ``piecewise_user_centric_coverage``, on log-spaced panels in u, the
  references for the array rules. These integrate the closed forms' own
  conditional coverages with another rule, so they check the integration alone;
* ``run_validation``, the eight checks of ``uavnoma validate``.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy.integrate import cubature
from scipy.special import binom

from . import analytic_uav_centric, analytic_user_centric, montecarlo
from .errors import DomainError, NumericalError
from .laplace import RadialTailExponent
from .scenario import NOMA, UAV_CENTRIC, USER_CENTRIC, NetworkConfig, NomaLink


def rayleigh_tail_exponent_arctan(s, dist3d, cfg: NetworkConfig):
    """Elementary exponent for Rayleigh interference with quartic path loss:

        eta(s) = pi lam sqrt(s P) arctan(sqrt(s P) / d0^2).

    Valid only for m_interf = 1, alpha_interf = 4. s and d0 may be arrays.
    """
    sp = np.sqrt(s * cfg.tx_power)
    return math.pi * cfg.uav_density * sp * np.arctan(sp / dist3d**2)


def rayleigh_ring_exponent(s, R, cfg: NetworkConfig):
    """Elementary ring exponent for Rayleigh interference links:

        eta(s) = (l_I / R) * s P / (l_I^aI + s P).

    Valid only for m_interf = 1. s and R may be arrays.
    """
    l_i = np.hypot(R, cfg.uav_height)
    sp = s * cfg.tx_power
    return (l_i / R) * sp / (l_i**cfg.alpha_interf + sp)


def nearest_ring_exponent_series(
    s: float, R: float, cfg: NetworkConfig, terms: int
) -> float:
    """Binomial-series form of the ring exponent:

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


def nearest_distance_pdf(r, density: float):
    """Density of the horizontal distance to the nearest HPPP point."""
    if density <= 0.0:
        raise DomainError("density must be positive")
    r = np.asarray(r, dtype=float)
    return 2.0 * math.pi * density * r * np.exp(-math.pi * density * r * r)


def nearest_distance_cdf(r, density: float):
    """CDF of the nearest-point distance: 1 - exp(-pi lam r^2)."""
    r = np.asarray(r, dtype=float)
    return -np.expm1(-math.pi * density * r * r)


def near_user_pdf(r, R: float):
    """Density 32 r / R^2 on [0, R/4], zero elsewhere."""
    r = np.asarray(r, dtype=float)
    inside = (r >= 0.0) & (r <= 0.25 * R)
    return np.where(inside, 32.0 * r / (R * R), 0.0)


def far_user_pdf(r, R: float):
    """Density 32 r / (3 R^2) on [R/4, R/2], zero elsewhere."""
    r = np.asarray(r, dtype=float)
    inside = (r >= 0.25 * R) & (r <= 0.5 * R)
    return np.where(inside, 32.0 * r / (3.0 * R * R), 0.0)


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


def _adaptive(integrand, edges, lo=(), hi=(), atol=1e-14):
    """Integral of ``integrand`` over the panels between ``edges`` along the
    first axis (``lo`` and ``hi`` bound any further axes), with its error:
    each panel by adaptive product Gauss-Kronrod (``scipy.integrate.cubature``,
    21 nodes per axis) to relative 1e-11 or an even share of absolute ``atol``.

    ``integrand`` maps the (nodes, axes) array of a subregion's nodes to one
    value, or one row of values, per node. Raises ``NumericalError`` unless
    every panel converged.
    """
    atol /= len(edges) - 1
    results = [
        cubature(integrand, [a, *lo], [b, *hi], rule="gk21", rtol=1e-11, atol=atol)
        for a, b in zip(edges, edges[1:])
    ]
    error = np.sum([result.error for result in results], axis=0)
    if any(result.status != "converged" for result in results):
        raise NumericalError("reference quadrature did not converge", np.max(error))
    return np.sum([result.estimate for result in results], axis=0), error


def adaptive_coverage_pair(
    role: str, cfg: NetworkConfig, link: NomaLink, access: str = NOMA
) -> float:
    """UAV-centric pair coverage, the reference for the array rule of
    ``analytic_uav_centric.coverage_pair``: the nearest-neighbor law e^(-u),
    u = pi lam R^2, times the placement density in y = r/R, 32 y on [0, 1/4]
    (near) or 32 y / 3 on [1/4, 1/2] (far), integrated over (u, y) on the
    panels of ``_radial_panels`` with a break at R = h.
    """
    if role == analytic_uav_centric.NEAR:
        lo, hi, density = 0.0, 0.25, 32.0
    else:
        lo, hi, density = 0.25, 0.5, 32.0 / 3.0
    pl = math.pi * cfg.uav_density

    def integrand(x):
        u, y = x[:, 0], x[:, 1]
        R = np.sqrt(u / pl)
        return (
            np.exp(-u) * density * y
            * analytic_uav_centric.coverage_cond_pair(y * R, R, role, cfg, link, access)
        )

    edges = _radial_panels(pl * cfg.uav_height**2)
    return float(_adaptive(integrand, edges, (lo,), (hi,))[0])


def piecewise_user_centric_coverage(
    subject: str, cfg: NetworkConfig, link: NomaLink, access: str = NOMA
) -> float:
    """Coverage of the user-centric "typical" or "fixed" user, the reference
    for the array rule of ``analytic_user_centric``: its conditional coverage
    with weight e^(-u), integrated over u = pi lam r^2 on the panels of
    ``_radial_panels`` with a break at u_k = pi lam r_k^2.
    """
    conditional = analytic_user_centric.coverage_cond
    if subject == "fixed":
        conditional = analytic_user_centric._coverage_cond_fixed
    pl = math.pi * cfg.uav_density

    def integrand(x):
        u = x[:, 0]
        return np.exp(-u) * conditional(np.sqrt(u / pl), cfg, link, access)

    return float(_adaptive(integrand, _radial_panels(pl * link.fixed_user_dist**2))[0])


def quadrature_exponent_derivatives(
    exponent: RadialTailExponent, s: float, order: int
) -> list[float]:
    """a_k = s^k eta^(k)(s)/k!, k = 0..order, of a radial-tail exponent by
    adaptive quadrature.

    The reference for the hypergeometric form of
    ``RadialTailExponent.derivatives``. l = d0 x^(-1/(aI-2)) maps [d0, inf)
    onto (0, 1] and turns the heavy l^(1-aI) tail into the bounded powers of
    x below; with p = aI/(aI-2), q = 1/(mI d0^aI) and z = s q,

      k = 0:  scale Int_0^1 z phi(y)/y dx,  y = z x^p,
              phi(y) = 1 - (1+y)^(-mI)  (phi(y)/y -> mI at y = 0)
      k >= 1: scale sign_k binom(mI+k-1, k) z^k Int_0^1 x^(p(k-1)) (1 + z x^p)^(-mI-k) dx

    with scale = 2 pi lam d0^2/(aI-2); no factor leaves double range down to
    aI = 2.001. All orders are one vector-valued integral. Raises
    ``NumericalError`` when an order misses 1e-8 relative.
    """
    m_i = exponent.m_interf
    a_i = exponent.alpha_interf
    d0 = exponent.lower_dist3d
    p = a_i / (a_i - 2.0)
    q = 1.0 / (m_i * d0**a_i)
    z = s * q
    scale = 2.0 * math.pi * exponent.density * d0 * d0 / (a_i - 2.0)
    k = np.arange(order + 1)
    # cubature refines where the largest error of any order sits, so each
    # order is weighted to one magnitude: without its factor z the order-0
    # integral tends to mI as z -> 0, and order k falls as z^(1-k) against it
    weight = np.maximum(z, 1.0) ** np.maximum(k - 1, 0)

    def integrand(x):
        y = z * x**p
        with np.errstate(invalid="ignore"):
            # -expm1(-m log1p(y)) avoids the 1 - (1+y)^(-m) cancellation
            order0 = np.where(y > 0.0, -np.expm1(-m_i * np.log1p(y)) / y, m_i)
        higher = x ** (p * (k[1:] - 1)) * (1.0 + y) ** (-m_i - k[1:])
        return weight * np.hstack([order0, higher])

    values, errors = _adaptive(integrand, [0.0, 1.0], atol=0.0)
    if np.any((values != 0.0) & (errors > 1e-8 * np.abs(values))):
        raise NumericalError(
            "interference exponent quadrature out of tolerance", float(np.max(errors))
        )
    # sign_k binom(mI+k-1, k) z^k, and z for k = 0
    factors = np.where(k == 0, z, (-1.0) ** (k + 1) * binom(m_i + k - 1, k) * z**k)
    return (scale * factors * values / weight).tolist()


def _validate_checks(quick: bool, seed: int):
    cfg = NetworkConfig()
    density = cfg.uav_density
    cfg_uav = replace(cfg, alpha_desired=3.5)
    link_uav = NomaLink(rate_near=1.5, rate_far=1.0, ipsic=0.0)

    def special_case_identity():
        dist, s = np.array([[150.0], [450.0], [1200.0]]), np.logspace(2.0, 8.0, 13)
        exponent = analytic_user_centric.laplace_exponent_uc(cfg, dist)
        general = exponent.value_at(s * cfg.tx_power)
        closed = rayleigh_tail_exponent_arctan(s, dist, cfg)
        return float(np.max(np.abs(general - closed) / closed)), 1e-8

    def ring_identity():
        R, s = np.array([[220.0], [470.0], [900.0]]), np.logspace(2.0, 10.0, 9)
        ring = analytic_uav_centric.laplace_exponent_ucav(cfg, R)[0]
        general = ring.value_at(s * cfg.tx_power)
        closed = rayleigh_ring_exponent(s, R, cfg)
        return float(np.max(np.abs(general - closed) / closed)), 1e-12

    def hypergeometric_vs_quadrature():
        worst = 0.0
        cases = [(2, 3.5, 300.0, z) for z in (1e-3, 0.5, 0.94, 0.96, 3.0, 1e3)]
        cases += [(1, 2.05, 314.0, z) for z in (0.5, 0.99, 50.0)]
        for m_i, a_i, d0, z in cases:
            exponent = RadialTailExponent(density, a_i, m_i, d0)
            s = z * m_i * d0**a_i
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
            # the unit-power argument, z = s0 / (mI dist^aI) of order 1e-3 at aI = 4
            s0 = rng.uniform(0.3, 3.0) * dist**4 * 1e-3
            exponent = analytic_user_centric.laplace_exponent_uc(cfg, dist)
            transform = lambda s: math.exp(-exponent.value_at(s))
            # the first Taylor coefficient of exp(-eta(s0 (1 + x))) is s0 times
            # the transform's derivative
            coeffs = exponent.derivatives(s0, 1).values
            analytic = -coeffs[1] * math.exp(-coeffs[0])
            h = s0 * 1e-5
            fd = s0 * (transform(s0 + h) - transform(s0 - h)) / (2.0 * h)
            worst = max(worst, abs(analytic - fd) / abs(fd))
        return worst, 1e-4

    def analytic_vs_mc_user_centric():
        trials = 20_000 if quick else 100_000
        link = NomaLink(rate_near=1.0, rate_far=0.5, ipsic=0.0, fixed_user_dist=300.0)
        est, est_fixed = montecarlo.run(cfg, link, USER_CENTRIC, NOMA, trials, seed)
        gap = abs(est.p_hat - analytic_user_centric.coverage_typical(cfg, link, NOMA))
        gap_fixed = abs(
            est_fixed.p_hat - analytic_user_centric.coverage_fixed(cfg, link, NOMA)
        )
        return max(gap, gap_fixed), 0.02

    def analytic_vs_mc_uav_centric():
        trials = 20_000 if quick else 100_000
        estimates = montecarlo.run(cfg_uav, link_uav, UAV_CENTRIC, NOMA, trials, seed)
        gap = max(
            abs(
                est.p_hat
                - analytic_uav_centric.coverage_pair(est.user_role, cfg_uav, link_uav)
            )
            for est in estimates
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
        result = analytic_uav_centric.pair_quadratures([(near, sparse, link_uav)])[0]
        error = abs(result.value - adaptive_coverage_pair(near, sparse, link_uav))
        return error, 1e-6, f"(estimate {result.estimate:.3e})"

    def ring_series_coefficient():
        R = 430.0
        l_i = math.hypot(R, cfg.uav_height)
        s = 0.5 * l_i**cfg.alpha_interf / cfg.tx_power
        ring = analytic_uav_centric.laplace_exponent_ucav(cfg, R)[0]
        exact = ring.value_at(s * cfg.tx_power)
        series = nearest_ring_exponent_series(s, R, cfg, 120)
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
