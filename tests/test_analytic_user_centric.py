"""Tests for the user-centric closed forms.

The conditional-coverage oracle is a pinned-geometry Monte Carlo written
inline with its own SINR chain, independent of the package's engine. The
exponent pins in ``EXPONENT_PINS`` come from 40-digit mpmath and the
coverage pins in ``LOW_UAV_PINS`` from the piecewise quadrature
``uavnoma.validation.piecewise_user_centric_coverage``; running this file as a
script regenerates both:

    PYTHONPATH=src python tests/test_analytic_user_centric.py
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gammaincc

from uavnoma import analytic_user_centric
from uavnoma.analytic_user_centric import (
    coverage_cond,
    coverage_fixed,
    coverage_typical,
    laplace_exponent_uc,
)
from uavnoma.errors import NumericalError
from uavnoma.laplace import (
    SERIES,
    ExponentDerivatives,
    LaplaceExponentBase,
    NearestRingExponent,
    RadialTailExponent,
    conditional_coverage,
    exp_composition_derivatives,
)
from uavnoma.scenario import (
    NOMA,
    OMA,
    USER_CENTRIC,
    NetworkConfig,
    NomaLink,
    noise_from_bandwidth,
    thresholds,
)
from uavnoma.validation import (
    piecewise_user_centric_coverage,
    quadrature_exponent_derivatives,
    rayleigh_tail_exponent_arctan,
)

DENSITY = 1.0 / (500.0**2 * math.pi)


def make_cfg(**kw):
    base = dict(
        uav_density=DENSITY,
        tx_power=1e-6,
        alpha_desired=3.0,
        noise_power=noise_from_bandwidth(300e3),
        uav_height=100.0,
        alpha_interf=4.0,
        m_desired=1,
        m_interf=1,
    )
    base.update(kw)
    return NetworkConfig(**base)


def taylor(derivs, s):
    """s^k eta^(k)/k!, the coefficients the exponents hand over, from eta^(k)."""
    return [d * s**k / math.factorial(k) for k, d in enumerate(derivs)]


def _derivatives(coeffs, s):
    """eta^(k) = k! a_k / s^k from the coefficients a_k at s > 0."""
    return [a * math.factorial(k) / s**k for k, a in enumerate(coeffs)]


LINK = NomaLink(rate_near=1.0, rate_far=0.5, ipsic=0.0, fixed_user_dist=300.0)
# the same pair with r_k beyond 300 m, so a typical user at r = 300 m is near
FAR_FIXED_LINK = replace(LINK, fixed_user_dist=400.0)

# (tx_power, alpha_interf, m_interf, d0, s) at DENSITY -> eta, eta', eta''
# from 40-digit mpmath; the exponents hand over s^k eta^(k)/k! (``taylor``). "steep" is z = 1e8 at aI = 4.5, where the former
# mapped quadrature raised; "near_two" is aI = 2.05 at +30 dBm (z ~ 6e8);
# "tiny_z" is z ~ 5e-17, where 2F1(mI, -dI; 1-dI; -z) - 1 cancels to 0;
# "fork" is z = 0.95, where the former series handed over to quadrature;
# "wide" is z = 10 at aI = 2.5, mI = 4; "huge_z" is z = 1e12.
EXPONENT_PINS = {
    "tiny_z_m1": (
        (1e-06, 4.0, 1, 1200.0, 100.0),
        (
            2.777777777777777832936298269873464029405e-16,
            2.777777777777777788283234712488921990782e-18,
            -8.930612711476908149315616142114580396283e-37,
        ),
    ),
    "tiny_z_m3": (
        (1e-06, 4.0, 3, 1200.0, 100.0),
        (
            2.7777777777777778478206527890016447568e-16,
            2.777777777777777818051943750745282632062e-18,
            -5.953741807651272329240573093634707934427e-37,
        ),
    ),
    "fork_m2": (
        (1e-06, 3.0, 2, 300.0, 51300000000000.0),
        (
            1.076035622490030977569533601491912253531,
            1.743159280411973025933838734547059446e-14,
            -8.989745548451477487432588807470804150145e-29,
        ),
    ),
    "wide_m4": (
        (1e-06, 2.5, 4, 150.0, 11022703842524.303),
        (
            7.660444805058405706865111694911324139402,
            5.625072591018563854086680830079257429874e-13,
            -1.020619179206473081556176899065203896179e-26,
        ),
    ),
    "huge_z_m1": (
        (1e-06, 3.0, 1, 300.0, 2.7e25),
        (
            87062369.12324246145057405737099734680354,
            2.149688135388702745178289388811294268774e-18,
            -2.653935969615682393176264407756691182195e-44,
        ),
    ),
    "steep_m2": (
        (1e-06, 4.5, 2, 260.0, 1.473703318714591e25),
        (
            1989.848303511709025247704761951212361542,
            6.001867474467282931974280859255864137563e-23,
            -2.262579432919259804472520424619948393626e-48,
        ),
    ),
    "steep_m3": (
        (1e-06, 4.5, 3, 260.0, 2.210554978071887e25),
        (
            2432.096904292089018676486076737607659942,
            4.890410534751118898232167815622314023089e-23,
            -1.229055494425276559435361677467123858578e-48,
        ),
    ),
    "near_two": (
        (1.0, 2.05, 1, 314.3657007106099, 77668599777401.92),
        (
            5701695803.966635789799111664995886900231,
            0.00007162006356466483238540511738933978425609,
            -2.249082413815583042634439155523929271766e-20,
        ),
    ),
}


class TestLaplaceExponent:
    def test_zero_argument(self):
        exponent = laplace_exponent_uc(make_cfg(), 316.23)
        assert exponent.value_at(0.0) == 0.0
        assert np.exp(-exponent.value_at(0.0)) == 1.0

    @pytest.mark.parametrize("s", np.logspace(2, 8, 13))
    def test_arctan_identity(self, s):
        cfg = make_cfg()
        dist = math.hypot(300.0, 100.0)
        general = laplace_exponent_uc(cfg, dist).value_at(float(s) * cfg.tx_power)
        special = rayleigh_tail_exponent_arctan(float(s), dist, cfg)
        assert general == pytest.approx(special, rel=1e-9)

    @pytest.mark.parametrize("alpha_interf", [3.0, 3.5, 4.0])
    def test_hypergeometric_identity(self, alpha_interf):
        cfg = make_cfg(alpha_interf=alpha_interf)
        dist = 250.0
        for s in (1e3, 1e6, 1e9):
            exponent = laplace_exponent_uc(cfg, dist)
            general = exponent.value_at(s * cfg.tx_power)
            reference = quadrature_exponent_derivatives(exponent, s * cfg.tx_power, 0)[0]
            assert general == pytest.approx(reference, rel=1e-8)

    def test_matches_quadrature_reference(self):
        cfg = make_cfg(m_interf=2, alpha_interf=3.5)
        dist = 250.0
        exponent = laplace_exponent_uc(cfg, dist)
        for s in (1e2, 1e5, 1e7, 5e8):
            values = exponent.derivatives(s * cfg.tx_power, 2).values
            reference = quadrature_exponent_derivatives(exponent, s * cfg.tx_power, 2)
            for got, want in zip(values, reference):
                assert got == pytest.approx(want, rel=1e-8)

    def test_stress_grid_against_quadrature_reference(self):
        # high z and high interference order, on both sides of z = 1
        rng = np.random.default_rng(99)
        cases = [
            (m_i, z, a_i, 260.0)
            for m_i in (1, 2, 3)
            for z in (0.05, 0.5, 0.9, 0.94, 0.96, 1.5, 40.0, 1e4)
            for a_i in (3.2, 4.0)
        ]
        cases += [
            (
                int(rng.integers(1, 4)),
                float(10.0 ** rng.uniform(-2.0, 3.0)),
                float(rng.uniform(2.5, 4.0)),
                float(rng.uniform(110.0, 900.0)),
            )
            for _ in range(40)
        ]
        for m_i, z, a_i, d0 in cases:
            exponent = RadialTailExponent(DENSITY, a_i, m_i, d0)
            s = z * m_i * d0**a_i
            values = exponent.derivatives(s, 2).values
            reference = quadrature_exponent_derivatives(exponent, s, 2)
            for got, want in zip(values, reference):
                assert got == pytest.approx(want, rel=1e-8)

    def test_near_unit_argument(self):
        cfg = make_cfg(m_interf=2, alpha_interf=3.5)
        dist = 120.0
        exponent = laplace_exponent_uc(cfg, dist)
        s_big = 0.99 * cfg.m_interf * dist**cfg.alpha_interf
        values = exponent.derivatives(s_big, 1).values
        assert values[0] > 0.0 and values[1] > 0.0
        reference = quadrature_exponent_derivatives(exponent, s_big, 1)
        for got, want in zip(values, reference):
            assert got == pytest.approx(want, rel=1e-8)

    def test_matches_pinned_oracle_at_tall_uav(self):
        # the order-2 term that coverage_pair(NEAR) needs at h = 3000 m,
        # alpha_d = 4.5, +30 dBm, m_d = 3, m_I = 2 (z = 205), which raised
        # on [d0, inf): Int_{d0}^inf (P l^-4/2)^2 (1 + s P l^-4/2)^-4 l dl,
        # pinned from mpmath.quad at 70 digits with breakpoints around the
        # integrand's peak near 4 d0
        oracle = 5.718644419099796925391812017335036299935e-27
        density = 1e-6
        exponent = RadialTailExponent(density, 4.0, 2, 3000.0000000502987)
        s = 3.3274145368438864e16
        eta = _derivatives(exponent.derivatives(s, 2).values, s)
        integral = eta[2] / (-6.0 * 2.0 * math.pi * density)  # -(m_I)_2 2 pi lam
        assert integral == pytest.approx(oracle, rel=1e-10)

    def test_near_alpha_two_matches_quadrature_reference(self):
        # aI = 2.05 leaves an l^-1.05 tail that quadrature on [d0, inf)
        # cannot resolve; the mapped reference and the 2F1 form both can
        cfg = make_cfg(alpha_interf=2.05)
        s, dist = 77668599777401.92, 314.3657007106099
        exponent = laplace_exponent_uc(cfg, dist)
        values = exponent.derivatives(s * cfg.tx_power, 2).values
        reference = quadrature_exponent_derivatives(exponent, s * cfg.tx_power, 2)
        for got, want in zip(values, reference):
            assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("name", sorted(EXPONENT_PINS))
    def test_pinned_mpmath_derivatives(self, name):
        (tx_power, alpha_interf, m_interf, d0, s), pins = EXPONENT_PINS[name]
        exponent = RadialTailExponent(DENSITY, alpha_interf, m_interf, d0)
        values = exponent.derivatives(s * tx_power, 2).values
        for got, want in zip(values, taylor(pins, s)):
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "alpha_interf, m_interf, z",
        [(2.05, 1, 3.0), (3.0, 2, 0.95), (4.0, 3, 40.0), (4.5, 5, 1e-3)],
    )
    def test_derivatives_match_finite_differences(self, alpha_interf, m_interf, z):
        # each eta^(k), read from s^k eta^(k)/k!, against a central difference
        # of eta^(k-1)
        d0 = 250.0
        exponent = RadialTailExponent(DENSITY, alpha_interf, m_interf, d0)
        s = z * m_interf * d0**alpha_interf
        h = 1e-4 * s
        up = _derivatives(exponent.derivatives(s + h, 2).values, s + h)
        down = _derivatives(exponent.derivatives(s - h, 2).values, s - h)
        values = _derivatives(exponent.derivatives(s, 3).values, s)
        for k in (1, 2, 3):
            assert values[k] == pytest.approx(
                (up[k - 1] - down[k - 1]) / (2.0 * h), rel=1e-6
            )

    def test_exponent_monotone_in_s(self):
        cfg = make_cfg(m_interf=3, alpha_interf=3.2)
        exponent = laplace_exponent_uc(cfg, 200.0)
        values = [exponent.value_at(s * cfg.tx_power) for s in np.logspace(0, 10, 21)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(0.0 < math.exp(-v) <= 1.0 for v in values)

    def test_derivative_signs_alternate(self):
        # complete monotonicity of the transform: eta' > 0, eta'' < 0, eta''' > 0,
        # read from s^k eta^(k)/k! at s > 0
        cfg = make_cfg(m_interf=2, m_desired=4)
        values, _ = laplace_exponent_uc(cfg, 300.0).derivatives(1e7 * cfg.tx_power, 3)
        assert values[1] > 0.0 and values[2] < 0.0 and values[3] > 0.0


class TestCoverageCond:
    def test_rayleigh_collapse(self):
        # m=1: coverage reduces to exp(-M sigma^2 d^a) * L(M d^a)
        cfg = make_cfg()
        r = 300.0
        value = coverage_cond(r, cfg, FAR_FIXED_LINK)
        eps_t, eps_f = 1.0, 2.0**0.5 - 1.0
        m_star = max(
            eps_t / (cfg.tx_power * 0.4),
            eps_f / (cfg.tx_power * (0.6 - eps_f * 0.4)),
        )
        dist = math.hypot(r, cfg.uav_height)
        s = m_star * dist**cfg.alpha_desired
        expected = math.exp(-s * cfg.noise_power) * np.exp(
            -laplace_exponent_uc(cfg, dist).value_at(s * cfg.tx_power)
        )
        assert value == pytest.approx(expected, rel=1e-10)

    def test_infeasible_coefficient_gives_zero(self):
        cfg = make_cfg()
        bad = NomaLink(rate_near=1.0, rate_far=0.5, ipsic=0.9, fixed_user_dist=300.0)
        assert coverage_cond(200.0, cfg, bad) == 0.0

    def test_bounded(self):
        # r = 10 and 150 m run the near chain, 600 and 2500 m the far one
        cfg = make_cfg(m_desired=3, m_interf=2)
        for r in (10.0, 150.0, 600.0, 2500.0):
            for access in (NOMA, OMA):
                assert 0.0 <= coverage_cond(r, cfg, LINK, access) <= 1.0

    def test_role_switches_at_fixed_user_distance(self):
        # below r_k the SIC chain's joint coefficient, from r_k on the far
        # decode, exactly as the Monte Carlo splits the trials;
        # the kernel runs at unit power, with noise N/P
        cfg = make_cfg(m_desired=2)
        noise = cfg.noise_power / cfg.tx_power
        ts = thresholds(LINK, USER_CENTRIC, NOMA)
        r = np.array([100.0, 299.0, 300.0, 800.0])
        coeff = np.array([ts.near] * 2 + [ts.far] * 2)
        dist = np.hypot(r, cfg.uav_height)
        want = conditional_coverage(
            2, coeff, noise, dist, cfg.alpha_desired, laplace_exponent_uc(cfg, dist),
        )
        np.testing.assert_array_equal(coverage_cond(r, cfg, LINK), want)
        # the fixed user, served from R_k at swapped rates, plays the other role
        partner = replace(LINK, rate_near=LINK.rate_far, rate_far=LINK.rate_near)
        ts = thresholds(partner, USER_CENTRIC, NOMA)
        coeff = np.array([ts.far] * 2 + [ts.near] * 2)
        want = conditional_coverage(
            2, coeff, noise, math.hypot(300.0, cfg.uav_height),
            cfg.alpha_desired, laplace_exponent_uc(cfg, dist),
        )
        np.testing.assert_array_equal(
            coverage_cond(r, cfg, LINK, user=analytic_user_centric.FIXED), want
        )

    @pytest.mark.parametrize("fading_order", [1, 3])
    def test_value_above_one_raises(self, fading_order):
        # a negative exponent is no Laplace exponent: the kernel exceeds 1
        # and must say so rather than return a clamped 1.0
        class NegativeExponent(LaplaceExponentBase):
            def derivatives(self, s, order):
                return ExponentDerivatives((-0.1,) + (0.0,) * order, SERIES)

        with pytest.raises(NumericalError):
            conditional_coverage(fading_order, 1.0, 0.0, 1.0, 3.0, NegativeExponent())

    @pytest.mark.parametrize("fading_order", [*range(1, 7), 19, 20, 40, 100])
    def test_noise_only_matches_gamma_tail(self, fading_order):
        # with no interferers g ~ Gamma(m)/m gives P[g > M N d^a] = Q(m, c N),
        # the regularized upper incomplete gamma at c = m M d^a
        no_interference = RadialTailExponent(0.0, 4.0, 2, 100.0)
        decode_coeff, noise, dist, alpha = 5e8, 1e-15, 120.0, 3.0
        c = fading_order * decode_coeff * dist**alpha
        value = conditional_coverage(
            fading_order, decode_coeff, noise, dist, alpha, no_interference
        )
        assert 0.05 < value < 0.95
        assert value == pytest.approx(gammaincc(fading_order, c * noise), rel=1e-12)

    @pytest.mark.parametrize("fading_order", range(2, 7))
    def test_kernel_terms_non_negative(self, fading_order):
        # f = c N + eta has a completely monotone derivative, so each term
        # (-c)^n/n! D_n = (-1)^n E_n of the coverage sum is >= 0 and nothing
        # cancels
        cfg = make_cfg(m_desired=fading_order, m_interf=2)
        dist = math.hypot(300.0, cfg.uav_height)
        c = fading_order * 3.0 / cfg.tx_power * dist**cfg.alpha_desired
        exponent = laplace_exponent_uc(cfg, dist)
        a = list(exponent.derivatives(c * cfg.tx_power, fading_order - 1)[0])
        a[0] += c * cfg.noise_power
        a[1] += c * cfg.noise_power
        coeffs = exp_composition_derivatives(a, fading_order - 1)
        terms = [(-1.0) ** n * coeffs[n] for n in range(fading_order)]
        assert terms[0] > 0.0 and all(term >= 0.0 for term in terms)
        assert 0.0 < sum(terms) < 1.0

    def test_m2_against_pinned_geometry_oracle(self):
        cfg = make_cfg(m_desired=2)
        r = 300.0
        analytic = coverage_cond(r, cfg, FAR_FIXED_LINK)
        oracle = _pinned_near_case_oracle(
            cfg, FAR_FIXED_LINK, r, trials=1_000_000, seed=2024
        )
        assert abs(analytic - oracle) < 0.01


def _pinned_near_case_oracle(cfg, link, r, trials, seed):
    """Monte Carlo of the near-case SIC chain with the serving UAV pinned at
    horizontal distance r; interferer field is the Poisson population beyond r."""
    rng = np.random.default_rng(seed)
    height = cfg.uav_height
    dist = math.hypot(r, height)
    pg = dist**-cfg.alpha_desired
    eps_own = 2.0**link.rate_near - 1.0
    eps_other = 2.0**link.rate_far - 1.0
    mean_count = cfg.uav_density * math.pi * (cfg.sim_disc_radius**2 - r**2)
    successes = 0
    chunk = 10_000
    done = 0
    while done < trials:
        n_trials = min(chunk, trials - done)
        counts = rng.poisson(mean_count, n_trials)
        total = int(counts.sum())
        rad2 = rng.uniform(r**2, cfg.sim_disc_radius**2, total)
        gains = rng.standard_gamma(cfg.m_interf, total) / cfg.m_interf
        contrib = gains * (rad2 + height**2) ** (-cfg.alpha_interf / 2.0)
        cumulative = np.concatenate(([0.0], np.cumsum(contrib)))
        ends = np.cumsum(counts)
        interference = cfg.tx_power * (cumulative[ends] - cumulative[ends - counts])
        h_t = rng.standard_gamma(cfg.m_desired, n_trials) / cfg.m_desired
        received = h_t * pg * cfg.tx_power
        cross = received * link.pw_far / (
            cfg.noise_power + received * link.pw_near + interference
        )
        own = received * link.pw_near / (
            cfg.noise_power + link.ipsic * received * link.pw_far + interference
        )
        successes += int(np.sum((cross > eps_other) & (own > eps_own)))
        done += n_trials
    return successes / trials


# A UAV-centric geometry (R = 300 m, h = 100 m, m_I = 2, aI = 3.5) at
# s = 1e16, z = 8.9, where the coverage is mid-range at m = 20 and 30 and
# the terms (-s)^n/n! and D_n of the derivative form leave the double range
HIGH_ORDER_S = 1e16
HIGH_ORDER_RING = (1e-6, 3.5, 2, math.hypot(300.0, 100.0))
HIGH_ORDER_WEIGHT = math.hypot(300.0, 100.0) / 300.0
HIGH_ORDER_LINK = (1e-15, 150.0, 3.5)  # noise, serving distance, alpha_d


@functools.cache
def _mpmath_high_order_exponents():
    """(tail, ring) eta^(k), k = 0..29, at HIGH_ORDER_S: the tail from
    ``_mpmath_exponent_derivatives``, the ring from its closed form
    w (-1)^(k+1) (mI)_k q^k (1+sq)^(-mI-k)."""
    import mpmath as mp

    tail = _mpmath_exponent_derivatives(*HIGH_ORDER_RING, HIGH_ORDER_S, 29)
    tx_power, alpha_interf, m_i, d0 = (mp.mpf(x) for x in HIGH_ORDER_RING)
    s, w = mp.mpf(HIGH_ORDER_S), mp.mpf(HIGH_ORDER_WEIGHT)
    q = tx_power / (m_i * d0**alpha_interf)
    ring = [w * (1 - (1 + s * q) ** -m_i)] + [
        w * (-1) ** (k + 1) * mp.rf(m_i, k) * q**k * (1 + s * q) ** (-m_i - k)
        for k in range(1, 30)
    ]
    return tail, ring


def _mpmath_coverage(fading_order, s, noise, etas):
    """sum_{n<m} (-s)^n/n! D_n at the helper's precision, D_n = d^n/ds^n
    exp(-s noise - eta(s)) by Leibniz's rule on D' = -f' D, from eta^(k)."""
    import mpmath as mp

    s = mp.mpf(s)
    f = list(etas[:fading_order])
    f[0] += s * noise
    f[1] += noise
    d = [mp.exp(-f[0])]
    for k in range(1, fading_order):
        d.append(-mp.fsum(mp.binomial(k - 1, j - 1) * f[j] * d[k - j] for j in range(1, k + 1)))
    return mp.fsum((-s) ** n / mp.factorial(n) * d[n] for n in range(fading_order))


class TestHighOrderKernel:
    @pytest.mark.parametrize("fading_order", [20, 30])
    @pytest.mark.parametrize("with_ring", [False, True], ids=["tail", "ring+tail"])
    def test_matches_mpmath(self, fading_order, with_ring):
        noise, dist, alpha = HIGH_ORDER_LINK
        tail, ring = _mpmath_high_order_exponents()
        tx_power, *unit_ring = HIGH_ORDER_RING
        exponents = [RadialTailExponent(DENSITY, *unit_ring)]
        etas = tail
        if with_ring:
            exponents.insert(0, NearestRingExponent(HIGH_ORDER_WEIGHT, *unit_ring))
            etas = [a + b for a, b in zip(tail, ring)]
        coeff = HIGH_ORDER_S * tx_power / (fading_order * dist**alpha)
        value = conditional_coverage(
            fading_order, coeff, noise / tx_power, dist, alpha, *exponents
        )
        oracle = float(_mpmath_coverage(fading_order, HIGH_ORDER_S, noise, etas))
        assert 0.2 < oracle < 0.9
        assert value == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("m_interf", [1, 3])
    @pytest.mark.parametrize("z", [30.0, 1e3, 1e10, 1e100])
    def test_radial_coefficients_on_both_sides_of_the_overflow_branch(self, m_interf, z):
        # z^k 2F1(mI+k, k-dI; k+1-dI; -z) is taken by the 1/z connection where
        # z^k > 1e150; each a_k against mpmath's 2F1 at 40 digits
        import mpmath as mp

        mp.mp.dps = 40
        alpha_interf, d0, order = 2.5, 250.0, 60
        exponent = RadialTailExponent(DENSITY, alpha_interf, m_interf, d0)
        s = z * m_interf * d0**alpha_interf
        values = exponent.derivatives(s, order).values
        delta, zm = 2 / mp.mpf(alpha_interf), mp.mpf(z)
        scale = mp.pi * DENSITY * mp.mpf(d0) ** 2
        for k in range(1, order + 1):
            want = (
                scale
                * (-1) ** (k + 1)
                * mp.binomial(m_interf + k - 1, k)
                * delta
                / (k - delta)
                * zm**k
                * mp.hyp2f1(m_interf + k, k - delta, k + 1 - delta, -zm)
            )
            assert values[k] == pytest.approx(float(want), rel=1e-10), k


class TestCoverageTypical:
    def test_limits_reduce_to_single_branch(self):
        from scipy import integrate

        cfg = make_cfg()

        def pure_branch(link):
            pl = math.pi * cfg.uav_density
            value, _ = integrate.quad(
                lambda u: coverage_cond(math.sqrt(u / pl), cfg, link)
                * math.exp(-u),
                0.0,
                np.inf,
                epsabs=1e-8,
            )
            return value

        near_link = NomaLink(fixed_user_dist=1e7)
        far_link = NomaLink(fixed_user_dist=1e-8)
        near_only = coverage_typical(cfg, near_link, NOMA)
        far_only = coverage_typical(cfg, far_link, NOMA)
        assert near_only == pytest.approx(pure_branch(near_link), abs=2e-5)
        assert far_only == pytest.approx(pure_branch(far_link), abs=2e-5)

    def test_interference_exponent_near_two(self):
        # heavier interference at aI = 2.05 than at 2.5: lower coverage,
        # still a probability
        near_two = coverage_typical(make_cfg(alpha_interf=2.05), LINK, NOMA)
        milder = coverage_typical(make_cfg(alpha_interf=2.5), LINK, NOMA)
        assert 0.0 <= near_two < milder <= 1.0

    def test_fully_infeasible_link_is_zero(self):
        cfg = make_cfg()
        # rate high enough that both the far event and the near SIC chain fail
        bad = NomaLink(rate_near=2.0, rate_far=2.0, ipsic=1.0)
        assert coverage_typical(cfg, bad, NOMA) == 0.0

    def test_monotone_in_ipsic_and_rate(self):
        cfg = make_cfg()
        rates = [0.3, 0.8, 1.3, 1.8, 2.3]
        for beta_pair in [(0.0, 0.25), (0.25, 0.5), (0.5, 1.0)]:
            values = [
                coverage_typical(cfg, NomaLink(rate_near=1.0, ipsic=b), NOMA)
                for b in beta_pair
            ]
            assert values[1] <= values[0] + 1e-9
        values = [
            coverage_typical(cfg, NomaLink(rate_near=rt, ipsic=0.1), NOMA)
            for rt in rates
        ]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_bounded_on_sweep(self):
        cfg = make_cfg(m_desired=2)
        for dbm in (-60.0, -40.0, -20.0, 0.0):
            value = coverage_typical(
                make_cfg(m_desired=2, tx_power=10 ** (dbm / 10.0) / 1000.0), LINK, NOMA
            )
            assert 0.0 <= value <= 1.0

    def test_oma_uses_doubled_rate(self):
        cfg = make_cfg()
        oma = coverage_typical(cfg, LINK, OMA)
        assert 0.0 < oma <= 1.0


# A low UAV, a steep serving link and r_k far out (1900 m at the default
# density, so u_k = 14.4) pack the typical user's coverage mass below
# u = 0.01. An adaptive rule over [0, u_k] placed no node there and returned
# about 1e-50 without a warning. The fixed user, served at 1900 m, has
# coverage 0 here (exp(-c noise) underflows at every node).
LOW_UAV_CASES = {
    "h=10m,-30dBm": dict(uav_height=10.0, tx_power=1e-6),
    "h=1m,-30dBm": dict(uav_height=1.0, tx_power=1e-6),
    "h=3m,-20dBm": dict(uav_height=3.0, tx_power=1e-5),
}
LOW_UAV_LINK = NomaLink(rate_near=1.0, rate_far=0.5, fixed_user_dist=1900.0)

# typical NOMA, typical OMA, fixed NOMA, fixed OMA per case
LOW_UAV_PINS = {
    "h=10m,-30dBm": (0.0006469441723711641, 0.000570044665038243, 0.0, 0.0),
    "h=1m,-30dBm": (0.0010224166989696855, 0.0009425249136339058, 0.0, 0.0),
    "h=3m,-20dBm": (0.0009910251920454045, 0.000911091797226666, 0.0, 0.0),
}


def _low_uav_cfg(case):
    return make_cfg(
        alpha_desired=4.5, m_interf=3, alpha_interf=2.5, **LOW_UAV_CASES[case]
    )


class TestLowUavCoverage:
    @pytest.mark.parametrize("case", list(LOW_UAV_CASES))
    def test_matches_piecewise_reference(self, case):
        cfg = _low_uav_cfg(case)
        values = [
            fn(cfg, LOW_UAV_LINK, access)
            for fn in (coverage_typical, coverage_fixed)
            for access in (NOMA, OMA)
        ]
        for value, pin in zip(values, LOW_UAV_PINS[case]):
            assert abs(value - pin) < 1e-6

    @pytest.mark.parametrize("case", list(LOW_UAV_CASES))
    def test_reference_reproduces_pins(self, case):
        cfg = _low_uav_cfg(case)
        values = [
            piecewise_user_centric_coverage(subject, cfg, LOW_UAV_LINK, access)
            for subject in ("typical", "fixed")
            for access in (NOMA, OMA)
        ]
        for value, pin in zip(values, LOW_UAV_PINS[case]):
            assert abs(value - pin) < 1e-12

    @pytest.mark.parametrize("fn", [coverage_typical, coverage_fixed])
    def test_sum_above_one_raises(self, monkeypatch, fn):
        # a kernel that exceeds 1 everywhere pushes the integral above 1;
        # the integral must say so rather than return a clamped 1.0
        def inflated(fading_order, decode_coeff, noise_power, dist3d, alpha, *parts):
            return np.full(np.broadcast(decode_coeff, dist3d).shape, 1.5)

        monkeypatch.setattr(analytic_user_centric, "conditional_coverage", inflated)
        with pytest.raises(NumericalError, match="outside"):
            fn(make_cfg(), LINK, NOMA)


class TestCoverageFixed:
    def test_ipsic_independent_at_moderate_rates(self):
        # the SIC-chain coefficient of the fixed user is dominated by the
        # cross decode here, so the residue never binds
        cfg = make_cfg()
        values = [
            coverage_fixed(cfg, NomaLink(ipsic=b, fixed_user_dist=300.0), NOMA)
            for b in (0.0, 0.1, 0.3, 0.5)
        ]
        for v in values[1:]:
            assert v == pytest.approx(values[0], rel=1e-9)

    def test_vanishes_at_large_distance(self):
        cfg = make_cfg()
        assert coverage_fixed(cfg, NomaLink(fixed_user_dist=50_000.0), NOMA) < 1e-6

    def test_decreases_with_distance(self):
        cfg = make_cfg()
        values = [
            coverage_fixed(cfg, NomaLink(fixed_user_dist=d), NOMA)
            for d in (100.0, 300.0, 700.0, 1500.0)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_mid_range_against_pinned_oracle(self):
        cfg = make_cfg()
        analytic = coverage_fixed(cfg, LINK, NOMA)
        oracle = _pinned_fixed_user_oracle(cfg, LINK, trials=400_000, seed=77)
        assert abs(analytic - oracle) < 0.01


def _pinned_fixed_user_oracle(cfg, link, trials, seed):
    """Monte Carlo of the fixed user's coverage: full field, nearest-UAV
    serving distance drawn from its exact law, fixed user placed at r_k with
    uniform azimuth, interference from its own position with exclusion at its
    own serving distance. Draws in chunks of 10k trials."""
    rng = np.random.default_rng(seed)
    height, r_k = cfg.uav_height, link.fixed_user_dist
    disc2 = cfg.sim_disc_radius**2
    dist_fixed = math.hypot(r_k, height)
    pg = dist_fixed**-cfg.alpha_desired
    eps_own = 2.0**link.rate_far - 1.0
    eps_cross = 2.0**link.rate_near - 1.0
    successes = 0
    chunk = 10_000
    done = 0
    while done < trials:
        n_trials = min(chunk, trials - done)
        # serving distance of the typical user via inverse CDF
        u = -np.log(rng.uniform(size=n_trials))
        r = np.sqrt(u / (math.pi * cfg.uav_density))
        counts = rng.poisson(cfg.uav_density * math.pi * (disc2 - r**2))
        owner = np.repeat(np.arange(n_trials), counts)
        inner = (r**2)[owner]
        rad = np.sqrt(inner + (disc2 - inner) * rng.uniform(size=owner.size))
        cos_theta = np.cos(rng.uniform(0.0, 2.0 * math.pi, owner.size))
        phi = rng.uniform(0.0, 2.0 * math.pi, n_trials)
        # the serving UAV sits at (r, 0) and the fixed user r_k away from it,
        # at distance f from the origin; the field is isotropic, so each
        # interferer's azimuth theta may be measured from the fixed user's
        f_sq = r**2 + r_k**2 + 2.0 * r * r_k * np.cos(phi)
        f, offset = np.sqrt(f_sq)[owner], (f_sq + height * height)[owner]
        d3_sq = rad * (rad - 2.0 * f * cos_theta) + offset
        gains = rng.standard_gamma(cfg.m_interf, owner.size) / cfg.m_interf
        contrib = np.where(
            d3_sq > dist_fixed**2, gains * d3_sq ** (-cfg.alpha_interf / 2.0), 0.0
        )
        interference = cfg.tx_power * np.bincount(
            owner, weights=contrib, minlength=n_trials
        )
        h_f = rng.standard_gamma(cfg.m_desired, n_trials) / cfg.m_desired
        received = h_f * pg * cfg.tx_power
        # the signal sent at pw_far: the fixed user's own in the far role
        # (r < r_k), the typical user's, decoded first, in the near role
        far_signal = received * link.pw_far / (
            cfg.noise_power + received * link.pw_near + interference
        )
        own = received * link.pw_near / (
            cfg.noise_power + link.ipsic * received * link.pw_far + interference
        )
        ok = np.where(
            r < r_k, far_signal > eps_own, (far_signal > eps_cross) & (own > eps_own)
        )
        successes += int(np.sum(ok))
        done += n_trials
    return successes / trials


def _mpmath_exponent_derivatives(tx_power, alpha_interf, m_interf, d0, s, order):
    """eta^(k), k = 0..order, at 50 digits by mpmath's 2F1, checked by quadrature.

    The quadrature runs over u = (d0/l)^aI with u = t^(1/(1-dI)), which
    absorbs the u^(-dI) singularity at u = 0 even as aI -> 2.
    """
    import mpmath as mp

    mp.mp.dps = 50
    lam, P, a, d0, s = (mp.mpf(x) for x in (DENSITY, tx_power, alpha_interf, d0, s))
    m = m_interf
    delta = 2 / a
    power = 1 / (1 - delta)
    q = P / (m * d0**a)
    z = s * q
    # t at u = 10^e / z, around the knee of (1 + z u)^(-m)
    knees = (min(1, mp.mpf(10) ** e / z) ** (1 - delta) for e in range(-3, 4))
    breaks = sorted({0, 1, *knees})
    out = []
    for k in range(order + 1):
        if k == 0:
            hyp = z * delta / (1 - delta) * mp.fsum(
                mp.hyp2f1(i, 1 - delta, 2 - delta, -z) for i in range(1, m + 1)
            )
            f = lambda t: -mp.expm1(-m * mp.log1p(z * t**power)) / t**power
            quad = delta * power * mp.quad(f, breaks)
        else:
            sign_k = (-1) ** (k + 1) * mp.rf(m, k) * q**k
            hyp = (
                sign_k
                * delta
                / (k - delta)
                * mp.hyp2f1(m + k, k - delta, k + 1 - delta, -z)
            )
            f = lambda t, k=k: t ** (power * (k - 1)) * (1 + z * t**power) ** (-m - k)
            with mp.workdps(80):
                quad = sign_k * delta * power * mp.quad(f, breaks)
        if abs(quad - hyp) > mp.mpf(10) ** -25 * abs(hyp):
            raise ArithmeticError(f"order {k}: 2F1 {hyp} against quadrature {quad}")
        out.append(mp.pi * lam * d0**2 * hyp)
    return out


if __name__ == "__main__":
    import mpmath as mp

    for name, (case, _) in sorted(EXPONENT_PINS.items()):
        values = _mpmath_exponent_derivatives(*case, 2)
        print(f"{name}: {case}")
        for value in values:
            print(f"    {mp.nstr(value, 40)},")
    print("LOW_UAV_PINS = {")
    for case in LOW_UAV_CASES:
        pins = tuple(
            piecewise_user_centric_coverage(subject, _low_uav_cfg(case), LOW_UAV_LINK, access)
            for subject in ("typical", "fixed")
            for access in (NOMA, OMA)
        )
        print(f'    "{case}": {pins!r},')
    print("}")
