"""Tests for the UAV-centric closed forms.

The pinned-geometry oracle mirrors the conditional model: nearest neighbor at
exactly R, population tail beyond R, interference referenced to the cell
center, with its own inline SINR chain.
"""

import math

import numpy as np
import pytest

from uavnoma import analytic_uav_centric
from uavnoma.analytic_uav_centric import (
    FAR,
    NEAR,
    coverage_cond_pair,
    coverage_pair,
    laplace_exponent_ucav,
    _PLACEMENT,
    _placement,
)
from uavnoma.errors import DomainError, NumericalError
from uavnoma.laplace import NearestRingExponent, RadialTailExponent, conditional_coverage
from uavnoma.quadrature import integrate
from uavnoma.scenario import NOMA, OMA, NetworkConfig, NomaLink
from uavnoma.validation import (
    adaptive_coverage_pair,
    nearest_ring_exponent_series,
    rayleigh_ring_exponent,
)

DENSITY = 1.0 / (500.0**2 * math.pi)


def make_cfg(**kw):
    base = dict(
        uav_density=DENSITY,
        tx_power=1e-6,
        alpha_desired=3.5,
        uav_height=100.0,
        alpha_interf=4.0,
        m_desired=1,
        m_interf=1,
    )
    base.update(kw)
    return NetworkConfig(**base)


LINK = NomaLink(rate_near=1.5, rate_far=1.0, ipsic=0.0)


class TestConditionalExponent:
    def test_transform_is_one_at_zero(self):
        for part in laplace_exponent_ucav(make_cfg(), 450.0):
            assert part.value_at(0.0) == 0.0
            assert np.exp(-part.value_at(0.0)) == 1.0

    @pytest.mark.parametrize("s", [1e2, 1e5, 1e8, 1e11])
    def test_ring_matches_rayleigh_elementary_form(self, s):
        cfg = make_cfg()
        R = 430.0
        general = laplace_exponent_ucav(cfg, R)[0].value_at(s * cfg.tx_power)
        assert general == pytest.approx(rayleigh_ring_exponent(s, R, cfg), rel=1e-12)

    def test_ring_series_pins_binomial_coefficient(self):
        # x = 0.5: partial sums of the series must converge to the elementary
        # closed form; with the index shifted by two they must not
        cfg = make_cfg(m_interf=2)
        R = 430.0
        l_i = math.hypot(R, cfg.uav_height)
        s = 0.5 * cfg.m_interf * l_i**cfg.alpha_interf / cfg.tx_power
        exact = laplace_exponent_ucav(cfg, R)[0].value_at(s * cfg.tx_power)
        value = nearest_ring_exponent_series(s, R, cfg, terms=120)
        assert value == pytest.approx(exact, rel=1e-10)
        shifted = sum(
            (-1.0) ** u * math.comb(cfg.m_interf + u + 1, u) * 0.5**u
            for u in range(120)
        )
        assert abs((l_i / R) * (1.0 - shifted) - exact) > 1e-3

    def test_ring_exponent_monotone_in_s(self):
        cfg = make_cfg(m_interf=2)
        exponent = laplace_exponent_ucav(cfg, 500.0)[0]
        values = [exponent.value_at(s * cfg.tx_power) for s in np.logspace(0, 12, 25)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_ring_derivatives_match_finite_differences(self):
        cfg = make_cfg(m_interf=3)
        exponent = laplace_exponent_ucav(cfg, 380.0)[0]
        s0 = 5e8 * cfg.tx_power
        values, _ = exponent.derivatives(s0, 2)
        h = s0 * 1e-4
        f = exponent.value_at
        d1 = (f(s0 + h) - f(s0 - h)) / (2 * h)
        d2 = (f(s0 + h) - 2 * f(s0) + f(s0 - h)) / h**2
        # the exponent hands over s^k eta^(k)/k!
        assert values[1] == pytest.approx(s0 * d1, rel=1e-6)
        assert values[2] == pytest.approx(s0**2 * d2 / 2.0, rel=1e-4)

    def test_total_splits_into_parts(self):
        cfg = make_cfg(m_interf=2)
        R, s = 520.0, 3e9 * cfg.tx_power
        ring_part, tail_part = laplace_exponent_ucav(cfg, R)
        l_i = math.hypot(R, cfg.uav_height)
        common = cfg.alpha_interf, cfg.m_interf, l_i
        ring = NearestRingExponent(l_i / R, *common)
        tail = RadialTailExponent(cfg.uav_density, *common)
        assert ring_part.value_at(s) == ring.value_at(s)
        assert tail_part.value_at(s) == tail.value_at(s)

    @pytest.mark.parametrize("R", [0.0, -1.0, [300.0, 0.0]])
    def test_nonpositive_R_is_refused(self, R):
        with pytest.raises(DomainError, match="R must be positive"):
            laplace_exponent_ucav(make_cfg(), R)


class TestCoverageCondPair:
    def test_role_domains_enforced(self):
        cfg = make_cfg()
        with pytest.raises(DomainError):
            coverage_cond_pair(200.0, 400.0, NEAR, cfg, LINK)
        with pytest.raises(DomainError):
            coverage_cond_pair(50.0, 400.0, FAR, cfg, LINK)
        # on arrays the error names the first offending pair
        with pytest.raises(DomainError, match=r"r=150.0, R=500.0"):
            coverage_cond_pair([50.0, 150.0, 200.0], [400.0, 500.0, 400.0], NEAR, cfg, LINK)

    @pytest.mark.parametrize("role", [NEAR, FAR])
    def test_arrays_match_scalar_calls(self, role):
        cfg = make_cfg(m_desired=3, m_interf=2)
        R = np.array([[180.0], [450.0], [1300.0]])
        r = R * (np.array([0.05, 0.2, 0.25]) if role == NEAR else np.array([0.25, 0.4, 0.5]))
        values = coverage_cond_pair(r, R, role, cfg, LINK)
        assert values.shape == (3, 3)
        for i, j in np.ndindex(values.shape):
            scalar = coverage_cond_pair(float(r[i, j]), float(R[i, 0]), role, cfg, LINK)
            assert values[i, j] == pytest.approx(scalar, rel=1e-13)

    def test_infeasible_sic_residue_is_zero_everywhere(self):
        cfg = make_cfg()
        bad = NomaLink(rate_near=1.5, rate_far=1.0, ipsic=0.5)
        for R in (200.0, 450.0, 900.0):
            for frac in (0.1, 0.6, 1.0):
                assert coverage_cond_pair(frac * R / 4.0, R, NEAR, cfg, bad) == 0.0

    def test_rayleigh_collapse(self):
        cfg = make_cfg()
        R, r = 480.0, 90.0
        value = coverage_cond_pair(r, R, NEAR, cfg, LINK)
        eps_w = 2.0**1.5 - 1.0
        eps_v = 1.0
        # perfect SIC: the cross event carries no intra-pair term at all
        m_star = max(eps_w / (cfg.tx_power * 0.4), eps_v / (cfg.tx_power * 0.6))
        d = math.hypot(r, cfg.uav_height)
        s = m_star * d**cfg.alpha_desired
        eta = sum(
            part.value_at(s * cfg.tx_power) for part in laplace_exponent_ucav(cfg, R)
        )
        expected = math.exp(-s * cfg.noise_power - eta)
        assert value == pytest.approx(expected, rel=1e-10)

    def test_removing_ring_term_increases_coverage(self):
        cfg = make_cfg(m_desired=2)
        for R in (250.0, 480.0, 800.0):
            r = R / 5.0
            d = math.hypot(r, cfg.uav_height)
            from uavnoma.scenario import UAV_CENTRIC, thresholds

            coeff = thresholds(LINK, UAV_CENTRIC, NOMA).near
            noise = cfg.noise_power / cfg.tx_power
            with_ring = conditional_coverage(
                2, coeff, noise, d, cfg.alpha_desired,
                *laplace_exponent_ucav(cfg, R),
            )
            without_ring = conditional_coverage(
                2, coeff, noise, d, cfg.alpha_desired,
                laplace_exponent_ucav(cfg, R)[1],
            )
            assert without_ring > with_ring

    def test_m2_against_pinned_geometry_oracle(self):
        cfg = make_cfg(m_desired=2)
        R = 450.0
        r = R / 5.0
        analytic = coverage_cond_pair(r, R, NEAR, cfg, LINK)
        oracle = _pinned_pair_oracle(cfg, LINK, r, R, NEAR, trials=1_000_000, seed=31)
        assert abs(analytic - oracle) < 0.01

    def test_far_role_m2_against_pinned_geometry_oracle(self):
        cfg = make_cfg(m_desired=2)
        R = 450.0
        r = 0.4 * R
        analytic = coverage_cond_pair(r, R, FAR, cfg, LINK)
        oracle = _pinned_pair_oracle(cfg, LINK, r, R, FAR, trials=500_000, seed=32)
        assert abs(analytic - oracle) < 0.01


def _pinned_pair_oracle(cfg, link, r, R, role, trials, seed):
    """Monte Carlo of the paired-user SIC chain with the nearest neighbor
    pinned at horizontal R and the tail population beyond R, both referenced
    to the cell center."""
    rng = np.random.default_rng(seed)
    height = cfg.uav_height
    l_i_sq = R * R + height * height
    d = math.hypot(r, height)
    pg = d**-cfg.alpha_desired
    eps_near = 2.0**link.rate_near - 1.0
    eps_far = 2.0**link.rate_far - 1.0
    mean_tail = cfg.uav_density * math.pi * (cfg.sim_disc_radius**2 - R * R)
    chunk = 10_000
    successes = 0
    done = 0
    while done < trials:
        n_trials = min(chunk, trials - done)
        counts = rng.poisson(mean_tail, n_trials)
        total = int(counts.sum())
        rad2 = rng.uniform(R * R, cfg.sim_disc_radius**2, total)
        gains = rng.standard_gamma(cfg.m_interf, total) / cfg.m_interf
        contrib = gains * (rad2 + height * height) ** (-cfg.alpha_interf / 2.0)
        cumulative = np.concatenate(([0.0], np.cumsum(contrib)))
        ends = np.cumsum(counts)
        tail = cumulative[ends] - cumulative[ends - counts]
        ring_gain = rng.standard_gamma(cfg.m_interf, n_trials) / cfg.m_interf
        interference = cfg.tx_power * (
            tail + ring_gain * l_i_sq ** (-cfg.alpha_interf / 2.0)
        )
        h_user = rng.standard_gamma(cfg.m_desired, n_trials) / cfg.m_desired
        received = h_user * pg * cfg.tx_power
        if role == NEAR:
            cross = received * link.pw_far / (
                cfg.noise_power
                + link.ipsic * received * link.pw_near
                + interference
            )
            own = received * link.pw_near / (
                cfg.noise_power + link.ipsic * received * link.pw_far + interference
            )
            ok = (cross > eps_far) & (own > eps_near)
        else:
            value = received * link.pw_far / (
                cfg.noise_power + received * link.pw_near + interference
            )
            ok = value > eps_far
        successes += int(np.sum(ok))
        done += n_trials
    return successes / trials


class TestCoveragePair:
    def test_placement_average_of_constant_is_one(self):
        # the placement density of each user's distance integrates to 1 on
        # the array rule of the placement axis, base and doubled alike
        for placement in _PLACEMENT.values():
            density = lambda y: _placement(y, *placement)[1]
            value, estimate = integrate(density, [[0.0]], [[1.0]], [[12]])
            assert value == pytest.approx(1.0, abs=1e-14)
            assert estimate < 1e-14

    def test_infeasible_link_is_zero(self):
        cfg = make_cfg()
        bad = NomaLink(rate_near=1.5, rate_far=1.0, ipsic=0.5)
        assert coverage_pair(NEAR, cfg, bad, NOMA) == 0.0
        # far event infeasible when eps_far >= pw_far/pw_near
        worse = NomaLink(rate_near=0.5, rate_far=2.0, ipsic=0.0)
        assert coverage_pair(FAR, cfg, worse, NOMA) == 0.0

    def test_bounded_and_near_exceeds_far_at_equal_thresholds(self):
        # same rate both roles, perfect SIC: the near user stochastically
        # dominates in serving distance
        cfg = make_cfg()
        link = NomaLink(rate_near=0.8, rate_far=0.8, ipsic=0.0)
        near = coverage_pair(NEAR, cfg, link, NOMA)
        far = coverage_pair(FAR, cfg, link, NOMA)
        assert 0.0 <= far <= near <= 1.0

    def test_susceptible_to_sic_residue_while_user_centric_is_not(self):
        from uavnoma.analytic_user_centric import coverage_typical

        cfg_uav = make_cfg()
        cfg_user = make_cfg(alpha_desired=3.0)
        uav_link = NomaLink(rate_near=1.5, rate_far=1.0, ipsic=0.5)
        user_link = NomaLink(rate_near=1.0, rate_far=0.5, ipsic=0.5, fixed_user_dist=300.0)
        assert coverage_pair(NEAR, cfg_uav, uav_link, NOMA) == 0.0
        assert coverage_typical(cfg_user, user_link, NOMA) > 0.05

    def test_monotone_in_rate_and_ipsic(self):
        cfg = make_cfg()
        values = [
            coverage_pair(NEAR, cfg, NomaLink(rate_near=rw, rate_far=1.0, ipsic=0.1))
            for rw in (0.5, 1.0, 1.5)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
        values = [
            coverage_pair(NEAR, cfg, NomaLink(rate_near=1.0, rate_far=1.0, ipsic=b))
            for b in (0.0, 0.15, 0.3)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("role", [NEAR, FAR])
    def test_sum_above_one_raises(self, monkeypatch, role):
        # a kernel that exceeds 1 everywhere pushes the integral above 1;
        # the integral must say so rather than return a clamped 1.0
        def inflated(fading_order, decode_coeff, noise_power, dist3d, alpha, *parts):
            return np.full(np.broadcast(decode_coeff, dist3d).shape, 1.5)

        monkeypatch.setattr(analytic_uav_centric, "conditional_coverage", inflated)
        with pytest.raises(NumericalError, match="outside"):
            coverage_pair(role, make_cfg(), LINK, NOMA)

    def test_oma_pair(self):
        cfg = make_cfg()
        near = coverage_pair(NEAR, cfg, LINK, OMA)
        far = coverage_pair(FAR, cfg, LINK, OMA)
        assert 0.0 < far < 1.0 and 0.0 < near < 1.0


# Corners of the parameter domain, as overrides of make_cfg: the UAV height
# on both sides of the typical neighbor distance, the serving path-loss
# exponent, the density, fading with imperfect SIC, OMA, a third fading
# order, and a dense network in which R = h falls beyond the radial cutoff.
DOMAIN_CORNERS = {
    "h=30m": (dict(uav_height=30.0), LINK, NOMA),
    "h=300m": (dict(uav_height=300.0), LINK, NOMA),
    "h=1000m,1W": (dict(uav_height=1000.0, tx_power=1.0), LINK, NOMA),
    "aD=2.5": (dict(alpha_desired=2.5), LINK, NOMA),
    "aD=4.5,1mW": (dict(alpha_desired=4.5, tx_power=1e-3), LINK, NOMA),
    "lam/4": (dict(uav_density=DENSITY / 4.0), LINK, NOMA),
    "lam*4": (dict(uav_density=DENSITY * 4.0), LINK, NOMA),
    "m=2,ipsic=0.1": (
        dict(m_desired=2, m_interf=2),
        NomaLink(rate_near=1.0, rate_far=1.0, ipsic=0.1),
        NOMA,
    ),
    "oma,aI=3": (dict(alpha_interf=3.0), LINK, OMA),
    "m=3": (dict(m_desired=3), LINK, NOMA),
    "h=1000m,lam*16,1W,aD=3": (
        dict(uav_height=1000.0, uav_density=DENSITY * 16.0, tx_power=1.0,
             alpha_desired=3.0),
        LINK,
        NOMA,
    ),
    # R = h just inside the radial cutoff: a plain Gauss-Legendre panel on
    # [0, t_h] misses by 3e-5 here
    "h=3000m,1W,aD=3": (
        dict(uav_height=3000.0, tx_power=1.0, alpha_desired=3.0), LINK, NOMA
    ),
    # steep noise-limited decay in r and R: a placement rule uniform in the
    # placement CDF and a uniform panel above t_h miss by 1e-5 here
    "h=30m,aD=4.5,m=3": (
        dict(uav_height=30.0, alpha_desired=4.5, m_desired=3, m_interf=2),
        LINK,
        NOMA,
    ),
    # sparse networks at 1 uW with steep serving links: the near user's
    # coverage falls off within the first few percent of its disc, where the
    # fixed 12 x 64 rule overshot by 1.4e-5, 4.9e-5 and 2.2e-5
    "lam/100,h=30m,aD=4.5,m=3": (
        dict(uav_density=DENSITY / 100.0, uav_height=30.0, alpha_desired=4.5,
             m_desired=3),
        LINK,
        NOMA,
    ),
    "lam/100,h=1m,aD=4.5,m=3": (
        dict(uav_density=DENSITY / 100.0, uav_height=1.0, alpha_desired=4.5,
             m_desired=3),
        LINK,
        NOMA,
    ),
    "lam/100,h=10m,aD=3.5,m=4": (
        dict(uav_density=DENSITY / 100.0, uav_height=10.0, alpha_desired=3.5,
             m_desired=4),
        LINK,
        NOMA,
    ),
}

# (near, far) per corner; see TestCoveragePairAcrossDomain for their source
DOMAIN_PINS = {
    "h=30m": (0.9329179488778401, 0.6057515711205423),
    "h=300m": (0.048210728565732566, 0.01427673307042843),
    "h=1000m,1W": (0.46376598905911137, 0.41931675068949276),
    "aD=2.5": (0.998451168069402, 0.994705749595972),
    "aD=4.5,1mW": (0.5144948679818724, 0.13000763495555118),
    "lam/4": (0.6137714007208996, 0.19900681868270903),
    "lam*4": (0.839573713373271, 0.6970602796459275),
    "m=2,ipsic=0.1": (0.9547943260614702, 0.5556246475748837),
    "oma,aI=3": (0.06185200430732729, 0.03222236653437234),
    "m=3": (0.944456143700611, 0.5840652824439585),
    "h=1000m,lam*16,1W,aD=3": (0.7060012681192467, 0.6828139839554093),
    "h=3000m,1W,aD=3": (0.9332023406056075, 0.9268771916497006),
    "h=30m,aD=4.5,m=3": (0.4108129162405919, 0.04245010174248088),
    "lam/100,h=30m,aD=4.5,m=3": (0.014476594894690884, 0.0005265141229016633),
    "lam/100,h=1m,aD=4.5,m=3": (0.017892359568034363, 0.0009089458702657773),
    "lam/100,h=10m,aD=3.5,m=4": (0.12469260774370795, 0.01412542360818599),
}


class TestCoveragePairAcrossDomain:
    """The self-checking array rule against converged adaptive quadrature.

    DOMAIN_PINS come from ``uavnoma.validation.adaptive_coverage_pair``,
    adaptive Gauss-Kronrod cubature over (u, r/R) on 50 log-spaced panels in
    u = pi lam R^2 with a break at R = h. They were computed by an earlier,
    nested scalar form of that reference on the same panels, which the
    cubature form reproduces within 3e-16. From the repository root,
    regenerate them with

        PYTHONPATH=src python tests/test_analytic_uav_centric.py

    They are not the output of the nested adaptive quad that the fixed
    rule replaced: at h = 30 m that one missed the converged value by 1.2e-5.
    Nor do they come from a single adaptive panel over u in [0, 46]: in the
    sparse corners that one missed the far user's mass, packed below
    u = 0.01, by up to 9e-4 without a warning.
    """

    @pytest.mark.parametrize("corner", list(DOMAIN_CORNERS))
    def test_matches_converged_adaptive_pins(self, corner):
        overrides, link, access = DOMAIN_CORNERS[corner]
        cfg = make_cfg(**overrides)
        for role, pin in zip((NEAR, FAR), DOMAIN_PINS[corner]):
            assert abs(coverage_pair(role, cfg, link, access) - pin) < 1e-6

    def test_reference_reproduces_pins(self):
        # every pin but the near users of the lam/100 corners, whose
        # references take seconds each
        for corner, (overrides, link, access) in DOMAIN_CORNERS.items():
            cfg = make_cfg(**overrides)
            for role, pin in zip((NEAR, FAR), DOMAIN_PINS[corner]):
                if role == NEAR and corner.startswith("lam/100"):
                    continue
                reference = adaptive_coverage_pair(role, cfg, link, access)
                assert abs(reference - pin) < 1e-12


if __name__ == "__main__":
    for corner, (overrides, link, access) in DOMAIN_CORNERS.items():
        cfg = make_cfg(**overrides)
        pins = tuple(adaptive_coverage_pair(r, cfg, link, access) for r in (NEAR, FAR))
        print(f'    "{corner}": {pins!r},')
