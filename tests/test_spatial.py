"""Unit tests for point-process sampling and distance distributions."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from uavnoma import montecarlo
from uavnoma.errors import DomainError
from uavnoma.scenario import NetworkConfig
from uavnoma.spatial import sample_far_user, sample_hppp_disc, sample_near_user
from uavnoma.validation import (
    far_user_pdf,
    near_user_pdf,
    nearest_distance_cdf,
    nearest_distance_pdf,
)

DENSITY = 1.0 / (500.0**2 * math.pi)


def engine_nearest_distances(trials, seed):
    """Nearest-UAV distance of each trial as the Monte Carlo geometry phase
    draws it: ``sample_hppp_disc`` fields on the 10 km disc in the engine's
    SFC64 blocks, each trial reduced to its minimum radius. The disc changes
    nothing measurable: it is empty with probability e^-400."""
    cfg = NetworkConfig(uav_density=DENSITY, tx_power=1e-6, alpha_desired=3.0)
    block = lambda rng, field, cfg: [field.nearest]
    return montecarlo._simulate(cfg, trials, seed, 1, block)[0]


class TestHpppDisc:
    def test_mean_count(self):
        # lam * pi * r^2 = (10000/500)^2 = 400
        counts, radii = sample_hppp_disc(DENSITY, 10_000.0, 300, np.random.default_rng(7))
        # 3 sigma band around 400 at 300 realizations: +-3.5
        assert abs(counts.mean() - 400.0) < 3.5
        assert len(radii) == counts.sum()

    def test_determinism(self):
        a = sample_hppp_disc(DENSITY, 10_000.0, 20, np.random.default_rng(123))
        b = sample_hppp_disc(DENSITY, 10_000.0, 20, np.random.default_rng(123))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_vanishing_density(self):
        counts, radii = sample_hppp_disc(1e-12, 100.0, 50, np.random.default_rng(5))
        assert len(counts) == 50 and not counts.any() and len(radii) == 0

    def test_points_inside_disc(self):
        counts, radii = sample_hppp_disc(DENSITY, 10_000.0, 5, np.random.default_rng(2))
        assert counts.shape == (5,) and len(radii) == counts.sum()
        assert np.all((radii >= 0.0) & (radii <= 10_000.0))

    def test_subdisc_counts_poisson(self):
        # counts in an off-center sub-disc stay Poisson with the area mean,
        # once each point gets a uniform azimuth
        rng = np.random.default_rng(42)
        sub_center = np.array([3000.0, -1500.0])
        sub_radius = 2000.0
        mean = DENSITY * math.pi * sub_radius**2  # 16
        counts, radii = sample_hppp_disc(DENSITY, 10_000.0, 1000, rng)
        angles = rng.uniform(0.0, 2.0 * math.pi, len(radii))
        pts = np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
        inside = np.hypot(*(pts - sub_center).T) <= sub_radius
        trial = np.repeat(np.arange(1000), counts)
        counts = np.bincount(trial[inside], minlength=1000)
        edges = [0, 10, 12, 14, 16, 18, 20, 22, np.inf]
        observed = np.histogram(counts, bins=edges)[0]
        cdf = stats.poisson(mean).cdf
        probs = np.diff([0.0] + [cdf(e - 1) for e in edges[1:-1]] + [1.0])
        chi2 = ((observed - 1000 * probs) ** 2 / (1000 * probs)).sum()
        # 1% critical value, 7 dof
        assert chi2 < stats.chi2(len(observed) - 1).ppf(0.99)

    @pytest.mark.parametrize(
        "density, radius",
        [(DENSITY, 10_000.0), (DENSITY, 7777.7), (1e-5, 2000.0), (DENSITY, 416.0)],
    )
    def test_per_trial_counts_are_poisson(self, density, radius):
        # 2,000 trials: the mean within 4 sigma of density * pi * radius^2,
        # and the index of dispersion (n - 1) s^2 / mu inside the two-sided
        # 99.9% band of its chi-square law
        mu = density * math.pi * radius**2
        n = 2000
        counts, _ = sample_hppp_disc(density, radius, n, np.random.default_rng(17))
        assert abs(counts.sum() - n * mu) < 4.0 * math.sqrt(n * mu)
        dispersion = (n - 1) * counts.var(ddof=1) / mu
        chi2 = stats.chi2(n - 1)
        assert chi2.ppf(0.0005) < dispersion < chi2.ppf(0.9995)

    @pytest.mark.parametrize(
        "density, radius",
        [(0.0, 100.0), (-DENSITY, 100.0), (DENSITY, 0.0), (DENSITY, -1.0)],
    )
    def test_rejects_non_positive_arguments(self, density, radius):
        with pytest.raises(DomainError):
            sample_hppp_disc(density, radius, 3, np.random.default_rng(0))

    @pytest.mark.parametrize("radius", [10_000.0, 7777.7, 416.0])
    def test_draw_order(self, radius):
        # every count from density * pi * radius**2, then all the radii:
        # the Monte Carlo stream layout rests on this order
        counts, radii = sample_hppp_disc(DENSITY, radius, 7, np.random.default_rng(88))
        rng = np.random.default_rng(88)
        np.testing.assert_array_equal(
            counts, rng.poisson(DENSITY * math.pi * radius**2, 7)
        )
        np.testing.assert_array_equal(
            radii, radius * np.sqrt(rng.uniform(0.0, 1.0, counts.sum()))
        )

    def test_radii_uniform_in_area(self):
        # (r / radius)^2 is uniform on [0, 1] for points uniform on the disc
        _, radii = sample_hppp_disc(DENSITY, 10_000.0, 100, np.random.default_rng(61))
        assert stats.kstest((radii / 10_000.0) ** 2, "uniform").pvalue > 0.01


class TestNearestDistance:
    def test_pdf_at_zero(self):
        assert nearest_distance_pdf(0.0, DENSITY) == 0.0

    def test_pdf_normalizes(self):
        total, _ = integrate.quad(
            lambda r: nearest_distance_pdf(r, DENSITY), 0.0, np.inf
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_engine_draw_median(self):
        # the sample median's standard error is 1/(2 f(m) sqrt(n)) = 0.67 m at
        # m = 500 sqrt(ln 2) and n = 200k, so 2 m is three of them
        samples = engine_nearest_distances(200_000, seed=11)
        expected = 500.0 * math.sqrt(math.log(2.0))
        assert abs(np.median(samples) - expected) < 2.0

    def test_engine_draw_kolmogorov_smirnov(self):
        samples = engine_nearest_distances(100_000, seed=1234)
        result = stats.kstest(samples, lambda r: nearest_distance_cdf(r, DENSITY))
        assert result.pvalue > 0.01


class TestPairedUserPlacement:
    def test_near_pdf_normalizes_exactly(self):
        # integral of 32 r / R^2 over [0, R/4] is exactly 1
        R = 137.0
        total, _ = integrate.quad(lambda r: near_user_pdf(r, R), 0.0, R / 4.0)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_far_pdf_normalizes_exactly(self):
        R = 137.0
        total, _ = integrate.quad(lambda r: far_user_pdf(r, R), R / 4.0, R / 2.0)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_near_sample_range_and_mean(self):
        R = 100.0
        rng = np.random.default_rng(3)
        samples = sample_near_user(np.full(1_000_000, R), rng)
        assert np.all((samples >= 0.0) & (samples <= R / 4.0))
        # mean of a linear density on [0, R/4] is (2/3)(R/4)
        assert abs(samples.mean() - (2.0 / 3.0) * (R / 4.0)) < 0.05

    def test_far_sample_range_and_mean(self):
        R = 100.0
        rng = np.random.default_rng(4)
        samples = sample_far_user(np.full(1_000_000, R), rng)
        assert np.all((samples >= R / 4.0) & (samples <= R / 2.0))
        # E[r] = int r * 32 r/(3R^2) dr over [R/4, R/2] = (32/(9 R^2))(R^3/8 - R^3/64)
        expected = (32.0 / (9.0 * R**2)) * (R**3 / 8.0 - R**3 / 64.0)
        assert abs(samples.mean() - expected) < 0.05

    def test_empirical_matches_pdf_shape(self):
        R = 80.0
        rng = np.random.default_rng(9)
        samples = sample_far_user(np.full(200_000, R), rng)
        cdf = lambda r: (16.0 * r**2 / R**2 - 1.0) / 3.0
        result = stats.kstest(samples, cdf)
        assert result.pvalue > 0.01

    @pytest.mark.parametrize("R", [[0.0], [-5.0], [120.0, 0.0], [120.0, -5.0, 80.0]])
    @pytest.mark.parametrize("sampler", [sample_near_user, sample_far_user])
    def test_rejects_non_positive_cell(self, sampler, R):
        with pytest.raises(DomainError):
            sampler(np.array(R), np.random.default_rng(0))

    @pytest.mark.parametrize(
        "sampler, pdf, lower, upper",
        [
            (sample_near_user, near_user_pdf, 0.0, 0.25),
            (sample_far_user, far_user_pdf, 0.25, 0.5),
        ],
    )
    def test_kolmogorov_smirnov_against_pdf(self, sampler, pdf, lower, upper):
        # one draw per cell of a mixed array of cell radii, each mapped
        # through the CDF integrated from the pdf at its own R (not the
        # sampler's inverse): the results are uniform on [0, 1]
        R = np.repeat([50.0, 137.0, 1000.0], 200)
        samples = sampler(R, np.random.default_rng(31))
        pit = [
            integrate.quad(lambda x: float(pdf(x, big_r)), lower * big_r, v)[0]
            for v, big_r in zip(samples, R)
        ]
        assert stats.kstest(pit, "uniform").pvalue > 0.01

    @pytest.mark.parametrize(
        "sampler, radius_of",
        [
            (sample_near_user, lambda u: np.sqrt(u)),
            (sample_far_user, lambda u: np.sqrt(1.0 + 3.0 * u)),
        ],
    )
    def test_one_uniform_per_cell_in_order(self, sampler, radius_of):
        # the Monte Carlo stream layout rests on one uniform per cell radius,
        # taken in the order of the array
        R = np.array([120.0, 50.0, 900.0])
        u = np.random.default_rng(9).uniform(0.0, 1.0, 3)
        np.testing.assert_array_equal(
            sampler(R, np.random.default_rng(9)), 0.25 * R * radius_of(u)
        )
