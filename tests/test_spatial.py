"""Unit tests for point-process sampling and distance distributions."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from uavnoma.errors import DomainError
from uavnoma.spatial import (
    far_user_pdf,
    near_user_pdf,
    nearest_distance_cdf,
    nearest_distance_pdf,
    nearest_distance_sample,
    sample_far_user,
    sample_hppp_disc,
    sample_near_user,
)

DENSITY = 1.0 / (500.0**2 * math.pi)


class TestHpppDisc:
    def test_mean_count(self):
        # lam * pi * r^2 = (10000/500)^2 = 400
        rng = np.random.default_rng(7)
        counts = [
            len(sample_hppp_disc(DENSITY, 10_000.0, rng)[0]) for _ in range(300)
        ]
        mean = np.mean(counts)
        # 3 sigma band around 400 at 300 realizations: +-3.5
        assert abs(mean - 400.0) < 3.5

    def test_determinism(self):
        a = sample_hppp_disc(DENSITY, 10_000.0, np.random.default_rng(123))
        b = sample_hppp_disc(DENSITY, 10_000.0, np.random.default_rng(123))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_vanishing_density(self):
        radii, angles = sample_hppp_disc(1e-12, 100.0, np.random.default_rng(5))
        assert len(radii) == 0 and len(angles) == 0

    def test_points_inside_disc(self):
        radii, angles = sample_hppp_disc(DENSITY, 10_000.0, np.random.default_rng(2))
        assert len(radii) == len(angles)
        assert np.all((radii >= 0.0) & (radii <= 10_000.0))
        assert np.all((angles >= 0.0) & (angles < 2.0 * math.pi))

    def test_subdisc_counts_poisson(self):
        # counts in an off-center sub-disc stay Poisson with the area mean
        rng = np.random.default_rng(42)
        sub_center = np.array([3000.0, -1500.0])
        sub_radius = 2000.0
        mean = DENSITY * math.pi * sub_radius**2  # 16
        counts = []
        for _ in range(1000):
            radii, angles = sample_hppp_disc(DENSITY, 10_000.0, rng)
            pts = np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
            inside = np.hypot(*(pts - sub_center).T) <= sub_radius
            counts.append(int(inside.sum()))
        counts = np.array(counts)
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
    def test_pooled_count_is_poisson(self, density, radius):
        # 200 discs pool to Poisson(200 mu); 4-sigma band
        mu = density * math.pi * radius**2
        rng = np.random.default_rng(17)
        total = sum(len(sample_hppp_disc(density, radius, rng)[0]) for _ in range(200))
        assert abs(total - 200 * mu) < 4.0 * math.sqrt(200 * mu)

    @pytest.mark.parametrize(
        "density, radius",
        [(0.0, 100.0), (-DENSITY, 100.0), (DENSITY, 0.0), (DENSITY, -1.0)],
    )
    def test_rejects_non_positive_arguments(self, density, radius):
        with pytest.raises(DomainError):
            sample_hppp_disc(density, radius, np.random.default_rng(0))

    @pytest.mark.parametrize("radius", [10_000.0, 7777.7, 416.0])
    def test_draw_order(self, radius):
        # count from density * pi * radius**2, then the radii, then the
        # angles: the Monte Carlo stream layout rests on this order
        radii, angles = sample_hppp_disc(DENSITY, radius, np.random.default_rng(88))
        rng = np.random.default_rng(88)
        count = rng.poisson(DENSITY * math.pi * radius**2)
        np.testing.assert_array_equal(
            radii, radius * np.sqrt(rng.uniform(0.0, 1.0, count))
        )
        np.testing.assert_array_equal(angles, rng.uniform(0.0, 2.0 * math.pi, count))

    def test_radii_uniform_in_area(self):
        # (r / radius)^2 is uniform on [0, 1] for points uniform on the disc
        rng = np.random.default_rng(61)
        radii = np.concatenate(
            [sample_hppp_disc(DENSITY, 10_000.0, rng)[0] for _ in range(100)]
        )
        assert stats.kstest((radii / 10_000.0) ** 2, "uniform").pvalue > 0.01

    def test_angles_uniform(self):
        rng = np.random.default_rng(62)
        angles = np.concatenate(
            [sample_hppp_disc(DENSITY, 10_000.0, rng)[1] for _ in range(100)]
        )
        result = stats.kstest(angles, stats.uniform(0.0, 2.0 * math.pi).cdf)
        assert result.pvalue > 0.01


class TestNearestDistance:
    def test_pdf_at_zero(self):
        assert nearest_distance_pdf(0.0, DENSITY) == 0.0

    def test_pdf_normalizes(self):
        total, _ = integrate.quad(
            lambda r: nearest_distance_pdf(r, DENSITY), 0.0, np.inf
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_median(self):
        rng = np.random.default_rng(11)
        samples = nearest_distance_sample(DENSITY, rng, size=100_000)
        expected = 500.0 * math.sqrt(math.log(2.0))
        assert abs(np.median(samples) - expected) < 2.0

    def test_kolmogorov_smirnov(self):
        rng = np.random.default_rng(1234)
        samples = nearest_distance_sample(DENSITY, rng, size=100_000)
        result = stats.kstest(samples, lambda r: nearest_distance_cdf(r, DENSITY))
        assert result.pvalue > 0.01

    def test_rejects_bad_density(self):
        with pytest.raises(DomainError):
            nearest_distance_sample(0.0, np.random.default_rng(0))


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
        samples = sample_near_user(R, rng, size=1_000_000)
        assert np.all((samples >= 0.0) & (samples <= R / 4.0))
        # mean of a linear density on [0, R/4] is (2/3)(R/4)
        assert abs(samples.mean() - (2.0 / 3.0) * (R / 4.0)) < 0.05

    def test_far_sample_range_and_mean(self):
        R = 100.0
        rng = np.random.default_rng(4)
        samples = sample_far_user(R, rng, size=1_000_000)
        assert np.all((samples >= R / 4.0) & (samples <= R / 2.0))
        # E[r] = int r * 32 r/(3R^2) dr over [R/4, R/2] = (32/(9 R^2))(R^3/8 - R^3/64)
        expected = (32.0 / (9.0 * R**2)) * (R**3 / 8.0 - R**3 / 64.0)
        assert abs(samples.mean() - expected) < 0.05

    def test_empirical_matches_pdf_shape(self):
        R = 80.0
        rng = np.random.default_rng(9)
        samples = sample_far_user(R, rng, size=200_000)
        cdf = lambda r: (16.0 * r**2 / R**2 - 1.0) / 3.0
        result = stats.kstest(samples, cdf)
        assert result.pvalue > 0.01

    @pytest.mark.parametrize("R", [0.0, -5.0])
    @pytest.mark.parametrize("sampler", [sample_near_user, sample_far_user])
    def test_rejects_non_positive_cell(self, sampler, R):
        with pytest.raises(DomainError):
            sampler(R, np.random.default_rng(0))

    @pytest.mark.parametrize("R", [50.0, 137.0, 1000.0])
    @pytest.mark.parametrize(
        "sampler, pdf, lower, upper",
        [
            (sample_near_user, near_user_pdf, 0.0, 0.25),
            (sample_far_user, far_user_pdf, 0.25, 0.5),
        ],
    )
    def test_kolmogorov_smirnov_against_pdf(self, sampler, pdf, lower, upper, R):
        # the CDF integrated from the pdf, not the sampler's inverse
        def cdf(r):
            return np.array(
                [
                    integrate.quad(lambda x: float(pdf(x, R)), lower * R, v)[0]
                    for v in np.clip(np.atleast_1d(r), lower * R, upper * R)
                ]
            )

        samples = sampler(R, np.random.default_rng(int(R)), size=400)
        assert stats.kstest(samples, cdf).pvalue > 0.01

    @pytest.mark.parametrize("sampler", [sample_near_user, sample_far_user])
    def test_scalar_draw_uses_one_uniform(self, sampler):
        # the Monte Carlo stream layout rests on one uniform per user
        rng = np.random.default_rng(9)
        first = sampler(120.0, rng)
        second = sampler(120.0, rng)
        assert np.ndim(first) == 0
        np.testing.assert_array_equal(
            [first, second], sampler(120.0, np.random.default_rng(9), size=2)
        )
