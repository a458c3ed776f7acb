"""Unit tests for fading and the SINR family."""

import math

import numpy as np
import pytest

from uavnoma.channel import sample_nakagami_power, sinr
from uavnoma.errors import DomainError


class TestNakagami:
    def test_rayleigh_mean(self):
        rng = np.random.default_rng(21)
        draws = sample_nakagami_power(1, rng, size=1_000_000)
        assert 0.997 < draws.mean() < 1.003

    def test_m2_moments(self):
        rng = np.random.default_rng(22)
        draws = sample_nakagami_power(2, rng, size=1_000_000)
        assert abs(draws.mean() - 1.0) < 0.003
        assert 0.497 < draws.var() < 0.503

    def test_rejects_fractional_order(self):
        with pytest.raises(DomainError):
            sample_nakagami_power(0, np.random.default_rng(0))


    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_gamma_moments(self, m):
        # Gamma(m)/m: mean 1, variance 1/m, fourth central moment (3m + 6)/m^3;
        # bands of 5 standard errors
        n = 200_000
        draws = sample_nakagami_power(m, np.random.default_rng(100 + m), size=n)
        var = 1.0 / m
        mu4 = (3.0 * m + 6.0) / m**3
        assert abs(draws.mean() - 1.0) < 5.0 * math.sqrt(var / n)
        assert abs(draws.var() - var) < 5.0 * math.sqrt((mu4 - var * var) / n)

    @pytest.mark.parametrize("m", [-1, 1.5, 2.5])
    def test_rejects_invalid_order(self, m):
        with pytest.raises(DomainError):
            sample_nakagami_power(m, np.random.default_rng(0))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_draws_one_standard_gamma_per_value(self, m):
        # the Monte Carlo stream layout rests on this draw order
        got = sample_nakagami_power(m, np.random.default_rng(31), size=50)
        rng = np.random.default_rng(31)
        np.testing.assert_array_equal(got, rng.standard_gamma(m, 50) / m)
        scalar = sample_nakagami_power(m, np.random.default_rng(31))
        assert np.ndim(scalar) == 0 and scalar == got[0]


class TestSinr:
    def value(self, **kw):
        args = dict(
            desired_gain=1.0,
            serving_dist3d=1.0,
            interference=0.0,
            noise=0.1,
            split_own=0.4,
            split_other=0.6,
            residue=0.0,
            tx_power=1.0,
            alpha=3.0,
        )
        args.update(kw)
        path_gain = args["serving_dist3d"] ** -args["alpha"]
        received = args["desired_gain"] * path_gain * args["tx_power"]
        return sinr(
            received,
            args["split_own"],
            args["split_other"],
            args["residue"],
            args["noise"],
            args["interference"],
        )

    def test_perfect_sic_value(self):
        assert self.value() == pytest.approx(4.0, rel=1e-12)

    def test_failed_sic_value(self):
        assert self.value(residue=1.0) == pytest.approx(0.4 / 0.7, rel=1e-12)

    def test_monotone_in_gain_without_residue(self):
        gains = np.linspace(0.1, 5.0, 25)
        values = self.value(desired_gain=gains, interference=1e-3)
        assert values.shape == gains.shape
        assert np.all(np.diff(values) > 0)

    def test_monotone_in_power_only_when_noise_dominates(self):
        # noise-dominated: increasing power raises the SINR
        low = self.value(tx_power=1.0, interference=1e-6, noise=0.1)
        high = self.value(tx_power=10.0, interference=1e-6, noise=0.1)
        assert high > low
        # interference scaling with power kills the gain
        low_i = self.value(tx_power=1.0, interference=0.5, noise=1e-9)
        high_i = self.value(tx_power=10.0, interference=5.0, noise=1e-9)
        assert high_i == pytest.approx(low_i, rel=1e-8)

    @pytest.mark.parametrize(
        "received, split_own, split_other, residue, noise, interference, expected",
        [
            # OMA: the whole power serves one user, no intra-pair term
            (2.0, 1.0, 1.0, 0.0, 0.5, 0.5, 2.0),
            (1e-12, 1.0, 1.0, 0.0, 1e-13, 4e-13, 2.0),
            # cross decode before SIC: the partner share counts in full
            (1.0, 0.8, 0.2, 1.0, 0.1, 0.1, 2.0),
            # own decode after imperfect SIC keeps a fraction of the partner
            (1.0, 0.2, 0.8, 0.25, 0.1, 0.1, 0.5),
            # no received power, no SINR
            (0.0, 0.8, 0.2, 1.0, 0.1, 0.1, 0.0),
        ],
    )
    def test_hand_computed_cases(
        self, received, split_own, split_other, residue, noise, interference, expected
    ):
        got = sinr(received, split_own, split_other, residue, noise, interference)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_array_matches_scalar_evaluation_bitwise(self):
        rng = np.random.default_rng(5)
        received = rng.exponential(1.0, 200)
        interference = rng.exponential(0.3, 200)
        values = sinr(received, 0.7, 0.3, 0.05, 0.01, interference)
        scalar = [
            sinr(float(r), 0.7, 0.3, 0.05, 0.01, float(i))
            for r, i in zip(received, interference)
        ]
        np.testing.assert_array_equal(values, scalar)

    def test_joint_sic_event_max_coefficient_identity(self):
        # {cross SINR > eps_other and own SINR > eps_own}
        #   <=> gain > max(M_own, M_cross) (noise+I) d^alpha
        tx_power, alpha, beta = 1.0, 3.0, 0.3
        pw_far, pw_near = 0.6, 0.4
        eps_own, eps_other = 0.9, 0.35
        noise, interference, d = 0.01, 0.02, 2.0
        m_own = eps_own / (tx_power * (pw_near - beta * eps_own * pw_far))
        m_cross = eps_other / (tx_power * (pw_far - eps_other * pw_near))
        m_star = max(m_own, m_cross)
        gains = np.linspace(0.01, 40.0, 4001)
        common = dict(
            desired_gain=gains, serving_dist3d=d, interference=interference, noise=noise
        )
        cross = self.value(split_own=pw_far, split_other=pw_near, residue=1.0, **common)
        own = self.value(split_own=pw_near, split_other=pw_far, residue=beta, **common)
        chain = (cross > eps_other) & (own > eps_own)
        identity = gains > m_star * (noise + interference) * d**alpha
        np.testing.assert_array_equal(chain, identity)
