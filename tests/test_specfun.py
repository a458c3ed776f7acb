"""Unit tests for the special-function layer.

Expected values marked as frozen were computed from independent oracles
(mpmath at 30 digits, or direct quadrature written inline here) before the
implementation was trusted.
"""

import math

import numpy as np
import pytest
from scipy import special

from uavnoma.errors import DomainError, PartitionCapError
from uavnoma.specfun import (
    PartitionMultiset,
    exp_composition_derivatives,
    gauss_2f1_negz,
    ln_gamma,
    partitions,
    rising_pochhammer,
)


class TestLnGamma:
    def test_gamma_one_is_zero(self):
        assert ln_gamma(1.0) == 0.0

    def test_integer_factorial(self):
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-12)

    def test_half_integer_frozen(self):
        # mpmath.loggamma(2.5) at 30 digits
        assert ln_gamma(2.5) == pytest.approx(0.2846828704729192, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            ln_gamma(0.0)
        with pytest.raises(DomainError):
            ln_gamma(-2.0)


class TestRisingPochhammer:
    def test_empty_product(self):
        assert rising_pochhammer(3.0, 0) == 1.0

    def test_integer_case(self):
        assert rising_pochhammer(2.0, 3) == 24.0

    def test_fractional_case(self):
        assert rising_pochhammer(1.5, 4) == pytest.approx(1.5 * 2.5 * 3.5 * 4.5)

    def test_gamma_ratio_identity(self):
        for a, n in [(1.5, 3), (2.0, 5), (0.3, 6)]:
            expected = math.exp(ln_gamma(a + n) - ln_gamma(a))
            assert rising_pochhammer(a, n) == pytest.approx(expected, rel=1e-12)


class TestPartitions:
    # OEIS A000041
    COUNTS = {0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}

    @pytest.mark.parametrize("p,count", sorted(COUNTS.items()))
    def test_counts(self, p, count):
        assert len(partitions(p)) == count

    def test_p_zero_is_empty_multiset(self):
        (only,) = partitions(0)
        assert only.multiplicities == ()

    def test_p_one(self):
        (only,) = partitions(1)
        assert only.multiplicities == (1,)

    def test_p_four_explicit(self):
        # 4, 3+1, 2+2, 2+1+1, 1+1+1+1
        got = {pm.multiplicities for pm in partitions(4)}
        assert got == {
            (0, 0, 0, 1),
            (1, 0, 1, 0),
            (0, 2, 0, 0),
            (2, 1, 0, 0),
            (4, 0, 0, 0),
        }

    def test_all_unique_and_weighted(self):
        for p in range(9):
            parts = partitions(p)
            assert len(set(parts)) == len(parts)
            assert all(pm.weight == p for pm in parts)

    def test_cap_enforced(self):
        with pytest.raises(PartitionCapError):
            partitions(13)
        assert len(partitions(13, cap=13)) == 101

    def test_invalid_multiset_rejected(self):
        with pytest.raises(ValueError):
            PartitionMultiset((1, 1))  # weight 3, order 2


class TestGauss2F1:
    def test_z_zero(self):
        assert gauss_2f1_negz(3.7, -0.2, 1.4, 0.0) == 1.0

    def test_log_identity(self):
        assert gauss_2f1_negz(1.0, 1.0, 2.0, -1.0) == pytest.approx(
            math.log(2.0), rel=1e-12
        )

    def test_arctan_identity(self):
        assert gauss_2f1_negz(1.0, 0.5, 1.5, -1.0) == pytest.approx(
            math.pi / 4.0, rel=1e-12
        )

    def test_frozen_generic_point(self):
        # mpmath.hyp2f1(0.7, 2.2, 3.1, -3.7) at 30 digits
        assert gauss_2f1_negz(0.7, 2.2, 3.1, -3.7) == pytest.approx(
            0.4231280370532926, rel=1e-12
        )

    @pytest.mark.parametrize(
        "a,b,c,z",
        [
            (1.0, 0.5, 1.5, -0.3),
            (2.0, 1.0, 2.5, -4.0),
            (0.25, 1.75, 2.0, -11.0),
            (1.0, 0.4, 1.4, -250.0),
        ],
    )
    def test_against_scipy(self, a, b, c, z):
        assert gauss_2f1_negz(a, b, c, z) == pytest.approx(
            float(special.hyp2f1(a, b, c, z)), rel=1e-10
        )

    @pytest.mark.parametrize(
        "a,b,c,z",
        [(1.3, 0.2, 2.1, -0.7), (0.5, 1.5, 2.5, -9.0), (2.0, 3.0, 4.5, -0.01)],
    )
    def test_argument_symmetry_exact(self, a, b, c, z):
        assert gauss_2f1_negz(a, b, c, z) == gauss_2f1_negz(b, a, c, z)

    def test_rejects_positive_z(self):
        with pytest.raises(DomainError):
            gauss_2f1_negz(1.0, 1.0, 2.0, 0.5)

    def test_rejects_nonpositive_integer_c(self):
        with pytest.raises(DomainError):
            gauss_2f1_negz(1.0, 1.0, -2.0, -0.5)


class TestExpCompositionDerivatives:
    def test_order_zero(self):
        out = exp_composition_derivatives([2.0], 0)
        assert out == [math.exp(-2.0)]

    def test_order_one_chain_rule(self):
        out = exp_composition_derivatives([2.0, 3.0], 1)
        assert out[1] == pytest.approx(-3.0 * math.exp(-2.0), rel=1e-14)

    def test_order_two_identity(self):
        eta, d1, d2 = 0.7, 1.3, -0.4
        out = exp_composition_derivatives([eta, d1, d2], 2)
        assert out[2] == pytest.approx((d1**2 - d2) * math.exp(-eta), rel=1e-14)

    @pytest.mark.parametrize("s0", [0.5, 1.0, 2.0])
    def test_quadratic_exponent_finite_differences(self, s0):
        # eta(s) = s^2: derivatives (s^2, 2s, 2, 0, 0)
        derivs = [s0**2, 2.0 * s0, 2.0, 0.0, 0.0]
        out = exp_composition_derivatives(derivs, 4)
        f = lambda s: math.exp(-(s**2))
        h = 1e-2
        stencil = np.array([f(s0 + k * h) for k in range(-4, 5)])
        # central difference weights, orders 1..4
        d1 = (stencil[5] - stencil[3]) / (2 * h)
        d2 = (stencil[5] - 2 * stencil[4] + stencil[3]) / h**2
        d3 = (-stencil[2] + 2 * stencil[3] - 2 * stencil[5] + stencil[6]) / (2 * h**3)
        d4 = (stencil[2] - 4 * stencil[3] + 6 * stencil[4] - 4 * stencil[5] + stencil[6]) / h**4
        for got, want in zip(out[1:], [d1, d2, d3, d4]):
            assert got == pytest.approx(want, rel=1e-3)

    def test_smooth_transcendental_exponent(self):
        # eta(s) = log(1+s) + s^3/50 at s0=0.8, derivatives by hand
        s0 = 0.8
        derivs = [
            math.log(1.0 + s0) + s0**3 / 50.0,
            1.0 / (1.0 + s0) + 3.0 * s0**2 / 50.0,
            -1.0 / (1.0 + s0) ** 2 + 6.0 * s0 / 50.0,
            2.0 / (1.0 + s0) ** 3 + 6.0 / 50.0,
        ]
        out = exp_composition_derivatives(derivs, 3)
        f = lambda s: math.exp(-math.log(1.0 + s) - s**3 / 50.0)
        h = 1e-3
        d2 = (f(s0 + h) - 2 * f(s0) + f(s0 - h)) / h**2
        d3 = (-f(s0 - 2 * h) + 2 * f(s0 - h) - 2 * f(s0 + h) + f(s0 + 2 * h)) / (
            2 * h**3
        )
        assert out[2] == pytest.approx(d2, rel=1e-4)
        assert out[3] == pytest.approx(d3, rel=1e-4)

    def test_requires_enough_derivatives(self):
        with pytest.raises(DomainError):
            exp_composition_derivatives([1.0, 2.0], 2)
