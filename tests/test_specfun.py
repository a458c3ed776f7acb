"""Unit tests for the Taylor-coefficient recursion of ``laplace``.

``exp_composition_derivatives`` turns the Taylor coefficients a_k =
s^k f^(k)(s)/k! of f(s(1 + x)) into those of exp(-f), E_k = s^k D_k/k!,
D_k = d^k/ds^k exp(-f). Each test states f by its derivatives at s
(``taylor``) and reads every D_k through E_k. Expected values come from
independent oracles written inline here: hand-derived derivatives,
closed-form transforms, Faa di Bruno's formula over integer partitions and
finite differences.
"""

import math

import numpy as np
import pytest

from uavnoma.errors import DomainError
from uavnoma.laplace import exp_composition_derivatives


def taylor(derivs, s=1.0):
    """a_k = s^k f^(k)(s)/k! from the derivatives f^(k) at s."""
    return [d * s**k / math.factorial(k) for k, d in enumerate(derivs)]


def derivatives(coeffs, s=1.0):
    """D_k = k! E_k / s^k from the Taylor coefficients E_k at s."""
    return [e * math.factorial(k) / s**k for k, e in enumerate(coeffs)]


class TestExpCompositionDerivatives:
    def test_order_zero(self):
        out = exp_composition_derivatives(taylor([2.0]), 0)
        assert out == [math.exp(-2.0)]

    def test_order_one_chain_rule(self):
        s0 = 0.7
        out = exp_composition_derivatives(taylor([2.0, 3.0], s0), 1)
        assert out[1] == pytest.approx(-s0 * 3.0 * math.exp(-2.0), rel=1e-14)

    def test_order_two_identity(self):
        eta, d1, d2 = 0.7, 1.3, -0.4
        out = exp_composition_derivatives(taylor([eta, d1, d2]), 2)
        assert out[2] == pytest.approx((d1**2 - d2) * math.exp(-eta) / 2.0, rel=1e-14)

    @pytest.mark.parametrize("s0", [0.5, 1.0, 2.0])
    def test_quadratic_exponent_finite_differences(self, s0):
        # eta(s) = s^2: derivatives (s^2, 2s, 2, 0, 0)
        derivs = [s0**2, 2.0 * s0, 2.0, 0.0, 0.0]
        out = derivatives(exp_composition_derivatives(taylor(derivs, s0), 4), s0)
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
        out = derivatives(exp_composition_derivatives(taylor(derivs, s0), 3), s0)
        f = lambda s: math.exp(-math.log(1.0 + s) - s**3 / 50.0)
        h = 1e-3
        d2 = (f(s0 + h) - 2 * f(s0) + f(s0 - h)) / h**2
        d3 = (-f(s0 - 2 * h) + 2 * f(s0 - h) - 2 * f(s0 + h) + f(s0 + 2 * h)) / (
            2 * h**3
        )
        assert out[2] == pytest.approx(d2, rel=1e-4)
        assert out[3] == pytest.approx(d3, rel=1e-4)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_power_law_transform_closed_form(self, m):
        # eta(s) = m log(1+s): exp(-eta) = (1+s)^(-m), whose n-th derivative
        # is (-1)^n (m)_n (1+s)^(-m-n); eta^(k) = m (-1)^(k+1) (k-1)! (1+s)^(-k)
        s0, n = 0.6, 8
        derivs = [m * math.log1p(s0)] + [
            m * (-1.0) ** (k + 1) * math.factorial(k - 1) * (1.0 + s0) ** -k
            for k in range(1, n + 1)
        ]
        out = exp_composition_derivatives(taylor(derivs, s0), n)
        for k, got in enumerate(out):
            # (m)_k s0^k/k! = binom(m+k-1, k) s0^k
            want = (-1.0) ** k * math.comb(m + k - 1, k) * (1.0 + s0) ** (-m - k) * s0**k
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("a", [0.5, 2.0, 40.0])
    def test_linear_exponent(self, a):
        # eta(s) = a s: the n-th derivative of exp(-a s) is (-a)^n exp(-a s)
        s0, n = 0.3, 6
        out = exp_composition_derivatives(taylor([a * s0, a] + [0.0] * (n - 1), s0), n)
        for k, got in enumerate(out):
            want = (-a * s0) ** k / math.factorial(k) * math.exp(-a * s0)
            assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_faa_di_bruno(self, n):
        # mixed-sign derivatives, so no sign pattern helps either side
        rng = np.random.default_rng(100 + n)
        derivs = [0.4] + list(rng.uniform(-1.5, 1.5, size=n))
        out = derivatives(exp_composition_derivatives(taylor(derivs), n))
        assert out[n] == pytest.approx(_faa_di_bruno(derivs, n), rel=1e-11, abs=1e-14)

    def test_underflow_gives_zeros(self):
        # exp(-800) underflows to 0, so every coefficient is returned as 0
        assert exp_composition_derivatives([800.0, 1e3, -1e3, 1e3], 3) == [0.0] * 4

    def test_requires_enough_derivatives(self):
        with pytest.raises(DomainError):
            exp_composition_derivatives([1.0, 2.0], 2)


def _integer_partitions(n, largest=None):
    """Partitions of n as non-increasing tuples of positive parts."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _integer_partitions(n - part, part):
            yield (part,) + rest


def _faa_di_bruno(eta_derivs, n):
    """d^n/ds^n exp(-eta) by Faa di Bruno's formula: a partition with m_j
    parts equal to j contributes n! / prod(m_j! (j!)^m_j) prod (-eta^(j))^m_j."""
    total = 0.0
    for partition in _integer_partitions(n):
        term = float(math.factorial(n))
        for j in set(partition):
            m_j = partition.count(j)
            term *= (-eta_derivs[j]) ** m_j / (
                math.factorial(m_j) * math.factorial(j) ** m_j
            )
        total += term
    return math.exp(-eta_derivs[0]) * total
