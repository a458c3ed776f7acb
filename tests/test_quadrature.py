"""Tests for the self-checking Gauss-Legendre integrator.

Expected values are closed-form integrals; the step and the oscillation are
integrands that no rule of bounded depth resolves.
"""

import math

import numpy as np
import pytest
from scipy.special import expi

from uavnoma import quadrature
from uavnoma.errors import NumericalError
from uavnoma.quadrature import TOLERANCE, integrate


class TestIntegrate:
    def test_polynomial_is_exact_with_zero_estimate(self):
        # 5 nodes integrate degree 9 exactly; so do 10
        value, estimate = integrate(lambda x: x**9, [[0.0]], [[2.0]], [[5]])
        assert value == pytest.approx(2.0**10 / 10.0, rel=1e-14)
        assert estimate < 1e-12

    def test_union_of_cells(self):
        # cells with different base rules share one pass
        value, _ = integrate(
            np.exp, [[0.0], [1.0], [3.0]], [[1.0], [3.0], [4.0]], [[4], [8], [6]]
        )
        assert value == pytest.approx(math.e**4 - 1.0, rel=1e-13)

    def test_tensor_product_in_two_dimensions(self):
        value, estimate = integrate(
            lambda x, y: np.cos(x) * np.exp(-y), [[0.0, 0.0]], [[1.0, 2.0]], [[8, 8]]
        )
        assert value == pytest.approx(math.sin(1.0) * (1.0 - math.exp(-2.0)), rel=1e-14)
        assert estimate <= TOLERANCE

    def test_sharp_peak_is_refined_to_tolerance(self):
        # a Lorentzian of width 1e-3 at an off-grid point: 8 and 16 nodes on
        # [0, 1] disagree, so the rule must bisect down to the peak
        width, center = 1e-3, 1.0 / math.pi

        def peak(x):
            return 1.0 / (1.0 + ((x - center) / width) ** 2)

        exact = width * (math.atan((1.0 - center) / width) + math.atan(center / width))
        coarse, fine = (np.sum(w * peak(x)) for x, w in (_unit(8), _unit(16)))
        assert abs(coarse - fine) > TOLERANCE
        value, estimate = integrate(peak, [[0.0]], [[1.0]], [[8]])
        assert estimate <= TOLERANCE
        assert abs(value - exact) < TOLERANCE

    def test_sharp_feature_along_second_axis_is_refined(self):
        # the feature sits in y alone, as the near user's coverage does when
        # it falls off within a few percent of the disc
        def f(x, y):
            return (1.0 + x) * np.exp(-y / 2e-3)

        value, estimate = integrate(f, [[0.0, 0.0]], [[1.0, 1.0]], [[12, 12]])
        exact = 1.5 * 2e-3 * (1.0 - math.exp(-500.0))
        assert estimate <= TOLERANCE
        assert abs(value - exact) < TOLERANCE

    def test_singularity_cannot_be_resolved_and_raises(self):
        # |x - c|^(-1/2): the cell of width w that holds the singularity keeps
        # an error of order sqrt(w), 3e-2 still after the last bisection
        with pytest.raises(NumericalError) as info:
            integrate(
                lambda x: np.abs(x - 1.0 / math.pi) ** -0.5, [[0.0]], [[1.0]], [[8]]
            )
        assert info.value.achieved > TOLERANCE

    def test_nan_never_passes(self):
        with pytest.raises(NumericalError):
            integrate(lambda x: np.where(x > 0.5, np.nan, 1.0), [[0.0]], [[1.0]], [[4]])

    def test_pass_budget_raises(self, monkeypatch):
        # a wild oscillation in two dimensions fails every cell, so the
        # number of cells quadruples each pass until the budget stops it
        monkeypatch.setattr(quadrature, "_MAX_PASS_NODES", 50_000)
        with pytest.raises(NumericalError, match="nodes"):
            integrate(
                lambda x, y: np.sin(1e4 * x * y), [[0.0, 0.0]], [[1.0, 1.0]], [[12, 12]]
            )

    @pytest.mark.parametrize("tol", [1e-4, 1e-7, 1e-10])
    def test_estimate_stays_within_tolerance(self, monkeypatch, tol):
        # the estimates of the final cells sum to at most the tolerance
        monkeypatch.setattr(quadrature, "TOLERANCE", tol)
        # u = t^2: Int_0^46 e^(-u) / (1 + 1e3 u) du in exponential integrals
        exact = 1e-3 * math.exp(1e-3) * (expi(-46.001) - expi(-1e-3))
        value, estimate = integrate(
            lambda t: 2.0 * t * np.exp(-t * t) / (1.0 + 1e3 * t * t),
            [[0.0]], [[math.sqrt(46.0)]], [[16]],
        )
        assert estimate <= tol
        assert abs(value - exact) <= tol


def _unit(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (1.0 + x), 0.5 * w
