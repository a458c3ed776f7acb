"""Tests for the self-checking Gauss-Legendre integrator.

Expected values are closed-form integrals; the step and the oscillation are
integrands that no rule of bounded depth resolves.
"""

import math
from typing import NamedTuple

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

    def test_no_integrals_no_passes(self):
        assert quadrature.integrate_many(lambda owner, x: 1 / 0, []) == []

    def test_nan_never_passes(self):
        with pytest.raises(NumericalError):
            integrate(lambda x: np.where(x > 0.5, np.nan, 1.0), [[0.0]], [[1.0]], [[4]])

    def test_pass_budget_raises(self, monkeypatch):
        # a wild oscillation in two dimensions fails every cell, so the
        # number of cells quadruples each pass until the budget stops it
        monkeypatch.setattr(quadrature, "_MAX_PASS_NODES", 50_000)
        with pytest.raises(NumericalError, match="nodes") as info:
            integrate(
                lambda x, y: np.sin(1e4 * x * y), [[0.0, 0.0]], [[1.0, 1.0]], [[12, 12]]
            )
        # no cell is final: the estimate is that of the cells still refining
        assert info.value.achieved > TOLERANCE

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


def _layered_bits():
    # the second axis bisects to many final cells of one rule in one round
    value, estimate = integrate(
        lambda x, y: (1.0 + x) * np.exp(-y / 1e-3),
        [[0.0, 0.0]], [[1.0, 1.0]], [[12, 12]],
    )
    return value.hex(), estimate.hex()


class TestSumOrder:
    @pytest.mark.parametrize("runs", ["one", "short", "mixed"])
    @pytest.mark.parametrize("rules", ["shared", "interleaved"])
    def test_value_is_its_cells_added_in_table_order(self, rules, runs):
        # one integral of 37 boxes; integrals of 1 or 2 boxes; integrals of 1
        # to 40 boxes, many past numpy's 8-element pairwise blocks. A cubic
        # is exact in every box, so each box is one final cell whose value
        # is the box's alone; base rules shared, or alternating box by box
        rng = np.random.default_rng(5)
        lengths = {
            "one": [37],
            "short": rng.integers(1, 3, 60),
            "mixed": rng.integers(1, 40, 60),
        }[runs]
        scale = 1e3 ** rng.uniform(-1, 1, len(lengths))
        boxes = []
        for n in lengths:
            lo = rng.uniform(0.0, 10.0, (n, 1))
            hi = lo + rng.uniform(1e-2, 1.0, (n, 1))
            counts = [[4 + 2 * (i % 2) * (rules == "interleaved")] for i in range(n)]
            boxes.append((lo.tolist(), hi.tolist(), counts))

        def cubic(owner, x):
            return scale[owner] * (x**3 - 2.0 * x)

        together = quadrature.integrate_many(cubic, boxes)
        for k, (lo, hi, counts) in enumerate(boxes):
            one = np.full(1, k)
            cells = [
                integrate(lambda x: cubic(one, x), [a], [b], [c])
                for a, b, c in zip(lo, hi, counts)
            ]
            want = [sum((cell[j] for cell in cells), 0.0) for j in (0, 1)]
            assert [q.hex() for q in together[k]] == [q.hex() for q in want]

    def test_bisected_cells_keep_their_bits(self):
        # value and estimate as float.hex of the final cells added one by one
        # in table order; numpy's pairwise x.sum() over each rule's cells
        # moves the last bit of both
        assert _layered_bits() == ("0x1.89374bc6a7f6fp-10", "0x1.0a074b710007ep-31")


class _Row(NamedTuple):
    a: float
    b: float


class TestNodeFields:
    def test_nodes_of_two_integrals_read_their_own_fields(self):
        # the first and the last node belong to the same integral, the
        # middle one does not
        fields = quadrature.NodeFields([_Row(1.0, 10.0), _Row(2.0, 20.0)])
        got = fields.at(np.array([0, 1, 0]))
        assert got.a.tolist() == [1.0, 2.0, 1.0]
        assert got.b.tolist() == [10.0, 20.0, 10.0]

    def test_nodes_of_one_integral_read_its_row(self):
        rows = [_Row(1.0, 10.0), _Row(2.0, 20.0)]
        assert quadrature.NodeFields(rows).at(np.array([1, 1, 1])) is rows[1]


def _unit(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (1.0 + x), 0.5 * w


if __name__ == "__main__":
    print("test_bisected_cells_keep_their_bits:", _layered_bits())
