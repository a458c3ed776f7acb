"""Tests for the self-checking Gauss-Legendre integrator.

Expected values are closed-form integrals; the singularity is an integrand
that no rule of bounded depth resolves, and a NaN region fails at once.
"""

import math
from typing import NamedTuple

import numpy as np
import pytest
from scipy.special import expi, sici

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

    def test_resolvable_oscillation_converges(self):
        # sin(a x y) over the unit square refines to 8.9 million nodes in its
        # largest round, 1,550 passes of at most _PASS_NODES:
        # Int_0^1 (1 - cos(a y)) / (a y) dy = (gamma + ln a - Ci(a)) / a
        a = 3e3
        exact = (np.euler_gamma + math.log(a) - sici(a)[1]) / a
        value, estimate = integrate(
            lambda x, y: np.sin(a * x * y), [[0.0, 0.0]], [[1.0, 1.0]], [[12, 12]]
        )
        assert estimate <= TOLERANCE
        assert abs(value - exact) < 1e-15

    def test_nan_region_in_two_dimensions_raises_at_once(self):
        calls = []

        def half_nan(x, y):
            calls.append(1)
            return np.where(x > 0.5, np.nan, 1.0 + y)

        with pytest.raises(NumericalError, match="after 0 bisections") as info:
            integrate(half_nan, [[0.0, 0.0]], [[1.0, 1.0]], [[12, 12]])
        assert len(calls) == 1 and math.isnan(info.value.achieved)

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


class _NoisyRow(NamedTuple):
    a: float
    noise: float


class TestNodeFields:
    def test_nodes_of_two_integrals_read_their_own_fields(self):
        # the first and the last node belong to the same integral, the
        # middle one does not
        fields = quadrature.NodeFields([_Row(1.0, 10.0), _Row(2.0, 20.0)])
        got = fields.at(np.array([[0, 1, 0]]))
        assert got.a.tolist() == [1.0, 2.0, 1.0]
        assert got.b.tolist() == [10.0, 20.0, 10.0]

    def test_nodes_of_one_integral_read_its_row(self):
        rows = [_Row(1.0, 10.0), _Row(2.0, 20.0)]
        assert quadrature.NodeFields(rows).at(np.array([[1, 1, 1]])) is rows[1]

    def test_shared_nodes_read_one_noise_per_row(self):
        # integrals 0 and 1 share the first two nodes, integrals 2 and 3 the
        # last: every field but the noise is read at the first row
        rows = [_NoisyRow(1.0, 0.1), _NoisyRow(1.0, 0.2), _NoisyRow(2.0, 0.1), _NoisyRow(2.0, 0.4)]
        got = quadrature.NodeFields(rows).at(np.array([[0, 0, 2], [1, 1, 3]]))
        assert got.a.tolist() == [1.0, 1.0, 2.0]
        assert got.noise.tolist() == [[0.1, 0.1, 0.1], [0.2, 0.2, 0.4]]


def _unit(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (1.0 + x), 0.5 * w


if __name__ == "__main__":
    print("test_bisected_cells_keep_their_bits:", _layered_bits())
