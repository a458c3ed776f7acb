"""The closed forms at unit transmit power, and what that lets them share.

M (N + P I_1) = kappa (N/P + I_1): the kernel takes the unit-power decode
coefficient kappa and the noise N/P, and its interference exponents do not
depend on P. Values that differ in N/P alone share one evaluation of the
exponents' Taylor coefficients, one kernel call on a leading axis of
noises; the radial tail gets its order 0 and 1 coefficients from one
``hyp2f1`` call by a contiguous recurrence, and those of a higher top order
from one call at that order by a backward recurrence. Every value must
still equal, bit for bit, the one computed alone.
"""

import functools
import math
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

from uavnoma import analytic_uav_centric as uav
from uavnoma import cli, laplace, quadrature
from uavnoma.laplace import RadialTailExponent
from uavnoma.scenario import NOMA, OMA

from test_sweep_passes import INFEASIBLE_LINK, PAIR_LINK, SPARSE, _bits

REPO = Path(__file__).resolve().parent.parent
DENSITY = 1.0 / (500.0**2 * math.pi)
# a 300 m UAV puts t_b = sqrt(pi lam) h above its 0.2 floor from lam = DENSITY
# up; at 0 dBm and m_d = 1 its coverage is far from 0 at every density
HIGH = replace(
    SPARSE, uav_density=DENSITY, uav_height=300.0, tx_power=1e-3, alpha_desired=3.0,
    m_desired=1,
)


def _eta_and_slope(m_i, alpha_i, z):
    """a_0 = eta and a_1 = z eta'(z) of the radial tail at unit C = pi lam
    d0^2, in 40 digits, from the short form eta = 2F1(mI, -dI; 1-dI; -z) - 1,
    which cancels in floats but not at this precision."""
    with mpmath.workdps(40):
        delta = mpmath.mpf(2) / alpha_i

        def eta(x):
            return mpmath.hyp2f1(m_i, -delta, 1 - delta, -x) - 1

        z = mpmath.mpf(z)
        return eta(z), z * mpmath.diff(eta, z)


# z of the recurrence tests, as in ``test_orders_zero_and_one_match_mpmath``
Z_GRID = np.logspace(-12, 12, 25)


@functools.cache
def _coefficients(m_i, alpha_i, top=20):
    """a_0..a_top of the radial tail at unit C = pi lam d0^2 on ``Z_GRID``,
    one array per order, each 2F1 in 40 digits."""
    with mpmath.workdps(40):
        delta = mpmath.mpf(2) / alpha_i
        rows = []
        for z in map(mpmath.mpf, Z_GRID):
            head = sum(mpmath.hyp2f1(i, 1 - delta, 2 - delta, -z) for i in range(1, m_i + 1))
            row = [z * delta / (1 - delta) * head]
            for k in range(1, top + 1):
                power_hyp = z**k * mpmath.hyp2f1(m_i + k, k - delta, k + 1 - delta, -z)
                sign_binom = (-1) ** (k + 1) * mpmath.binomial(m_i + k - 1, k)
                row.append(sign_binom * delta / (k - delta) * power_hyp)
            rows.append([float(a) for a in row])
    return np.array(rows).T


class TestRecurrence:
    @pytest.mark.parametrize("m_interf", [1, 2, 3, 5])
    @pytest.mark.parametrize("alpha_interf", [2.05, 2.5, 4.0, 6.0])
    def test_orders_zero_and_one_match_mpmath(self, m_interf, alpha_interf):
        # d0 = 1 and unit power give z = s / mI; C = pi lam
        scale = math.pi * DENSITY
        exponent = RadialTailExponent(DENSITY, alpha_interf, m_interf, 1.0)
        for z in np.logspace(-12, 12, 25):
            a0, a1 = exponent.derivatives(m_interf * z, 1).values
            want0, want1 = _eta_and_slope(m_interf, alpha_interf, z)
            assert a0 / scale == pytest.approx(float(want0), rel=1e-12, abs=0)
            assert a1 / scale == pytest.approx(float(want1), rel=1e-12, abs=0)

    @pytest.mark.parametrize("m_interf", [1, 2, 3, 5])
    @pytest.mark.parametrize("alpha_interf", [2.05, 2.5, 4.0, 6.0, 12.0])
    @pytest.mark.parametrize("order", [2, 3, 5, 10, 20])
    def test_every_order_from_the_top_call_matches_mpmath(
        self, m_interf, alpha_interf, order
    ):
        # orders 0..K run down from the one 2F1 call at K
        scale = math.pi * DENSITY
        exponent = RadialTailExponent(DENSITY, alpha_interf, m_interf, 1.0)
        got = exponent.derivatives(m_interf * Z_GRID, order).values
        want = _coefficients(m_interf, alpha_interf)
        for k in range(order + 1):
            np.testing.assert_allclose(got[k] / scale, want[k], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("m_interf", [1, 3])
    @pytest.mark.parametrize("order", [0, 1, 2, 4, 20])
    def test_one_call_per_order_past_the_first(self, monkeypatch, m_interf, order):
        # orders 0 and 1 from the contiguous run, higher orders from the top
        # call by the backward recurrence: one call at every order
        calls = []
        hyp2f1 = laplace.hyp2f1

        def counted(*args):
            calls.append(args[0])
            return hyp2f1(*args)

        monkeypatch.setattr(laplace, "hyp2f1", counted)
        s = np.array([1e2, 1e9, 1e16]) * 1e-6
        RadialTailExponent(DENSITY, 3.0, m_interf, 150.0).derivatives(s, order)
        assert len(calls) == 1


# the highest interferer fading order the closed forms take
M_I_BOUND = quadrature.MAX_CLOSED_FORM_ORDERS["m_interf"]


def _ring_coefficients(m_i, weight, top=20):
    """a_0..a_top of the nearest-ring exponent w (1 - (1 + z(1 + x))^(-mI))
    in x on ``Z_GRID``, in 40 digits: the Taylor coefficients c_k of
    g = (1 + z + z x)^(-mI) follow from (1 + z + z x) g' = -mI z g as
    c_(k+1) = -z (mI + k) c_k / ((1 + z)(k + 1))."""
    with mpmath.workdps(40):
        rows = []
        for z in map(mpmath.mpf, Z_GRID):
            c = [(1 + z) ** -m_i]
            for k in range(top):
                c.append(-z * (m_i + k) * c[-1] / ((1 + z) * (k + 1)))
            rows.append([weight * (1 - c[0])] + [-weight * ck for ck in c[1:]])
    return np.array(rows, dtype=float).T


class TestInterferenceOrderBound:
    """The closed forms take m_I up to ``quadrature.MAX_CLOSED_FORM_ORDERS``; at
    that order both exponents' Taylor coefficients match mpmath. From about
    m_I = 12 the radial tail's recurrences lose more than 1e-12, and from 18
    its order-0 coefficient loses every digit at large z."""

    @pytest.mark.parametrize("alpha_interf", [2.05, 2.5, 4.0, 6.0, 12.0])
    @pytest.mark.parametrize("order", [1, 2, 3, 5, 10, 20])
    def test_radial_tail_matches_mpmath(self, alpha_interf, order):
        # order 1 takes the contiguous run, higher orders the top call
        scale = math.pi * DENSITY
        exponent = RadialTailExponent(DENSITY, alpha_interf, M_I_BOUND, 1.0)
        got = exponent.derivatives(M_I_BOUND * Z_GRID, order).values
        want = _coefficients(M_I_BOUND, alpha_interf)
        for k in range(order + 1):
            np.testing.assert_allclose(got[k] / scale, want[k], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("m_interf", [1, 2, 5, M_I_BOUND])
    def test_nearest_ring_matches_mpmath(self, m_interf):
        # d0 = 1 gives q = 1/mI, so s = mI z
        ring = laplace.NearestRingExponent(0.75, 4.0, m_interf, 1.0)
        got = ring.derivatives(m_interf * Z_GRID, 20).values
        want = _ring_coefficients(m_interf, 0.75)
        for k in range(21):
            np.testing.assert_allclose(got[k], want[k], rtol=1e-12, atol=0)


class TestNoiseAxis:
    """A vector of noises on a leading axis runs the exponents once and
    gives, row by row, the bits of each noise alone."""

    @pytest.mark.parametrize("fading_order", [1, 2, 5])
    def test_rows_equal_each_noise_alone(self, monkeypatch, fading_order):
        # an infinite coefficient, and noises whose term exp(-c N) underflows
        d = np.linspace(40.0, 4000.0, 97)
        coeff = np.where(np.arange(97) % 13 == 0, np.inf, 3.0)
        parts = uav.laplace_exponent_ucav(HIGH, np.hypot(d, 10.0))
        noises = np.array([0.0, 1e-12, 1e-9, 1e-6, 1e3])
        radial = _radial_calls(monkeypatch)
        rows = laplace.conditional_coverage(fading_order, coeff, noises[:, None], d, 3.5, *parts)
        assert rows.shape == (5, 97)
        assert len(radial) == 1
        for row, noise in zip(rows, noises):
            alone = laplace.conditional_coverage(fading_order, coeff, noise, d, 3.5, *parts)
            np.testing.assert_array_equal(row, alone)
        assert not rows[-1].any() and rows[0].any()

    def test_scalar_nodes_take_a_vector(self):
        parts = uav.laplace_exponent_ucav(HIGH, 800.0)
        noises = np.array([0.0, 1e-9])
        got = laplace.conditional_coverage(2, 3.0, noises, 500.0, 3.5, *parts)
        want = [laplace.conditional_coverage(2, 3.0, n, 500.0, 3.5, *parts) for n in noises]
        assert got.tolist() == want


def _radial_calls(monkeypatch):
    """Count the calls of ``RadialTailExponent.derivatives``."""
    calls = []
    derivatives = RadialTailExponent.derivatives

    def counted(self, s, order):
        calls.append(np.size(s))
        return derivatives(self, s, order)

    monkeypatch.setattr(RadialTailExponent, "derivatives", counted)
    return calls


def _kernel_calls(monkeypatch):
    calls = []
    kernel = uav.conditional_coverage

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(uav, "conditional_coverage", counted)
    return calls


def _shipped_points(name):
    raw = cli.load_config(str(REPO / "configs" / f"{name}.json"))
    cfg, link = cli.parse_network(raw["network"]), cli.parse_link(raw["link"])
    spec = cli.parse_sweep(raw["sweep"])
    return [cli.apply_axis(cfg, link, spec.axis, v) for v in spec.values], spec.access


class TestReuse:
    def test_power_sweep_evaluates_its_exponents_once(self, monkeypatch):
        points, access = _shipped_points("uav_centric_power_nlos_ipsic00")
        radial, passes = _radial_calls(monkeypatch), _kernel_calls(monkeypatch)
        quadrature.coverage_sweep(uav.FORM, points, access)
        assert len(points) == 8
        assert len(passes) == len(radial) == 1

    def test_rate_sweep_evaluates_them_once_per_distinct_pass(self, monkeypatch):
        # below rate 0.75 the near user's coefficient is its partner decode's,
        # which rate_near does not move, and the far user's depends on
        # rate_far alone: the 16 values hold 8 distinct rows, integrated once
        # each, two to a pass, and each pass evaluates the exponents once
        points, access = _shipped_points("uav_centric_rate_noma_m3")
        distinct = {
            uav._pair_value(role, cfg, link, access)
            for cfg, link in points
            for role in (uav.NEAR, uav.FAR)
        }
        radial, passes = _radial_calls(monkeypatch), _kernel_calls(monkeypatch)
        quadrature.coverage_sweep(uav.FORM, points, access)
        assert len(distinct) == 8
        assert len(passes) == len(radial) == 4

    def test_lone_point_evaluates_them_once(self, monkeypatch):
        points, access = _shipped_points("uav_centric_power_nlos_ipsic00")
        radial, passes = _radial_calls(monkeypatch), _kernel_calls(monkeypatch)
        quadrature.coverage_sweep(uav.FORM, points[3:4], access)
        assert len(radial) == len(passes) == 1

    @pytest.mark.parametrize("access", [NOMA, OMA])
    def test_power_sweep_values_equal_each_value_alone(self, monkeypatch, access):
        # the sparse near users bisect; the infeasible near value in the
        # middle shifts the pairing of the passes after it
        links = [PAIR_LINK, PAIR_LINK, INFEASIBLE_LINK, PAIR_LINK, PAIR_LINK]
        powers = [1e-6, 1e-5, 1e-5, 1e-4, 1e-3]
        values = [
            (role, replace(SPARSE, tx_power=p), link)
            for p, link in zip(powers, links)
            for role in (uav.NEAR, uav.FAR)
        ]
        radial = _radial_calls(monkeypatch)
        alone = [uav.pair_quadratures([value], access)[0] for value in values]
        calls_alone = len(radial)
        together = uav.pair_quadratures(values, access)
        assert _bits(together) == _bits(alone)
        assert together[4] == (0.0, 0.0)
        assert len(radial) - calls_alone < calls_alone  # some exponents shared

    def test_density_sweep_values_equal_each_value_alone(self):
        values = [
            (role, replace(HIGH, uav_density=DENSITY * f), PAIR_LINK)
            for f in (1.0, 4.0, 16.0, 64.0)
            for role in (uav.NEAR, uav.FAR)
        ]
        alone = [uav.pair_quadratures([value])[0] for value in values]
        assert all(result.value > 0.0 for result in alone)
        assert _bits(uav.pair_quadratures(values)) == _bits(alone)
