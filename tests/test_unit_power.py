"""The closed forms at unit transmit power, and what that lets them share.

M (N + P I_1) = kappa (N/P + I_1): the kernel takes the unit-power decode
coefficient kappa and the noise N/P, and its interference exponents do not
depend on P. A UAV-centric pass keeps the exponents of the one before it
when its R and density are the same, and reuses their Taylor coefficients
at the same s; the radial tail gets its order 0 and 1 coefficients from one
``hyp2f1`` call by a contiguous recurrence, and those of a higher top order
from one call at that order by a backward recurrence. Every value must
still equal, bit for bit, the one computed alone.
"""

import functools
import math
import weakref
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
M_I_BOUND = cli.MAX_CLOSED_FORM_ORDERS["m_interf"]


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
    """The closed forms take m_I up to ``cli.MAX_CLOSED_FORM_ORDERS``; at
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


class TestExponentSum:
    def test_new_s_lets_the_last_coefficients_go_first(self):
        # a recompute must not hold two passes' coefficients at once: when
        # its parts run, the sum keeps none, and no reference to the last
        # ones is left
        seen, last = [], []

        class Part(laplace.LaplaceExponentBase):
            def derivatives(self, s, order):
                seen.append((total.kept, [ref() for ref in last]))
                return laplace.ExponentDerivatives(
                    tuple(np.full(3, float(s)) for _ in range(order + 1)), laplace.SERIES
                )

        total = laplace.ExponentSum(Part())
        first = total.derivatives(1.0, 1)
        assert total.derivatives(1.0, 1) is first  # the memo at equal s
        last[:] = [weakref.ref(value) for value in first.values]
        del first
        total.derivatives(2.0, 1)
        assert seen == [(None, []), (None, [None, None])]


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
        assert len(points) == len(passes) == 8
        assert len(radial) == 1

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
        alone = [uav.pair_quadratures([value], access)[0] for value in values]
        radial, passes = _radial_calls(monkeypatch), _kernel_calls(monkeypatch)
        together = uav.pair_quadratures(values, access)
        assert _bits(together) == _bits(alone)
        assert together[4] == (0.0, 0.0)
        assert len(radial) < len(passes)  # some passes reused

    def test_density_sweep_values_equal_each_value_alone(self):
        values = [
            (role, replace(HIGH, uav_density=DENSITY * f), PAIR_LINK)
            for f in (1.0, 4.0, 16.0, 64.0)
            for role in (uav.NEAR, uav.FAR)
        ]
        alone = [uav.pair_quadratures([value])[0] for value in values]
        assert all(result.value > 0.0 for result in alone)
        assert _bits(uav.pair_quadratures(values)) == _bits(alone)

    def test_equal_R_at_another_density_misses(self, monkeypatch):
        # with t_b above the floor, x < 1 gives R = h x^2 at every density;
        # lam and 4 lam give it bit for bit, as sqrt(pi lam) only doubles.
        # A key on R alone hands 4 lam the exponents of lam here.
        cfg = replace(HIGH, uav_density=DENSITY)
        rows = [
            uav._pair_value(uav.NEAR, replace(cfg, uav_density=DENSITY * f), PAIR_LINK, NOMA)
            for f in (1.0, 4.0)
        ]
        assert all(row.t_b > 0.2 for row in rows)
        x, y = np.linspace(0.1, 0.9, 5), np.linspace(0.1, 0.9, 5)
        R = [row.t_end * x * x / row.root_pl for row in rows]
        np.testing.assert_array_equal(R[0], R[1])
        radial = _radial_calls(monkeypatch)
        integrand = uav._pair_integrand(cfg, rows)
        integrand(np.zeros(5, dtype=int), x, y)
        owner = np.ones(5, dtype=int)
        fresh = uav._pair_integrand(cfg, rows)(owner, x, y)
        assert np.all(fresh > 0.0)
        calls = len(radial)
        np.testing.assert_array_equal(integrand(owner, x, y), fresh)
        assert len(radial) == calls + 1

    def test_nodes_that_differ_miss(self, monkeypatch):
        radial = _radial_calls(monkeypatch)
        row = uav._pair_value(uav.NEAR, SPARSE, PAIR_LINK, NOMA)
        integrand = uav._pair_integrand(SPARSE, [row])
        owner = np.zeros(5, dtype=int)
        x, y = np.linspace(0.1, 1.9, 5), np.linspace(0.1, 0.9, 5)
        first = integrand(owner, x, y)
        np.testing.assert_array_equal(integrand(owner, x.copy(), y.copy()), first)
        assert len(radial) == 1
        for moved_x, moved_y in ((np.nextafter(x, 2.0), y), (x, np.nextafter(y, 1.0))):
            fresh = uav._pair_integrand(SPARSE, [row])(owner, moved_x, moved_y)
            calls = len(radial)
            np.testing.assert_array_equal(integrand(owner, moved_x, moved_y), fresh)
            assert len(radial) == calls + 1
