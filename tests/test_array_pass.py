"""The array pass against per-element scalar calls and the scalar loop rule.

Every layer of the closed forms takes numpy arrays: the exponents, the
transform-derivative recursion, the kernel and the integrands. Each array
result must equal the scalar calls element by element, and the UAV-centric
base rule evaluated as one array pass must equal the 12 x 64 tensor rule
written as the per-node Python loop it replaced.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from uavnoma import analytic_uav_centric as uav
from uavnoma.cli import apply_axis, load_config, parse_link, parse_network, parse_sweep
from uavnoma.laplace import (
    NearestRingExponent,
    RadialTailExponent,
    conditional_coverage,
    exp_composition_derivatives,
)
from uavnoma.quadrature import _tensor_rule
from uavnoma.scenario import UAV_CENTRIC, thresholds

REPO = Path(__file__).resolve().parent.parent
DENSITY = 1.0 / (500.0**2 * math.pi)


# numpy's array loops for pow, exp and log1p may differ from its scalar ones
# in the last bit; a few such roundings compound through the recursion
RTOL = 64 * np.finfo(float).eps


def _elementwise(fn, *arrays):
    """fn applied to each element of the broadcast arrays, as nested floats."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in arrays))
    columns = [np.broadcast_to(a, shape).ravel() for a in arrays]
    return [fn(*(float(c[i]) for c in columns)) for i in range(columns[0].size)], shape


class TestExponentArrays:
    @pytest.mark.parametrize("m_interf", [1, 2, 3])
    @pytest.mark.parametrize("alpha_interf", [2.05, 3.0, 4.0])
    def test_radial_tail_matches_scalar_calls(self, m_interf, alpha_interf):
        s = np.array([0.0, 1e2, 3e7, 5e11, 1e16])[:, None] * 1e-6
        d0 = np.array([1.0, 150.0, 1200.0])[None, :]
        order = 5
        got = RadialTailExponent(DENSITY, alpha_interf, m_interf, d0).derivatives(
            s, order
        ).values
        want, shape = _elementwise(
            lambda si, di: RadialTailExponent(
                DENSITY, alpha_interf, m_interf, di
            ).derivatives(si, order).values,
            s,
            d0,
        )
        for k in range(order + 1):
            assert np.shape(got[k]) == shape
            np.testing.assert_allclose(got[k].ravel(), [w[k] for w in want], rtol=RTOL, atol=0)

    @pytest.mark.parametrize("m_interf", [1, 2, 3])
    def test_nearest_ring_matches_scalar_calls(self, m_interf):
        s = np.array([0.0, 1e4, 1e9, 1e14])[:, None] * 1e-6
        R = np.array([20.0, 480.0, 5000.0])[None, :]
        d0 = np.hypot(R, 100.0)
        order = 4
        got = NearestRingExponent(d0 / R, 3.5, m_interf, d0).derivatives(
            s, order
        ).values
        want, _ = _elementwise(
            lambda si, di, ri: NearestRingExponent(
                di / ri, 3.5, m_interf, di
            ).derivatives(si, order).values,
            s,
            d0,
            R,
        )
        for k in range(order + 1):
            np.testing.assert_allclose(got[k].ravel(), [w[k] for w in want], rtol=RTOL, atol=0)


class TestRecursionArrays:
    def test_matches_scalar_calls_with_underflow(self):
        # the last column underflows exp(-a_0) to 0: all its coefficients are 0
        eta = [
            np.array([0.3, 2.0, 40.0, 800.0]),
            np.array([1.0, -0.5, 3.0, 1e3]),
            np.array([-0.2, 0.1, -4.0, -1e3]),
            np.array([0.05, 0.0, 2.0, 1e3]),
        ]
        got = exp_composition_derivatives(eta, 3)
        for i in range(4):
            want = exp_composition_derivatives([float(e[i]) for e in eta], 3)
            np.testing.assert_allclose([g[i] for g in got], want, rtol=RTOL, atol=0)
        assert [float(g[3]) for g in got] == [0.0] * 4


class TestKernelArrays:
    @pytest.mark.parametrize("fading_order", range(1, 7))
    def test_matches_scalar_calls(self, fading_order):
        # columns: an infeasible coefficient, a zero one (s = 0, coverage 1),
        # and finite ones; the last row puts the user so far out that
        # exp(-c noise) underflows to 0 at every finite nonzero coefficient
        cfg = _CFG[fading_order]
        coeff = np.array([math.inf, 0.0, 1e5, 2e6, 4e7])[None, :] * cfg.tx_power
        noise = cfg.noise_power / cfg.tx_power
        dist = np.array([30.0, 150.0, 600.0, 1e9])[:, None]
        R = np.array([40.0, 300.0, 900.0, 2500.0])[:, None]
        ring, tail = uav.laplace_exponent_ucav(cfg, R)
        got = conditional_coverage(
            fading_order, coeff, noise, dist, cfg.alpha_desired, ring, tail
        )
        want, shape = _elementwise(
            lambda ci, di, ri: conditional_coverage(
                fading_order, ci, noise, di, cfg.alpha_desired,
                *uav.laplace_exponent_ucav(cfg, ri),
            ),
            coeff,
            dist,
            R,
        )
        assert got.shape == shape
        np.testing.assert_allclose(got.ravel(), want, rtol=RTOL, atol=0)
        assert np.all(got[:, 0] == 0.0) and np.all(got[-1, 2:] == 0.0)
        assert np.all(got[:, 1] == 1.0)
        assert np.all(got[:-1, 2] > 0.0)

    def test_scalar_input_gives_float(self):
        cfg = _CFG[2]
        value = conditional_coverage(
            2, 1e6 * cfg.tx_power, cfg.noise_power / cfg.tx_power, 120.0,
            cfg.alpha_desired,
            *uav.laplace_exponent_ucav(cfg, 300.0),
        )
        assert type(value) is float


_CFG = {
    m: uav.NetworkConfig(
        uav_density=DENSITY,
        tx_power=1e-6,
        alpha_desired=3.5,
        m_desired=m,
        m_interf=min(m, 3),
        alpha_interf=3.0,
        uav_height=50.0,
    )
    for m in range(1, 7)
}


def _coefficient(role, link, access):
    """The decode coefficient of the near or far user at unit power."""
    if role == uav.NEAR:
        return thresholds(link, UAV_CENTRIC, access).near
    return thresholds(link.with_swapped_rates(), UAV_CENTRIC, access).far


def _loop_rule(role, cfg, link, access):
    """The 12 x 64 tensor rule as the per-node loop with the scalar kernel.

    Radial: 24 nodes in t = t_b y^2 on [0, t_b] and 40 log-spaced nodes on
    [t_b, sqrt(46)] (64 squared ones when t_b is past the cutoff); placement:
    12 nodes linear in r, weighted by the role's density.
    """
    unit = {n: list(zip(*(a.tolist() for a in _unit(n)))) for n in (12, 24, 40, 64)}
    placement = [
        (0.25 * y, 2.0 * y * wy) if role == uav.NEAR
        else (0.25 * (1.0 + y), 2.0 / 3.0 * (1.0 + y) * wy)
        for y, wy in unit[12]
    ]
    root_pl = math.sqrt(math.pi * cfg.uav_density)
    cutoff = math.sqrt(46.0)
    t_b = max(root_pl * cfg.uav_height, 0.2)
    if t_b < cutoff:
        span = math.log(cutoff / t_b)
        radial = [(t_b * y * y, 2.0 * t_b * y * wy) for y, wy in unit[24]]
        radial += [
            (t_b * math.exp(span * y), t_b * math.exp(span * y) * span * wy)
            for y, wy in unit[40]
        ]
    else:
        radial = [(cutoff * y * y, 2.0 * cutoff * y * wy) for y, wy in unit[64]]
    coeff = _coefficient(role, link, access)
    total = 0.0
    for t, wt in radial:
        R = t / root_pl
        weight = 2.0 * t * math.exp(-t * t) * wt
        parts = uav.laplace_exponent_ucav(cfg, R)
        total += weight * sum(
            wq * conditional_coverage(
                cfg.m_desired, coeff, cfg.noise_power / cfg.tx_power,
                math.hypot(q * R, cfg.uav_height), cfg.alpha_desired, *parts,
            )
            for q, wq in placement
        )
    return total


def _unit(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (1.0 + x), 0.5 * w


def _array_base_rule(role, cfg, link, access):
    """Q_n of ``coverage_pair``: its integrand on the base rule of each cell."""
    value = uav._pair_value(role, cfg, link, access)
    integrand = uav._pair_integrand(cfg, [value])
    total = 0.0
    for lo, hi, counts in zip(*uav._cells(value.t_b)):
        (nx, ny), weights = _tensor_rule(counts)
        width = np.subtract(hi, lo)
        owner = np.zeros(nx.size, dtype=int)
        values = integrand(owner, lo[0] + width[0] * nx, lo[1] + width[1] * ny)
        total += width.prod() * np.sum(weights * values)
    return total


def _shipped_uav_points():
    for path in sorted((REPO / "configs").glob("uav_centric_*.json")):
        raw = load_config(str(path))
        cfg, link = parse_network(raw["network"]), parse_link(raw["link"])
        spec = parse_sweep(raw["sweep"])
        for value in spec.values:
            yield f"{path.stem}@{value:g}", (*apply_axis(cfg, link, spec.axis, value), spec.access)


SHIPPED_UAV_POINTS = dict(_shipped_uav_points())


class TestPairBaseRule:
    @pytest.mark.parametrize("point", list(SHIPPED_UAV_POINTS))
    def test_array_pass_equals_loop_rule(self, point):
        cfg, link, access = SHIPPED_UAV_POINTS[point]
        for role in (uav.NEAR, uav.FAR):
            if not math.isfinite(_coefficient(role, link, access)):
                continue
            want = _loop_rule(role, cfg, link, access)
            assert abs(_array_base_rule(role, cfg, link, access) - want) <= 1e-15
