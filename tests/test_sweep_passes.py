"""A sweep's closed forms share array passes and still equal each value alone.

``quadrature.integrate_many`` packs the cell sets of many integrals into one
call of the integrand, and evaluates the coinciding cells of values that
differ in transmit power alone once, with one row per value. Every value
and error estimate must equal, bit for bit, the one its integral gets
alone; a value that fails alone must fail in company, and one that passes
alone must pass in company.

The sweeps below mix, around a corner of the domain where the rule bisects
(``DOMAIN_PINS``' sparse corner, ``LOW_UAV_PINS``' low UAV): transmit
powers, a ``uav_density`` axis whose points lay out their cells differently
(the split point moves, and at the densest one cell spans the range), an
infeasible coefficient, and, user-centric, r_k beyond the radial cutoff.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from uavnoma import analytic_uav_centric as uav
from uavnoma import analytic_user_centric as uc
from uavnoma import cli, laplace, quadrature
from uavnoma.errors import DomainError, NumericalError
from uavnoma.quadrature import integrate_many
from uavnoma.scenario import NOMA, OMA, NetworkConfig, NomaLink

REPO = Path(__file__).resolve().parent.parent
DENSITY = 1.0 / (500.0**2 * math.pi)

# DOMAIN_PINS' corner "lam/100,h=30m,aD=4.5,m=3": its near user bisects to
# depth 5 alone
SPARSE = NetworkConfig(
    uav_density=DENSITY / 100.0, tx_power=1e-6, alpha_desired=4.5,
    uav_height=30.0, m_desired=3,
)
PAIR_LINK = NomaLink(rate_near=1.5, rate_far=1.0)
# 2^2000 overflows: the near coefficient is infeasible under NOMA and OMA
INFEASIBLE_LINK = NomaLink(rate_near=2000.0, rate_far=1.0)

# LOW_UAV_PINS' case "h=10m,-30dBm": the typical user bisects with r_k far
# out; at the default density r_k = 5000 m lies past the cutoff, u = 46
LOW_UAV = NetworkConfig(
    uav_density=DENSITY, tx_power=1e-6, alpha_desired=4.5, uav_height=10.0,
    m_interf=3, alpha_interf=2.5,
)
RADIAL_LINK = NomaLink(rate_near=1.0, rate_far=0.5, fixed_user_dist=1900.0)


def _uav_points():
    # density x16 moves the split point t_b off 0.2; x1e5 puts it past the
    # cutoff, so one cell spans the range
    return [
        (SPARSE, PAIR_LINK),
        (replace(SPARSE, tx_power=1e-5), PAIR_LINK),
        (SPARSE, INFEASIBLE_LINK),
        *[(replace(SPARSE, uav_density=DENSITY * f), PAIR_LINK) for f in (1.0, 16.0, 1e5)],
    ]


def _radial_points():
    return [
        (LOW_UAV, RADIAL_LINK),
        (LOW_UAV, replace(RADIAL_LINK, fixed_user_dist=5000.0)),
        (LOW_UAV, INFEASIBLE_LINK),
        (replace(LOW_UAV, tx_power=1e-5), RADIAL_LINK),
        *[(replace(LOW_UAV, uav_density=DENSITY * f), RADIAL_LINK) for f in (0.1, 10.0)],
    ]


def _bits(results):
    return [(q.value.hex(), q.estimate.hex()) for q in results]


def _kernel_calls(monkeypatch, module):
    """Count the kernel's calls (one per pass) in ``module``."""
    calls = []
    kernel = module.conditional_coverage

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(module, "conditional_coverage", counted)
    return calls


class TestBitIdentical:
    @pytest.mark.parametrize("access", [NOMA, OMA])
    def test_pair_values_equal_each_value_alone(self, monkeypatch, access):
        values = [(role, cfg, link) for cfg, link in _uav_points() for role in (uav.NEAR, uav.FAR)]
        calls = _kernel_calls(monkeypatch, uav)
        alone = []
        for value in values:
            before = len(calls)
            alone += uav.pair_quadratures([value], access)
            if value == (uav.NEAR, SPARSE, PAIR_LINK):
                assert len(calls) - before > 1  # the sparse near user bisects
        before = len(calls)
        together = uav.pair_quadratures(values, access)
        assert _bits(together) == _bits(alone)
        assert len(calls) - before < before
        assert together[4] == (0.0, 0.0)  # infeasible near user, not integrated
        # the single-value functions are the one-point case
        for (role, cfg, link), result in zip(values, together):
            assert uav.coverage_pair(role, cfg, link, access) == result.value

    @pytest.mark.parametrize("access", [NOMA, OMA])
    def test_radial_values_equal_each_value_alone(self, monkeypatch, access):
        values = [(user, cfg, link) for cfg, link in _radial_points() for user in (uc.TYPICAL, uc.FIXED)]
        calls = _kernel_calls(monkeypatch, uc)
        alone = [uc.radial_quadratures([value], access)[0] for value in values]
        before = len(calls)
        assert before > len(values)  # some values bisect
        together = uc.radial_quadratures(values, access)
        assert _bits(together) == _bits(alone)
        assert len(calls) - before < before
        single = {uc.TYPICAL: uc.coverage_typical, uc.FIXED: uc.coverage_fixed}
        for (user, cfg, link), result in zip(values, together):
            assert single[user](cfg, link, access) == result.value

    @pytest.mark.parametrize("module", [uc, uav])
    def test_sweep_pairs_match_single_values(self, module):
        points = _radial_points() if module is uc else _uav_points()
        got = quadrature.coverage_sweep(module.FORM, points, NOMA)
        if module is uc:
            want = [(uc.coverage_typical(c, l), uc.coverage_fixed(c, l)) for c, l in points]
        else:
            want = [tuple(uav.coverage_pair(r, c, l) for r in (uav.NEAR, uav.FAR)) for c, l in points]
        assert got == want

    @pytest.mark.parametrize("module", [uc, uav])
    def test_points_differing_beyond_the_swept_fields_are_refused(self, module):
        points = [(LOW_UAV, RADIAL_LINK), (replace(LOW_UAV, uav_height=20.0), RADIAL_LINK)]
        with pytest.raises(DomainError, match="tx_power and uav_density"):
            quadrature.coverage_sweep(module.FORM, points, NOMA)


class TestRepeatedRows:
    # along a rate_near sweep the UAV-centric far user's row reads rate_far
    # alone, and so does the user-centric fixed user's under OMA, where each
    # user decodes in its own slot: both rows repeat at every point
    @pytest.mark.parametrize("name", ["uav_centric_rate_noma_m3", "user_centric_rate_oma_m3"])
    def test_each_distinct_row_is_integrated_once(self, monkeypatch, name):
        spec, points = _shipped_sweep(name)
        if name.startswith("uav"):
            integrate, row, roles = uav.pair_quadratures, uav._pair_value, (uav.NEAR, uav.FAR)
        else:
            integrate, row, roles = uc.radial_quadratures, uc._value, (uc.TYPICAL, uc.FIXED)
        values = [(role, cfg, link) for _, cfg, link in points for role in roles]
        alone = [integrate([value], spec.access)[0] for value in values]
        integrals = []
        integrate_many = quadrature.integrate_many

        def counted(integrand, boxes, groups):
            integrals.append(len(boxes))
            return integrate_many(integrand, boxes, groups)

        monkeypatch.setattr(quadrature, "integrate_many", counted)
        together = integrate(values, spec.access)
        assert _bits(together) == _bits(alone)
        distinct = {row(*value, spec.access) for value in values}
        assert integrals == [len(distinct)]
        assert len(distinct) < len(values)


class TestPassBudget:
    def test_sets_that_together_exceed_the_pass_limit_all_pass(self, monkeypatch):
        # each sparse near value alone refines in passes of at most `largest`
        # nodes; the limit is set to that, so the values' refinement passes
        # together exceed it, and packing must keep each pass within it
        values = [
            (uav.NEAR, replace(SPARSE, tx_power=p), PAIR_LINK) for p in (1e-6, 2e-6, 4e-6)
        ]
        sizes, stages = [], []
        kernel = uav.conditional_coverage

        def sized(fading_order, coeff, noise, dist3d, *rest):
            sizes.append(np.size(dist3d))
            stages.append(np.broadcast(noise, dist3d).size)
            return kernel(fading_order, coeff, noise, dist3d, *rest)

        monkeypatch.setattr(uav, "conditional_coverage", sized)
        alone, peaks = [], []
        for value in values:
            sizes.clear()
            alone += uav.pair_quadratures([value])
            peaks.append(max(sizes))
        largest = max(peaks)
        assert sum(peaks) > largest > quadrature._PASS_NODES
        monkeypatch.setattr(quadrature, "_MAX_PASS_NODES", largest)
        sizes.clear()
        together = uav.pair_quadratures(values)
        assert _bits(together) == _bits(alone)
        # the values share nodes (one group): the nodes of their noise
        # stages stay within the limit too
        assert max(sizes) <= largest and max(stages) <= largest
        assert sum(stages) > sum(sizes)

    def test_shared_nodes_count_once_toward_the_budget_and_per_row_toward_the_row_budget(
        self, monkeypatch
    ):
        # four integrals of one group on one box of 5 + 10 nodes: a pass
        # evaluates the box once, one row per integral, while its nodes,
        # every row counted, stay within _PASS_ROW_NODES
        monkeypatch.setattr(quadrature, "_PASS_ROW_NODES", 50)
        seen = []

        def integrand(owner, x):
            seen.append(owner.tolist())
            return np.cos(x + owner)

        boxes = [([[0.0]], [[1.0]], [[5]])] * 4
        together = integrate_many(integrand, boxes, [0] * 4)
        assert [[row[0] for row in rows] for rows in seen] == [[0, 1, 2], [3]]
        alone = [
            integrate_many(lambda owner, x: integrand(owner + k, x), boxes[:1])[0]
            for k in range(4)
        ]
        assert _bits(together) == _bits(alone)

    def test_a_lone_cell_takes_the_rows_of_a_shared_one_in_one_call(self):
        # two integrals of one group and one of its own on one box: one call
        # of two rows, the lone integral's nodes repeating its own row
        seen = []

        def integrand(owner, x):
            seen.append(owner.tolist())
            return np.cos(x + owner)

        boxes = [([[0.0]], [[1.0]], [[5]])] * 3
        together = integrate_many(integrand, boxes, [0, 0, 1])
        assert len(seen) == 1 and len(seen[0]) == 2
        assert set(zip(*seen[0])) == {(0, 1), (2, 2)}
        alone = [
            integrate_many(lambda owner, x: np.cos(x + owner + k), boxes[:1])[0]
            for k in range(3)
        ]
        assert _bits(together) == _bits(alone)

    def test_a_long_power_sweep_keeps_every_pass_within_both_budgets(self, monkeypatch):
        # 40 powers of the shipped UAV-centric power sweep's point: each
        # user's values share their nodes, and a pass holds 8 of them, so
        # the rows times the nodes of every integrand call stay within
        # _PASS_ROW_NODES, and its nodes within _PASS_NODES
        spec, points = _shipped_sweep("uav_centric_power_nlos_ipsic00")
        _, cfg, link = points[0]
        powers = np.linspace(-60.0, 0.0, 40).tolist()
        values = [
            (role, cli.apply_axis(cfg, link, spec.axis, p)[0], link)
            for p in powers for role in (uav.NEAR, uav.FAR)
        ]
        shapes = []
        integrate_many = quadrature.integrate_many

        def recorded(integrand, boxes, groups):
            def shaped(owner, *axes):
                shapes.append(owner.shape)
                return integrand(owner, *axes)

            return integrate_many(shaped, boxes, groups)

        monkeypatch.setattr(quadrature, "integrate_many", recorded)
        together = uav.pair_quadratures(values, spec.access)
        assert shapes == [(8, 7_680)] * 5
        assert max(k * n for k, n in shapes) <= quadrature._PASS_ROW_NODES
        assert max(n for _, n in shapes) <= quadrature._PASS_NODES
        monkeypatch.undo()
        alone = [uav.pair_quadratures([value], spec.access)[0] for value in values]
        assert _bits(together) == _bits(alone)

    def test_passes_hold_whole_sets_up_to_the_budget(self):
        # 40 one-cell integrals of 5 + 10 nodes: whole sets, in order, up to
        # the budget per pass
        seen = []

        def integrand(owner, x):
            seen.append(owner)
            return np.cos(x + owner)

        boxes = [([[0.0]], [[1.0]], [[5]])] * 40
        results = integrate_many(integrand, boxes)
        assert [o.shape for o in seen] == [(1, 15 * 40)]
        for k, result in enumerate(results):
            exact = math.sin(1.0 + k) - math.sin(k)
            assert result.value == pytest.approx(exact, abs=1e-12)

    def test_a_set_over_the_budget_runs_alone(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_PASS_NODES", 100)
        seen = []

        def integrand(owner, x):
            seen.append(sorted(set(owner.ravel().tolist())))
            return np.ones_like(x)

        boxes = [([[0.0]], [[1.0]], [[n]]) for n in (10, 20, 40, 10, 10)]
        integrate_many(integrand, boxes)
        # sizes 30, 60, 120, 30, 30
        assert seen == [[0, 1], [2], [3, 4]]


class TestFailures:
    def test_value_failing_alone_fails_in_company(self, monkeypatch):
        # below the sparse near users' largest pass, above every other value's
        monkeypatch.setattr(quadrature, "_MAX_PASS_NODES", 20_000)
        points = [_uav_points()[0], *_uav_points()[2:]]
        values = [(role, cfg, link) for cfg, link in points for role in (uav.NEAR, uav.FAR)]
        with pytest.raises(NumericalError) as alone:
            uav.pair_quadratures(values[:1])
        for value in values[1:]:
            uav.pair_quadratures([value])
        with pytest.raises(NumericalError) as together:
            uav.pair_quadratures(values)
        assert str(together.value) == str(alone.value)
        assert together.value.achieved == alone.value.achieved

    def test_first_failure_in_order_is_raised(self):
        # integral 1 misses the tolerance (a singularity), integral 3 too;
        # the others converge; the error is integral 1's, as alone
        def integrand(owner, x):
            peak = np.abs(x - 1.0 / math.pi) ** -(0.5 + 0.1 * owner)
            return np.where(owner % 2 == 1, peak, x * x)

        boxes = [([[0.0]], [[1.0]], [[8]])] * 4
        with pytest.raises(NumericalError) as together:
            integrate_many(integrand, boxes)
        with pytest.raises(NumericalError) as alone:
            integrate_many(lambda owner, x: integrand(owner + 1, x), boxes[:1])
        assert str(together.value) == str(alone.value)
        assert together.value.achieved == alone.value.achieved


# Every value and error estimate of the corner sets above, each set
# integrated together, as ``float.hex``. Regenerate these pins and the
# counts below with ``PYTHONPATH=src python tests/test_sweep_passes.py``. Comparing a batch with each value
# alone misses a change in the order of a sum wherever both sides move
# together; segment sums by plain ``np.add.reduceat`` move 4 of these values
# by one ulp. The sparse set (m_d = 3) was last taken when the radial tail's
# orders 0 to 2 came to run down from one top-order call; the low-UAV set
# (m_d = 1) predates the kernel's move to Taylor coefficients.
BISECTING_BITS = {
    ("sparse", NOMA): [
        ("0x1.da5e7ad0bf94fp-7", "0x1.f60d997d73c7cp-35"),
        ("0x1.140b81c4ae36ap-11", "0x1.89e5a6dc30000p-27"),
        ("0x1.3ccf446e14dc6p-5", "0x1.efc2a885b3421p-32"),
        ("0x1.f69e635106b94p-10", "0x1.29a8c58000000p-40"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.140b81c4ae36ap-11", "0x1.89e5a6dc30000p-27"),
        ("0x1.a5eb5a8792e81p-2", "0x1.50b72f1790000p-29"),
        ("0x1.783602bf8d4dbp-5", "0x1.6debf5d000000p-30"),
        ("0x1.3d062cd63f846p-1", "0x1.8e37220000000p-37"),
        ("0x1.44b475eda3603p-3", "0x1.f834d30000000p-36"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
    ],
    ("sparse", OMA): [
        ("0x1.7c0491dd02dd1p-7", "0x1.ce948158fc52ep-33"),
        ("0x1.ad157778b87e1p-11", "0x1.532ad8d04e800p-39"),
        ("0x1.0948cb38856b8p-5", "0x1.f4ca4cd453725p-31"),
        ("0x1.6d25f663f41e9p-9", "0x1.61224b8000000p-40"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.ad157778b87e1p-11", "0x1.532ad8d04e800p-39"),
        ("0x1.5f485bcdd4e74p-2", "0x1.6c552d1b85800p-28"),
        ("0x1.22bf3d2527ef6p-4", "0x1.6f9e16f000000p-29"),
        ("0x1.01c54825d2959p-1", "0x1.8214fd6000000p-33"),
        ("0x1.045ad48bdac40p-2", "0x1.2e86d50000000p-35"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
    ],
    ("low_uav", NOMA): [
        ("0x1.532f60805a29cp-11", "0x1.c194feb800000p-32"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.532f60805a279p-11", "0x1.fa7d361000000p-34"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.537836c49eda4p-11", "0x1.bedee21400000p-32"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.554897ed8f2dbp-12", "0x1.c546e4ce00000p-33"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.2807274d2e786p-12", "0x1.13858683f8000p-26"),
        ("0x0.0p+0", "0x0.0p+0"),
    ],
    ("low_uav", OMA): [
        ("0x1.2ade198c7d656p-11", "0x1.8525d40000000p-37"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.2ade198cabf96p-11", "0x1.5e03850800000p-28"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.2b20ef5fc3e06p-11", "0x1.28416c8000000p-38"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.3781c09a1b104p-12", "0x1.8fa6b78500000p-31"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.9d172ee99e992p-13", "0x1.7f21527ec0000p-31"),
        ("0x0.0p+0", "0x0.0p+0"),
    ],
}

# (integrand calls, noise-free nodes, noise-stage nodes) of every shipped
# config's closed forms, all its points integrated together, and of the
# corner sets: counts that do not depend on the host. Along a power sweep a
# user's values differ in N/P alone, so their nodes count once toward the
# noise-free part of the kernel
SWEEP_COUNTS = {
    "uav_centric_power_los_m2": (1, 7_680, 61_440),
    "uav_centric_power_nlos_ipsic00": (1, 7_680, 61_440),
    "uav_centric_power_nlos_ipsic01": (1, 7_680, 61_440),
    "uav_centric_power_nlos_ipsic05": (1, 3_840, 30_720),
    "uav_centric_rate_noma_m3": (4, 30_720, 30_720),
    "uav_centric_rate_oma_m3": (5, 34_560, 34_560),
    "user_centric_fixed_distance": (1, 6_144, 6_144),
    "user_centric_power_los_m2": (1, 768, 6_144),
    "user_centric_power_nlos_ipsic00": (1, 768, 6_144),
    "user_centric_power_nlos_ipsic01": (1, 768, 6_144),
    "user_centric_power_nlos_ipsic03": (1, 768, 6_144),
    "user_centric_rate_noma_m3": (1, 4_992, 4_992),
    "user_centric_rate_oma_m3": (1, 3_456, 3_456),
}
CORNER_COUNTS = {
    ("sparse", NOMA): (15, 322_560, 330_240),
    ("sparse", OMA): (17, 347_520, 355_200),
    ("low_uav", NOMA): (4, 5_376, 10_368),
    ("low_uav", OMA): (3, 4_992, 9_984),
}
# (calls, elements) of ``laplace.hyp2f1`` over the closed forms of all the
# shipped sweeps above
HYP2F1_COUNTS = (20, 109_824)


def _corner_set(label):
    """The integrating function and the values of one corner set."""
    if label == "sparse":
        roles = (uav.NEAR, uav.FAR)
        return uav.pair_quadratures, [(r, c, l) for c, l in _uav_points() for r in roles]
    users = (uc.TYPICAL, uc.FIXED)
    return uc.radial_quadratures, [(u, c, l) for c, l in _radial_points() for u in users]


def _counted(monkeypatch):
    """[integrand calls, noise-free nodes, noise-stage nodes], counted over
    every ``integrate_many`` call: a node that k values share counts once
    toward the noise-free part of the kernel and k times toward its noise
    stage."""
    counts = [0, 0, 0]
    integrate_many = quadrature.integrate_many

    def counting(integrand, boxes, groups):
        def counted(owner, *axes):
            counts[0] += 1
            counts[1] += owner.shape[1]
            counts[2] += owner.size
            return integrand(owner, *axes)

        return integrate_many(counted, boxes, groups)

    monkeypatch.setattr(quadrature, "integrate_many", counting)
    return counts


def _shipped_sweep(name):
    """The analytic sweep spec of shipped config ``name`` and its points, as
    (value, cfg, link)."""
    raw = cli.load_config(str(REPO / "configs" / f"{name}.json"))
    cfg, link = cli.parse_network(raw["network"]), cli.parse_link(raw["link"])
    spec = cli.parse_sweep({**raw["sweep"], "mode": "analytic"})
    return spec, [(v, *cli.apply_axis(cfg, link, spec.axis, v)) for v in spec.values]


def _sweep_counts(monkeypatch, name):
    """(integrand calls, noise-free nodes, noise-stage nodes) of shipped
    config ``name``'s closed forms."""
    spec, points = _shipped_sweep(name)
    counts = _counted(monkeypatch)
    cli._analytic_sweep(spec, points)
    return tuple(counts)


def _corner_counts(monkeypatch, label, access):
    """(integrand calls, noise-free nodes, noise-stage nodes) of one corner
    set."""
    integrate, values = _corner_set(label)
    counts = _counted(monkeypatch)
    integrate(values, access)
    return tuple(counts)


def _hyp2f1_counts(monkeypatch):
    """(``hyp2f1`` calls, elements) of the closed forms of every shipped
    sweep."""
    sizes = []
    hyp2f1 = laplace.hyp2f1

    def counted(a, b, c, z):
        sizes.append(np.size(z))
        return hyp2f1(a, b, c, z)

    monkeypatch.setattr(laplace, "hyp2f1", counted)
    for name in SWEEP_COUNTS:
        cli._analytic_sweep(*_shipped_sweep(name))
    return len(sizes), sum(sizes)


class TestPinnedBits:
    @pytest.mark.parametrize("label,access", list(BISECTING_BITS))
    def test_corner_sets_keep_every_bit(self, label, access):
        integrate, values = _corner_set(label)
        assert _bits(integrate(values, access)) == BISECTING_BITS[label, access]


class TestPinnedCounts:
    def test_every_shipped_config_is_pinned(self):
        assert sorted(SWEEP_COUNTS) == sorted(p.stem for p in (REPO / "configs").glob("*.json"))

    @pytest.mark.parametrize("name", list(SWEEP_COUNTS))
    def test_shipped_sweeps(self, monkeypatch, name):
        assert _sweep_counts(monkeypatch, name) == SWEEP_COUNTS[name]

    @pytest.mark.parametrize("label,access", list(CORNER_COUNTS))
    def test_corner_sets(self, monkeypatch, label, access):
        assert _corner_counts(monkeypatch, label, access) == CORNER_COUNTS[label, access]

    def test_hyp2f1_over_the_shipped_sweeps(self, monkeypatch):
        assert _hyp2f1_counts(monkeypatch) == HYP2F1_COUNTS


if __name__ == "__main__":
    names = {NOMA: "NOMA", OMA: "OMA"}

    def _key(label, access):
        return f'("{label}", {names[access]})'

    def _count(counts):
        return "(" + ", ".join(f"{n:_}" for n in counts) + ")"

    print("BISECTING_BITS = {")
    for label, access in BISECTING_BITS:
        integrate, values = _corner_set(label)
        print(f"    {_key(label, access)}: [")
        for value, estimate in _bits(integrate(values, access)):
            print(f'        ("{value}", "{estimate}"),')
        print("    ],")
    print("}")
    with pytest.MonkeyPatch.context() as patch:
        print("SWEEP_COUNTS = {")
        for name in SWEEP_COUNTS:
            print(f'    "{name}": {_count(_sweep_counts(patch, name))},')
        print("}")
        print("CORNER_COUNTS = {")
        for label, access in CORNER_COUNTS:
            counts = _corner_counts(patch, label, access)
            print(f"    {_key(label, access)}: {_count(counts)},")
        print("}")
    with pytest.MonkeyPatch.context() as patch:
        print(f"HYP2F1_COUNTS = {_count(_hyp2f1_counts(patch))}")
