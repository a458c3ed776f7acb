"""Tests for the seeded Monte Carlo engine."""

import dataclasses
import math

import numpy as np
import pytest

from uavnoma.errors import DomainError
from uavnoma.montecarlo import (
    UavCentricTrials,
    UserCentricTrials,
    _trial_rng,
    estimate_uav_centric,
    estimate_user_centric,
    evaluate_uav_centric,
    evaluate_user_centric,
    run_uav_centric,
    run_user_centric,
    simulate_uav_centric,
    simulate_user_centric,
    uav_centric_geometry_key,
    user_centric_geometry_key,
    wilson_interval,
)
from uavnoma.scenario import NOMA, OMA, NetworkConfig, NomaLink
from uavnoma.spatial import sample_hppp_disc

DENSITY = 1.0 / (500.0**2 * math.pi)


def make_cfg(**kw):
    base = dict(
        uav_density=DENSITY,
        tx_power=1e-6,
        alpha_desired=3.0,
        uav_height=100.0,
        alpha_interf=4.0,
    )
    base.update(kw)
    return NetworkConfig(**base)


LINK = NomaLink(rate_near=1.0, rate_far=0.5, ipsic=0.0, fixed_user_dist=300.0)


class TestWilson:
    def test_zero_successes(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0 and high > 0.0

    def test_all_successes(self):
        low, high = wilson_interval(50, 50)
        assert high == 1.0 and low < 1.0

    def test_frozen_midpoint_case(self):
        # closed-form Wilson bounds at z = norm.ppf(0.995)
        low, high = wilson_interval(50, 100, 0.99)
        assert low == pytest.approx(0.37527962504483986, rel=1e-12)
        assert high == pytest.approx(0.6247203749551602, rel=1e-12)

    def test_ordering_invariant(self):
        for successes in (0, 3, 17, 50):
            low, high = wilson_interval(successes, 50)
            p = successes / 50
            assert 0.0 <= low <= p <= high <= 1.0

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            wilson_interval(0, 0)


class TestDeterminism:
    def test_bit_exact_rerun(self):
        cfg = make_cfg()
        a, fa = run_user_centric(cfg, LINK, NOMA, 400, seed=99)
        b, fb = run_user_centric(cfg, LINK, NOMA, 400, seed=99)
        assert a.p_hat == b.p_hat and fa.p_hat == fb.p_hat

    def test_seed_changes_result(self):
        cfg = make_cfg()
        a, _ = run_user_centric(cfg, LINK, NOMA, 400, seed=1)
        b, _ = run_user_centric(cfg, LINK, NOMA, 400, seed=2)
        assert not np.array_equal(a.p_hat, b.p_hat)

    def test_pooled_counts_match_binomial_spread(self):
        # 20 independent seeds: the spread of estimates is compatible with
        # binomial noise
        cfg = make_cfg()
        trials = 300
        estimates = []
        for seed in range(20):
            est, _ = run_user_centric(cfg, LINK, NOMA, trials, seed=seed)
            estimates.append(est.p_hat)
        p_bar = float(np.mean(estimates))
        sigma = math.sqrt(p_bar * (1.0 - p_bar) / trials)
        spread = float(np.std(estimates))
        assert 0.3 * sigma < spread < 3.0 * sigma


# Pinned draws of both geometry phases (400 trials, seed 77). Any change to
# the per-trial stream layout (draw order, draw count, or how a draw becomes
# a distance, gain or interference sum) moves these numbers. Values are
# batch fields at trials 3 and 5; counts are (typical, fixed) or (near, far)
# successes; "empty" counts the trials with no UAV in the disc.
STREAM_PINS = {
    # lam pi r^2 = 400 UAVs on average
    "default": dict(
        cfg={},
        uc_counts=[(219, 347), (257, 383), (339, 396)],
        uc_empty=0,
        uc_values={
            3: [349.03373030826447, 3.892753344970292e-11, 5.788515323079571e-12,
                1.3088291190339263, 0.6687927145299484],
            5: [651.0429646338898, 9.656657281262318e-12, 1.2264739472754127e-10,
                0.8919026408784114, 0.2618435572193865],
        },
        uav_counts=[(206, 169), (188, 168), (31, 169)],
        uav_empty=0,
        uav_values={
            3: [334.40177166531623, 111.91051168621865, 174.26330937319062,
                3.367924048252412e-11, 4.531000587836775e-11, 0.6687927145299484,
                0.3133372520891722],
            5: [643.3171393638478, 117.54201829746107, 310.5409559886708,
                8.573995972007537e-12, 1.5829317036634962e-11, 0.2618435572193865,
                0.3714302678325047],
        },
    ),
    "nakagami": dict(
        cfg=dict(m_desired=3, m_interf=2, alpha_interf=3.5),
        uc_counts=[(211, 381), (259, 400), (361, 400)],
        uc_empty=0,
        uc_values={
            3: [349.03373030826447, 6.609382775498126e-10, 5.149075787741949e-10,
                1.0364367753150148, 0.6621421535422861],
            5: [651.0429646338898, 2.950343546408313e-10, 2.8766673550763765e-09,
                1.132971757581384, 2.4641299848136593],
        },
        uav_counts=[(264, 193), (227, 189), (10, 193)],
        uav_empty=0,
        uav_values={
            3: [334.40177166531623, 111.91051168621865, 174.26330937319062,
                1.0639307486119906e-09, 9.90824427147674e-10, 0.14267275789731013,
                1.3852784920935708],
            5: [643.3171393638478, 117.54201829746107, 310.5409559886708,
                4.2917194477542807e-10, 2.3925301908761827e-10, 1.2900912780758664,
                0.5884744521420776],
        },
    ),
    # lam pi r^2 = 0.69: about half the discs hold no UAV
    "sparse": dict(
        cfg=dict(sim_disc_radius=416.0),
        uc_counts=[(187, 188), (196, 204), (206, 210)],
        uc_empty=188,
        uc_values={
            3: [math.inf, 0.0, 0.0, 0.0, 0.0],
            5: [236.77727950080333, 0.0, 0.0, 2.6919181963061396, 1.2156969736922045],
        },
        uav_counts=[(248, 231), (229, 227), (39, 231)],
        uav_empty=188,
        uav_values={
            3: [416.0, 107.45280919951897, 183.34593235607164, 0.0, 0.0,
                0.24305027599294252, 1.7560958188391462],
            5: [214.6240435920485, 108.81024938892311, 140.02036469691186,
                5.550671562996168e-11, 2.940751715858623e-10, 1.2156969736922045,
                1.0350247706363966],
        },
    ),
}


class TestStreamLayout:
    @pytest.mark.parametrize("name", sorted(STREAM_PINS))
    def test_pinned_draws(self, name):
        pins = STREAM_PINS[name]
        cfg = make_cfg(**pins["cfg"])
        link_b = NomaLink(rate_near=0.5, rate_far=0.25, ipsic=0.1, fixed_user_dist=150.0)
        link_c = NomaLink(rate_near=2.0, rate_far=0.5, ipsic=0.1)

        uc = simulate_user_centric(cfg, LINK.fixed_user_dist, 400, seed=77)
        uc_b = simulate_user_centric(cfg, link_b.fixed_user_dist, 400, seed=77)
        assert [
            evaluate_user_centric(uc, cfg, LINK, NOMA),
            evaluate_user_centric(uc, cfg, LINK, OMA),
            evaluate_user_centric(uc_b, cfg, link_b, NOMA),
        ] == pins["uc_counts"]
        assert int(np.sum(np.isinf(uc.serving_dist3d))) == pins["uc_empty"]
        for t, values in pins["uc_values"].items():
            drawn = [
                uc.serving_dist3d[t],
                uc.interference_typical[t],
                uc.interference_fixed[t],
                uc.gain_typical[t],
                uc.gain_fixed[t],
            ]
            assert drawn == pytest.approx(values, rel=1e-12)

        uav = simulate_uav_centric(cfg, 400, seed=77)
        weak = dataclasses.replace(cfg, tx_power=1e-8)
        assert [
            evaluate_uav_centric(uav, weak, LINK, NOMA),
            evaluate_uav_centric(uav, weak, LINK, OMA),
            evaluate_uav_centric(uav, weak, link_c, NOMA),
        ] == pins["uav_counts"]
        empty = uav.neighbor_dist == cfg.sim_disc_radius
        assert int(np.sum(empty)) == pins["uav_empty"]
        assert not np.any(uav.interference_near[empty])
        for t, values in pins["uav_values"].items():
            drawn = [
                uav.neighbor_dist[t],
                uav.near_dist3d[t],
                uav.far_dist3d[t],
                uav.interference_near[t],
                uav.interference_far[t],
                uav.gain_near[t],
                uav.gain_far[t],
            ]
            assert drawn == pytest.approx(values, rel=1e-12)


def _simulate_strategy(strategy, cfg, trials, seed):
    if strategy == "user":
        return simulate_user_centric(cfg, LINK.fixed_user_dist, trials, seed)
    return simulate_uav_centric(cfg, trials, seed)


STRATEGIES = ["user", "uav"]


class TestSkeleton:
    """The geometry-phase loop both strategies share."""

    @pytest.mark.parametrize("trials", [0, -1])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_rejects_trial_count_below_one(self, strategy, trials):
        with pytest.raises(DomainError):
            _simulate_strategy(strategy, make_cfg(), trials, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_rejects_seed_outside_64_bits(self, strategy, seed):
        with pytest.raises(DomainError):
            _simulate_strategy(strategy, make_cfg(), 10, seed=seed)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_shorter_run_is_a_prefix(self, strategy):
        # trial t draws from its own stream, so a run of 40 trials is the
        # first 40 trials of a run of 100 under the same seed
        cfg = make_cfg()
        short = _simulate_strategy(strategy, cfg, 40, seed=8)
        long = _simulate_strategy(strategy, cfg, 100, seed=8)
        for field in dataclasses.fields(short):
            value = getattr(short, field.name)
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(value, getattr(long, field.name)[:40])

    @pytest.mark.parametrize("seed", [0, 12345, 2**63 + 5])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_field_is_first_draw_of_trial_stream(self, strategy, seed):
        # the serving/neighbor distance is the nearest point of the field
        # sample_hppp_disc draws first from trial t's stream
        cfg = make_cfg(sim_disc_radius=3000.0)
        batch = _simulate_strategy(strategy, cfg, 12, seed)
        for t in range(12):
            radii, _ = sample_hppp_disc(
                cfg.uav_density, cfg.sim_disc_radius, _trial_rng(seed, t)
            )
            if strategy == "user":
                nearest = math.hypot(radii.min(), cfg.uav_height)
                assert batch.serving_dist3d[t] == nearest
            else:
                assert batch.neighbor_dist[t] == radii.min()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_empty_disc_convention(self, strategy):
        # a 200 m disc holds no UAV in about 85% of trials
        cfg = make_cfg(sim_disc_radius=200.0)
        batch = _simulate_strategy(strategy, cfg, 200, seed=3)
        if strategy == "user":
            empty = np.isinf(batch.serving_dist3d)
            interference = (batch.interference_typical, batch.interference_fixed)
        else:
            empty = batch.neighbor_dist == cfg.sim_disc_radius
            interference = (batch.interference_near, batch.interference_far)
        assert 100 < int(empty.sum()) < 200
        for values in interference:
            assert not np.any(values[empty])
            assert np.all(values[~empty] >= 0.0)

    def test_uav_centric_users_inside_their_rings(self):
        cfg = make_cfg()
        batch = simulate_uav_centric(cfg, 300, seed=21)
        big_r = batch.neighbor_dist
        near = np.sqrt(batch.near_dist3d**2 - cfg.uav_height**2)
        far = np.sqrt(batch.far_dist3d**2 - cfg.uav_height**2)
        slack = 1e-9 * big_r
        assert np.all((near >= 0.0) & (near <= 0.25 * big_r + slack))
        assert np.all((far >= 0.25 * big_r - slack) & (far <= 0.5 * big_r + slack))


class TestEvaluationPaths:
    def test_clean_channel_gives_certain_coverage(self):
        # no interferers, strong gain: the success predicate must fire
        cfg = make_cfg(tx_power=1.0)
        n = 8
        batch = UserCentricTrials(
            user_centric_geometry_key(cfg, LINK.fixed_user_dist),
            0,
            np.full(n, math.hypot(200.0, 100.0)),
            np.zeros(n),
            np.zeros(n),
            np.full(n, 5.0),
            np.full(n, 5.0),
        )
        k_typ, k_fix = evaluate_user_centric(batch, cfg, LINK, NOMA)
        assert k_typ == n and k_fix == n

    def test_success_predicate_true_smoke(self):
        cfg = make_cfg(tx_power=1.0)
        n = 8
        batch = UavCentricTrials(
            uav_centric_geometry_key(cfg),
            0,
            np.full(n, 500.0),
            np.full(n, 110.0),
            np.full(n, 230.0),
            np.zeros(n),
            np.zeros(n),
            np.full(n, 1e9),
            np.full(n, 1e9),
        )
        k_near, k_far = evaluate_uav_centric(batch, cfg, LINK, NOMA)
        assert k_near == n and k_far == n

    def test_geometry_key_mismatch_rejected(self):
        cfg = make_cfg()
        batch = simulate_user_centric(cfg, 300.0, 10, seed=0)
        other = NomaLink(fixed_user_dist=400.0)
        with pytest.raises(DomainError):
            evaluate_user_centric(batch, cfg, other, NOMA)

    def test_batch_reuse_matches_fresh_run(self):
        cfg = make_cfg()
        batch = simulate_user_centric(cfg, LINK.fixed_user_dist, 500, seed=11)
        k_typ, _ = evaluate_user_centric(batch, cfg, LINK, NOMA)
        fresh, _ = run_user_centric(cfg, LINK, NOMA, 500, seed=11)
        assert k_typ / 500 == fresh.p_hat

    @pytest.mark.parametrize("access", [NOMA, OMA])
    def test_estimates_from_one_batch_equal_fresh_runs(self, access):
        # estimate_* on a shared batch gives, point by point, the estimates
        # (successes, interval, trials, seed) of run_* on fresh trials
        cfg = make_cfg()
        uc = simulate_user_centric(cfg, LINK.fixed_user_dist, 300, seed=12)
        uav = simulate_uav_centric(cfg, 300, seed=12)
        for tx_power in (1e-8, 1e-6, 1e-4):
            point = dataclasses.replace(cfg, tx_power=tx_power)
            assert estimate_user_centric(uc, point, LINK, access) == run_user_centric(
                point, LINK, access, 300, seed=12
            )
            assert estimate_uav_centric(uav, point, LINK, access) == run_uav_centric(
                point, LINK, access, 300, seed=12
            )


class TestInfeasibleLinks:
    def test_user_centric_near_branch_zero(self):
        # every trial lands in the near case and the SIC residue exceeds the
        # near power share, so typical coverage is exactly zero
        cfg = make_cfg()
        link = NomaLink(
            rate_near=1.0, rate_far=0.5, ipsic=2.0 / 3.0, fixed_user_dist=99_000.0
        )
        est, _ = run_user_centric(cfg, link, NOMA, 2000, seed=3)
        assert est.p_hat == 0.0

    def test_uav_centric_near_user_zero(self):
        cfg = make_cfg(alpha_desired=3.5)
        link = NomaLink(rate_near=1.5, rate_far=1.0, ipsic=0.5)
        near, far = run_uav_centric(cfg, link, NOMA, 2000, seed=4)
        assert near.p_hat == 0.0
        assert far.p_hat > 0.0


class TestEstimates:
    def test_interval_contains_estimate(self):
        cfg = make_cfg()
        est, fixed = run_user_centric(cfg, LINK, NOMA, 3000, seed=21)
        for e in (est, fixed):
            assert 0.0 <= e.ci_low <= e.p_hat <= e.ci_high <= 1.0
            assert e.trials == 3000 and e.seed == 21

    def test_truncation_invariance_under_radius_doubling(self):
        cfg_small = make_cfg()
        cfg_big = make_cfg(sim_disc_radius=20_000.0)
        a, _ = run_user_centric(cfg_small, LINK, NOMA, 6000, seed=8)
        b, _ = run_user_centric(cfg_big, LINK, NOMA, 6000, seed=8)
        assert abs(a.p_hat - b.p_hat) < (a.ci_high - a.ci_low)

    def test_oma_mode_runs(self):
        cfg = make_cfg()
        est, fixed = run_user_centric(cfg, LINK, OMA, 2000, seed=13)
        assert 0.0 < est.p_hat <= 1.0
        assert 0.0 < fixed.p_hat <= 1.0

    def test_matches_analytic_at_single_point(self):
        from uavnoma.analytic_user_centric import coverage_typical

        cfg = make_cfg()
        est, _ = run_user_centric(cfg, LINK, NOMA, 30_000, seed=55)
        assert abs(est.p_hat - coverage_typical(cfg, LINK, NOMA)) < 0.02
