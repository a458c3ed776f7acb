"""Tests for the seeded Monte Carlo engine."""

import dataclasses
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

from uavnoma import montecarlo, scenario
from uavnoma.errors import DomainError
from uavnoma.montecarlo import (
    _BLOCK,
    _cos_twice,
    Trials,
    estimate,
    evaluate_uav_centric,
    evaluate_user_centric,
    geometry_key,
    run,
    simulate,
    wilson_interval,
)
from uavnoma.scenario import (
    NOMA,
    OMA,
    UAV_CENTRIC,
    USER_CENTRIC,
    NetworkConfig,
    NomaLink,
)
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
        low, high = wilson_interval(50, 100)
        assert low == pytest.approx(0.37527962504483986, rel=1e-12)
        assert high == pytest.approx(0.6247203749551602, rel=1e-12)

    def test_z_is_the_99_percent_quantile_to_the_bit(self):
        # the interval is 99% by the CSV's contract; its z is a literal so
        # that a Monte Carlo run needs no scipy
        from scipy.special import ndtri

        assert montecarlo._Z99 == float(ndtri(0.995))

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
        a, fa = run(cfg, LINK, USER_CENTRIC, NOMA, 400, seed=99)
        b, fb = run(cfg, LINK, USER_CENTRIC, NOMA, 400, seed=99)
        assert a.p_hat == b.p_hat and fa.p_hat == fb.p_hat

    def test_seed_changes_result(self):
        cfg = make_cfg()
        a, _ = run(cfg, LINK, USER_CENTRIC, NOMA, 400, seed=1)
        b, _ = run(cfg, LINK, USER_CENTRIC, NOMA, 400, seed=2)
        assert not np.array_equal(a.p_hat, b.p_hat)

    def test_pooled_counts_match_binomial_spread(self):
        # 20 independent seeds: the spread of estimates is compatible with
        # binomial noise
        cfg = make_cfg()
        trials = 300
        estimates = []
        for seed in range(20):
            est, _ = run(cfg, LINK, USER_CENTRIC, NOMA, trials, seed=seed)
            estimates.append(est.p_hat)
        p_bar = float(np.mean(estimates))
        sigma = math.sqrt(p_bar * (1.0 - p_bar) / trials)
        spread = float(np.std(estimates))
        assert 0.3 * sigma < spread < 3.0 * sigma


# Pinned draws of both geometry phases (400 trials, seed 77). Any change to
# the per-block stream layout (draw order, draw count, or how a draw becomes
# a distance, gain or interference sum) moves these numbers. Values are
# batch fields at trials 3 and 5; counts are (typical, fixed) or (near, far)
# successes; "empty" counts the trials with no UAV in the disc. Regenerate
# with ``PYTHONPATH=src python tests/test_montecarlo.py``.
STREAM_PINS = {
    # lam pi r^2 = 400 UAVs on average
    "default": dict(
        cfg={},
        uc_counts=[(209, 354), (251, 381), (343, 396)],
        uc_empty=0,
        uc_values={
            3: [467.7842816039062, 4.681902953277221e-12, 1.4087797255381666e-11,
                0.08175038704035581, 1.2719031053794094],
            5: [239.44674988630257, 1.0142734119012646e-11, 6.949117182564986e-12,
                0.5727976560817415, 3.8115300700604062],
        },
        uav_counts=[(216, 173), (194, 168), (31, 173)],
        uav_empty=0,
        uav_values={
            3: [456.9706053081343, 135.86931410020145, 207.03639091699242,
                1.001268483712556e-11, 1.859956794773739e-11, 0.3298092163676573,
                0.4817426340218103],
            5: [217.56549825538409, 104.91999172424948, 129.4344499994871,
                1.1863927147417042e-10, 3.5667134178419476e-10, 0.6585187198633983,
                1.0026390686716027],
        },
    ),
    "nakagami": dict(
        cfg=dict(m_desired=3, m_interf=2, alpha_interf=3.5),
        uc_counts=[(220, 384), (285, 400), (372, 400)],
        uc_empty=0,
        uc_values={
            3: [467.7842816039062, 3.3868103344251524e-10, 5.198437130410322e-10,
                1.128475843169883, 0.7355932614571771],
            5: [239.44674988630257, 3.4697974410441654e-10, 2.803407424825594e-09,
                1.2066128891292371, 1.1306976631330299],
        },
        uav_counts=[(259, 208), (239, 201), (11, 208)],
        uav_empty=0,
        uav_values={
            3: [456.9706053081343, 135.86931410020145, 207.03639091699242,
                3.35463142368447e-10, 5.027858384329212e-10, 0.5840632558207481,
                0.953975220305629],
            5: [217.56549825538409, 104.91999172424948, 129.4344499994871,
                1.7154382584936213e-08, 1.4780506545814402e-09, 0.5227719393695928,
                0.6527592822651634],
        },
    ),
    # lam pi r^2 = 0.69: about half the discs hold no UAV
    "sparse": dict(
        cfg=dict(sim_disc_radius=416.0),
        uc_counts=[(176, 183), (185, 194), (193, 200)],
        uc_empty=198,
        uc_values={
            3: [math.inf, 0.0, 0.0, 0.0, 0.0],
            5: [313.8288941114827, 0.0, 0.0, 0.461604691062336, 0.3311137200069097],
        },
        uav_counts=[(238, 225), (220, 222), (32, 225)],
        uav_empty=198,
        uav_values={
            3: [416.0, 127.13418062789523, 184.07181610288063, 0.0, 0.0,
                2.177121803797358, 2.3832839198352644],
            5: [297.4702922633389, 103.66014837871586, 165.6271417300964,
                1.2378431260314719e-11, 1.703440573234884e-10, 1.5435602473345849,
                0.1451832601711878],
        },
    ),
}


def _stream_draws(cfg):
    """What ``STREAM_PINS`` pins, drawn under ``cfg``."""
    link_b = NomaLink(rate_near=0.5, rate_far=0.25, ipsic=0.1, fixed_user_dist=150.0)
    link_c = NomaLink(rate_near=2.0, rate_far=0.5, ipsic=0.1)

    uc = simulate(cfg, LINK, USER_CENTRIC, 400, seed=77)
    uc_b = simulate(cfg, link_b, USER_CENTRIC, 400, seed=77)
    uav = simulate(cfg, LINK, UAV_CENTRIC, 400, seed=77)
    weak = dataclasses.replace(cfg, tx_power=1e-8)
    empty = np.isinf(uav.distance)
    return dict(
        uc_counts=[
            evaluate_user_centric(uc, cfg, LINK, NOMA),
            evaluate_user_centric(uc, cfg, LINK, OMA),
            evaluate_user_centric(uc_b, cfg, link_b, NOMA),
        ],
        uc_empty=int(np.sum(np.isinf(uc.dist3d[0]))),
        uc_values={
            t: [
                float(uc.dist3d[0, t]),
                float(uc.interference[0, t]),
                float(uc.interference[1, t]),
                float(uc.gain[0, t]),
                float(uc.gain[1, t]),
            ]
            for t in (3, 5)
        },
        uav_counts=[
            evaluate_uav_centric(uav, weak, LINK, NOMA),
            evaluate_uav_centric(uav, weak, LINK, OMA),
            evaluate_uav_centric(uav, weak, link_c, NOMA),
        ],
        uav_empty=int(np.sum(empty)),
        uav_empty_interference=float(np.sum(uav.interference[0, empty])),
        uav_values={
            t: [
                float(min(uav.distance[t], cfg.sim_disc_radius)),
                float(uav.dist3d[0, t]),
                float(uav.dist3d[1, t]),
                float(uav.interference[0, t]),
                float(uav.interference[1, t]),
                float(uav.gain[0, t]),
                float(uav.gain[1, t]),
            ]
            for t in (3, 5)
        },
    )


class TestStreamLayout:
    @pytest.mark.parametrize("name", sorted(STREAM_PINS))
    def test_pinned_draws(self, name):
        pins = STREAM_PINS[name]
        drawn = _stream_draws(make_cfg(**pins["cfg"]))
        for key in ("uc_counts", "uc_empty", "uav_counts", "uav_empty"):
            assert drawn[key] == pins[key]
        assert drawn["uav_empty_interference"] == 0.0
        for key in ("uc_values", "uav_values"):
            for t, values in pins[key].items():
                assert drawn[key][t] == pytest.approx(values, rel=1e-12, abs=0)


def _block_rng(seed, block):
    # the stream layout: SFC64 seeded by child ``block`` of the seed's
    # SeedSequence, the stream SeedSequence(seed).spawn(block + 1)[block]
    stream = np.random.SeedSequence(seed, spawn_key=(block,))
    return np.random.Generator(np.random.SFC64(stream))


STRATEGIES = [
    pytest.param(USER_CENTRIC, id="user"),
    pytest.param(UAV_CENTRIC, id="uav"),
]


class TestSkeleton:
    """The geometry-phase loop both strategies share."""

    @pytest.mark.parametrize("trials", [0, -1])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_rejects_trial_count_below_one(self, strategy, trials):
        with pytest.raises(DomainError):
            simulate(make_cfg(), LINK, strategy, trials, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_rejects_seed_outside_64_bits(self, strategy, seed):
        with pytest.raises(DomainError):
            simulate(make_cfg(), LINK, strategy, 10, seed=seed)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_shorter_run_is_a_prefix(self, strategy):
        # trial t draws from its own stream, so a run of 40 trials is the
        # first 40 trials of a run of 100 under the same seed
        cfg = make_cfg()
        short = simulate(cfg, LINK, strategy, 40, seed=8)
        long = simulate(cfg, LINK, strategy, 100, seed=8)
        for field in dataclasses.fields(short):
            value = getattr(short, field.name)
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(value, getattr(long, field.name)[..., :40])

    @pytest.mark.parametrize("seed", [0, 12345, 2**63 + 5])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_field_is_first_draw_of_block_stream(self, strategy, seed):
        # the serving/neighbor distance of trial t is the nearest point of
        # its segment of the fields sample_hppp_disc draws first from the
        # stream of block t // _BLOCK
        cfg = make_cfg(sim_disc_radius=3000.0)
        trials = 2 * _BLOCK + 5
        batch = simulate(cfg, LINK, strategy, trials, seed)
        for t in range(trials):
            block, slot = divmod(t, _BLOCK)
            counts, radii = sample_hppp_disc(
                cfg.uav_density, cfg.sim_disc_radius, _BLOCK, _block_rng(seed, block)
            )
            start = int(np.sum(counts[:slot]))
            nearest = radii[start : start + counts[slot]].min()
            if strategy == USER_CENTRIC:
                assert batch.dist3d[0, t] == np.hypot(nearest, cfg.uav_height)
            else:
                assert batch.distance[t] == nearest

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_empty_disc_convention(self, strategy):
        # a 200 m disc holds no UAV in about 85% of trials
        cfg = make_cfg(sim_disc_radius=200.0)
        batch = simulate(cfg, LINK, strategy, 200, seed=3)
        if strategy == USER_CENTRIC:
            empty = np.isinf(batch.dist3d[0])
            interference = batch.interference
        else:
            empty = np.isinf(batch.distance)
            interference = batch.interference
        assert 100 < int(empty.sum()) < 200
        for values in interference:
            assert not np.any(values[empty])
            assert np.all(values[~empty] >= 0.0)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_empty_disc_trials_counts_fields_without_uav(self, strategy):
        cfg = make_cfg(sim_disc_radius=200.0)
        trials = 3 * _BLOCK + 7
        batch = simulate(cfg, LINK, strategy, trials, seed=3)
        counts = np.concatenate(
            [
                sample_hppp_disc(
                    cfg.uav_density, cfg.sim_disc_radius, _BLOCK, _block_rng(3, b)
                )[0]
                for b in range(4)
            ]
        )[:trials]
        assert montecarlo.empty_disc_trials(batch) == int(np.sum(counts == 0)) > 0
        assert montecarlo.empty_disc_trials(simulate(make_cfg(), LINK, strategy, 64, 3)) == 0

    def test_uav_centric_users_inside_their_rings(self):
        cfg = make_cfg()
        batch = simulate(cfg, LINK, UAV_CENTRIC, 300, seed=21)
        big_r = np.minimum(batch.distance, cfg.sim_disc_radius)
        near = np.sqrt(batch.dist3d[0] ** 2 - cfg.uav_height**2)
        far = np.sqrt(batch.dist3d[1] ** 2 - cfg.uav_height**2)
        slack = 1e-9 * big_r
        assert np.all((near >= 0.0) & (near <= 0.25 * big_r + slack))
        assert np.all((far >= 0.25 * big_r - slack) & (far <= 0.5 * big_r + slack))


def _batch_arrays(batch):
    return {
        field.name: getattr(batch, field.name)
        for field in dataclasses.fields(batch)
        if isinstance(getattr(batch, field.name), np.ndarray)
    }


# fewest trials whose blocks are cut into two ranges; SPLIT - _BLOCK is
# one block short
SPLIT = 2 * montecarlo._MIN_RANGE_BLOCKS * _BLOCK


class _InlineExecutor:
    """Stands in for ThreadPoolExecutor: records each ``max_workers`` asked
    for and runs the tasks inline, so no thread starts."""

    requests: list = []

    def __init__(self, max_workers):
        self.requests.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestBlockRangeThreads:
    """A batch drawn on threads over block ranges is the one-thread batch."""

    @pytest.mark.parametrize(
        "min_range", [montecarlo._MIN_RANGE_BLOCKS, 1], ids=["shipped", "one-block"]
    )
    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_bit_identical_to_one_thread(self, strategy, threads, min_range, monkeypatch):
        cfg = make_cfg()
        trial_counts = (1, 33, SPLIT - _BLOCK, SPLIT, 5000)
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 1)
        serial = [simulate(cfg, LINK, strategy, n, seed=17) for n in trial_counts]
        pools = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(montecarlo, "_MIN_RANGE_BLOCKS", min_range)
        # as many usable cores as threads, so they run on any host
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: int(threads))
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Recording)
        for n, one in zip(trial_counts, serial):
            threaded = _batch_arrays(simulate(cfg, LINK, strategy, n, seed=17))
            for name, values in _batch_arrays(one).items():
                assert np.array_equal(threaded[name], values), (n, name)
        blocks = [-(-n // _BLOCK) for n in trial_counts]
        expected = [min(int(threads), b // min_range) for b in blocks]
        assert pools == [k for k in expected if k > 1]

    def test_bit_identical_without_affinity(self, monkeypatch):
        # where os has no sched_getaffinity (macOS, Windows) the batch takes
        # os.cpu_count() threads, here two over SPLIT trials
        cfg = make_cfg()
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 1)
        serial = _batch_arrays(simulate(cfg, LINK, USER_CENTRIC, SPLIT, seed=29))
        monkeypatch.undo()
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pools = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Recording)
        threaded = _batch_arrays(simulate(cfg, LINK, USER_CENTRIC, SPLIT, seed=29))
        assert pools == [2]
        for name, values in serial.items():
            assert np.array_equal(threaded[name], values), name

    def test_bit_identical_under_fast_thread_switching(self, monkeypatch):
        # eight threads over one-block ranges, more than the cores of most
        # hosts, switching every microsecond
        cfg = make_cfg()
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 1)
        serial = _batch_arrays(simulate(cfg, LINK, USER_CENTRIC, 1000, seed=23))
        monkeypatch.setattr(montecarlo, "_MIN_RANGE_BLOCKS", 1)
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = _batch_arrays(simulate(cfg, LINK, USER_CENTRIC, 1000, seed=23))
        finally:
            sys.setswitchinterval(interval)
        for name, values in serial.items():
            assert np.array_equal(threaded[name], values), name

    @pytest.mark.parametrize(
        "cores, trials, workers",
        [
            (None, 5000, None),  # this host's affinity
            (64, 5000, 4),  # 157 blocks: four ranges
            (64, SPLIT, 2),
            (64, SPLIT - _BLOCK, 0),  # 63 blocks, one range: no pool
            (3, 5000, 3),
            (1, 5000, 0),
        ],
    )
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_huge_thread_count_is_capped(self, strategy, cores, trials, workers, monkeypatch):
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", _InlineExecutor)
        monkeypatch.setattr(_InlineExecutor, "requests", [])
        if cores is not None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        else:
            ranges = -(-trials // _BLOCK) // montecarlo._MIN_RANGE_BLOCKS
            workers = min(len(os.sched_getaffinity(0)), ranges)
        simulate(make_cfg(), LINK, strategy, trials, seed=4)
        assert _InlineExecutor.requests == ([workers] if workers > 1 else [])

    @pytest.mark.parametrize("trials", [10**21, 2**60])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_batch_too_large_raises_memory_error(self, strategy, trials):
        # numpy refuses both shapes before it allocates anything
        with pytest.raises(MemoryError, match=f"a batch of {trials} trials"):
            simulate(make_cfg(), LINK, strategy, trials, seed=1)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_field_too_dense_raises_memory_error(self, strategy):
        # 3.14e20 UAVs per trial: no block's radii fit numpy's index range
        cfg = make_cfg(uav_density=1e12)
        with pytest.raises(MemoryError, match=r"a UAV field of 3\.14e\+20 points"):
            simulate(cfg, LINK, strategy, 10, seed=1)

    def test_other_value_errors_pass_through(self, monkeypatch):
        def broken(*args):
            raise ValueError("broken block")

        monkeypatch.setattr(montecarlo, "_uav_centric_block", broken)
        with pytest.raises(ValueError, match="broken block"):
            simulate(make_cfg(), LINK, UAV_CENTRIC, 10, seed=1)


class TestScratch:
    """Per-point arrays come from one thread's scratch, reused by its blocks."""

    def test_take_reuses_the_buffer_up_to_its_capacity(self):
        scratch = montecarlo._Scratch()
        first = scratch.take("gain", 100)
        assert first.size == 100 and first.base.size == 125
        for n in (100, 60, 0, 125):
            again = scratch.take("gain", n)
            assert again.size == n and again.base is first.base

    def test_take_grows_for_a_block_with_more_points(self):
        scratch = montecarlo._Scratch()
        small = scratch.take("gain", 100)
        grown = scratch.take("gain", 126)
        assert grown.size == 126 and grown.base is not small.base
        assert scratch.take("gain", 126).base is grown.base

    def test_names_and_dtypes_are_separate_buffers(self):
        scratch = montecarlo._Scratch()
        gains, mask = scratch.take("gain", 10), scratch.take("mask", 10, bool)
        assert mask.dtype == bool and not np.shares_memory(gains, mask)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_blocks_of_one_thread_share_their_buffers(self, threads, monkeypatch):
        # the default field holds about 12,800 UAVs per block, so the first
        # block's quarter to spare holds every later one
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: threads)
        buffers = []

        def block(rng, field, cfg):
            buffers.append((field.radii.base, field.points("x").base))
            return [field.nearest]

        montecarlo._simulate(make_cfg(), SPLIT, 3, 1, block)
        assert len(buffers) == SPLIT // _BLOCK
        radii, points = zip(*buffers)
        assert len({id(b) for b in radii}) == len({id(b) for b in points}) == threads


def _reference_block(strategy, cfg, seed, block, fixed_user_dist=LINK.fixed_user_dist):
    """Batch fields of one block, recomputed with a plain loop over each
    trial's slice of the block's own draws (the layout of the montecarlo
    docstring); also returns the per-trial counts and the UAV half angles.

    Elementwise transforms (cosines, the fixed user's distance) are formed
    as in the engine, in the same order of operations, so both pick the
    same interferers; what this checks is
    the ragged part: segments, nearest points, exclusions, sums, empty
    trials and empty blocks.
    """
    rng = _block_rng(seed, block)
    mean = cfg.uav_density * math.pi * cfg.sim_disc_radius**2
    counts = rng.poisson(mean, _BLOCK)
    radii = cfg.sim_disc_radius * np.sqrt(rng.uniform(0.0, 1.0, counts.sum()))
    count = len(radii)
    h, half = cfg.uav_height, cfg.alpha_interf / 2.0
    md, mi = cfg.m_desired, cfg.m_interf
    ends = np.cumsum(counts)
    rows, angles = [], np.empty(0)
    if strategy == USER_CENTRIC:
        angles = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, count)
        cos_angle = _cos_twice(angles)
        cos_azimuth = np.cos(rng.uniform(0.0, 2.0 * math.pi, _BLOCK))
        h_t = rng.standard_gamma(md, _BLOCK) / md
        h_f = rng.standard_gamma(md, _BLOCK) / md
        g_t = rng.standard_gamma(mi, count) / mi
        g_f = rng.standard_gamma(mi, count) / mi
        for t in range(_BLOCK):
            s = slice(ends[t] - counts[t], ends[t])
            if counts[t] == 0:
                rows.append([math.inf, 0.0, 0.0, 0.0, 0.0])
                continue
            r_i = radii[s]
            k = int(np.argmin(r_i))
            r = r_i[k]
            others = np.arange(len(r_i)) != k
            d_typ = r_i**2 + h**2
            j_typ = np.sum(g_t[s][others] * d_typ[others] ** -half)
            rho_sq = r * r + fixed_user_dist**2 + 2.0 * r * fixed_user_dist * cos_azimuth[t]
            d_fix = math.sqrt(rho_sq) * r_i * cos_angle[s] * -2.0 + d_typ + rho_sq
            keep = others & (d_fix > fixed_user_dist**2 + h**2)
            j_fix = np.sum(g_f[s][keep] * d_fix[keep] ** -half)
            rows.append([math.hypot(r, h), j_typ, j_fix, h_t[t], h_f[t]])
    else:
        u_near = rng.uniform(0.0, 1.0, _BLOCK)
        u_far = rng.uniform(0.0, 1.0, _BLOCK)
        h_w = rng.standard_gamma(md, _BLOCK) / md
        h_v = rng.standard_gamma(md, _BLOCK) / md
        g_w = rng.standard_gamma(mi, count) / mi
        g_v = rng.standard_gamma(mi, count) / mi
        for t in range(_BLOCK):
            s = slice(ends[t] - counts[t], ends[t])
            r_i = radii[s]
            big_r = r_i.min() if counts[t] else cfg.sim_disc_radius
            d_near = math.hypot(0.25 * big_r * math.sqrt(u_near[t]), h)
            d_far = math.hypot(0.25 * big_r * math.sqrt(1.0 + 3.0 * u_far[t]), h)
            # every UAV interferes from its drawn distance, the nearest too
            path = (r_i**2 + h**2) ** -half
            j_near, j_far = np.sum(g_w[s] * path), np.sum(g_v[s] * path)
            rows.append([big_r, d_near, d_far, j_near, j_far, h_w[t], h_v[t]])
    return np.array(rows).T, counts, angles


# cfg overrides of the oracle cases; "tiny" is small enough (0.0016 UAVs per
# trial) that most blocks hold no UAV at all
ORACLE_CASES = {
    "default": {},
    "nakagami": dict(m_desired=3, m_interf=2),
    "disc200": dict(sim_disc_radius=200.0),
    "tiny": dict(sim_disc_radius=20.0),
}
ORACLE_SEED = 5


class TestRaggedReductions:
    """The block-wise geometry phase against a per-trial loop."""

    @pytest.mark.parametrize(
        "trials", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5]
    )
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_batch_matches_per_trial_loop(self, strategy, case, trials):
        cfg = make_cfg(**ORACLE_CASES[case])
        batch = simulate(cfg, LINK, strategy, trials, ORACLE_SEED)
        blocks = -(-trials // _BLOCK)
        expected = np.hstack(
            [
                _reference_block(strategy, cfg, ORACLE_SEED, b)[0]
                for b in range(blocks)
            ]
        )[:, :trials]
        if strategy == USER_CENTRIC:
            fields = [batch.dist3d[0], *batch.interference, *batch.gain]
            h = cfg.uav_height
            np.testing.assert_array_equal(np.hypot(batch.distance, h), batch.dist3d[0])
            assert np.all(batch.dist3d[1] == math.hypot(LINK.fixed_user_dist, h))
        else:
            big_r = np.minimum(batch.distance, cfg.sim_disc_radius)
            fields = [big_r, *batch.dist3d, *batch.interference, *batch.gain]
        assert len(fields) == len(expected)
        for row, (got, values) in enumerate(zip(fields, expected)):
            np.testing.assert_allclose(
                got, values, rtol=1e-12, atol=0.0, err_msg=f"row {row}"
            )

    def test_cases_cover_empty_layouts(self):
        # the oracle cases reach an empty last slot in a block with UAVs,
        # and a block without any UAV
        def block_counts(case, block):
            cfg = make_cfg(**ORACLE_CASES[case])
            return _reference_block(UAV_CENTRIC, cfg, ORACLE_SEED, block)[1]

        last_empty = [block_counts("disc200", b) for b in range(3)]
        assert any(c[-1] == 0 and c.sum() > 0 for c in last_empty)
        assert any(block_counts("tiny", b).sum() == 0 for b in range(3))

    def test_uav_azimuths_are_uniform(self):
        # the user-centric block draws one half angle per UAV right after the
        # radii; the field is isotropic only if they are uniform, and then the
        # cosine of the azimuth follows the arcsine law 1 - arccos(c) / pi
        cfg = make_cfg(sim_disc_radius=3000.0)
        halves = np.concatenate(
            [_reference_block(USER_CENTRIC, cfg, 62, b)[2] for b in range(10)]
        )
        uniform = stats.uniform(-0.5 * math.pi, math.pi).cdf
        assert stats.kstest(halves, uniform).pvalue > 0.01
        arcsine = lambda c: 1.0 - np.arccos(c) / math.pi
        assert stats.kstest(_cos_twice(halves), arcsine).pvalue > 0.01

    def test_half_angle_cosine_matches_cos(self):
        # both ends of the half-angle range: -pi/2 and the largest float
        # below pi/2, where tan^2 is about 2.7e32 and 1.2e31
        top = np.nextafter(0.5 * math.pi, 0.0)
        grid = np.concatenate(
            [np.linspace(-0.5 * math.pi, top, 100_001), [-0.5 * math.pi, top, 0.0]]
        )
        cos = _cos_twice(grid)
        assert np.all(np.isfinite(cos))
        np.testing.assert_allclose(cos, np.cos(2.0 * grid), rtol=0.0, atol=1e-15)
        assert cos[-3] == cos[-2] == -1.0 and cos[-1] == 1.0

    @pytest.mark.parametrize(
        "one, other",
        [
            pytest.param((0, 1), (1, 0), id="swapped"),
            pytest.param((2**64 - 1, 0), (2**64 - 2, 0), id="top-seeds"),
            # a flat (seed, block) entropy tuple would give these two the
            # same words after SeedSequence pads them: [0, 1] and [0, 1, 0]
            pytest.param((2**32, 0), (0, 1), id="seed-2**32"),
        ],
    )
    def test_neighbouring_streams_differ(self, one, other):
        def block(seed, b):
            batch = simulate(make_cfg(), LINK, UAV_CENTRIC, (b + 1) * _BLOCK, seed)
            return batch.distance[b * _BLOCK :]

        assert not np.any(block(*one) == block(*other))


# one valid change of every field of NetworkConfig and NomaLink; the power
# split moves as one
NETWORK_CHANGES = dict(
    uav_density=2.0 * DENSITY,
    tx_power=2e-6,
    alpha_desired=3.5,
    noise_power=1e-14,
    uav_height=120.0,
    alpha_interf=3.5,
    m_desired=2,
    m_interf=3,
    sim_disc_radius=8000.0,
)
LINK_CHANGES = {
    "power_split": dict(pw_far=0.7),
    "rate_near": dict(rate_near=1.5),
    "rate_far": dict(rate_far=0.25),
    "ipsic": dict(ipsic=0.2),
    "fixed_user_dist": dict(fixed_user_dist=150.0),
}
KEY_CASES = [
    pytest.param(dataclasses.replace(make_cfg(), **{name: value}), LINK, id=name)
    for name, value in NETWORK_CHANGES.items()
] + [
    pytest.param(make_cfg(), dataclasses.replace(LINK, **changes), id=name)
    for name, changes in LINK_CHANGES.items()
]


class TestGeometryKey:
    """A batch depends on a field exactly when its geometry key does, so a
    sweep never estimates a point from a batch drawn under other values."""

    def test_cases_change_every_field(self):
        assert sorted(NETWORK_CHANGES) == sorted(
            f.name for f in dataclasses.fields(NetworkConfig)
        )
        assert sorted(k for c in LINK_CHANGES.values() for k in c) == sorted(
            f.name for f in dataclasses.fields(NomaLink)
        )

    @pytest.mark.parametrize("cfg, link", KEY_CASES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_batch_changes_exactly_when_key_changes(self, strategy, cfg, link):
        base = _batch_arrays(simulate(make_cfg(), LINK, strategy, 64, seed=9))
        arrays = _batch_arrays(simulate(cfg, link, strategy, 64, seed=9))
        moved = any(not np.array_equal(arrays[n], base[n]) for n in base)
        key_moved = geometry_key(cfg, link, strategy) != geometry_key(
            make_cfg(), LINK, strategy
        )
        assert moved == key_moved


class TestEvaluationPaths:
    def test_clean_channel_gives_certain_coverage(self):
        # no interferers, strong gain: the success predicate must fire
        cfg = make_cfg(tx_power=1.0)
        n = 8
        batch = Trials(
            geometry_key(cfg, LINK, USER_CENTRIC),
            0,
            np.full(n, 200.0),
            np.array([np.full(n, math.hypot(200.0, 100.0)), np.full(n, math.hypot(300.0, 100.0))]),
            np.zeros((2, n)),
            np.full((2, n), 5.0),
        )
        k_typ, k_fix = evaluate_user_centric(batch, cfg, LINK, NOMA)
        assert k_typ == n and k_fix == n

    def test_success_predicate_true_smoke(self):
        cfg = make_cfg(tx_power=1.0)
        n = 8
        batch = Trials(
            geometry_key(cfg, LINK, UAV_CENTRIC),
            0,
            np.full(n, 500.0),
            np.array([np.full(n, 110.0), np.full(n, 230.0)]),
            np.zeros((2, n)),
            np.full((2, n), 1e9),
        )
        k_near, k_far = evaluate_uav_centric(batch, cfg, LINK, NOMA)
        assert k_near == n and k_far == n

    def test_geometry_key_mismatch_rejected(self):
        cfg = make_cfg()
        batch = simulate(cfg, LINK, USER_CENTRIC, 10, seed=0)
        other = NomaLink(fixed_user_dist=400.0)
        with pytest.raises(DomainError):
            evaluate_user_centric(batch, cfg, other, NOMA)

    def test_batch_reuse_matches_fresh_run(self):
        cfg = make_cfg()
        batch = simulate(cfg, LINK, USER_CENTRIC, 500, seed=11)
        reused, _ = estimate(batch, cfg, LINK, NOMA)
        fresh, _ = run(cfg, LINK, USER_CENTRIC, NOMA, 500, seed=11)
        assert reused.p_hat == fresh.p_hat

    @pytest.mark.parametrize("access", [NOMA, OMA])
    def test_estimates_from_one_batch_equal_fresh_runs(self, access):
        # estimate on a shared batch gives, point by point, the estimates
        # (successes, interval, trials, seed) of run on fresh trials
        cfg = make_cfg()
        uc = simulate(cfg, LINK, USER_CENTRIC, 300, seed=12)
        uav = simulate(cfg, LINK, UAV_CENTRIC, 300, seed=12)
        for tx_power in (1e-8, 1e-6, 1e-4):
            point = dataclasses.replace(cfg, tx_power=tx_power)
            assert estimate(uc, point, LINK, access) == run(
                point, LINK, USER_CENTRIC, access, 300, seed=12
            )
            assert estimate(uav, point, LINK, access) == run(
                point, LINK, UAV_CENTRIC, access, 300, seed=12
            )


class TestDecodeCheck:
    @pytest.mark.parametrize(
        "user, partner",
        [("typical", False), ("fixed", True), ("near", False), ("far", True)],
    )
    @pytest.mark.parametrize("access", [NOMA, OMA])
    def test_disagreement_raises_naming_the_user(self, user, partner, access, monkeypatch):
        # zero coefficients pass every trial with a positive gain, which the
        # SINR chain does not: only the patched user's check may fail
        patched_rate = LINK.rate_far if partner else LINK.rate_near

        def patched(link, strategy, access=NOMA):
            ts = scenario.thresholds(link, strategy, access)
            if link.rate_near == patched_rate:
                return dataclasses.replace(ts, near=0.0, far=0.0)
            return ts

        monkeypatch.setattr(montecarlo, "thresholds", patched)
        cfg = make_cfg()
        if user in ("typical", "fixed"):
            batch = simulate(cfg, LINK, USER_CENTRIC, 300, seed=5)
            evaluate = evaluate_user_centric
        else:
            batch = simulate(cfg, LINK, UAV_CENTRIC, 300, seed=5)
            evaluate = evaluate_uav_centric
        with pytest.raises(RuntimeError, match=rf"disagree on \d+ {user} trials"):
            evaluate(batch, cfg, LINK, access)


class TestInfeasibleLinks:
    def test_user_centric_near_branch_zero(self):
        # every trial lands in the near case and the SIC residue exceeds the
        # near power share, so typical coverage is exactly zero
        cfg = make_cfg()
        link = NomaLink(
            rate_near=1.0, rate_far=0.5, ipsic=2.0 / 3.0, fixed_user_dist=99_000.0
        )
        est, _ = run(cfg, link, USER_CENTRIC, NOMA, 2000, seed=3)
        assert est.p_hat == 0.0

    def test_uav_centric_near_user_zero(self):
        cfg = make_cfg(alpha_desired=3.5)
        link = NomaLink(rate_near=1.5, rate_far=1.0, ipsic=0.5)
        near, far = run(cfg, link, UAV_CENTRIC, NOMA, 2000, seed=4)
        assert near.p_hat == 0.0
        assert far.p_hat > 0.0


class TestEstimates:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_estimates_follow_roles(self, strategy):
        estimates = run(make_cfg(), LINK, strategy, NOMA, 100, seed=2)
        assert tuple(e.user_role for e in estimates) == scenario.ROLES[strategy]
        assert all(e.strategy == strategy for e in estimates)

    @pytest.mark.parametrize("strategy", ["user_centric", "uav_centric", "both"])
    def test_unknown_strategy_rejected(self, strategy):
        cfg = make_cfg()
        with pytest.raises(DomainError, match="unknown strategy"):
            geometry_key(cfg, LINK, strategy)
        with pytest.raises(DomainError, match="unknown strategy"):
            simulate(cfg, LINK, strategy, 10, seed=1)

    def test_interval_contains_estimate(self):
        cfg = make_cfg()
        est, fixed = run(cfg, LINK, USER_CENTRIC, NOMA, 3000, seed=21)
        for e in (est, fixed):
            assert 0.0 <= e.ci_low <= e.p_hat <= e.ci_high <= 1.0
            assert e.trials == 3000 and e.seed == 21

    def test_truncation_invariance_under_radius_doubling(self):
        cfg_small = make_cfg()
        cfg_big = make_cfg(sim_disc_radius=20_000.0)
        a, _ = run(cfg_small, LINK, USER_CENTRIC, NOMA, 6000, seed=8)
        b, _ = run(cfg_big, LINK, USER_CENTRIC, NOMA, 6000, seed=8)
        assert abs(a.p_hat - b.p_hat) < (a.ci_high - a.ci_low)

    def test_oma_mode_runs(self):
        cfg = make_cfg()
        est, fixed = run(cfg, LINK, USER_CENTRIC, OMA, 2000, seed=13)
        assert 0.0 < est.p_hat <= 1.0
        assert 0.0 < fixed.p_hat <= 1.0

    def test_matches_analytic_at_single_point(self):
        from uavnoma.analytic_user_centric import coverage_typical

        cfg = make_cfg()
        est, _ = run(cfg, LINK, USER_CENTRIC, NOMA, 30_000, seed=55)
        assert abs(est.p_hat - coverage_typical(cfg, LINK, NOMA)) < 0.02


if __name__ == "__main__":
    import textwrap

    def _lines(values, indent):
        # an empty disc's serving distance is infinite
        literals = ("math.inf" if v == math.inf else repr(v) for v in values)
        body = textwrap.fill(", ".join(literals), 88 - len(indent) - 4)
        return textwrap.indent(body, indent + "    ").lstrip()

    print("STREAM_PINS = {")
    for name, pins in STREAM_PINS.items():
        drawn = _stream_draws(make_cfg(**pins["cfg"]))
        print(f'    "{name}": dict(')
        print(f'        cfg={pins["cfg"]!r},')
        for prefix in ("uc", "uav"):
            print(f'        {prefix}_counts={drawn[prefix + "_counts"]!r},')
            print(f'        {prefix}_empty={drawn[prefix + "_empty"]!r},')
            print(f"        {prefix}_values={{")
            for t, values in drawn[prefix + "_values"].items():
                print(f"            {t}: [{_lines(values, ' ' * 12)}],")
            print("        },")
        print("    ),")
    print("}")
