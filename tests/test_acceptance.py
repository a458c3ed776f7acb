"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Monte Carlo batches are shared across criteria through module-scoped
fixtures; every tolerance is pinned here, nothing is calibrated at runtime.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from uavnoma import montecarlo
from uavnoma.analytic_uav_centric import laplace_exponent_ucav
from uavnoma.analytic_uav_centric import FAR as UAV_FAR
from uavnoma.analytic_uav_centric import NEAR as UAV_NEAR
from uavnoma.analytic_uav_centric import coverage_cond_pair, coverage_pair
from uavnoma.analytic_user_centric import (
    coverage_cond,
    coverage_fixed,
    coverage_typical,
    laplace_exponent_uc,
)
from uavnoma.channel import sample_nakagami_power
from uavnoma.montecarlo import (
    evaluate_uav_centric,
    evaluate_user_centric,
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
    dbm_to_watts,
)
from uavnoma.validation import (
    far_user_pdf,
    near_user_pdf,
    nearest_distance_cdf,
    rayleigh_ring_exponent,
    rayleigh_tail_exponent_arctan,
)

DENSITY = 1.0 / (500.0**2 * math.pi)
SEED = 20_240_601
POWER_GRID_DBM = np.linspace(-60.0, 0.0, 8)

UC_LINK = NomaLink(rate_near=1.0, rate_far=0.5, ipsic=0.0, fixed_user_dist=300.0)
UAV_LINK = NomaLink(rate_near=1.5, rate_far=1.0, ipsic=0.0)


def uc_cfg(tx_power_dbm=-30.0, m_desired=1, **kw):
    base = dict(
        uav_density=DENSITY,
        tx_power=dbm_to_watts(tx_power_dbm),
        alpha_desired=3.0,
        uav_height=100.0,
        alpha_interf=4.0,
        m_desired=m_desired,
        m_interf=1,
    )
    base.update(kw)
    return NetworkConfig(**base)


def uav_cfg(tx_power_dbm=-30.0, m_desired=1, **kw):
    base = dict(
        uav_density=DENSITY,
        tx_power=dbm_to_watts(tx_power_dbm),
        alpha_desired=3.5,
        uav_height=100.0,
        alpha_interf=4.0,
        m_desired=m_desired,
        m_interf=1,
    )
    base.update(kw)
    return NetworkConfig(**base)


def report(number: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")


SIM_SECONDS = {}


@pytest.fixture(scope="module")
def uc_batch():
    start = time.time()
    batch = simulate(uc_cfg(), UC_LINK, USER_CENTRIC, 100_000, SEED)
    SIM_SECONDS["uc"] = time.time() - start
    return batch


@pytest.fixture(scope="module")
def uav_batch():
    start = time.time()
    batch = simulate(uav_cfg(), UAV_LINK, UAV_CENTRIC, 100_000, SEED)
    SIM_SECONDS["uav"] = time.time() - start
    return batch


def test_criterion_1_cross_oracle_user_centric(uc_batch):
    """Analytic and Monte Carlo typical/fixed coverage agree within 0.02 at
    every power point for ipSIC in {0, 0.1, 0.3}, inside the time budget."""
    start = time.time()
    worst = 0.0
    trials = uc_batch.trials
    in_band = None
    band_point = float(POWER_GRID_DBM[4])  # mid-sweep, perfect-SIC point
    for beta in (0.0, 0.1, 0.3):
        link = NomaLink(
            rate_near=1.0, rate_far=0.5, ipsic=beta, fixed_user_dist=300.0
        )
        for dbm in POWER_GRID_DBM:
            cfg = uc_cfg(tx_power_dbm=float(dbm))
            k_typ, k_fix = evaluate_user_centric(uc_batch, cfg, link, NOMA)
            analytic_typ = coverage_typical(cfg, link, NOMA)
            gap_typ = abs(k_typ / trials - analytic_typ)
            gap_fix = abs(k_fix / trials - coverage_fixed(cfg, link, NOMA))
            worst = max(worst, gap_typ, gap_fix)
            if beta == 0.0 and float(dbm) == band_point:
                low, high = wilson_interval(k_typ, trials)
                in_band = low <= analytic_typ <= high
    elapsed = time.time() - start + SIM_SECONDS.get("uc", 0.0)
    ok = worst <= 0.02 and elapsed <= 300.0 and bool(in_band)
    report(
        1,
        ok,
        f"user-centric cross-oracle worst gap {worst:.4f} <= 0.02 over 24 "
        f"points x {trials} trials, mid-sweep analytic inside the 99% band, "
        f"{elapsed:.0f}s <= 300s incl. simulation",
    )
    assert worst <= 0.02
    assert in_band
    assert elapsed <= 300.0


def test_criterion_2_cross_oracle_uav_centric(uav_batch):
    """Analytic and Monte Carlo near/far coverage agree within 0.02 at every
    power point for ipSIC in {0, 0.1}, inside the time budget."""
    start = time.time()
    worst = 0.0
    trials = uav_batch.trials
    for beta in (0.0, 0.1):
        link = NomaLink(rate_near=1.5, rate_far=1.0, ipsic=beta)
        for dbm in POWER_GRID_DBM:
            cfg = uav_cfg(tx_power_dbm=float(dbm))
            k_near, k_far = evaluate_uav_centric(uav_batch, cfg, link, NOMA)
            gap_near = abs(k_near / trials - coverage_pair(UAV_NEAR, cfg, link, NOMA))
            gap_far = abs(k_far / trials - coverage_pair(UAV_FAR, cfg, link, NOMA))
            worst = max(worst, gap_near, gap_far)
    elapsed = time.time() - start + SIM_SECONDS.get("uav", 0.0)
    ok = worst <= 0.02 and elapsed <= 300.0
    report(
        2,
        ok,
        f"UAV-centric cross-oracle worst gap {worst:.4f} <= 0.02 over 16 "
        f"points x {trials} trials, {elapsed:.0f}s <= 300s incl. simulation",
    )
    assert worst <= 0.02
    assert elapsed <= 300.0


def test_criterion_3_special_case_identities():
    """The arctan closed form matches the general exponent to 1e-8 over six
    decades of s; the ring term matches its elementary form to 1e-12."""
    cfg = uc_cfg()
    worst_tail = 0.0
    for dist in (150.0, 450.0, 1200.0):
        exponent = laplace_exponent_uc(cfg, dist)
        for s in np.logspace(2.0, 8.0, 25):
            general = exponent.value_at(float(s) * cfg.tx_power)
            closed = rayleigh_tail_exponent_arctan(float(s), dist, cfg)
            worst_tail = max(worst_tail, abs(general - closed) / closed)
    worst_ring = 0.0
    for R in (220.0, 470.0, 900.0):
        ring = laplace_exponent_ucav(cfg, R)[0]
        for s in np.logspace(2.0, 10.0, 17):
            general = ring.value_at(float(s) * cfg.tx_power)
            closed = rayleigh_ring_exponent(float(s), R, cfg)
            worst_ring = max(worst_ring, abs(general - closed) / closed)
    ok = worst_tail <= 1e-8 and worst_ring <= 1e-12
    report(
        3,
        ok,
        f"identities: tail {worst_tail:.2e} <= 1e-8, ring {worst_ring:.2e} <= 1e-12",
    )
    assert worst_tail <= 1e-8
    assert worst_ring <= 1e-12


def test_criterion_4_infeasibility_exactness(uav_batch):
    """Infeasible power allocation gives coverage exactly zero on both the
    analytic and the Monte Carlo path."""
    # user-centric near branch at ipsic = 2/3, rate 1
    cfg = uc_cfg()
    uc_link = NomaLink(
        rate_near=1.0, rate_far=0.5, ipsic=2.0 / 3.0, fixed_user_dist=300.0
    )
    analytic_near = max(
        coverage_cond(r, cfg, uc_link) for r in (10.0, 150.0, 290.0)
    )
    all_near_link = NomaLink(
        rate_near=1.0, rate_far=0.5, ipsic=2.0 / 3.0, fixed_user_dist=90_000.0
    )
    batch = simulate(cfg, all_near_link, USER_CENTRIC, 20_000, SEED)
    k_typ, _ = evaluate_user_centric(batch, cfg, all_near_link, NOMA)

    # UAV-centric near user at ipsic = 0.5, rate 1.5
    cfg_uav = uav_cfg()
    uav_link = NomaLink(rate_near=1.5, rate_far=1.0, ipsic=0.5)
    analytic_pair = coverage_pair(UAV_NEAR, cfg_uav, uav_link, NOMA)
    analytic_cond = max(
        coverage_cond_pair(frac * R / 4.0, R, UAV_NEAR, cfg_uav, uav_link)
        for R in (250.0, 500.0, 1000.0)
        for frac in (0.2, 0.7, 1.0)
    )
    k_near, _ = evaluate_uav_centric(uav_batch, cfg_uav, uav_link, NOMA)

    ok = (
        analytic_near == 0.0
        and k_typ == 0
        and analytic_pair == 0.0
        and analytic_cond == 0.0
        and k_near == 0
    )
    report(
        4,
        ok,
        "infeasible allocations all exactly zero "
        f"(analytic {analytic_near}, {analytic_pair}, {analytic_cond}; "
        f"mc successes {k_typ}, {k_near})",
    )
    assert ok


def test_criterion_5_transform_derivatives_vs_finite_differences():
    """Analytic transform derivatives up to order 3 match central finite
    differences within 1e-4 relative on 20 random parameter draws."""
    from uavnoma.laplace import RadialTailExponent, exp_composition_derivatives

    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(20):
        density = DENSITY * rng.uniform(0.5, 2.0)
        alpha_interf = rng.uniform(3.0, 4.0)
        m_interf = int(rng.integers(1, 4))
        dist = rng.uniform(150.0, 700.0)
        exponent = RadialTailExponent(density, alpha_interf, m_interf, dist)
        z_target = rng.uniform(0.05, 0.6)
        s0 = z_target * m_interf * dist**alpha_interf

        def transform(s):
            return math.exp(-exponent.value_at(s))

        # Taylor coefficients s0^k D_k/k! of the transform, read as D_k
        coeffs = exp_composition_derivatives(list(exponent.derivatives(s0, 3).values), 3)
        analytic = [e * math.factorial(k) / s0**k for k, e in enumerate(coeffs)]
        h = s0 * 2e-3
        f = [transform(s0 + k * h) for k in range(-2, 3)]
        fd = [
            (f[3] - f[1]) / (2 * h),
            (f[3] - 2 * f[2] + f[1]) / h**2,
            (-f[0] + 2 * f[1] - 2 * f[3] + f[4]) / (2 * h**3),
        ]
        for order in (1, 2, 3):
            worst = max(worst, abs(analytic[order] - fd[order - 1]) / abs(fd[order - 1]))
    ok = worst <= 1e-4
    report(5, ok, f"transform derivatives vs finite differences: {worst:.2e} <= 1e-4")
    assert worst <= 1e-4


# 99% intervals of a 2M-trial Monte Carlo run of the criterion-6 setup at
# -60 dBm, keyed by serving-link fading order. They come from the Monte Carlo
# oracle, not from the closed form, and pin the deep-outage inversion.
DEEP_OUTAGE_MC_99 = {1: (3.86e-4, 4.61e-4), 2: (0.68e-4, 1.01e-4)}


def test_criterion_6_los_trend():
    """Raising the serving-link fading order from 1 to 2 raises coverage
    along the criterion-1 sweep with perfect SIC, after a single crossing.

    For unit-mean Gamma gains P(G2 > x) - P(G1 > x) = e^-x((1+2x)e^-x - 1),
    which changes sign exactly once, at x* ~ 1.2564 where e^x* = 1 + 2x*:
    beyond x* the more deterministic channel loses the lucky-fade tail. So
    along increasing power the margin (order 2 minus order 1) may be <= 0 in
    deep outage and must then turn positive once and stay positive. The
    check asserts that single crossing, a gain at the top of the sweep, and
    the inversion at -60 dBm, where both analytic coverages (4.1e-4 and
    0.86e-4) must fall inside the 99% intervals of a 2M-trial Monte Carlo.
    """
    rows = []
    for dbm in POWER_GRID_DBM:
        nlos = coverage_typical(uc_cfg(tx_power_dbm=float(dbm)), UC_LINK, NOMA)
        los = coverage_typical(
            uc_cfg(tx_power_dbm=float(dbm), m_desired=2), UC_LINK, NOMA
        )
        rows.append((float(dbm), nlos, los))
    margins = [(dbm, los - nlos) for dbm, nlos, los in rows]
    coverage_deep = {1: rows[0][1], 2: rows[0][2]}

    gains = [margin > 0.0 for _, margin in margins]
    crossing = gains.index(True) if any(gains) else len(gains)
    single_crossing = all(gains[crossing:])
    top_gain = gains[-1]
    deep_inversion = margins[0][1] < 0.0
    deep_in_mc = all(
        lo <= coverage_deep[m] <= hi for m, (lo, hi) in DEEP_OUTAGE_MC_99.items()
    )
    ok = single_crossing and top_gain and deep_inversion and deep_in_mc
    above = margins[crossing:] or [(math.nan, math.nan)]
    report(
        6,
        ok,
        f"LoS trend: margin turns positive at {above[0][0]:.1f} dBm, "
        f"min margin above it {min(m for _, m in above):+.2e}; "
        f"-60 dBm inversion {margins[0][1]:+.2e} "
        f"(m=1 {coverage_deep[1]:.3e}, m=2 {coverage_deep[2]:.3e}, "
        f"MC 99% {'agrees' if deep_in_mc else 'disagrees'})",
    )
    assert single_crossing, (
        f"margin is not positive at every point above the crossing: {margins}"
    )
    assert top_gain, f"no LoS gain at the top of the sweep: {margins}"
    assert deep_inversion, (
        f"no deep-outage inversion at -60 dBm: margin {margins[0][1]:+.3e}"
    )
    assert deep_in_mc, (
        f"-60 dBm coverages {coverage_deep} outside the Monte Carlo 99% "
        f"intervals {DEEP_OUTAGE_MC_99}"
    )


def test_criterion_7_noma_vs_oma():
    """With perfect SIC some (power split, rate) point beats orthogonal
    access; at ipSIC 0.15 no grid point beats it beyond Monte Carlo noise."""
    cfg = NetworkConfig(
        uav_density=DENSITY,
        tx_power=dbm_to_watts(-30.0),
        alpha_desired=3.0,
        m_desired=3,
        m_interf=2,
    )
    splits = (0.60, 0.65, 0.70, 0.75, 0.80)
    rates = (1.4, 1.55, 1.7, 1.85, 2.0)
    reference_trials = 100_000

    def advantage(beta):
        out = []
        for rate in rates:
            oma = coverage_typical(
                cfg, NomaLink(rate_near=rate, rate_far=0.5, ipsic=beta), OMA
            )
            halfwidth = 0.5 * (
                wilson_interval(round(oma * reference_trials), reference_trials)[1]
                - wilson_interval(round(oma * reference_trials), reference_trials)[0]
            )
            for pw in splits:
                link = NomaLink(
                    pw_far=pw, rate_near=rate, rate_far=0.5,
                    ipsic=beta,
                )
                out.append((coverage_typical(cfg, link, NOMA) - oma, halfwidth))
        return out

    perfect = advantage(0.0)
    exists = any(gain > hw for gain, hw in perfect)
    residual = advantage(0.15)
    none_beyond_noise = all(gain <= hw for gain, hw in residual)
    best_perfect = max(gain for gain, _ in perfect)
    worst_residual = max(gain for gain, _ in residual)
    ok = exists and none_beyond_noise
    report(
        7,
        ok,
        f"NOMA vs OMA on 5x5 grid: best gain {best_perfect:+.4f} at ipsic=0, "
        f"max residual {worst_residual:+.4f} within MC noise at ipsic=0.15",
    )
    assert exists
    assert none_beyond_noise


def test_criterion_8_distribution_sanity():
    """Samplers match their closed-form laws: KS at 1% for the nearest-UAV
    distance the Monte Carlo engine draws (``sample_hppp_disc`` fields in its
    SFC64 blocks, reduced to each trial's minimum radius; the 10 km disc is
    empty with probability e^-400), exact placement normalization, Nakagami
    mean within 3 sigma."""
    block = lambda rng, field, cfg: [field.nearest]
    nearest = montecarlo._simulate(uc_cfg(), 100_000, SEED, 1, block)[0]
    ks = stats.kstest(nearest, lambda r: nearest_distance_cdf(r, DENSITY))

    R = 173.0
    near_total, _ = integrate.quad(lambda r: near_user_pdf(r, R), 0.0, R / 4.0)
    far_total, _ = integrate.quad(lambda r: far_user_pdf(r, R), R / 4.0, R / 2.0)

    draws = 1_000_000
    rng = np.random.default_rng(SEED)
    mean_gap = abs(float(np.mean(sample_nakagami_power(2, rng, draws))) - 1.0)
    three_sigma = 3.0 * math.sqrt(0.5 / draws)

    ok = (
        ks.pvalue > 0.01
        and abs(near_total - 1.0) <= 1e-12
        and abs(far_total - 1.0) <= 1e-12
        and mean_gap <= three_sigma
    )
    report(
        8,
        ok,
        f"distributions: KS p={ks.pvalue:.3f} > 0.01, placement norms off by "
        f"{abs(near_total - 1.0):.1e}/{abs(far_total - 1.0):.1e} <= 1e-12, "
        f"fading mean off by {mean_gap:.2e} <= {three_sigma:.2e}",
    )
    assert ok


def test_criterion_9_monotonicity():
    """Analytic coverage is non-increasing in ipSIC and in each target rate
    over a 5x5x5 grid, within 1e-9 numerical slack."""
    betas = (0.0, 0.1, 0.2, 0.3, 0.5)
    rates_near = (0.4, 0.8, 1.2, 1.6, 2.0)
    rates_pair = (0.4, 0.8, 1.2, 1.6, 2.0)
    slack = 1e-9

    cfg = uc_cfg()
    uc_surface = {
        (b, rt): coverage_typical(
            cfg, NomaLink(rate_near=rt, rate_far=0.5, ipsic=b, fixed_user_dist=300.0)
        )
        for b in betas
        for rt in rates_near
    }
    cfg_uav = uav_cfg()
    uav_surface = {
        (b, rw): coverage_pair(
            UAV_NEAR, cfg_uav, NomaLink(rate_near=rw, rate_far=1.0, ipsic=b)
        )
        for b in betas
        for rw in rates_pair
    }

    violations = []
    for surface, axis_a, axis_b, tag in (
        (uc_surface, betas, rates_near, "typical"),
        (uav_surface, betas, rates_pair, "near"),
    ):
        for b0, b1 in zip(axis_a, axis_a[1:]):
            for x in axis_b:
                if surface[(b1, x)] > surface[(b0, x)] + slack:
                    violations.append((tag, "ipsic", b1, x))
        for x0, x1 in zip(axis_b, axis_b[1:]):
            for b in axis_a:
                if surface[(b, x1)] > surface[(b, x0)] + slack:
                    violations.append((tag, "rate", b, x1))
    ok = not violations
    report(
        9,
        ok,
        f"monotonicity over {len(uc_surface) + len(uav_surface)} grid points: "
        f"{len(violations)} violations beyond 1e-9",
    )
    assert ok, violations
