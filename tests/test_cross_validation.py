"""End-to-end analytic-vs-Monte-Carlo checks at higher fading orders.

The acceptance sweeps run at fading order 1; these points exercise the
derivative engine (orders 2 and 3) and the order-2 interference series in
full coverage computations, including the orthogonal benchmark. The 0.02
gate matches the acceptance criteria; the UAV-centric gaps carry the known
thin-ring bias of the conditional closed form (about +0.01 worst case).
"""

import math

import pytest

from uavnoma.analytic_uav_centric import FAR, NEAR, coverage_pair
from uavnoma.analytic_user_centric import coverage_fixed, coverage_typical
from uavnoma.montecarlo import run
from uavnoma.scenario import (
    NOMA,
    OMA,
    UAV_CENTRIC,
    USER_CENTRIC,
    NetworkConfig,
    NomaLink,
    dbm_to_watts,
)

DENSITY = 1.0 / (500.0**2 * math.pi)
TRIALS = 30_000
GATE = 0.02


def uc_case(m_desired, m_interf, link, access, seed):
    cfg = NetworkConfig(
        uav_density=DENSITY,
        tx_power=dbm_to_watts(-30.0),
        alpha_desired=3.0,
        m_desired=m_desired,
        m_interf=m_interf,
    )
    est, est_fixed = run(cfg, link, USER_CENTRIC, access, TRIALS, seed)
    gap_typ = abs(est.p_hat - coverage_typical(cfg, link, access))
    gap_fix = abs(est_fixed.p_hat - coverage_fixed(cfg, link, access))
    return gap_typ, gap_fix


def uav_case(m_desired, m_interf, tx_dbm, link, access, seed):
    cfg = NetworkConfig(
        uav_density=DENSITY,
        tx_power=dbm_to_watts(tx_dbm),
        alpha_desired=3.5,
        m_desired=m_desired,
        m_interf=m_interf,
    )
    near, far = run(cfg, link, UAV_CENTRIC, access, TRIALS, seed)
    gap_near = abs(near.p_hat - coverage_pair(NEAR, cfg, link, access))
    gap_far = abs(far.p_hat - coverage_pair(FAR, cfg, link, access))
    return gap_near, gap_far


class TestUserCentricHigherOrders:
    def test_order_two_with_residue(self):
        link = NomaLink(rate_near=1.0, rate_far=0.5, ipsic=0.1, fixed_user_dist=300.0)
        gap_typ, gap_fix = uc_case(2, 1, link, NOMA, seed=11)
        assert gap_typ <= GATE and gap_fix <= GATE

    def test_order_three_with_order_two_interference(self):
        link = NomaLink(
            pw_far=0.75, rate_near=1.4, rate_far=0.5,
            ipsic=0.0, fixed_user_dist=300.0,
        )
        gap_typ, gap_fix = uc_case(3, 2, link, NOMA, seed=12)
        assert gap_typ <= GATE and gap_fix <= GATE

    def test_orthogonal_benchmark(self):
        link = NomaLink(
            pw_far=0.75, rate_near=1.4, rate_far=0.5,
            ipsic=0.0, fixed_user_dist=300.0,
        )
        gap_typ, gap_fix = uc_case(3, 2, link, OMA, seed=12)
        assert gap_typ <= GATE and gap_fix <= GATE


class TestUavCentricHigherOrders:
    def test_order_two_with_residue(self):
        link = NomaLink(rate_near=1.5, rate_far=1.0, ipsic=0.1)
        gap_near, gap_far = uav_case(2, 1, -30.0, link, NOMA, seed=13)
        assert gap_near <= GATE and gap_far <= GATE

    def test_order_three_with_order_two_interference(self):
        link = NomaLink(rate_near=1.0, rate_far=1.0, ipsic=0.0)
        gap_near, gap_far = uav_case(3, 2, -40.0, link, NOMA, seed=14)
        assert gap_near <= GATE and gap_far <= GATE

    def test_orthogonal_benchmark(self):
        link = NomaLink(rate_near=1.0, rate_far=1.0, ipsic=0.0)
        gap_near, gap_far = uav_case(3, 2, -40.0, link, OMA, seed=14)
        assert gap_near <= GATE and gap_far <= GATE
