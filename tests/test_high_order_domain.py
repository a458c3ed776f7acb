"""Closed forms at high fading order on a fixed random sample of the domain.

``SEED`` was fixed before any value of the sample was computed, and no case
is ever dropped. Each case draws a strategy (alternating), an access scheme,
the density from 1e-8 to 1e-4 per m^2 and h from 1 to 1000 m (both
log-uniform), alpha_d in [2, 6], alpha_I in [2.05, 4.5], -60 to +30 dBm,
m_I in 1..3, rates, ipSIC, power split and r_k, at m_d in 24, 32, 60 and
100. Both values of each point (near and far, or typical and fixed) must be
finite and lie in [0, 1]; a ``NumericalError`` fails the case. Past the
bound on either order every entry point of the closed forms refuses the
config.

At these orders the radial tail's coefficients z^k 2F1(...; -z) overflow
before their 2F1 underflows wherever z is large, so the sample reaches the
1/z connection branch of ``laplace``. A UAV-centric point costs about 1.2 s
at m_d = 100, so the counts below keep the sample to about 15 s.
"""

import math

import numpy as np
import pytest

from uavnoma import analytic_uav_centric, analytic_user_centric, quadrature
from uavnoma.errors import DomainError
from uavnoma.scenario import NOMA, OMA, NetworkConfig, NomaLink, dbm_to_watts

SEED = 20261019
# points per fading order, strategies alternating from UAV-centric
COUNTS = {24: 24, 32: 20, 60: 10, 100: 6}
STRATEGIES = {"uav": analytic_uav_centric, "user": analytic_user_centric}


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw_cases(seed: int = SEED) -> list[tuple]:
    """(strategy, access, cfg, link) per case."""
    rng = np.random.default_rng(seed)
    cases = []
    for m_desired, count in COUNTS.items():
        for i in range(count):
            strategy = ("uav", "user")[i % 2]
            access = (NOMA, OMA)[int(rng.integers(2))]
            cfg = NetworkConfig(
                uav_density=_log_uniform(rng, 1e-8, 1e-4),
                tx_power=dbm_to_watts(rng.uniform(-60.0, 30.0)),
                alpha_desired=rng.uniform(2.0, 6.0),
                uav_height=_log_uniform(rng, 1.0, 1000.0),
                alpha_interf=rng.uniform(2.05, 4.5),
                m_desired=m_desired,
                m_interf=int(rng.integers(1, 4)),
            )
            pw_far = rng.uniform(0.55, 0.9)
            link = NomaLink(
                pw_far=pw_far,
                rate_near=rng.uniform(0.2, 1.5),
                rate_far=rng.uniform(0.2, 1.5),
                ipsic=rng.uniform(0.0, 0.3),
                fixed_user_dist=_log_uniform(rng, 20.0, 2000.0),
            )
            cases.append((strategy, access, cfg, link))
    return cases


DRAWN = draw_cases()


def test_sample_covers_both_strategies_and_access_schemes_at_every_order():
    for m_desired in COUNTS:
        drawn = [case for case in DRAWN if case[2].m_desired == m_desired]
        assert {case[0] for case in drawn} == set(STRATEGIES)
    assert {case[1] for case in DRAWN} == {NOMA, OMA}


@pytest.mark.parametrize(
    "index",
    range(len(DRAWN)),
    ids=[f"{c[0]}-m{c[2].m_desired}-{i:02d}" for i, c in enumerate(DRAWN)],
)
def test_both_values_are_probabilities(index):
    strategy, access, cfg, link = DRAWN[index]
    form = STRATEGIES[strategy].FORM
    (values,) = quadrature.coverage_sweep(form, [(cfg, link)], access)
    for value in values:
        assert math.isfinite(value) and 0.0 <= value <= 1.0, values


LINK = NomaLink()
# the library entry points of each strategy's closed forms, each taking a
# config and giving its values
ENTRY_POINTS = {
    "uav": [
        lambda cfg: [analytic_uav_centric.coverage_pair(analytic_uav_centric.NEAR, cfg, LINK)],
        lambda cfg: [analytic_uav_centric.coverage_pair(analytic_uav_centric.FAR, cfg, LINK)],
        # the conditional forms, at r and R
        lambda cfg: [analytic_uav_centric.coverage_cond_pair(
            20.0, 100.0, analytic_uav_centric.NEAR, cfg, LINK
        )],
        lambda cfg: [analytic_uav_centric.coverage_cond_pair(
            40.0, 100.0, analytic_uav_centric.FAR, cfg, LINK
        )],
        lambda cfg: quadrature.coverage_sweep(analytic_uav_centric.FORM, [(cfg, LINK)], NOMA)[0],
    ],
    "user": [
        lambda cfg: [analytic_user_centric.coverage_typical(cfg, LINK)],
        lambda cfg: [analytic_user_centric.coverage_fixed(cfg, LINK)],
        # the conditional forms, at r
        lambda cfg: [analytic_user_centric.coverage_cond(50.0, cfg, LINK)],
        lambda cfg: [analytic_user_centric.coverage_cond(
            50.0, cfg, LINK, user=analytic_user_centric.FIXED
        )],
        lambda cfg: quadrature.coverage_sweep(analytic_user_centric.FORM, [(cfg, LINK)], NOMA)[0],
    ],
}


class TestOrderBound:
    """The closed forms refuse, with ``DomainError``, fading orders past
    ``quadrature.MAX_CLOSED_FORM_ORDERS``, whichever entry point reaches
    them; at the bound they answer."""

    @pytest.mark.parametrize("field, order", [("m_interf", 11), ("m_desired", 101)])
    @pytest.mark.parametrize("strategy", list(ENTRY_POINTS))
    def test_order_past_the_bound_is_refused(self, strategy, field, order):
        cfg = NetworkConfig(**{field: order})
        for entry in ENTRY_POINTS[strategy]:
            with pytest.raises(DomainError, match=f"^{field}: the closed forms take orders up to"):
                entry(cfg)

    @pytest.mark.parametrize("field, order", [("m_interf", 10), ("m_desired", 100)])
    @pytest.mark.parametrize("strategy", list(ENTRY_POINTS))
    def test_order_at_the_bound_answers(self, strategy, field, order):
        assert quadrature.MAX_CLOSED_FORM_ORDERS[field] == order
        for entry in ENTRY_POINTS[strategy]:
            values = entry(NetworkConfig(**{field: order}))
            for value in values:
                assert math.isfinite(value) and 0.0 <= value <= 1.0, values
