"""Closed forms at high fading order on a fixed random sample of the domain.

``SEED`` was fixed before any value of the sample was computed, and no case
is ever dropped. Each case draws a strategy (alternating), an access scheme,
the density from 1e-8 to 1e-4 per m^2 and h from 1 to 1000 m (both
log-uniform), alpha_d in [2, 6], alpha_I in [2.05, 4.5], -60 to +30 dBm,
m_I in 1..3, rates, ipSIC, power split and r_k, at m_d in 24, 32, 60 and
100. Both values of each point (near and far, or typical and fixed) must be
finite and lie in [0, 1]; a ``NumericalError`` fails the case.

At these orders the radial tail's coefficients z^k 2F1(...; -z) overflow
before their 2F1 underflows wherever z is large, so the sample reaches the
1/z connection branch of ``laplace``. A UAV-centric point costs about 1.2 s
at m_d = 100, so the counts below keep the sample to about 15 s.
"""

import math

import numpy as np
import pytest

from uavnoma import analytic_uav_centric, analytic_user_centric, quadrature
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
