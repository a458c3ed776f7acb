"""The four readers of ``scenario.ROLE_TABLE`` agree on every user's roles.

The Monte Carlo evaluation, both closed forms and the CLI's infeasibility
warnings each read which link a user decodes on and which role it plays
from the table. On one grid of links (feasible, and infeasible by SIC
residue, by power split and by rate) under both strategies and both access
modes, every user's coverage must be exactly 0 in the roles whose decode
coefficient is infeasible, and only there, in the Monte Carlo and in the
closed form alike, and the warnings must name exactly those roles. Which
coefficient each user takes in each role is restated here from
``thresholds`` alone, as the oracle.
"""

import dataclasses
import math

import numpy as np
import pytest

from uavnoma import analytic_uav_centric, analytic_user_centric, cli, quadrature
from uavnoma.analytic_user_centric import coverage_cond
from uavnoma.montecarlo import evaluate, simulate
from uavnoma.scenario import (
    NOMA,
    OMA,
    ROLE_TABLE,
    UAV_CENTRIC,
    USER_CENTRIC,
    NetworkConfig,
    NomaLink,
    thresholds,
)

# 0 dBm: every feasible role covers a good share of its trials
CFG = NetworkConfig(tx_power=1e-3, alpha_desired=3.0)
R_K = 300.0

LINKS = {
    "feasible": NomaLink(rate_near=1.0, rate_far=0.5),
    "sic-residue": NomaLink(rate_near=1.0, rate_far=0.5, ipsic=0.9),
    "split": NomaLink(pw_far=0.2, rate_near=1.0, rate_far=0.5),
    "far-rate": NomaLink(rate_near=1.5, rate_far=1.0),
    "partner-chain": NomaLink(rate_near=0.5, rate_far=0.9, ipsic=1.0),
    "overflow": NomaLink(rate_near=2000.0, rate_far=0.5),
}

# each user's coefficient in each role it plays: (decodes on the link with
# swapped rates, the ThresholdSet field), and the role the warnings name
ORACLE = {
    USER_CENTRIC: {
        ("typical", "near"): (False, "near", "near/SIC chain"),
        ("typical", "far"): (False, "far", "far decode"),
        ("fixed", "near"): (True, "near", "fixed user near/SIC chain"),
        ("fixed", "far"): (True, "far", "fixed user far decode"),
    },
    UAV_CENTRIC: {
        ("near", "near"): (False, "near", "near/SIC chain"),
        ("far", "far"): (True, "far", "far decode"),
    },
}
# the role each user plays among the trials where the typical user's serving
# distance lies below r_k and among the others; UAV-centric, in all trials
PLAYED = {
    USER_CENTRIC: ({"typical": "near", "fixed": "far"}, {"typical": "far", "fixed": "near"}),
    UAV_CENTRIC: ({"near": "near", "far": "far"},),
}
CASES = [
    pytest.param(strategy, access, name, id=f"{strategy}-{access}-{name}")
    for strategy in (USER_CENTRIC, UAV_CENTRIC)
    for access in (NOMA, OMA)
    for name in LINKS
]


def _infeasible(strategy, access, link):
    """{(user, role): coefficient is infinite}, from ``thresholds``."""
    out = {}
    for (user, role), (swapped, field, _) in ORACLE[strategy].items():
        decoded = link.with_swapped_rates() if swapped else link
        coeff = getattr(thresholds(decoded, strategy, access), field)
        # a feasible coefficient small enough that its coverage is not 0
        assert not math.isfinite(coeff) or coeff < 100.0
        out[user, role] = not math.isfinite(coeff)
    return out


@pytest.fixture(scope="module")
def batches():
    link = dataclasses.replace(LINKS["feasible"], fixed_user_dist=R_K)
    return {s: simulate(CFG, link, s, 2_000, seed=3) for s in (USER_CENTRIC, UAV_CENTRIC)}


def _subsets(batch, strategy):
    """The batch cut by ``PLAYED``: below r_k and beyond it, or whole."""
    if strategy == UAV_CENTRIC:
        return [batch]
    below = batch.dist3d[0] < batch.dist3d[1]
    assert 100 < below.sum() < batch.trials - 100
    return [
        dataclasses.replace(
            batch,
            distance=batch.distance[mask],
            dist3d=batch.dist3d[:, mask],
            interference=batch.interference[:, mask],
            gain=batch.gain[:, mask],
        )
        for mask in (below, ~below)
    ]


@pytest.mark.parametrize("strategy, access, name", CASES)
def test_consumers_agree_on_infeasible_roles(batches, capsys, strategy, access, name):
    link = dataclasses.replace(LINKS[name], fixed_user_dist=R_K)
    infeasible = _infeasible(strategy, access, link)
    users = [role.user for role in ROLE_TABLE[strategy]]

    # the Monte Carlo: no success in the trials of an infeasible role only
    for subset, played in zip(_subsets(batches[strategy], strategy), PLAYED[strategy]):
        counts = evaluate(subset, CFG, link, access)
        for user, count in zip(users, counts):
            assert (count == 0) == infeasible[user, played[user]], (user, played)

    # the closed forms: the value given r is exactly 0 on the side of r_k of
    # an infeasible role, and the value is exactly 0 where every role is
    if strategy == USER_CENTRIC:
        for side, r in zip(PLAYED[strategy], ([10.0, 150.0, 290.0], [310.0, 600.0, 2000.0])):
            for user in users:
                values = coverage_cond(np.array(r), CFG, link, access, user)
                zero = infeasible[user, side[user]]
                assert np.all(values == 0.0) if zero else np.all(values > 0.0), (user, r)
    module = analytic_user_centric if strategy == USER_CENTRIC else analytic_uav_centric
    (values,) = quadrature.coverage_sweep(module.FORM, [(CFG, link)], access)
    for user, value in zip(users, values):
        dead = all(v for (u, _), v in infeasible.items() if u == user)
        assert (value == 0.0) == dead, user

    # the warnings: exactly the infeasible roles, each named once
    cli._warn_infeasible(link, strategy, access)
    named = [
        ORACLE[strategy][key][2] for key, dead in infeasible.items() if dead
    ]
    tail = "infeasible for this power allocation; the affected coverage is exactly zero"
    lines = capsys.readouterr().err.splitlines()
    assert sorted(lines) == sorted(f"warning: {n} coefficient is {tail}" for n in named)


def test_grid_reaches_every_infeasible_role():
    # the grid is not vacuous: every role of every user is infeasible in
    # some case and feasible in another
    seen = {}
    for strategy in (USER_CENTRIC, UAV_CENTRIC):
        for access in (NOMA, OMA):
            for link in LINKS.values():
                for key, dead in _infeasible(strategy, access, link).items():
                    seen.setdefault((strategy, *key), set()).add(dead)
    assert all(flags == {True, False} for flags in seen.values()), seen
