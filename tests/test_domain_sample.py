"""Closed forms on a fixed random sample of the accepted domain.

``SEED`` was fixed before any value of the sample was computed, and no case
is ever dropped. Each case draws a strategy, a role and an access scheme,
m_d in 1..5, m_I in 1..3, alpha_I in [2.05, 4], alpha_d in [2.5, 4.5],
-40 to +30 dBm, h from 1 to 2000 m and the density from lam0/100 to
10 lam0 (both log-uniform), rates, ipSIC, power split and r_k. Every value
must lie within 1e-6 of its tight reference in ``REFERENCES``:
``uavnoma.validation.adaptive_coverage_pair`` (UAV-centric) or
``uavnoma.validation.piecewise_user_centric_coverage`` (user-centric), both
adaptive Gauss-Kronrod quadrature on 50 log-spaced panels. All 240
references take about a minute, so they are pinned, and the first eight are
recomputed here; regenerate them from the repository root with

    PYTHONPATH=src python tests/test_domain_sample.py
"""

import math

import numpy as np
import pytest

from uavnoma.analytic_uav_centric import FAR, NEAR, coverage_pair
from uavnoma.analytic_user_centric import coverage_fixed, coverage_typical
from uavnoma.scenario import NOMA, OMA, NetworkConfig, NomaLink, dbm_to_watts

SEED = 20261018
CASES = 240
DENSITY = 1.0 / (500.0**2 * math.pi)
ROLES = {"uav": (NEAR, FAR), "user": ("typical", "fixed")}


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw_cases(seed: int = SEED, count: int = CASES) -> list[tuple]:
    """(strategy, role, access, cfg, link) per case, strategies alternating."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        strategy = ("uav", "user")[i % 2]
        role = ROLES[strategy][int(rng.integers(2))]
        access = (NOMA, OMA)[int(rng.integers(2))]
        cfg = NetworkConfig(
            uav_density=DENSITY * 10.0 ** rng.uniform(-2.0, 1.0),
            tx_power=dbm_to_watts(rng.uniform(-40.0, 30.0)),
            alpha_desired=rng.uniform(2.5, 4.5),
            uav_height=_log_uniform(rng, 1.0, 2000.0),
            alpha_interf=rng.uniform(2.05, 4.0),
            m_desired=int(rng.integers(1, 6)),
            m_interf=int(rng.integers(1, 4)),
        )
        pw_far = rng.uniform(0.55, 0.9)
        link = NomaLink(
            pw_far=pw_far,
            pw_near=1.0 - pw_far,
            rate_near=rng.uniform(0.2, 1.5),
            rate_far=rng.uniform(0.2, 1.5),
            ipsic=rng.uniform(0.0, 0.3),
            fixed_user_dist=_log_uniform(rng, 20.0, 2000.0),
        )
        cases.append((strategy, role, access, cfg, link))
    return cases


def closed_form(strategy, role, access, cfg, link) -> float:
    if strategy == "uav":
        return coverage_pair(role, cfg, link, access)
    fn = coverage_typical if role == "typical" else coverage_fixed
    return fn(cfg, link, access)


def reference(strategy, role, access, cfg, link) -> float:
    from uavnoma.validation import adaptive_coverage_pair, piecewise_user_centric_coverage

    if strategy == "uav":
        return adaptive_coverage_pair(role, cfg, link, access)
    return piecewise_user_centric_coverage(role, cfg, link, access)


DRAWN = draw_cases()

REFERENCES = [
    0.0,
    2.0500820354372875e-94,
    1.1210727201573022e-06,
    0.0007662355317487017,
    0.9772200076072299,
    0.08822297050986262,
    0.0014898853611108789,
    0.0,
    0.9959735220354624,
    0.9999999940367656,
    0.0,
    0.9999927275194159,
    0.003936018779075559,
    0.1567661547240963,
    0.18504621184993858,
    0.7782016553763114,
    0.5302827074505451,
    0.0005495440570640192,
    0.0,
    0.25710941247929525,
    0.0,
    1.7004343060508956e-45,
    0.0,
    0.01865075406302794,
    2.268418445648347e-147,
    0.021253192206308502,
    6.415672328141895e-08,
    1.3894537002195908e-130,
    2.112167323625449e-05,
    0.0021660322939202068,
    0.0,
    0.013009370425118788,
    0.9999445278854867,
    2.8533868054485763e-19,
    0.0,
    3.8264749895865936e-53,
    0.9453104051087151,
    0.0,
    0.06402377331634676,
    0.1430240795181329,
    0.0,
    0.2895696012470326,
    1.3467676129777453e-126,
    0.0,
    0.9997396484115735,
    1.7210000935780985e-21,
    0.08529525424451062,
    0.030131806466882766,
    0.8228975270096237,
    0.009015074113403,
    0.6371062202305625,
    6.343042067850823e-139,
    0.9941182151648215,
    0.02246313342045997,
    0.4627932667086374,
    0.12292584323377741,
    0.11947252780558104,
    0.0,
    0.9993458802837973,
    5.890196463208355e-22,
    0.9999409995217302,
    4.285373491048519e-113,
    0.04567974452438098,
    0.0,
    0.011901685906180676,
    0.0,
    2.980202995899231e-132,
    0.2875344996002108,
    0.9999387376119571,
    0.027627203465662928,
    1.9246768566162966e-07,
    0.9999998277372848,
    0.9996818336666646,
    0.11797891491138655,
    0.0,
    0.004589830560371214,
    0.9284243035924513,
    0.0,
    0.5398252696639995,
    0.01202637336096218,
    0.27586170076397426,
    0.9999998471184942,
    2.24534e-318,
    0.022043688798065602,
    0.0,
    3.9749030363229086e-135,
    0.0,
    0.0018093611218661454,
    4.417616342643984e-05,
    0.9999747669305684,
    0.06583064161121664,
    0.9999786612884011,
    0.029713149698849615,
    0.6359813136597133,
    0.018349367091938126,
    0.34816198397423453,
    0.9879662655835764,
    0.0060576032477304515,
    0.0,
    0.015520281454190049,
    0.06841137334578927,
    0.0,
    0.06868211742891846,
    0.0,
    0.0,
    0.9999732489335558,
    0.559437133073779,
    0.0,
    0.036596488928347576,
    0.0,
    0.9959745201998544,
    4.234729557431049e-06,
    0.0,
    0.6683811653351381,
    0.7260889674976964,
    0.00030601065911285534,
    0.046839493588659,
    0.0,
    3.472069316647058e-205,
    0.001665579161742047,
    4.685025190826819e-31,
    0.999999851964915,
    0.9978714245792211,
    0.0,
    0.15418949966305573,
    0.26440811942586345,
    0.9974263962575993,
    2.819322632890804e-14,
    0.1826018106103674,
    0.9999997889990979,
    0.6685680196475761,
    3.407353315783477e-56,
    0.307900789342404,
    0.35482501436618,
    0.06638430533799333,
    0.7361227379200698,
    0.060389962265088866,
    0.1626561750430326,
    0.015252280451090424,
    0.0,
    0.1951636706285801,
    3.5449193014110673e-12,
    0.46151644811159886,
    0.007546958130317081,
    4.23412569147845e-12,
    7.994899594359647e-39,
    6.378633076115259e-72,
    0.7829381570810606,
    0.0,
    0.12101420834589058,
    0.9958722219837728,
    0.0038465078379778693,
    3.5923457526124854e-29,
    0.0,
    0.06121952998563596,
    0.0,
    0.9558347336310078,
    0.007632431733933244,
    0.0,
    0.08534889395316773,
    0.0,
    0.08006860947143052,
    0.48476231282153365,
    0.0016985032282061858,
    0.9955661844958835,
    0.9853019970702748,
    0.01032303886254169,
    0.9999950906258862,
    0.0,
    0.40067930838317845,
    0.09255069066099368,
    0.9459669200258524,
    0.5256781440650803,
    0.06202705938629002,
    4.4822520946549534e-99,
    0.20166167443675134,
    0.7579956341129385,
    0.0005265221243901711,
    0.003559680188518592,
    0.999999965630889,
    0.9874315865640334,
    0.011413831721418934,
    0.011011856992666968,
    2.811469103335015e-121,
    0.7727063067454493,
    0.00043851084807871107,
    0.9607852793511772,
    0.0010561908091404606,
    1.4773459913063225e-12,
    9.937130495612288e-62,
    0.013024200557533264,
    0.04303499680615468,
    0.5388625607990365,
    0.9974858404922098,
    0.0,
    0.0,
    0.011963671733720939,
    0.0,
    0.0,
    0.0010117064088174224,
    0.2685981073325771,
    0.3139778259919867,
    2.8508668163051733e-06,
    0.8448695748858523,
    0.5604934961649574,
    0.9998085234137791,
    3.493511065044098e-124,
    0.0,
    0.04579599813946243,
    1.0364690255218538e-20,
    1.30057415017437e-10,
    0.0,
    1.4119195960039125e-107,
    0.0,
    0.0022096081605832017,
    0.9842592087918712,
    0.005849966842152481,
    2.2990562168436202e-15,
    0.054230301401536715,
    0.9980000141052339,
    0.9765548297841968,
    3.051005615646006e-10,
    0.05751233191740629,
    0.9932150265593657,
    0.015670453646261753,
    0.00020080912109541333,
    0.2668139738703072,
    0.0,
    2.276992853694667e-05,
    0.0,
    0.9999984762211911,
    0.9943052313655169,
    0.02393539136775467,
    1.5993807452919566e-23,
    0.0,
    0.9993455908415226,
    0.12577964106866868,
    4.2495440783458265e-56,
    0.9994084861868137,
    1.5116692727272963e-183,
]


def test_sample_is_fully_pinned():
    assert len(REFERENCES) == len(DRAWN) == CASES
    assert {case[0] for case in DRAWN} == {"uav", "user"}
    assert {case[1] for case in DRAWN} == {NEAR, FAR, "typical", "fixed"}
    assert {case[2] for case in DRAWN} == {NOMA, OMA}


@pytest.mark.parametrize(
    "index", range(CASES), ids=[f"{c[0]}-{c[1]}-{i:03d}" for i, c in enumerate(DRAWN)]
)
def test_within_1e6_of_tight_reference(index):
    assert abs(closed_form(*DRAWN[index]) - REFERENCES[index]) < 1e-6


@pytest.mark.parametrize("index", range(8))
def test_reference_reproduces_pin(index):
    assert abs(reference(*DRAWN[index]) - REFERENCES[index]) < 1e-12


if __name__ == "__main__":
    import sys

    print("REFERENCES = [")
    for i, case in enumerate(DRAWN):
        print(f"    {reference(*case)!r},", flush=True)
        print(f"{i} done", file=sys.stderr, flush=True)
    print("]")
