"""Unit tests for configuration and threshold algebra."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from uavnoma.channel import sinr
from uavnoma.errors import DomainError
from uavnoma.scenario import (
    INFEASIBLE,
    NOMA,
    OMA,
    UAV_CENTRIC,
    USER_CENTRIC,
    NetworkConfig,
    NomaLink,
    cross_residue,
    dbm_to_watts,
    noise_from_bandwidth,
    role_of,
    sinr_threshold,
    thresholds,
)

DENSITY = 1.0 / (500.0**2 * math.pi)


def watts_to_dbm(watts: float) -> float:
    """Convert a power in watts to dBm."""
    if watts <= 0.0:
        raise DomainError(f"watts_to_dbm requires positive power, got {watts}")
    return 10.0 * math.log10(watts) + 30.0


def make_cfg(**kw):
    base = dict(uav_density=DENSITY, tx_power=1e-6, alpha_desired=3.0)
    base.update(kw)
    return NetworkConfig(**base)


class TestUnitConversion:
    def test_dbm_to_watts(self):
        assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)
        assert dbm_to_watts(-30.0) == pytest.approx(1e-6, rel=1e-12)
        assert dbm_to_watts(-40.0) == pytest.approx(1e-7, rel=1e-12)

    def test_roundtrip(self):
        assert watts_to_dbm(dbm_to_watts(-23.4)) == pytest.approx(-23.4, rel=1e-12)

    def test_noise_from_bandwidth(self):
        assert noise_from_bandwidth(1.0) == pytest.approx(3.981071705534985e-21, rel=1e-10)
        assert noise_from_bandwidth(300e3) == pytest.approx(1.1943215116604912e-15, rel=1e-10)
        # +10 dB per decade
        assert watts_to_dbm(noise_from_bandwidth(10.0)) == pytest.approx(-164.0, abs=1e-9)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(DomainError):
            noise_from_bandwidth(0.0)


class TestNetworkConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            make_cfg(uav_height=0.5)
        with pytest.raises(DomainError):
            make_cfg(alpha_interf=2.0)
        with pytest.raises(DomainError):
            make_cfg(tx_power=0.0)
        with pytest.raises(DomainError):
            make_cfg(m_desired=0)


class TestNomaLink:
    def test_ipsic_range(self):
        with pytest.raises(DomainError):
            NomaLink(ipsic=1.5)

    def test_partner_is_the_subject_of_the_swapped_link(self):
        # the partner's rates are the link's, the other way round; power
        # split and ipSIC are the same for both users
        for link in (NomaLink(rate_near=1.0, rate_far=0.5, ipsic=0.2),
                     NomaLink(pw_far=0.3, rate_near=0.4, rate_far=1.2, ipsic=1.0)):
            for strategy in (USER_CENTRIC, UAV_CENTRIC):
                for access in (NOMA, OMA):
                    partner = thresholds(link, strategy, access, partner=True)
                    assert partner == thresholds(_swapped(link), strategy, access)


def _swapped(link):
    """``link`` from the partner's side: the subject of this link is the
    partner of ``link``."""
    return replace(link, rate_near=link.rate_far, rate_far=link.rate_near)


def _coefficients(link, strategy, access=NOMA):
    """Near and far coefficients of the subject and of its partner."""
    ts = thresholds(link, strategy, access)
    partner = thresholds(_swapped(link), strategy, access)
    return ts.near, ts.far, partner.near, partner.far


def _sinr_decodes(link, strategy, access, role, received, noise, interference):
    """Whether the subject of ``link`` decodes its signal in ``role``, by the
    SINR conditions of ``channel.sinr`` at physical power."""
    ts = thresholds(link, strategy, access)
    if access == OMA:
        return bool(sinr(received, 1.0, 1.0, 0.0, noise, interference) > ts.eps_own)
    direct = sinr(received, link.pw_far, link.pw_near, 1.0, noise, interference)
    if role == "far":
        return bool(direct > ts.eps_own)
    # near: the partner's signal ahead of SIC, then its own after it
    residue = cross_residue(link, strategy)
    cross = sinr(received, link.pw_far, link.pw_near, residue, noise, interference)
    own = sinr(received, link.pw_near, link.pw_far, link.ipsic, noise, interference)
    return bool(cross > ts.eps_other and own > ts.eps_own)


class TestThresholds:
    def test_eps_mapping(self):
        assert sinr_threshold(1.0, NOMA) == pytest.approx(1.0)
        assert sinr_threshold(1.0, OMA) == pytest.approx(3.0)
        # orthogonal access at rate R maps to the NOMA threshold at rate 2R
        for rate in (0.25, 0.5, 1.0, 1.7):
            assert sinr_threshold(rate, OMA) == sinr_threshold(2.0 * rate, NOMA)

    def test_perfect_sic_near_coefficient(self):
        # beta=0, pw_near=0.4, rate 1, unit power: the own decode after SIC,
        # M = eps / pw_near = 2.5, dominates the partner decode (about 0.95)
        link = NomaLink(rate_near=1.0, rate_far=0.5, ipsic=0.0)
        ts = thresholds(link, USER_CENTRIC)
        assert ts.near == pytest.approx(2.5, rel=1e-12)

    def test_sic_residue_boundary_infeasible(self):
        # beta * eps * pw_far exactly cancels pw_near: 0.4 - (2/3)*1*0.6.
        # Algebraically zero; float rounding may leave an ulp-scale positive
        # residue, in which case the coefficient is astronomically large and
        # downstream coverage still underflows to exactly zero.
        link = NomaLink(rate_near=1.0, rate_far=0.5, ipsic=2.0 / 3.0)
        ts = thresholds(link, USER_CENTRIC)
        assert ts.near == INFEASIBLE or ts.near > 1e12

    def test_uav_centric_near_infeasible(self):
        # 0.4 - 0.5 * (2^1.5 - 1) * 0.6 < 0: strictly infeasible
        link = NomaLink(rate_near=1.5, rate_far=1.0, ipsic=0.5)
        ts = thresholds(link, UAV_CENTRIC)
        assert ts.near == INFEASIBLE
        assert not math.isfinite(ts.near)

    def test_feasibility_boundary_location(self):
        # the own decode after SIC flips exactly at eps = pw_near / (beta *
        # pw_far); the partner decode at rate 0.5 stays feasible throughout
        beta = 0.5
        eps_boundary = 0.4 / (beta * 0.6)
        for shift, feasible in [(-1e-9, True), (1e-9, False)]:
            rate = math.log2(1.0 + eps_boundary + shift)
            ts = thresholds(NomaLink(rate_near=rate, ipsic=beta), USER_CENTRIC)
            assert math.isfinite(ts.near) is feasible

    def test_perfect_sic_all_feasible_below_ratio(self):
        # beta=0 and both eps below pw_far/pw_near keeps every coefficient
        # of both users finite
        for rate_near in (0.2, 0.6, 1.0, 1.3):
            for rate_far in (0.2, 0.6, 1.0, 1.3):
                if sinr_threshold(rate_near) >= 1.5 or sinr_threshold(rate_far) >= 1.5:
                    continue
                link = NomaLink(rate_near=rate_near, rate_far=rate_far, ipsic=0.0)
                for strategy in (USER_CENTRIC, UAV_CENTRIC):
                    coeffs = _coefficients(link, strategy)
                    assert all(math.isfinite(m) for m in coeffs)

    def test_uav_centric_cross_carries_residue(self):
        # rate_near 0.1: the partner decode ahead of SIC dominates the chain
        link = NomaLink(rate_near=0.1, rate_far=1.0, ipsic=0.1)
        # printed cross SINR: residue beta*pw_near in the denominator
        uav = thresholds(link, UAV_CENTRIC)
        assert uav.near == pytest.approx(1.0 / 0.56, rel=1e-12)
        # user-centric cross decode: the near user's own signal in full
        user = thresholds(link, USER_CENTRIC)
        assert user.near == pytest.approx(1.0 / 0.2, rel=1e-12)
        # the UAV-centric far user, the partner in the far role, decodes with
        # that same no-residue form, bit for bit
        far = thresholds(_swapped(link), UAV_CENTRIC).far
        assert far == pytest.approx(5.0, rel=1e-12)
        assert far == user.near

    @pytest.mark.parametrize("strategy", [USER_CENTRIC, UAV_CENTRIC])
    def test_oma_coefficients_always_feasible(self, strategy):
        link = NomaLink(rate_near=1.0, rate_far=0.5, ipsic=0.9)
        near, far, partner_near, partner_far = _coefficients(link, strategy, OMA)
        # each user's own slot at the doubled rate, whatever its role
        assert near == far == pytest.approx(3.0, rel=1e-12)
        assert partner_near == partner_far == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("strategy", [USER_CENTRIC, UAV_CENTRIC])
    @pytest.mark.parametrize("access", [NOMA, OMA])
    @pytest.mark.parametrize("tx_power", [1e-6, 1e-3])
    def test_unit_power_rule_is_the_sinr_condition(self, strategy, access, tx_power):
        # gain > kappa (N/P + I_1) d^alpha is the SINR chain at power P: a
        # gain just above the bound decodes through channel.sinr, one just
        # below does not, for the subject and its partner in either role
        noise, unit_interference, dist3d, alpha = 1e-10, 1e-9, 120.0, 3.0
        subject = NomaLink(rate_near=0.8, rate_far=0.4, ipsic=0.2)
        for link in (subject, _swapped(subject)):
            ts = thresholds(link, strategy, access)
            for role, kappa in (("near", ts.near), ("far", ts.far)):
                assert math.isfinite(kappa)
                bound = kappa * (noise / tx_power + unit_interference) * dist3d**alpha
                for factor, decodes in ((1.0 + 1e-9, True), (1.0 - 1e-9, False)):
                    received = factor * bound * dist3d**-alpha * tx_power
                    got = _sinr_decodes(
                        link, strategy, access, role, received, noise,
                        tx_power * unit_interference,
                    )
                    assert got is decodes, (link, role, factor)


class TestUnknownNames:
    @pytest.mark.parametrize("access", ["tdma", "NOMA", ""])
    def test_unknown_access_is_refused(self, access):
        with pytest.raises(DomainError, match=f"unknown access {access!r}"):
            sinr_threshold(1.0, access)

    @pytest.mark.parametrize(
        "strategy, user",
        [(USER_CENTRIC, "near"), (UAV_CENTRIC, "typical"), (UAV_CENTRIC, "Far")],
    )
    def test_unknown_user_is_refused(self, strategy, user):
        with pytest.raises(DomainError, match=f"unknown {strategy} user {user!r}"):
            role_of(strategy, user)


class TestThresholdOverflow:
    def test_threshold_that_overflows_is_infeasible(self):
        assert math.isfinite(sinr_threshold(1023.0, NOMA))
        assert sinr_threshold(1024.0, NOMA) == INFEASIBLE
        assert math.isfinite(sinr_threshold(511.0, OMA))
        assert sinr_threshold(512.0, OMA) == INFEASIBLE
        assert sinr_threshold(1e308, OMA) == INFEASIBLE

    @pytest.mark.parametrize("strategy", [USER_CENTRIC, UAV_CENTRIC])
    @pytest.mark.parametrize("access", [NOMA, OMA])
    @pytest.mark.parametrize("ipsic", [0.0, 0.5])
    def test_huge_rate_gives_infeasible_coefficients(self, strategy, access, ipsic):
        # at ipsic 0 the own decode's residue term is 0 * inf: the infinite
        # threshold itself must mark the coefficient infeasible
        link = NomaLink(rate_near=2000.0, rate_far=0.5, ipsic=ipsic)
        ts = thresholds(link, strategy, access)
        assert ts.eps_own == INFEASIBLE
        assert ts.near == INFEASIBLE and ts.far == INFEASIBLE
        # under NOMA the partner cannot decode the subject's signal ahead of
        # SIC; under OMA it decodes in its own slot
        partner = thresholds(_swapped(link), strategy, access)
        assert (partner.near == INFEASIBLE) is (access == NOMA)
        assert math.isfinite(partner.far)

    @settings(max_examples=300, deadline=None)
    @given(
        rate_near=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        rate_far=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        pw_far=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        ipsic=st.floats(min_value=0.0, max_value=1.0),
        strategy=st.sampled_from([USER_CENTRIC, UAV_CENTRIC]),
        access=st.sampled_from([NOMA, OMA]),
    )
    def test_coefficients_positive_or_infeasible(
        self, rate_near, rate_far, pw_far, ipsic, strategy, access
    ):
        link = NomaLink(
            pw_far=pw_far,
            rate_near=rate_near, rate_far=rate_far, ipsic=ipsic,
        )
        ts = thresholds(link, strategy, access)
        for coeff in (ts.near, ts.far):
            # a rate below about 1.6e-16 rounds its threshold 2^R - 1 to 0,
            # and a zero threshold is the one source of a zero coefficient
            assert coeff == INFEASIBLE or coeff > 0.0 or (
                coeff == 0.0 and 0.0 in (ts.eps_own, ts.eps_other)
            )
