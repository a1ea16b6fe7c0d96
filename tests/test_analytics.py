"""Unit tests for the closed-form outage and latency expressions.

Expected values come from independent derivations: exact rational arithmetic
for the correlation penalty at dyadic correlation levels, logarithmic closed
forms and numeric volume integration for the incremental-redundancy rate
coefficient, and a 40-digit recomputation of one full evaluation chain.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from harqpower.analytics import (analytic_chain, correlation_factor, evaluate,
                                 rate_factors)
from harqpower.types import (OUTAGE_CAP, ChannelParams, LinkConfig,
                             PowerPolicy, Scheme)


def _scalar_correlation_factor(rho, rounds, delta=1):
    """Reference: the penalty of `rounds` rounds, one scalar loop per call."""
    t = [rho ** (2 * (j + delta - 1)) for j in range(1, rounds + 1)]
    total = 1.0
    for tj in t:
        total *= 1.0 - tj
    for j, tj in enumerate(t):
        term = tj
        for i, ti in enumerate(t):
            if i != j:
                term *= 1.0 - ti
        total += term
    return total


def _scalar_rate_factor(scheme, rate, rounds):
    """Reference: the rate factor of `rounds` rounds, factorials rebuilt."""
    if scheme is Scheme.INCREMENTAL:
        x = rate * math.log(2.0)
        acc = 0.0
        for k in range(rounds):
            m = rounds - k - 1
            fact = 1.0
            for i in range(2, m + 1):
                fact *= i
            acc += (-1.0) ** k * x ** m / fact
        return (-1.0) ** rounds + 2.0 ** rate * acc
    base = (2.0 ** rate - 1.0) ** rounds
    if scheme is Scheme.TYPE_I:
        return base
    fact = 1.0
    for i in range(2, rounds + 1):
        fact *= i
    return base / fact


class TestCorrelationFactor:
    def test_single_round_is_exactly_one(self):
        for rho in (0.0, 0.1, 0.37, 0.73, 0.98, 0.999):
            assert correlation_factor(rho, 1)[0] == 1.0

    def test_uncorrelated_is_exactly_one(self):
        for k in (1, 2, 3, 5, 8):
            assert correlation_factor(0.0, k)[k - 1] == 1.0

    def test_dyadic_rational_values_exact(self):
        # 63/64 and 2007/2048, derived with Fraction arithmetic
        assert correlation_factor(0.5, 3).tolist() == [1.0, 0.984375,
                                                      0.97998046875]

    def test_two_round_closed_form(self):
        # for a unit gap the two-round penalty collapses to 1 - rho^6
        for rho in (0.1, 0.5, 0.9, 0.98):
            assert correlation_factor(rho, 2)[1] == pytest.approx(
                1.0 - rho ** 6, rel=1e-12)

    def test_strong_correlation_values(self):
        assert correlation_factor(0.98, 3)[1:] == pytest.approx(
            [0.114157619136, 0.015755237136267575], rel=1e-12)

    def test_larger_gap_weakens_coupling(self):
        for rho in (0.3, 0.7, 0.95):
            assert (correlation_factor(rho, 3, delta=2)[2]
                    > correlation_factor(rho, 3, delta=1)[2])

    @given(rho=st.floats(0.0, 0.9999), k=st.integers(1, 6))
    def test_bounded_and_positive(self, rho, k):
        v = correlation_factor(rho, k)[k - 1]
        assert 0.0 < v <= 1.0

    @given(rho=st.floats(0.0, 0.999), k=st.integers(1, 5))
    def test_nonincreasing_in_rounds(self, rho, k):
        v = correlation_factor(rho, k + 1)
        assert v[k - 1] >= v[k]

    @given(rho=st.floats(0.0, 0.99), bump=st.floats(1e-4, 0.009),
           k=st.integers(2, 5))
    def test_nonincreasing_in_correlation(self, rho, bump, k):
        v = correlation_factor(np.array([rho, rho + bump]), k)[k - 1]
        assert v[0] >= v[1] - 1e-15

    def test_rejects_bad_arguments(self):
        for rho in (1.0, -0.1, math.nan, np.array([0.2, 1.0]),
                    np.array([[0.5, math.nan]])):
            with pytest.raises(ValueError, match="rho must lie in"):
                correlation_factor(rho, 2)
        with pytest.raises(ValueError):
            correlation_factor(0.5, 0)

    def test_one_entry_per_round_and_rho(self):
        rho = np.array([[0.0, 0.3], [0.6, 0.9]])
        v = correlation_factor(rho, 4, delta=2)
        assert v.shape == (4, 2, 2)
        for k in range(1, 5):
            for idx in np.ndindex(2, 2):
                assert v[(k - 1, *idx)] == correlation_factor(
                    float(rho[idx]), k, 2)[k - 1]

    def test_bits_match_the_scalar_formula(self):
        # every round of one prefix pass, and its inverse, against the
        # scalar formula; a shorter pass is the longer one's prefix
        rng = np.random.default_rng(20_004)
        rho = np.concatenate([rng.random(20_000),
                              [0.0, 0.5, 0.98, 1.0 - 2.0 ** -53]])
        for delta in (1, 2, 3):
            full = correlation_factor(rho, 8, delta)
            for k in range(1, 9):
                want = np.array([_scalar_correlation_factor(r, k, delta)
                                 for r in rho.tolist()])
                assert full[k - 1].tobytes() == want.tobytes()
                assert (1.0 / full[k - 1]).tobytes() == (1.0 / want).tobytes()
            for rounds in (1, 2, 3, 5):
                short = correlation_factor(rho, rounds, delta)
                assert short.tobytes() == full[:rounds].tobytes()
            for r in rho[-4:].tolist():  # a scalar rho, as evaluate passes
                assert correlation_factor(r, 8, delta).tolist() == [
                    _scalar_correlation_factor(r, k, delta) for k in range(1, 9)]


def _region_volume(rate, rounds):
    """Independent oracle: volume of the accumulated-rate outage region."""
    if rounds == 1:
        return 2.0 ** rate - 1.0
    top = 2.0 ** rate - 1.0
    return quad(lambda g: _region_volume(rate - math.log2(1.0 + g), rounds - 1),
                0.0, top, limit=200)[0]


class TestRateFactors:
    def test_one_round_all_schemes_equal(self):
        for rate in (0.5, 1.0, 2.0, 4.0):
            want = 2.0 ** rate - 1.0
            for scheme in Scheme:
                assert rate_factors(scheme, rate, 1) == [want]

    def test_zero_rate_vanishes(self):
        assert rate_factors(Scheme.INCREMENTAL, 0.0, 4) == [0.0] * 4

    def test_ir_logarithmic_closed_forms(self):
        # K=2: 2^R * R ln2 - (2^R - 1); K=3 from the same integral once more
        x = 2.0 * math.log(2.0)
        assert rate_factors(Scheme.INCREMENTAL, 2.0, 3)[1:] == pytest.approx(
            [8.0 * math.log(2.0) - 3.0, -1.0 + 4.0 * (x * x / 2.0 - x + 1.0)],
            rel=1e-14)

    def test_ir_matches_numeric_volume(self):
        for rate, rounds in ((1.5, 2), (2.0, 3), (3.0, 2)):
            assert rate_factors(Scheme.INCREMENTAL, rate, rounds)[-1] == (
                pytest.approx(_region_volume(rate, rounds), rel=1e-9))

    def test_type1_and_chase_closed_forms(self):
        assert rate_factors(Scheme.TYPE_I, 2.0, 3) == [3.0, 9.0, 27.0]
        assert rate_factors(Scheme.CHASE, 2.0, 3) == [3.0, 4.5, 4.5]
        assert rate_factors(Scheme.TYPE_I, 1.0, 4) == [1.0] * 4

    @given(rate=st.floats(0.01, 6.0), k=st.integers(2, 5))
    @settings(max_examples=60)
    def test_combining_gain_ordering(self, rate, k):
        ir, cc, t1 = (rate_factors(scheme, rate, k)[k - 1] for scheme in
                      (Scheme.INCREMENTAL, Scheme.CHASE, Scheme.TYPE_I))
        assert 0.0 < ir < cc < t1

    def test_rejects_bad_arguments(self):
        for scheme in Scheme:
            with pytest.raises(ValueError, match="rounds"):
                rate_factors(scheme, 2.0, 0)
            with pytest.raises(ValueError, match="rate"):
                rate_factors(scheme, -1.0, 2)

    def test_huge_rate_overflows(self):
        for scheme in Scheme:
            with pytest.raises(OverflowError):
                rate_factors(scheme, 2000.0, 3)

    def test_bits_match_the_scalar_formula(self):
        for scheme in Scheme:
            for rate in (1e-3, 0.5, 1.0, 2.0, 3.0, 7.3):
                for rounds in (1, 3, 10, 30):
                    got = rate_factors(scheme, rate, rounds)
                    want = [_scalar_rate_factor(scheme, rate, k)
                            for k in range(1, rounds + 1)]
                    assert [f.hex() for f in got] == [f.hex() for f in want]


class TestAsymptoticOutage:
    def test_single_round_hand_value(self):
        ch = ChannelParams(rho=0.0, num_rounds=1)
        rep = evaluate(PowerPolicy((10.0,)), ch, Scheme.TYPE_I, LinkConfig())
        assert rep.outage_profile[0] == pytest.approx(0.3, abs=1e-15)
        assert (1.0 / correlation_factor(ch.rho, 1)).tolist() == [1.0]
        raw, _, _, _ = analytic_chain((10.0,), [1.0],
                                      rate_factors(Scheme.TYPE_I, 2.0, 1),
                                      LinkConfig())
        assert raw[0] == rep.outage_profile[0]

    def test_cap_engages_at_tiny_power(self):
        ch = ChannelParams(rho=0.0, num_rounds=1)
        rep = evaluate(PowerPolicy((0.01,)), ch, Scheme.TYPE_I, LinkConfig())
        assert rep.outage_profile[0] == OUTAGE_CAP
        raw, _, _, _ = analytic_chain((0.01,), [1.0],
                                      rate_factors(Scheme.TYPE_I, 2.0, 1),
                                      LinkConfig())
        assert raw[0] > 1.0

    @given(power=st.floats(5.0, 500.0), extra=st.floats(1.01, 4.0))
    @settings(max_examples=40)
    def test_more_power_never_hurts(self, power, extra):
        ch = ChannelParams(rho=0.5)
        lo = PowerPolicy((power, power, power))
        hi = PowerPolicy((power * extra, power, power))
        for scheme in Scheme:
            prof_hi = evaluate(hi, ch, scheme, LinkConfig()).outage_profile
            prof_lo = evaluate(lo, ch, scheme, LinkConfig()).outage_profile
            assert all(a <= b for a, b in zip(prof_hi, prof_lo))

    def test_profile_round_count_must_match(self):
        with pytest.raises(ValueError):
            evaluate(PowerPolicy((10.0, 10.0)), ChannelParams(rho=0.2),
                     Scheme.TYPE_I, LinkConfig())


class TestLinkMetrics:
    # The chain's outages are P_k = inv_corr_k * factor_k / (p_1 ... p_k),
    # so chosen inverse-correlation inputs set the profile.

    @staticmethod
    def chain(powers, inv_corr, rate=1.0, capped=False):
        # Type-I at rate 1 has unit rate factors
        return analytic_chain(powers, inv_corr,
                              rate_factors(Scheme.TYPE_I, rate, len(powers)),
                              LinkConfig(rate=rate), capped=capped)

    def test_throughput_hand_value(self):
        # rate 2: factors 3, 9, 27 against 30, 900, 27000 give 0.1, 0.01, 0.001
        outages, eta, _, _ = self.chain((30.0, 30.0, 30.0), (1.0, 1.0, 1.0),
                                        rate=2.0)
        assert outages == pytest.approx([0.1, 0.01, 0.001], rel=1e-15)
        assert eta == pytest.approx(1.8, rel=1e-12)

    def test_dyadic_hand_values(self):
        outages, eta, tau, pavg = self.chain((2.0, 4.0, 8.0), (1.0, 2.0, 8.0))
        assert outages.tolist() == [0.5, 0.25, 0.125]
        # (1 - 1/8) / (1 + 1/2 + 1/4)
        assert eta == 0.5
        assert tau == LinkConfig().payload_bits / (0.5 * LinkConfig().bandwidth_hz)
        # 2 + 4/2 + 8/4
        assert pavg == 6.0

    def test_throughput_rejects_empty(self):
        with pytest.raises(ValueError):
            PowerPolicy(())

    def test_latency_floor_value(self):
        # zero outage: every packet goes through in one round at full rate
        outages, eta, tau, pavg = self.chain((3.0, 5.0, 7.0), (0.0, 0.0, 0.0),
                                             rate=2.0)
        assert outages.tolist() == [0.0, 0.0, 0.0]
        assert eta == 2.0
        assert tau == 0.05
        assert pavg == 3.0

    def test_average_power_hand_value(self):
        outages, _, _, pavg = self.chain((2.0, 3.0, 4.0), (1.0, 1.5, 2.4))
        assert outages[:2].tolist() == [0.5, 0.25]
        assert pavg == 4.5

    def test_average_power_certain_retransmission(self):
        # certain failure of rounds 1 and 2 means every round is paid for
        outages, _, _, pavg = self.chain((2.0, 3.0, 4.0), (2.0, 6.0, 12.0))
        assert outages.tolist() == [1.0, 1.0, 0.5]
        assert pavg == 9.0

    def test_average_power_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(PowerPolicy((2.0, 3.0, 4.0)),
                     ChannelParams(rho=0.2, num_rounds=2),
                     Scheme.TYPE_I, LinkConfig())

    def test_cap_applies_before_the_metrics(self):
        outages, eta, _, _ = self.chain((2.0, 3.0), (4.0, 12.0), capped=True)
        assert outages.tolist() == [OUTAGE_CAP, OUTAGE_CAP]
        assert eta == (1.0 - OUTAGE_CAP) / (1.0 + OUTAGE_CAP)

    def test_runs_elementwise_on_arrays(self):
        # two candidates' powers, rounds on the last axis
        powers = np.array([[2.0, 4.0], [3.0, 5.0]])
        factors = rate_factors(Scheme.CHASE, 2.0, 2)
        outages, eta, tau, pavg = analytic_chain(
            powers, (0.5, 0.25), factors, LinkConfig(), capped=True)
        assert outages.shape == (2, 2) and eta.shape == (2,)
        for n in range(2):
            scalar = analytic_chain(tuple(float(p) for p in powers[n]),
                                    (0.5, 0.25), factors, LinkConfig(),
                                    capped=True)
            assert outages[n].tolist() == scalar[0].tolist()
            assert (eta[n], tau[n], pavg[n]) == tuple(map(float, scalar[1:]))


class TestEvaluate:
    def test_frozen_reference_point(self):
        # recomputed end to end with 40-digit arithmetic
        rep = evaluate(PowerPolicy((25.0, 40.0, 63.0)), ChannelParams(rho=0.5),
                       Scheme.INCREMENTAL, LinkConfig())
        want_profile = (0.12, 2.5855770864554285e-3, 2.1031301347993674e-5)
        for got, want in zip(rep.outage_profile, want_profile):
            assert got == pytest.approx(want, rel=1e-14)
        assert rep.throughput == pytest.approx(1.7815638987523515, rel=1e-14)
        assert rep.latency_s == pytest.approx(0.056130459350928182, rel=1e-14)
        assert rep.average_power_w == pytest.approx(29.962891356446692, rel=1e-14)
        assert rep.outage_feasible and rep.power_feasible and rep.feasible

    def test_feasibility_flags_follow_constraints(self):
        link = LinkConfig(outage_target=1e-6)
        rep = evaluate(PowerPolicy((25.0, 40.0, 63.0)), ChannelParams(rho=0.5),
                       Scheme.INCREMENTAL, link)
        assert not rep.outage_feasible and rep.power_feasible
        assert not rep.feasible

    @given(p1=st.floats(2.0, 300.0), p2=st.floats(2.0, 300.0),
           p3=st.floats(2.0, 300.0), rho=st.floats(0.0, 0.99))
    @settings(max_examples=60)
    def test_latency_never_beats_floor(self, p1, p2, p3, rho):
        link = LinkConfig()
        floor = link.payload_bits / (link.bandwidth_hz * link.rate)
        for scheme in Scheme:
            rep = evaluate(PowerPolicy((p1, p2, p3)), ChannelParams(rho=rho),
                           scheme, link)
            assert rep.latency_s >= floor

    @given(power=st.floats(10.0, 300.0), rho=st.floats(0.0, 0.99))
    @settings(max_examples=60)
    def test_scheme_ordering_pointwise(self, power, rho):
        # at equal powers the stronger combining scheme is never worse
        link = LinkConfig()
        pol = PowerPolicy((power, power, power))
        ch = ChannelParams(rho=rho)
        rep_ir = evaluate(pol, ch, Scheme.INCREMENTAL, link)
        rep_cc = evaluate(pol, ch, Scheme.CHASE, link)
        rep_t1 = evaluate(pol, ch, Scheme.TYPE_I, link)
        assert (rep_ir.outage_profile[-1] <= rep_cc.outage_profile[-1]
                <= rep_t1.outage_profile[-1])
        assert rep_ir.latency_s <= rep_cc.latency_s <= rep_t1.latency_s
