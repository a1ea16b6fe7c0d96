"""Tests for the Monte-Carlo outage estimators.

The single-round case has the exact Rayleigh law 1 - exp(-(2^R-1)/(p*xi^2))
for every correlation level, which anchors both estimators; at rho = 0 the
Type-I profile is the product of those laws over rounds. Determinism and
worker-count invariance are exercised bit for bit. Both estimators score
every scheme on the same draws, so their estimates are ordered exactly.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harqpower.montecarlo import (CHUNK_TRIALS, estimate_outage_conditional,
                                  estimate_profile, outage_event,
                                  sample_channel_coeffs)
from harqpower.types import ChannelParams, PowerPolicy, Scheme

RATE = 2.0


def exact_single_round(power):
    return 1.0 - math.exp(-(2.0 ** RATE - 1.0) / power)


def assert_schemes_ordered(estimates):
    # per-trial domination ir <= cc <= type1 on shared draws survives the sums
    for k in range(3):
        ir, cc, t1 = (estimates[s][k].mean for s in
                      (Scheme.INCREMENTAL, Scheme.CHASE, Scheme.TYPE_I))
        assert ir <= cc <= t1


class TestSampling:
    def test_coeff_shapes_and_finiteness(self):
        ch = ChannelParams(rho=0.5)
        h = sample_channel_coeffs(ch, trials=1000, seed=1)
        assert h.shape == (1000, 3)
        assert np.iscomplexobj(h) and np.all(np.isfinite(h))

    def test_coeff_second_order_statistics(self):
        # unit marginal variance per round and cross-correlation
        # xi_i xi_j rho^{i+delta-1} rho^{j+delta-1} between distinct rounds
        ch = ChannelParams(rho=0.6)
        h = sample_channel_coeffs(ch, trials=400_000, seed=7)
        var = np.mean(np.abs(h) ** 2, axis=0)
        assert var == pytest.approx([1.0, 1.0, 1.0], abs=0.01)
        c01 = np.mean(h[:, 0] * np.conj(h[:, 1])).real
        assert c01 == pytest.approx(0.6 * 0.36, abs=0.01)
        c02 = np.mean(h[:, 0] * np.conj(h[:, 2])).real
        assert c02 == pytest.approx(0.6 * 0.6 ** 3, abs=0.01)

    def test_uncorrelated_rounds_independent(self):
        ch = ChannelParams(rho=0.0)
        h = sample_channel_coeffs(ch, trials=400_000, seed=8)
        c01 = np.mean(h[:, 0] * np.conj(h[:, 1]))
        assert abs(c01) < 0.01

    def test_chunking_boundary_sizes(self):
        ch = ChannelParams(rho=0.3)
        for trials in (10, CHUNK_TRIALS, CHUNK_TRIALS + 17, 2 * CHUNK_TRIALS + 1):
            h = sample_channel_coeffs(ch, trials=trials, seed=2)
            assert h.shape[0] == trials

    def test_prefix_stability(self):
        # growing the trial count must not change earlier chunks
        ch = ChannelParams(rho=0.4)
        small = sample_channel_coeffs(ch, trials=CHUNK_TRIALS, seed=3)
        big = sample_channel_coeffs(ch, trials=CHUNK_TRIALS * 2, seed=3)
        assert np.array_equal(small, big[:CHUNK_TRIALS])


class TestOutageEvent:
    def test_hand_crafted_gains(self):
        t = 2.0 ** RATE - 1.0  # 3.0
        gains = np.array([
            [4.0, 0.1, 0.1],   # first round succeeds
            [1.0, 1.0, 1.5],   # accumulates: sum crosses 3 only at round 3
            [0.1, 0.2, 0.3],   # everything fails
        ])
        t1 = outage_event(Scheme.TYPE_I, RATE, gains)
        assert t1.tolist() == [
            [False, False, False],
            [True, True, True],
            [True, True, True],
        ]
        cc = outage_event(Scheme.CHASE, RATE, gains)
        assert cc.tolist() == [
            [False, False, False],
            [True, True, False],
            [True, True, True],
        ]
        ir = outage_event(Scheme.INCREMENTAL, RATE, gains)
        # log2(2) + log2(2) = 2 >= R already at round 2
        assert ir.tolist() == [
            [False, False, False],
            [True, False, False],
            [True, True, True],
        ]

    @given(st.integers(0, 1000))
    @settings(max_examples=30)
    def test_events_nonincreasing_over_rounds(self, seed):
        rng = np.random.default_rng(seed)
        gains = rng.exponential(size=(50, 3))
        for scheme in Scheme:
            ev = outage_event(scheme, RATE, gains).astype(int)
            assert np.all(np.diff(ev, axis=1) <= 0)

    def test_stronger_combining_fails_less(self):
        rng = np.random.default_rng(123)
        gains = rng.exponential(size=(2000, 3))
        t1 = outage_event(Scheme.TYPE_I, RATE, gains)
        cc = outage_event(Scheme.CHASE, RATE, gains)
        ir = outage_event(Scheme.INCREMENTAL, RATE, gains)
        # per-trial domination, not just on average
        assert np.all(ir <= cc) and np.all(cc <= t1)


class TestDirectEstimator:
    def test_single_round_exact_law(self):
        ch = ChannelParams(rho=0.7)  # correlation is irrelevant at one round
        est = estimate_profile(PowerPolicy((10.0, 10.0, 10.0)), ch, RATE,
                               trials=200_000, seed=11)[Scheme.TYPE_I][0]
        assert abs(est.mean - exact_single_round(10.0)) <= 4.0 * est.stderr

    def test_deterministic_and_worker_invariant(self):
        ch = ChannelParams(rho=0.5)
        pol = PowerPolicy((8.0, 8.0, 8.0))
        trials = CHUNK_TRIALS * 3 + 100
        a = estimate_profile(pol, ch, RATE, trials=trials, seed=5, workers=1)
        b = estimate_profile(pol, ch, RATE, trials=trials, seed=5, workers=1)
        c = estimate_profile(pol, ch, RATE, trials=trials, seed=5, workers=4)
        assert a == b == c

    def test_profile_is_nonincreasing(self):
        ch = ChannelParams(rho=0.3)
        prof = estimate_profile(PowerPolicy((6.0, 6.0, 6.0)), ch, RATE,
                                trials=100_000, seed=9)
        assert set(prof) == set(Scheme)
        for scheme in Scheme:
            means = [e.mean for e in prof[scheme]]
            assert means[0] >= means[1] >= means[2]

    def test_schemes_share_one_sample(self):
        ch = ChannelParams(rho=0.3)
        prof = estimate_profile(PowerPolicy((6.0, 6.0, 6.0)), ch, RATE,
                                trials=50_000, seed=9)
        assert_schemes_ordered(prof)
        # the first round decides alike under every combining scheme
        assert prof[Scheme.TYPE_I][0] == prof[Scheme.CHASE][0]


class TestConditionalEstimator:
    def test_every_round_matches_exact_law(self):
        # at rho = 0 the rounds fade independently, so Type-I is in outage
        # after k rounds with probability prod_{j<=k} (1 - exp(-t/p_j))
        powers = (1000.0, 200.0, 50.0)
        ch = ChannelParams(rho=0.0)
        est = estimate_outage_conditional(PowerPolicy(powers), ch, RATE,
                                          trials=100_000,
                                          seed=11)[Scheme.TYPE_I]
        exact = np.cumprod([exact_single_round(p) for p in powers])
        for e, x in zip(est, exact):
            assert abs(e.mean - x) <= 4.0 * e.stderr

    def test_correlated_deep_tail_against_direct(self):
        # moderate power where the direct estimator still resolves the level
        ch = ChannelParams(rho=0.5)
        pol = PowerPolicy((30.0, 30.0, 30.0))
        cond = estimate_outage_conditional(pol, ch, RATE, trials=400_000,
                                           seed=21)[Scheme.CHASE][1]
        direct = estimate_profile(pol, ch, RATE, trials=4_000_000,
                                  seed=22)[Scheme.CHASE][1]
        assert abs(cond.mean - direct.mean) <= 4.0 * math.hypot(cond.stderr,
                                                                direct.stderr)

    def test_deterministic_and_worker_invariant(self):
        ch = ChannelParams(rho=0.5)
        pol = PowerPolicy((50.0, 50.0, 50.0))
        trials = CHUNK_TRIALS + 999
        a = estimate_outage_conditional(pol, ch, RATE, trials=trials, seed=6,
                                        workers=1)
        b = estimate_outage_conditional(pol, ch, RATE, trials=trials, seed=6,
                                        workers=3)
        assert a == b
        assert_schemes_ordered(a)

    def test_stderr_shrinks_with_trials(self):
        ch = ChannelParams(rho=0.5)
        pol = PowerPolicy((100.0,) * 3)
        small = estimate_outage_conditional(pol, ch, RATE, trials=20_000,
                                            seed=13)[Scheme.CHASE][2]
        large = estimate_outage_conditional(pol, ch, RATE, trials=320_000,
                                            seed=13)[Scheme.CHASE][2]
        assert large.stderr < small.stderr

