"""Tests for the Monte-Carlo outage estimators.

The single-round case has the exact Rayleigh law 1 - exp(-(2^R-1)/(p*xi^2))
for every correlation level, which anchors both estimators; at rho = 0 the
Type-I profile is the product of those laws over rounds. Determinism and
worker-count invariance are exercised bit for bit. Both estimators score
every scheme on the same draws, so their estimates are ordered exactly.
"""
import hashlib
import math
import sys
import threading
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harqpower import cli, montecarlo
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
    # gains and events are round-major: one row per round, one column per
    # trial; the tables below are written trial by trial and transposed
    def test_hand_crafted_gains(self):
        t = 2.0 ** RATE - 1.0  # 3.0
        gains = np.array([
            [4.0, 0.1, 0.1],   # first round succeeds
            [1.0, 1.0, 1.5],   # accumulates: sum crosses 3 only at round 3
            [0.1, 0.2, 0.3],   # everything fails
        ]).T
        t1 = outage_event(Scheme.TYPE_I, RATE, gains).T
        assert t1.tolist() == [
            [False, False, False],
            [True, True, True],
            [True, True, True],
        ]
        cc = outage_event(Scheme.CHASE, RATE, gains).T
        assert cc.tolist() == [
            [False, False, False],
            [True, True, False],
            [True, True, True],
        ]
        ir = outage_event(Scheme.INCREMENTAL, RATE, gains).T
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
        gains = rng.exponential(size=(50, 3)).T
        for scheme in Scheme:
            ev = outage_event(scheme, RATE, gains).astype(int)
            assert np.all(np.diff(ev, axis=0) <= 0)

    def test_stronger_combining_fails_less(self):
        rng = np.random.default_rng(123)
        gains = rng.exponential(size=(2000, 3)).T
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


class TestBesselTerm:
    """montecarlo._i0e against scipy.special.i0e, the Cephes routine whose
    series and float order it copies."""

    EDGES = [0.0, 5e-324, 1e-300, np.nextafter(8.0, 0.0), 8.0,
             np.nextafter(8.0, 9.0), 709.0, 710.0, 1e300]

    @staticmethod
    def i0e(x, out=None):
        out = np.empty_like(x) if out is None else out
        montecarlo._i0e(x, out, np.empty((5, x.size)))
        return out

    def test_bits_match_scipy_without_warnings(self):
        from scipy.special import i0e
        rng = np.random.default_rng(12)
        # log-uniform over [1e-300, 1e300] and uniform over [0, 16] in one
        # array, so one call runs both series
        x = np.concatenate([self.EDGES,
                            10.0 ** rng.uniform(-300.0, 300.0, 1_000_000),
                            rng.uniform(0.0, 16.0, 500_000)])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            want = i0e(x)
            got = self.i0e(x)
            aliased = x.copy()
            assert self.i0e(aliased, out=aliased) is aliased
            edges = self.i0e(np.array(self.EDGES))
        assert got.tobytes() == want.tobytes()
        assert aliased.tobytes() == want.tobytes()
        assert edges.tobytes() == want[:len(self.EDGES)].tobytes()

    def test_one_row_allocates_less_than_a_row(self):
        x = np.random.default_rng(3).uniform(0.0, 16.0, CHUNK_TRIALS)
        out, scratch = np.empty_like(x), np.empty((5, x.size))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            montecarlo._i0e(x, out, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes


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

    @pytest.mark.parametrize("power_dbw", [600, 1000])
    def test_stderr_survives_extreme_power(self, tmp_path, power_dbw):
        # the k = 3 weights are ~1e-179 at 600 dBW and ~1e-299 at 1000 dBW,
        # so their squares underflow unless the weights are scaled
        assert cli.main(["mc-validate", "--power-dbw", str(power_dbw),
                         "--trials", "20000", "--seed", "3",
                         "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "mc_report.csv").read_text().splitlines()
        header, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
        stderrs = [float(row[header.index("mc_stderr")]) for row in rows]
        assert len(stderrs) == 9
        assert all(0.0 < e < math.inf for e in stderrs), stderrs


class TestWorkers:
    def test_threads_capped_at_chunk_count(self, tmp_path, monkeypatch):
        started = []

        class InlineThread:
            """Runs its target when started, so no thread is ever made."""

            def __init__(self, target, args):
                self.target, self.args = target, args

            def start(self):
                started.append(self.args)
                self.target(*self.args)

            def join(self):
                pass

        monkeypatch.setattr(montecarlo, "threading",
                            types.SimpleNamespace(Thread=InlineThread))
        for estimator in ("direct", "conditional"):
            started.clear()
            out = tmp_path / estimator
            # three chunks; the calling thread is worker 0, so workers 1
            # and 2 are the only threads started
            assert cli.main(["mc-validate", "--estimator", estimator,
                             "--trials", str(2 * CHUNK_TRIALS + 1),
                             "--threads", "64", "--out", str(out)]) == 0
            assert started == [(1,), (2,)]

    def test_more_workers_than_cores_with_fast_switching(self):
        # six chunks on five workers, the interpreter switching threads as
        # often as it can: a lost or misplaced chunk result moves the bits
        ch, pol = ChannelParams(rho=0.5), PowerPolicy((8.0, 8.0, 8.0))
        trials = 5 * CHUNK_TRIALS + 7
        for estimator in (estimate_profile, estimate_outage_conditional):
            alone = estimator(pol, ch, RATE, trials=trials, seed=3)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                shared = estimator(pol, ch, RATE, trials=trials, seed=3,
                                   workers=5)
            finally:
                sys.setswitchinterval(interval)
            assert shared == alone

    def test_worker_exception_reaches_caller(self, monkeypatch):
        class WorkerFailed(RuntimeError):
            pass

        caller = threading.get_ident()
        real = montecarlo.outage_event

        def failing_off_caller(*args, **kwargs):
            if threading.get_ident() != caller:
                raise WorkerFailed("raised in a worker thread")
            return real(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "outage_event", failing_off_caller)
        before = threading.active_count()
        for estimator in (estimate_profile, estimate_outage_conditional):
            with pytest.raises(WorkerFailed):
                estimator(PowerPolicy((8.0, 8.0, 8.0)), ChannelParams(rho=0.5),
                          RATE, trials=2 * CHUNK_TRIALS, seed=1, workers=2)
            # every worker was joined before the exception left
            assert threading.active_count() == before



class TestWorkingSet:
    """A certify-sized call keeps its scratch block-sized: 2^18 trials at
    30 dBW, rho 0.5 and K = 3 on one worker (a chunk-sized working set
    peaks at 6.2 MiB direct and 5.7 MiB conditional)."""

    @pytest.mark.parametrize("name, bound_mib", [("direct", 2.5),
                                                 ("conditional", 4.0)])
    def test_peak_stays_under_bound(self, name, bound_mib):
        tracemalloc.start()
        try:
            ESTIMATORS[name](PowerPolicy((1000.0,) * 3),
                             ChannelParams(rho=0.5), RATE, trials=1 << 18,
                             seed=1234567, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * (1 << 20)


# float.hex of (mean, stderr) for every round, one string per scheme in
# Scheme order, from 70001 trials (two full chunks and a partial one) at
# seed 17, rate 2 and powers (6, 9, 14, 20)[:K] W
PINNED_BITS = {
    ("direct", 1, 0.0): (
        "0x1.93ab6ef5b48dep-2 0x1.e42faaf55e48bp-10",
        "0x1.93ab6ef5b48dep-2 0x1.e42faaf55e48bp-10",
        "0x1.93ab6ef5b48dep-2 0x1.e42faaf55e48bp-10",
    ),
    ("direct", 1, 0.5): (
        "0x1.935cca9693b98p-2 0x1.e41f2ba7078b1p-10",
        "0x1.935cca9693b98p-2 0x1.e41f2ba7078b1p-10",
        "0x1.935cca9693b98p-2 0x1.e41f2ba7078b1p-10",
    ),
    ("direct", 1, 0.9): (
        "0x1.93823d6e8afa1p-2 0x1.e427084feb2b9p-10",
        "0x1.93823d6e8afa1p-2 0x1.e427084feb2b9p-10",
        "0x1.93823d6e8afa1p-2 0x1.e427084feb2b9p-10",
    ),
    ("direct", 3, 0.0): (
        "0x1.9193eb18980c1p-2 0x1.e3be5c5fb749fp-10 "
        "0x1.c31486f9d49aep-4 0x1.362b52d9295a6p-10 "
        "0x1.5ade23955fb5bp-6 0x1.1d42f1a615d66p-11",
        "0x1.9193eb18980c1p-2 0x1.e3be5c5fb749fp-10 "
        "0x1.0094dbb4106d8p-4 0x1.e02dd7888f780p-11 "
        "0x1.34f375b7d4babp-8 0x1.0f79124c171d4p-12",
        "0x1.9193eb18980c1p-2 0x1.e3be5c5fb749fp-10 "
        "0x1.3b81284fe66e0p-5 0x1.7d539f6af00fbp-11 "
        "0x1.9fadf6d219902p-10 0x1.3b62d79e363b5p-13",
    ),
    ("direct", 3, 0.5): (
        "0x1.90774f15a7548p-2 0x1.e381377feca3ap-10 "
        "0x1.c15324da3d940p-4 0x1.35a3c0b0f292dp-10 "
        "0x1.51f9437dd9f94p-6 0x1.19a89b764734dp-11",
        "0x1.90774f15a7548p-2 0x1.e381377feca3ap-10 "
        "0x1.03ccba434ffa1p-4 0x1.e2fa80a07747bp-11 "
        "0x1.44ddde4db692bp-8 0x1.1657f95482eb8p-12",
        "0x1.90774f15a7548p-2 0x1.e381377feca3ap-10 "
        "0x1.37a483a400921p-5 0x1.7b141d98834e1p-11 "
        "0x1.6eff1143df37cp-10 0x1.285ec3658354ep-13",
    ),
    ("direct", 3, 0.9): (
        "0x1.925e240d359c0p-2 0x1.e3e96a39a0ef3p-10 "
        "0x1.574c6499685aep-3 0x1.721958e74bd70p-10 "
        "0x1.9830986d730c6p-5 0x1.af2d2d7915e6dp-11",
        "0x1.925e240d359c0p-2 0x1.e3e96a39a0ef3p-10 "
        "0x1.a34eb08ada37fp-4 0x1.2c58bcec2335dp-10 "
        "0x1.bb4c42e53f960p-7 0x1.c9d6d49da66e7p-12",
        "0x1.925e240d359c0p-2 0x1.e3e96a39a0ef3p-10 "
        "0x1.0a9657ce86e18p-4 0x1.e8d062fa770c5p-11 "
        "0x1.39a1d0b6bccd1p-8 0x1.1183128ea8da2p-12",
    ),
    ("direct", 4, 0.0): (
        "0x1.936806a42ab34p-2 0x1.e42187bfa02d5p-10 "
        "0x1.c4c6ee5ca254cp-4 0x1.36ae03befbfeap-10 "
        "0x1.60f400472700cp-6 0x1.1fb2c4b17e0acp-11 "
        "0x1.90b33a08cc88ap-9 0x1.b5971e65979e9p-13",
        "0x1.936806a42ab34p-2 0x1.e42187bfa02d5p-10 "
        "0x1.02fb03f04dc3bp-4 0x1.e24498b72e1a2p-11 "
        "0x1.3c70d41c7b3e7p-8 0x1.12ba60a9b2ebfp-12 "
        "0x1.df579929a0f00p-13 0x1.df4992d166471p-15",
        "0x1.936806a42ab34p-2 0x1.e42187bfa02d5p-10 "
        "0x1.37fe6410b8604p-5 0x1.7b4899881334bp-11 "
        "0x1.b62612000d1b6p-10 0x1.43c8b29d8017fp-13 "
        "0x1.6781b2df38b40p-15 0x1.9f1d158fb5491p-16",
    ),
    ("direct", 4, 0.5): (
        "0x1.945b711ff1d70p-2 0x1.e45469c391ad1p-10 "
        "0x1.c700266283c3dp-4 0x1.3758bb1939d48p-10 "
        "0x1.67f988c5831c4p-6 0x1.227b78557d1b6p-11 "
        "0x1.a72b5536c013ep-9 0x1.c1a737de80281p-13",
        "0x1.945b711ff1d70p-2 0x1.e45469c391ad1p-10 "
        "0x1.02b01e405f429p-4 0x1.e2038b81a5bf7p-11 "
        "0x1.2aa713ed6fc59p-8 0x1.0aee5d36cb75ap-12 "
        "0x1.a36ca6046cd20p-14 0x1.3d0a08dff7b80p-15",
        "0x1.945b711ff1d70p-2 0x1.e45469c391ad1p-10 "
        "0x1.3ee5f71581e1bp-5 0x1.7f4a1a8eb70dap-11 "
        "0x1.767c6fa885bb8p-10 0x1.2b5ff2bb7403cp-13 0x0.0p+0 0x0.0p+0",
    ),
    ("direct", 4, 0.9): (
        "0x1.90e3e8ee5ac30p-2 0x1.e3989fb8ba721p-10 "
        "0x1.54e63c5d2b04bp-3 0x1.71102078f47f0p-10 "
        "0x1.96334b5ab6d16p-5 0x1.ae2dedd5b0c08p-11 "
        "0x1.30bcf09f37109p-7 0x1.7c6a28d35c61ap-12",
        "0x1.90e3e8ee5ac30p-2 0x1.e3989fb8ba721p-10 "
        "0x1.a17e53ae79e41p-4 0x1.2bc52bdd87fdap-10 "
        "0x1.c2c9a149e619cp-7 0x1.cda31f0ffef27p-12 "
        "0x1.9471e93b1fca8p-11 0x1.b82250dcbc3b3p-14",
        "0x1.90e3e8ee5ac30p-2 0x1.e3989fb8ba721p-10 "
        "0x1.04cb60ccae179p-4 0x1.e3d6ead51f95ap-11 "
        "0x1.33141e1eab19cp-8 0x1.0ea7261125262p-12 "
        "0x1.df579929a0f00p-14 0x1.52ed3eb2ae5e9p-15",
    ),
    ("conditional", 1, 0.0): (
        "0x1.932fa64a22100p-2 0x1.bffc88a9b0ae0p-13",
        "0x1.932fa64a22100p-2 0x1.bffc88a9b0ae0p-13",
        "0x1.932fa64a22100p-2 0x1.bffc88a9b0ae0p-13",
    ),
    ("conditional", 1, 0.5): (
        "0x1.9368d946cd7d9p-2 0x1.8983161b55dfap-12",
        "0x1.9368d946cd7d9p-2 0x1.8983161b55dfap-12",
        "0x1.9368d946cd7d9p-2 0x1.8983161b55dfap-12",
    ),
    ("conditional", 1, 0.9): (
        "0x1.94ca6bbeda5cbp-2 0x1.6cd9657ec3079p-10",
        "0x1.94ca6bbeda5cbp-2 0x1.6cd9657ec3079p-10",
        "0x1.94ca6bbeda5cbp-2 0x1.6cd9657ec3079p-10",
    ),
    ("conditional", 3, 0.0): (
        "0x1.933b04d82c5c9p-2 0x1.c07fcacfea754p-13 "
        "0x1.c92bc0bcea756p-4 0x1.32911bab6950bp-14 "
        "0x1.609f5d7d7ccd4p-6 0x1.f6d29d08536a1p-17",
        "0x1.933b04d82c5c9p-2 0x1.c07fcacfea754p-13 "
        "0x1.047fece977558p-4 0x1.fca200dcb07bbp-13 "
        "0x1.2cafd49e285a3p-8 0x1.470101ed8e6fcp-15",
        "0x1.933b04d82c5c9p-2 0x1.c07fcacfea754p-13 "
        "0x1.3956085c46fbfp-5 0x1.e50f23e63440fp-13 "
        "0x1.7effc80f34268p-10 0x1.99dffb728908dp-16",
    ),
    ("conditional", 3, 0.5): (
        "0x1.9382a8db0557ap-2 0x1.8a966dcdea0c0p-12 "
        "0x1.ce52e7747dbf5p-4 0x1.0ecb1dcc08e3ep-13 "
        "0x1.65ceb7387cd7fp-6 0x1.b78f54c730b19p-16",
        "0x1.9382a8db0557ap-2 0x1.8a966dcdea0c0p-12 "
        "0x1.080ad0288bcc5p-4 0x1.126202ae514d0p-12 "
        "0x1.341058ca42020p-8 0x1.5da80fbd3bc72p-15",
        "0x1.9382a8db0557ap-2 0x1.8a966dcdea0c0p-12 "
        "0x1.3e1bb5a525710p-5 0x1.023ff7c77d250p-12 "
        "0x1.8a24f97f73a93p-10 0x1.b708b7110e637p-16",
    ),
    ("conditional", 3, 0.9): (
        "0x1.94db89c4e01fdp-2 0x1.6cf2fe07b7030p-10 "
        "0x1.5bb8244e3a9a2p-3 0x1.b1023d62cba5bp-11 "
        "0x1.9aacd3f59d141p-5 0x1.2ceecdff23307p-12",
        "0x1.94db89c4e01fdp-2 0x1.6cf2fe07b7030p-10 "
        "0x1.aec49d91b98f7p-4 0x1.bae72b1ada130p-11 "
        "0x1.c011b6dbd3990p-7 0x1.dbb20b1e3aac6p-13",
        "0x1.94db89c4e01fdp-2 0x1.6cf2fe07b7030p-10 "
        "0x1.12652989c9016p-4 0x1.93d3ece4ef712p-11 "
        "0x1.3a707412300b0p-8 0x1.40e1027c631a0p-13",
    ),
    ("conditional", 4, 0.0): (
        "0x1.92e47131fd300p-2 0x1.c119165a3dcebp-13 "
        "0x1.c8af849098b08p-4 0x1.33c79482bbf8ap-14 "
        "0x1.6054e8fa96fe6p-6 0x1.f87f12707acd7p-17 "
        "0x1.88954f7ffee4ep-9 0x1.20983deeef152p-19",
        "0x1.92e47131fd300p-2 0x1.c119165a3dcebp-13 "
        "0x1.0329c8cadfa8dp-4 0x1.fccd30923f83dp-13 "
        "0x1.2bb1d423ba8e8p-8 0x1.46a9261d02f40p-15 "
        "0x1.6cc23417f97aep-13 0x1.ab0cc7ac2fe85p-19",
        "0x1.92e47131fd300p-2 0x1.c119165a3dcebp-13 "
        "0x1.36a2223dc29cbp-5 0x1.e43482f88d337p-13 "
        "0x1.7de014e04ba1ep-10 0x1.9980af75ce890p-16 "
        "0x1.b25b14de76d7ep-16 0x1.5e68988435172p-20",
    ),
    ("conditional", 4, 0.5): (
        "0x1.9326a0bd08acbp-2 0x1.8a4b871172474p-12 "
        "0x1.cdc72f2e8a15fp-4 0x1.0eb5b408a5ad1p-13 "
        "0x1.6560d139139b4p-6 0x1.b67b5a327d7aep-16 "
        "0x1.8e93be1707959p-9 0x1.f10a907aa8775p-19",
        "0x1.9326a0bd08acbp-2 0x1.8a4b871172474p-12 "
        "0x1.06b674d08c010p-4 0x1.125b868f93de2p-12 "
        "0x1.30ff9525be3c5p-8 0x1.5b92698f40eefp-15 "
        "0x1.74d07dfd81ff7p-13 0x1.c6d41bfc7fcc6p-19",
        "0x1.9326a0bd08acbp-2 0x1.8a4b871172474p-12 "
        "0x1.3b47a53083239p-5 0x1.01b692225d306p-12 "
        "0x1.85564a24daae9p-10 0x1.b3613a04609c1p-16 "
        "0x1.b5ee983c0d296p-16 0x1.721be23d4487dp-20",
    ),
    ("conditional", 4, 0.9): (
        "0x1.94f5e5e0d5e3cp-2 0x1.6d18b157f8d87p-10 "
        "0x1.5c402cd37a98bp-3 0x1.b4c157b073b77p-11 "
        "0x1.9b49ee3a2ec03p-5 0x1.2f18cdd17a08ep-12 "
        "0x1.4c7fba913f0e4p-7 0x1.0d5e95c5bbdcbp-14",
        "0x1.94f5e5e0d5e3cp-2 0x1.6d18b157f8d87p-10 "
        "0x1.af08a4a19d8c1p-4 0x1.bec8733602ec7p-11 "
        "0x1.bf25fd2b9ac51p-7 0x1.e07fe751e7c23p-13 "
        "0x1.bf1c5ae8f8ea5p-11 0x1.025ec2b1ed0a1p-15",
        "0x1.94f5e5e0d5e3cp-2 0x1.6d18b157f8d87p-10 "
        "0x1.12975a3563c2bp-4 0x1.98b9bd817e356p-11 "
        "0x1.389e857c221fap-8 0x1.428d8c67829cdp-13 "
        "0x1.1a2aa7e887e1dp-13 0x1.d19b02d6da20dp-17",
    ),
}

# the same at rho 0.5, keyed (estimator, K, trials), for trial counts at the
# block and chunk edges: one trial, one either side of each block size, and
# one past a chunk
EDGE_TRIALS = (1, 4095, 4097, 16383, 16385, 32769)
EDGE_BITS = {
    ("direct", 1, 1): (
        "0x1.0000000000000p+0 0x0.0p+0",
        "0x1.0000000000000p+0 0x0.0p+0",
        "0x1.0000000000000p+0 0x0.0p+0",
    ),
    ("direct", 1, 4095): (
        "0x1.93d93d93d93d9p-2 0x1.f48217bec9100p-8",
        "0x1.93d93d93d93d9p-2 0x1.f48217bec9100p-8",
        "0x1.93d93d93d93d9p-2 0x1.f48217bec9100p-8",
    ),
    ("direct", 1, 4097): (
        "0x1.93e6c193e6c19p-2 0x1.f465bc0c76659p-8",
        "0x1.93e6c193e6c19p-2 0x1.f465bc0c76659p-8",
        "0x1.93e6c193e6c19p-2 0x1.f465bc0c76659p-8",
    ),
    ("direct", 1, 16383): (
        "0x1.97265c997265dp-2 0x1.f52a177159767p-9",
        "0x1.97265c997265dp-2 0x1.f52a177159767p-9",
        "0x1.97265c997265dp-2 0x1.f52a177159767p-9",
    ),
    ("direct", 1, 16385): (
        "0x1.9729a359729a3p-2 0x1.f522f2500381fp-9",
        "0x1.9729a359729a3p-2 0x1.f522f2500381fp-9",
        "0x1.9729a359729a3p-2 0x1.f522f2500381fp-9",
    ),
    ("direct", 1, 32769): (
        "0x1.951cd5c654735p-2 0x1.620e5c69c20b0p-9",
        "0x1.951cd5c654735p-2 0x1.620e5c69c20b0p-9",
        "0x1.951cd5c654735p-2 0x1.620e5c69c20b0p-9",
    ),
    ("direct", 4, 1): (
        "0x1.0000000000000p+0 0x0.0p+0 "
        "0x1.0000000000000p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0",
        "0x1.0000000000000p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0",
        "0x1.0000000000000p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0",
    ),
    ("direct", 4, 4095): (
        "0x1.8758758758758p-2 0x1.f1a432c6a11cep-8 "
        "0x1.bf1bf1bf1bf1cp-4 0x1.3f5c1bdd53c7ep-8 "
        "0x1.3813813813814p-6 0x1.17faece7b8a82p-9 "
        "0x1.8018018018018p-9 0x1.badcebd0d264dp-11",
        "0x1.8758758758758p-2 0x1.f1a432c6a11cep-8 "
        "0x1.1611611611611p-4 0x1.019f2beaccb68p-8 "
        "0x1.3013013013013p-8 0x1.1663ba78ab461p-10 "
        "0x0.0p+0 0x0.0p+0",
        "0x1.8758758758758p-2 0x1.f1a432c6a11cep-8 "
        "0x1.7417417417417p-5 0x1.aa7fd574b7a17p-9 "
        "0x1.c01c01c01c01cp-10 0x1.5273004fbd511p-11 "
        "0x0.0p+0 0x0.0p+0",
    ),
    ("direct", 4, 4097): (
        "0x1.8767898767898p-2 0x1.f188c11c4b938p-8 "
        "0x1.bee411bee411cp-4 0x1.3f36a47daace2p-8 "
        "0x1.37ec8137ec813p-6 0x1.17d846a583a3ep-9 "
        "0x1.7fe8017fe8018p-9 0x1.baa5a87839ceep-11",
        "0x1.8767898767898p-2 0x1.f188c11c4b938p-8 "
        "0x1.15eea115eea11p-4 0x1.018026053db84p-8 "
        "0x1.2fed012fed013p-8 0x1.164104ed76e4cp-10 "
        "0x0.0p+0 0x0.0p+0",
        "0x1.8767898767898p-2 0x1.f188c11c4b938p-8 "
        "0x1.73e8c173e8c17p-5 0x1.aa4bcd455383fp-9 "
        "0x1.bfe401bfe401cp-10 0x1.5248bdd879eccp-11 "
        "0x0.0p+0 0x0.0p+0",
    ),
    ("direct", 4, 16383): (
        "0x1.8f563d58f563dp-2 0x1.f3774937afd82p-9 "
        "0x1.c7071c1c7071cp-4 0x1.41cbd31f8b29dp-9 "
        "0x1.6505941650594p-6 0x1.2b0473f060f9bp-10 "
        "0x1.9806601980660p-9 0x1.c85e08dcc93a4p-12",
        "0x1.8f563d58f563dp-2 0x1.f3774937afd82p-9 "
        "0x1.0444111044411p-4 0x1.f397be974bc2fp-10 "
        "0x1.3804e013804e0p-8 0x1.19f5c15baf686p-11 "
        "0x1.0004001000400p-13 0x1.6a09e64601652p-14",
        "0x1.8f563d58f563dp-2 0x1.f3774937afd82p-9 "
        "0x1.4c853214c8532p-5 0x1.942a5e452ba5ap-10 "
        "0x1.9006401900640p-10 0x1.3fc67803f9ccdp-12 "
        "0x0.0p+0 0x0.0p+0",
    ),
    ("direct", 4, 16385): (
        "0x1.8f49c2d8f49c3p-2 0x1.f36caaad2e2c6p-9 "
        "0x1.c6f8e41c6f8e4p-4 0x1.41c265bee6004p-9 "
        "0x1.64fa6c164fa6cp-6 0x1.2afb3695be201p-10 "
        "0x1.97f9a0197f9a0p-9 0x1.c84fcbd8962d1p-12",
        "0x1.8f49c2d8f49c3p-2 0x1.f36caaad2e2c6p-9 "
        "0x1.043bef1043befp-4 0x1.f388a9a9c60b0p-10 "
        "0x1.37fb20137fb20p-8 0x1.19ecf735d8ea8p-11 "
        "0x1.fff8001fff800p-14 0x1.69fe965150f9bp-14",
        "0x1.8f49c2d8f49c3p-2 0x1.f36caaad2e2c6p-9 "
        "0x1.4c7ace14c7acep-5 0x1.941e018768cb7p-10 "
        "0x1.8ff9c018ff9c0p-10 0x1.3fbc7bec8bcf8p-12 "
        "0x0.0p+0 0x0.0p+0",
    ),
    ("direct", 4, 32769): (
        "0x1.93e4d8364f936p-2 0x1.61defcd1567fep-9 "
        "0x1.c41c77c71071ep-4 0x1.c5c9e101532a2p-10 "
        "0x1.4ffd60053ff58p-6 0x1.9a7ae0b9d5165p-11 "
        "0x1.83fcf8060ff3ep-9 0x1.3aafe1e282f4ap-12",
        "0x1.93e4d8364f936p-2 0x1.61defcd1567fep-9 "
        "0x1.001dffc400780p-4 0x1.5e9ca949f84c4p-10 "
        "0x1.2ffda004bff68p-8 0x1.89982bd50ed26p-12 "
        "0x1.fffc0007fff00p-14 0x1.fff40017ffb00p-15",
        "0x1.93e4d8364f936p-2 0x1.61defcd1567fep-9 "
        "0x1.3ffd8004fff60p-5 0x1.188ffd498b789p-10 "
        "0x1.3ffd8004fff60p-10 0x1.94831757c5616p-13 "
        "0x0.0p+0 0x0.0p+0",
    ),
    ("conditional", 1, 1): (
        "0x1.94e364329949dp-2 0x0.0p+0",
        "0x1.94e364329949dp-2 0x0.0p+0",
        "0x1.94e364329949dp-2 0x0.0p+0",
    ),
    ("conditional", 1, 4095): (
        "0x1.92a2d29730b6fp-2 0x1.9d7d812e2487cp-10",
        "0x1.92a2d29730b6fp-2 0x1.9d7d812e2487cp-10",
        "0x1.92a2d29730b6fp-2 0x1.9d7d812e2487cp-10",
    ),
    ("conditional", 1, 4097): (
        "0x1.92c9cc421aa36p-2 0x1.9c8430b62bee8p-10",
        "0x1.92c9cc421aa36p-2 0x1.9c8430b62bee8p-10",
        "0x1.92c9cc421aa36p-2 0x1.9c8430b62bee8p-10",
    ),
    ("conditional", 1, 16383): (
        "0x1.92f896d1032ebp-2 0x1.99c689a121577p-11",
        "0x1.92f896d1032ebp-2 0x1.99c689a121577p-11",
        "0x1.92f896d1032ebp-2 0x1.99c689a121577p-11",
    ),
    ("conditional", 1, 16385): (
        "0x1.92d127e5f9188p-2 0x1.98654043750ccp-11",
        "0x1.92d127e5f9188p-2 0x1.98654043750ccp-11",
        "0x1.92d127e5f9188p-2 0x1.98654043750ccp-11",
    ),
    ("conditional", 1, 32769): (
        "0x1.93ebc3d6d4cccp-2 0x1.1f8e247d36bd4p-11",
        "0x1.93ebc3d6d4cccp-2 0x1.1f8e247d36bd4p-11",
        "0x1.93ebc3d6d4cccp-2 0x1.1f8e247d36bd4p-11",
    ),
    ("conditional", 4, 1): (
        "0x1.94e364329949dp-2 0x0.0p+0 "
        "0x1.d88c4f72bd61dp-4 0x0.0p+0 "
        "0x1.7d9a6e7756a58p-6 0x0.0p+0 "
        "0x1.b0b31d20e15a8p-9 0x0.0p+0",
        "0x1.94e364329949dp-2 0x0.0p+0 "
        "0x1.d88c4f72bd61dp-4 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0",
        "0x1.94e364329949dp-2 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0",
    ),
    ("conditional", 4, 4095): (
        "0x1.9189aaf5a2695p-2 0x1.9c86fd91decfap-10 "
        "0x1.cbca24b25903dp-4 0x1.1b92cb12ca946p-11 "
        "0x1.63dacff5589b1p-6 0x1.c9f4f54d3796bp-14 "
        "0x1.8ca756868389bp-9 0x1.034c65388090cp-16",
        "0x1.9189aaf5a2695p-2 0x1.9c86fd91decfap-10 "
        "0x1.0287345c109fep-4 0x1.1c810008bc4a7p-10 "
        "0x1.3145f40b1f2f2p-8 0x1.65cecd2e5fe8ep-13 "
        "0x1.71266d7d66b03p-13 0x1.d163392b656ffp-17",
        "0x1.9189aaf5a2695p-2 0x1.9c86fd91decfap-10 "
        "0x1.3ad08019a86d2p-5 0x1.0a8165794e45fp-10 "
        "0x1.745a3ea03833dp-10 0x1.b459ea779a20cp-14 "
        "0x1.f45ad995c84c4p-16 0x1.92bcda02ddcfdp-18",
    ),
    ("conditional", 4, 4097): (
        "0x1.91bf994674f63p-2 0x1.98b022f463602p-10 "
        "0x1.cbe4b9b0ce644p-4 0x1.19f295e43fa2cp-11 "
        "0x1.63ec742688bdfp-6 0x1.c7d16ff55597bp-14 "
        "0x1.8ccd5414c2450p-9 0x1.02737779381e0p-16",
        "0x1.91bf994674f63p-2 0x1.98b022f463602p-10 "
        "0x1.010a39450bcb6p-4 0x1.1b471dce5e0f1p-10 "
        "0x1.3507f7c53cffep-8 0x1.68a81edabc497p-13 "
        "0x1.76c1e272e0bcbp-13 0x1.d8fd408e2b425p-17",
        "0x1.91bf994674f63p-2 0x1.98b022f463602p-10 "
        "0x1.3a267b3d0ae67p-5 0x1.0a0d7d3d09e27p-10 "
        "0x1.7608363f14b97p-10 0x1.b97ec9772d9c8p-14 "
        "0x1.17902753ca150p-15 0x1.bfde2c05382e1p-18",
    ),
    ("conditional", 4, 16383): (
        "0x1.932c1061db8d7p-2 0x1.9917bbc9d0112p-11 "
        "0x1.ce078fbfa4783p-4 0x1.18408fc991cddp-12 "
        "0x1.660dc9d45c815p-6 0x1.c8a3618716b5ap-15 "
        "0x1.8f77f41265d8dp-9 0x1.032f61e06f042p-17",
        "0x1.932c1061db8d7p-2 0x1.9917bbc9d0112p-11 "
        "0x1.05473a86a3575p-4 0x1.1b95f8f8d85c0p-11 "
        "0x1.35d29d546be5dp-8 0x1.6b5054bd6a616p-14 "
        "0x1.88447d2ad9b16p-13 0x1.e521e68a4a6c9p-18",
        "0x1.932c1061db8d7p-2 0x1.9917bbc9d0112p-11 "
        "0x1.3aea8995ec507p-5 0x1.09ebefbec4284p-11 "
        "0x1.9352eb7997d57p-10 0x1.cd2abe74ed1fep-15 "
        "0x1.dd607d5f65f8dp-16 0x1.90fcd5cf0a8d3p-19",
    ),
    ("conditional", 4, 16385): (
        "0x1.930dba45858a1p-2 0x1.98b88e43ba787p-11 "
        "0x1.cdf20b28a0f1ep-4 0x1.1781bb6da9a22p-12 "
        "0x1.65cef5cf9cf41p-6 0x1.c5a4df37dcd1ep-15 "
        "0x1.8f35cd4ebc67dp-9 0x1.01bc781885d8fp-17",
        "0x1.930dba45858a1p-2 0x1.98b88e43ba787p-11 "
        "0x1.0517aca726ee2p-4 0x1.1b0c0c44b8f19p-11 "
        "0x1.3232c6f89cdaep-8 0x1.6741b10e692dap-14 "
        "0x1.7f00c34c3db48p-13 0x1.dc1fa4870f287p-18",
        "0x1.930dba45858a1p-2 0x1.98b88e43ba787p-11 "
        "0x1.3adcb7558ca59p-5 0x1.09a36ef40a678p-11 "
        "0x1.880e329bfc5f5p-10 0x1.c2fbcb797ac66p-15 "
        "0x1.e085f1c7bd83ep-16 0x1.94d874b018714p-19",
    ),
    ("conditional", 4, 32769): (
        "0x1.93ac27e7cbd61p-2 0x1.2068646bc999ep-11 "
        "0x1.ce61832125bd7p-4 0x1.8c0889e9196e9p-13 "
        "0x1.65e6efd1790d3p-6 0x1.40aefe83e2d15p-15 "
        "0x1.8f4cc6dda45e8p-9 0x1.6bad6a0e8960ep-18",
        "0x1.93ac27e7cbd61p-2 0x1.2068646bc999ep-11 "
        "0x1.08cb33f144fd0p-4 0x1.913085a1a1514p-12 "
        "0x1.347ee60fb441ep-8 0x1.fdf2f0072b039p-15 "
        "0x1.7ba5d2064fea9p-13 0x1.4fb99643a0873p-18",
        "0x1.93ac27e7cbd61p-2 0x1.2068646bc999ep-11 "
        "0x1.3d9453a8be365p-5 0x1.79559d5dfde56p-12 "
        "0x1.8470f08d88543p-10 0x1.3df2cb6cf9d2bp-15 "
        "0x1.aba77fdec8663p-16 0x1.0d1f172872bc7p-19",
    ),
}

PIN_POWERS = (6.0, 9.0, 14.0, 20.0)
ESTIMATORS = {"direct": estimate_profile,
              "conditional": estimate_outage_conditional}


def pinned_hex(name, k, rho, trials, workers):
    est = ESTIMATORS[name](PowerPolicy(PIN_POWERS[:k]),
                           ChannelParams(rho=rho, num_rounds=k), RATE,
                           trials=trials, seed=17, workers=workers)
    return tuple(" ".join(f"{e.mean.hex()} {e.stderr.hex()}"
                          for e in est[scheme]) for scheme in Scheme)


class TestPinnedBits:
    """Both estimators keep their exact bits through any kernel rewrite."""

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("key", sorted(PINNED_BITS))
    def test_estimates_match_pinned_hex(self, key, workers):
        name, k, rho = key
        assert pinned_hex(name, k, rho, 70001, workers) == PINNED_BITS[key]

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("key", sorted(EDGE_BITS))
    def test_block_edges_match_pinned_hex(self, key, workers):
        name, k, trials = key
        assert pinned_hex(name, k, 0.5, trials, workers) == EDGE_BITS[key]

    @pytest.mark.parametrize("block", [1000, CHUNK_TRIALS])
    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_block_size_does_not_change_the_bits(self, monkeypatch, name,
                                                   block):
        # a block that divides no chunk, and one block per chunk
        monkeypatch.setattr(montecarlo, "DIRECT_BLOCK", block)
        monkeypatch.setattr(montecarlo, "CONDITIONAL_BLOCK", block)
        got = pinned_hex(name, 4, 0.5, 70001, workers=3)
        assert got == PINNED_BITS[(name, 4, 0.5)]

    def test_edge_trials_straddle_every_block(self):
        for block in (montecarlo.DIRECT_BLOCK, montecarlo.CONDITIONAL_BLOCK):
            assert {block - 1, block + 1} <= set(EDGE_TRIALS)
        assert CHUNK_TRIALS + 1 in EDGE_TRIALS
        assert {key[2] for key in EDGE_BITS} == set(EDGE_TRIALS)

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("estimator, digest", [
        ("direct",
         "e3770ace006a1e13aeb87e2509682f171a387790b5d00b2f3e3df8d090b119ab"),
        ("conditional",
         "d972d57bed54bdce30679a77ee4e7845fc6bcf75a38597429cb7fe2556641d6b"),
    ])
    def test_certify_report_bytes(self, tmp_path, estimator, digest, threads):
        # the benchmark's certify command: 2^18 trials at 30 dBW, rho 0.5
        assert cli.main(["mc-validate", "--estimator", estimator,
                         "--trials", "262144", "--threads", threads,
                         "--seed", "1234567", "--out", str(tmp_path)]) == 0
        report = (tmp_path / "mc_report.csv").read_bytes()
        assert hashlib.sha256(report).hexdigest() == digest
