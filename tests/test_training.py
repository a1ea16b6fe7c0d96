"""Tests for the primal-dual training loop and its batched graph.

The batched Lagrangian is checked against the scalar analytics report on
healthy operating points, exactly where both run the same chain, and the
deliberate boundary behaviors (latency clip, zero subgradients) are pinned
down explicitly.
"""
import dataclasses
import math
import re
import tracemalloc
import warnings

import generic_ops as ad
import numpy as np
import pytest

from harqpower import gcn, training
from harqpower.analytics import correlation_factor, evaluate
from harqpower.gcn import (GcnWeights, flat_views, forward, init_weights,
                           profile)
from harqpower.graph import batch_adjacency, session_adjacency
from harqpower.oracle import default_grid, grid_search
from harqpower.training import (HISTORY_FIELDS, AdamState, TrainConfig,
                                TrainingDiverged, adam_update,
                                batch_lagrangian, dataset_constants,
                                evaluate_policy, sample_rho_dataset, train,
                                train_stack)
from harqpower.types import (OUTAGE_CAP, P_MIN_WATTS, ChannelParams,
                             LinkConfig, PowerPolicy, Scheme)

LINK = LinkConfig()
PROTO = ChannelParams(rho=0.0)


def scalar_policy(scale):
    """Single linear layer: every round's power is scale * p_bar/K * row sum."""
    return [np.array([[scale]])]


def run_means(per_sample, n_runs, batch_size):
    """Per-run batch means of batch_lagrangian's per-sample statistics, as
    train_stack computes a step's statistics."""
    return {key: v.reshape(n_runs, -1).sum(axis=1) / batch_size
            for key, v in per_sample.items()}


# LINK's latency floor payload / (bandwidth * rate), the clip's unit
TAU_FLOOR = LINK.payload_bits / (LINK.bandwidth_hz * LINK.rate)


def lagrangian(wnodes, rho, scheme, lam, ups):
    adj, inv_corr = dataset_constants(rho, PROTO)
    root, nodes = batch_lagrangian(wnodes, profile(adj, len(wnodes)),
                                   inv_corr, [(scheme, LINK)], lam, ups)
    return root, {key: float(v[0])
                  for key, v in run_means(nodes, 1, len(rho)).items()}


class TestDatasetConstants:
    def test_values_and_shapes(self):
        proto = ChannelParams(rho=0.0, delta=2)
        rho = np.array([0.0, 0.31, 0.9])
        adj, inv_corr = dataset_constants(rho, proto)
        assert np.array_equal(adj, batch_adjacency(rho, 3, 2))
        assert inv_corr.shape == (3, 3)
        for kk in range(3):
            for s, r in enumerate(rho):
                assert inv_corr[s, kk] == 1.0 / correlation_factor(
                    r, kk + 1, 2)[kk]

    def test_built_once_per_training_run(self, monkeypatch):
        calls = {"correlation_factor": 0, "batch_adjacency": 0}

        def counted(name):
            fn = getattr(training, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(training, name, counted(name))
        cfg = TrainConfig(epochs=2, dataset_size=100, batch_size=25)
        res = train(Scheme.INCREMENTAL, LINK, PROTO, cfg)
        assert len(res.history) == 8
        assert calls == {"correlation_factor": 1, "batch_adjacency": 1}


class TestBatchLagrangian:
    def test_matches_scalar_analytics(self):
        mats = scalar_policy(2.5)
        rho = np.array([0.0, 0.3, 0.6, 0.9])
        lam, ups = 0.07, 3e-4
        wnodes = [ad.parameter(m) for m in mats]
        root, stats = lagrangian(wnodes, rho, Scheme.INCREMENTAL,
                                 lam, ups)

        expected_terms = []
        taus, logs, pavgs = [], [], []
        for r in rho:
            ch = ChannelParams(rho=float(r))
            adj = session_adjacency(ch)
            powers = 2.5 * (LINK.power_budget_w / 3.0) * (adj @ np.ones(3))
            rep = evaluate(PowerPolicy(tuple(powers)), ch,
                           Scheme.INCREMENTAL, LINK)
            term = (rep.latency_s
                    + lam * (math.log(rep.outage_profile[-1])
                             - math.log(LINK.outage_target))
                    + ups * (rep.average_power_w - LINK.power_budget_w))
            expected_terms.append(term)
            taus.append(rep.latency_s)
            logs.append(math.log(rep.outage_profile[-1]))
            pavgs.append(rep.average_power_w)

        assert float(root.value) == pytest.approx(np.mean(expected_terms),
                                                  rel=1e-12)
        assert stats["mean_tau_s"] == pytest.approx(np.mean(taus), rel=1e-12)
        assert stats["mean_log_pout"] == pytest.approx(np.mean(logs), rel=1e-12)
        assert stats["mean_pavg_w"] == pytest.approx(np.mean(pavgs), rel=1e-12)

    def test_latency_clip_freezes_objective_gradient(self, monkeypatch):
        # with every sample clipped and both duals off, nothing can move
        monkeypatch.setattr(training, "TAU_CLIP_FLOORS", 0.051 / TAU_FLOOR)
        mats = scalar_policy(2.5)
        rho = np.array([0.0, 0.4, 0.8])
        wnodes = [ad.parameter(m) for m in mats]
        root, stats = lagrangian(wnodes, rho, Scheme.INCREMENTAL, 0.0, 0.0)
        assert float(root.value) == pytest.approx(0.051, rel=1e-14)
        assert stats["mean_tau_s"] == pytest.approx(0.051, rel=1e-14)
        ad.backward(root)
        assert np.array_equal(wnodes[0].adjoint, np.zeros((1, 1)))

    def test_duals_still_pull_through_the_clip(self, monkeypatch):
        monkeypatch.setattr(training, "TAU_CLIP_FLOORS", 0.051 / TAU_FLOOR)
        mats = scalar_policy(2.5)
        rho = np.array([0.0, 0.4, 0.8])
        wnodes = [ad.parameter(m) for m in mats]
        root, _ = lagrangian(wnodes, rho, Scheme.INCREMENTAL, 0.05, 0.0)
        ad.backward(root)
        # outage falls as power rises, so the multiplier pushes power up
        assert wnodes[0].adjoint[0, 0] < 0.0

    def test_gradient_matches_finite_differences(self):
        rho = np.array([0.1, 0.5, 0.85])

        def build(params):
            root, _ = lagrangian(params, rho, Scheme.CHASE, 0.02, 1e-4)
            return root

        rep = ad.finite_diff_check(build, [np.array([[2.0]])], step=1e-6)
        assert rep.max_rel_error < 1e-6


class TestOneImplementation:
    """evaluate, the training graph and the grid oracle run one analytic
    chain, so they agree exactly wherever the outage cap is inactive."""

    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    def test_training_graph_equals_evaluate(self, scheme):
        rng = np.random.default_rng(np.random.SeedSequence((21, 5)))
        base = init_weights(seed=4)
        compared = 0
        for rho, scale in zip(rng.random(60) * 0.98, rng.uniform(0.3, 3.0, 60)):
            mats = [m.copy() for m in base.matrices]
            mats[-1] *= scale
            consts = [ad.constant(m) for m in mats]
            adj, inv_corr = dataset_constants(np.array([rho]), PROTO)
            _, nodes = batch_lagrangian(consts, profile(adj, len(mats)),
                                        inv_corr, [(scheme, LINK)], 0.0, 0.0)
            stats = run_means(nodes, 1, 1)
            powers = forward(adj, mats, LINK.power_budget_w).out
            rep = evaluate(PowerPolicy(tuple(powers[0, :, 0])),
                           ChannelParams(rho=float(rho)), scheme, LINK)
            if max(rep.outage_profile) >= OUTAGE_CAP:
                continue
            assert stats["mean_tau_s"][0] == rep.latency_s, (rho, scale)
            assert stats["mean_pavg_w"][0] == rep.average_power_w, (rho, scale)
            compared += 1
        assert compared >= 40

    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    @pytest.mark.parametrize("rho", (0.0, 0.3, 0.6, 0.9))
    def test_grid_oracle_equals_evaluate(self, scheme, rho):
        ch = ChannelParams(rho=rho)
        res = grid_search(ch, scheme, LINK, default_grid(LINK, points=20))
        rep = evaluate(res.policy, ch, scheme, LINK)
        assert res.latency_s == rep.latency_s
        assert res.average_power_w == rep.average_power_w
        assert res.outage_k == rep.outage_profile[-1]


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        x = np.array([1.0, -2.0])
        st = AdamState.like(x)
        adam_update(st, x, np.array([0.5, -0.25]), lr=0.01)
        # bias correction makes the first step lr * g / (|g| + eps)
        assert x[0] == pytest.approx(1.0 - 0.01, rel=1e-6)
        assert x[1] == pytest.approx(-2.0 + 0.01, rel=1e-6)
        assert st.step == 1

    def test_zero_learning_rate_freezes(self):
        x = np.array([3.0])
        st = AdamState.like(x)
        adam_update(st, x, np.array([1.0]), lr=0.0)
        assert x[0] == 3.0

    def test_per_entry_learning_rate(self):
        # train_stack halves a guarded run's step through an (R, 1) column
        # of rates against its (R, P) weights; twin rows see the same
        # gradients, and the one at half the step moves exactly half as
        # far.  Each step starts from zero, so the moves are exact; the
        # moments carry over.
        x = np.zeros((2, 2))
        st = AdamState.like(x)
        rng = np.random.default_rng(3)
        for guarded in ([False, True], [True, False], [False, False]):
            x[:] = 0.0
            lr = np.where(guarded, 0.01 * 0.5, 0.01)[:, None]
            adam_update(st, x, np.tile(rng.standard_normal(2), (2, 1)), lr)
            run0, run1 = x
            assert np.all(run0 != 0.0)
            if guarded[0] == guarded[1]:
                assert np.array_equal(run0, run1)
            else:
                half, full = (run0, run1) if guarded[0] else (run1, run0)
                assert np.array_equal(half, full * 0.5)

    def test_buffered_steps_equal_the_formula(self):
        # 60 steps of a stack of three (R, P) rows: row 1 at the halved rate
        # of a guarded run, row 2 with an all-zero gradient.  Each step must
        # be the docstring's formula evaluated with fresh temporaries, bit
        # for bit, and from the third step on a call allocates no (R, P)
        # array: its terms live in the state's buffers
        b1, b2 = training.ADAM_BETA1, training.ADAM_BETA2
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 1074))
        want, m, v = x.copy(), np.zeros_like(x), np.zeros_like(x)
        st = AdamState.like(x)
        peaks = []
        for t in range(1, 61):
            g = rng.standard_normal(x.shape)
            g[2] = 0.0
            rate = 1e-2 * (1.0 - 0.98 * t / 60)
            lr = np.array([[rate], [rate * 0.5], [rate]])
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            want = want - lr * (m / (1.0 - b1 ** t)) / (
                np.sqrt(v / (1.0 - b2 ** t)) + training.ADAM_EPS)
            if t > 2:
                tracemalloc.start()
            try:
                adam_update(st, x, g, lr)
                if tracemalloc.is_tracing():
                    peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert x.tobytes() == want.tobytes(), t
            assert (st.m.tobytes(), st.v.tobytes()) == (m.tobytes(),
                                                        v.tobytes()), t
        assert st.step == 60
        assert np.array_equal(x[2], want[2]) and np.all(x[1] != want[0])
        assert len(peaks) == 58 and max(peaks) < x.nbytes, max(peaks)


class TestTrainConfig:
    @pytest.mark.parametrize("name", ["lr_weights", "lr_lambda",
                                      "lr_upsilon"])
    @pytest.mark.parametrize("value", [-1.0, -5e-324, -np.inf, np.nan])
    def test_negative_learning_rate_rejected(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be >= 0, got "
                                             rf"{re.escape(str(value))}$"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name", ["lr_weights", "lr_lambda",
                                      "lr_upsilon"])
    def test_zero_learning_rate_accepted(self, name):
        assert getattr(TrainConfig(**{name: 0.0}), name) == 0.0


class TestTrainLoop:
    def test_dataset_deterministic_and_in_range(self):
        cfg = TrainConfig(dataset_size=64)
        a = sample_rho_dataset(cfg)
        b = sample_rho_dataset(cfg)
        assert np.array_equal(a, b)
        assert a.shape == (64,)
        assert np.all((a >= 0.0) & (a < 1.0))
        c = sample_rho_dataset(TrainConfig(dataset_size=64, seed=99))
        assert not np.array_equal(a, c)

    def test_two_runs_bit_identical(self):
        cfg = TrainConfig(epochs=2, dataset_size=100, batch_size=50)
        r1 = train(Scheme.INCREMENTAL, LINK, PROTO, cfg)
        r2 = train(Scheme.INCREMENTAL, LINK, PROTO, cfg)
        assert r1.history.tobytes() == r2.history.tobytes()
        assert all(np.array_equal(a, b)
                   for a, b in zip(r1.weights.matrices, r2.weights.matrices))
        assert r1.lam == r2.lam and r1.ups == r2.ups

    def test_history_layout(self):
        cfg = TrainConfig(epochs=1, dataset_size=100, batch_size=50)
        res = train(Scheme.TYPE_I, LINK, PROTO, cfg)
        assert len(res.history) == 2
        assert len(res.history[0]) == len(HISTORY_FIELDS)
        iters = [row[0] for row in res.history]
        assert iters == [0, 1]

    def test_loss_improves_from_scratch(self):
        cfg = TrainConfig(epochs=30)
        res = train(Scheme.INCREMENTAL, LINK, PROTO, cfg)
        first = np.mean([row[1] for row in res.history[:50]])
        last = np.mean([row[1] for row in res.history[-50:]])
        assert last < first


class TestTrainStack:
    RUNS = [(scheme, LinkConfig(power_budget_dbw=budget))
            for budget in (14.0, 16.0) for scheme in Scheme]

    def test_stacked_runs_equal_serial_runs(self):
        cfg = TrainConfig(epochs=2)
        stacked = train_stack(self.RUNS, PROTO, cfg)
        assert len(stacked) == len(self.RUNS)
        for (scheme, link), got in zip(self.RUNS, stacked):
            alone = train(scheme, link, PROTO, cfg)
            assert got.history.tobytes() == alone.history.tobytes()
            assert all(np.array_equal(a, b) for a, b in
                       zip(got.weights.matrices, alone.weights.matrices))
            assert (got.lam, got.ups, got.guard_steps) == \
                (alone.lam, alone.ups, alone.guard_steps)
        # the runs really differ: each scheme and budget trains its own net
        assert len({r.history[-1, 1:].tobytes() for r in stacked}) == \
            len(self.RUNS)

    def test_guarded_stack_equals_serial_runs(self):
        # at 8 dBW every sample of some batches sits past the latency pole
        # (each latency clipped to 0), and those runs take half-size steps;
        # at 15 dBW no run does
        runs = [(scheme, LinkConfig(power_budget_dbw=budget))
                for budget in (8.0, 15.0) for scheme in Scheme]
        cfg = TrainConfig(epochs=5)
        stacked = train_stack(runs, PROTO, cfg)
        for (scheme, link), got in zip(runs, stacked):
            alone = train(scheme, link, PROTO, cfg)
            assert got.history.tobytes() == alone.history.tobytes()
            assert all(np.array_equal(a, b) for a, b in
                       zip(got.weights.matrices, alone.weights.matrices))
            assert (got.lam, got.ups, got.guard_steps) == \
                (alone.lam, alone.ups, alone.guard_steps)
        guards = {(scheme.value, link.power_budget_dbw): got.guard_steps
                  for (scheme, link), got in zip(runs, stacked)}
        assert guards[("type1", 8.0)] > 0 and guards[("cc", 8.0)] > 0
        assert [guards[(s.value, 15.0)] for s in Scheme] == [0, 0, 0]

    @pytest.mark.parametrize("other", [
        LinkConfig(rate=1.5), LinkConfig(outage_target=1e-3),
        LinkConfig(payload_bits=2e6), LinkConfig(bandwidth_hz=2e7)],
        ids=("rate", "outage_target", "payload_bits", "bandwidth_hz"))
    def test_runs_may_differ_only_in_scheme_and_budget(self, other):
        cfg = TrainConfig(epochs=1, dataset_size=20, batch_size=10)
        runs = [(Scheme.TYPE_I, LINK),
                (Scheme.CHASE, dataclasses.replace(other,
                                                   power_budget_dbw=16.0))]
        with pytest.raises(ValueError, match="scheme and power budget"):
            train_stack(runs, PROTO, cfg)

    def test_dead_check_gives_the_full_forward_verdict(self):
        # the check runs the pass on the largest profile entry alone; over
        # seeds 0-199 it must agree with a pass over the whole dataset
        dead = 0
        for seed in range(200):
            cfg = TrainConfig(epochs=1, batch_size=1000, seed=seed)
            adj = batch_adjacency(sample_rho_dataset(cfg), 3, 1)
            out = forward(adj, init_weights(seed).matrices,
                          LINK.power_budget_w).out
            floored = bool(np.all(out == P_MIN_WATTS))
            try:
                train(Scheme.INCREMENTAL, LINK, PROTO, cfg)
            except TrainingDiverged as exc:
                assert floored and "(dead ReLU)" in str(exc), seed
            else:
                assert not floored, seed
            dead += floored
        assert dead == 131

    def test_dead_check_keeps_a_partly_floored_run(self):
        # a budget that floors the samples of the smallest profile entries
        # and not those of the largest leaves the run live
        cfg = TrainConfig(epochs=1, dataset_size=200, batch_size=100)
        mats = init_weights(cfg.seed).matrices
        adj = batch_adjacency(sample_rho_dataset(cfg), 3, 1)
        d = profile(adj, len(mats))
        phi = forward(np.eye(1), mats, 1.0).out.item()
        p_bar = 3.0 * P_MIN_WATTS / (phi * math.sqrt(d.min() * d.max()))
        link = LinkConfig(power_budget_dbw=10.0 * math.log10(p_bar))
        out = forward(adj, mats, link.power_budget_w).out
        assert (out == P_MIN_WATTS).any() and (out > P_MIN_WATTS).any()
        train_stack([(Scheme.INCREMENTAL, LINK), (Scheme.TYPE_I, link)],
                    PROTO, cfg)

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            train_stack([], PROTO, TrainConfig(epochs=1))

    def test_non_finite_objective_names_its_run(self, monkeypatch):
        # poison the second run's rate factors: its powers stay finite and
        # its chain has no zero divisor, so only its objective is not finite
        original = training.rate_factors

        def poisoned(scheme, rate, rounds):
            factors = original(scheme, rate, rounds)
            return [np.nan] * rounds if scheme is Scheme.CHASE else factors

        monkeypatch.setattr(training, "rate_factors", poisoned)
        runs = [(Scheme.TYPE_I, LINK),
                (Scheme.CHASE, LinkConfig(power_budget_dbw=16.0)),
                (Scheme.INCREMENTAL, LINK)]
        cfg = TrainConfig(epochs=1, dataset_size=20, batch_size=10)
        with pytest.raises(TrainingDiverged,
                           match=r"^cc at 16 dBW: non-finite objective at "
                                 r"iteration 0"):
            train_stack(runs, PROTO, cfg)

    @pytest.mark.parametrize("power, cause", [
        (np.nan, "non-finite network output"),
        (0.0, "divide: zero denominator entry"),
        # the power product overflows, so the final outage is 0
        (1e200, "log: nonpositive entry")],
        ids=["network-output", "zero-denominator", "nonpositive-log"])
    def test_undefined_step_names_its_one_failing_run(self, monkeypatch,
                                                      power, cause):
        # only the third run's network output is poisoned, on every run of
        # the pass; the stacked step's own arrays name it, and no run is
        # evaluated a second time
        self.poison_network_output(monkeypatch, 2, power)
        calls = []
        original_lagrangian = training.batch_lagrangian

        def counted(*args, **kwargs):
            calls.append(None)
            return original_lagrangian(*args, **kwargs)

        monkeypatch.setattr(training, "batch_lagrangian", counted)
        runs = [(Scheme.TYPE_I, LINK),
                (Scheme.CHASE, LinkConfig(power_budget_dbw=16.0)),
                (Scheme.INCREMENTAL, LinkConfig(power_budget_dbw=17.0))]
        cfg = TrainConfig(epochs=1, dataset_size=20, batch_size=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDiverged) as caught:
                train_stack(runs, PROTO, cfg)
        assert str(caught.value) == ("ir at 17 dBW: cannot evaluate the "
                                     f"Lagrangian at iteration 0: {cause}")
        assert len(calls) == 1

    @staticmethod
    def poison_network_output(monkeypatch, run, power):
        """Set run `run`'s powers to `power` on every later pass that a
        network built by training makes."""
        original = training.forward_profile

        def poisoned(d, matrices, p_bar_w, **kwargs):
            net = original(d, matrices, p_bar_w, **kwargs)
            run_pass = net.forward

            def forward():
                out = run_pass()
                out[run] = power
                return out
            net.forward = forward
            return net

        monkeypatch.setattr(training, "forward_profile", poisoned)

    @pytest.mark.parametrize("power, rounds, link, cause", [
        (np.nan, 3, {}, "non-finite network output"),
        # the power product is 0, so the outages are infinite
        (0.0, 3, {}, "divide: zero denominator entry"),
        # at one round, rate 1 and rho's penalty 1, P_1 = 1 / p_1 = 1: eta
        # is 0 and the raw latency infinite, yet the clipped objective, the
        # log outage and the average power stay finite
        (1.0, 1, {}, "divide: zero denominator entry"),
        # P_1 = 1e40 and P_2 = 1e10 make eta = (1 - P_2) / (1 + P_1) about
        # -1e-30, and eta * bandwidth underflows to 0 where the latency
        # clip, 10 payload / (bandwidth rate) = 10 s, is finite: only the
        # raw latency is not finite (the multipliers are 0, so the
        # gradient is)
        (np.array([[1e-40], [1e30]]), 2,
         {"payload_bits": 1e-300, "bandwidth_hz": 1e-300},
         "divide: zero denominator entry"),
        # the power product overflows, so the final outage is 0
        (1e200, 3, {}, "log: nonpositive entry")],
        ids=["non-finite-power", "zero-product", "final-outage-one",
             "eta-underflow", "overflowing-product"])
    def test_step_test_misses_no_undefined_lagrangian(self, monkeypatch,
                                                      power, rounds, link,
                                                      cause):
        # the step's one finiteness test must trip on every failure that
        # the checks it replaced caught, here in the middle run of three
        self.poison_network_output(monkeypatch, 1, power)
        link = LinkConfig(rate=1.0, **link)
        runs = [(Scheme.TYPE_I, link),
                (Scheme.CHASE,
                 dataclasses.replace(link, power_budget_dbw=16.0)),
                (Scheme.INCREMENTAL, link)]
        proto = ChannelParams(rho=0.0, num_rounds=rounds)
        cfg = TrainConfig(epochs=1, dataset_size=20, batch_size=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDiverged) as caught:
                train_stack(runs, proto, cfg)
        assert str(caught.value) == ("cc at 16 dBW: cannot evaluate the "
                                     f"Lagrangian at iteration 0: {cause}")
        undefined = caught.value.__cause__
        assert isinstance(undefined, training.UndefinedLagrangian)
        assert (undefined.run, str(undefined)) == (1, cause)

    def test_final_outage_of_one_is_finite_but_for_the_raw_latency(self):
        # why the step's test reads the raw latency: at P_K = 1 the clip
        # turns the infinite latency into a finite objective
        link = LinkConfig(rate=1.0, power_budget_dbw=0.0)
        runs = [(scheme, link) for scheme in Scheme]
        proto = ChannelParams(rho=0.0, num_rounds=1)
        adj, inv_corr = dataset_constants(np.array([0.2, 0.7]), proto)
        # one round's power is p_bar * phi = phi; run 1's is 1 W
        phi = np.array([2.0, 1.0, 3.0]).reshape(3, 1, 1)
        with np.errstate(divide="ignore"):
            _, stats = batch_lagrangian([ad.constant(phi)], profile(adj, 1),
                                        inv_corr, runs, 0.5, 0.5)
        assert np.all(inv_corr == 1.0)
        for key in training.STAT_FIELDS:
            assert np.all(np.isfinite(stats[key])), key
        raw = stats["raw_tau_s"]
        assert np.all(np.isinf(raw[1])) and np.all(np.isfinite(raw[[0, 2]]))

    def test_non_finite_gradient_names_its_first_run(self, monkeypatch):
        # poison the gradient of runs 1 and 2 in different layers after
        # every backward pass of the network; the objective stays finite
        original_backward = gcn._Network.backward

        def poisoned(net, g):
            grads = original_backward(net, g)
            grads[0][2] = np.inf
            grads[-1][1] = np.nan
            return grads

        monkeypatch.setattr(gcn._Network, "backward", poisoned)
        runs = [(Scheme.TYPE_I, LINK),
                (Scheme.CHASE, LinkConfig(power_budget_dbw=16.0)),
                (Scheme.INCREMENTAL, LINK)]
        cfg = TrainConfig(epochs=1, dataset_size=20, batch_size=10)
        with pytest.raises(TrainingDiverged,
                           match=r"^cc at 16 dBW: non-finite gradient at "
                                 r"iteration 0$"):
            train_stack(runs, PROTO, cfg)

    def test_non_finite_weights_name_their_run(self, monkeypatch):
        # only run 2's row of the (R, P) weights turns non-finite after the
        # first Adam step; the step's statistics and gradient stay finite
        original = training.adam_update

        def poisoned(state, x, g, lr):
            original(state, x, g, lr)
            x[2, -1] = np.inf

        monkeypatch.setattr(training, "adam_update", poisoned)
        runs = [(Scheme.TYPE_I, LINK),
                (Scheme.CHASE, LinkConfig(power_budget_dbw=16.0)),
                (Scheme.INCREMENTAL, LinkConfig(power_budget_dbw=15.0))]
        cfg = TrainConfig(epochs=1, dataset_size=20, batch_size=10)
        with pytest.raises(TrainingDiverged,
                           match=r"^ir at 15 dBW: non-finite weights after "
                                 r"the Adam step at iteration 0$"):
            train_stack(runs, PROTO, cfg)

    @staticmethod
    def poison_second_batch(monkeypatch, cfg, value):
        # a bad value in one sample's correlation penalty reaches the graph
        # only when the shuffle puts that sample in a batch, here the second
        order = np.random.default_rng(
            np.random.SeedSequence((cfg.seed, 13))).permutation(20)
        original = training.dataset_constants

        def poisoned(rho, channel_proto):
            adj, inv_corr = original(rho, channel_proto)
            inv_corr[order[15]] = value
            return adj, inv_corr

        monkeypatch.setattr(training, "dataset_constants", poisoned)

    def test_non_finite_objective_at_a_replayed_step(self, monkeypatch):
        cfg = TrainConfig(epochs=1, dataset_size=20, batch_size=10)
        self.poison_second_batch(monkeypatch, cfg, np.nan)
        runs = [(Scheme.CHASE, LinkConfig(power_budget_dbw=16.0)),
                (Scheme.INCREMENTAL, LINK)]
        with pytest.raises(TrainingDiverged,
                           match=r"^cc at 16 dBW: non-finite objective at "
                                 r"iteration 1"):
            train_stack(runs, PROTO, cfg)

    def test_zero_outage_at_a_replayed_step(self, monkeypatch):
        # a zero penalty gives a zero final outage, whose log the second
        # step's graph cannot take; every run fails, and the first is named
        cfg = TrainConfig(epochs=1, dataset_size=20, batch_size=10)
        self.poison_second_batch(monkeypatch, cfg, 0.0)
        runs = [(Scheme.CHASE, LinkConfig(power_budget_dbw=16.0)),
                (Scheme.INCREMENTAL, LINK)]
        with pytest.raises(TrainingDiverged,
                           match=r"^cc at 16 dBW: cannot evaluate the "
                                 r"Lagrangian at iteration 1: log: "
                                 r"nonpositive entry$"):
            train_stack(runs, PROTO, cfg)

    @pytest.mark.parametrize("schemes, rounds", [
        *[((scheme,), rounds) for rounds in (300, 400) for scheme in Scheme],
        ((Scheme.TYPE_I,), 250), (tuple(Scheme), 400)],
        ids=lambda v: str(v) if isinstance(v, int)
        else "+".join(s.value for s in v))
    def test_many_rounds_diverge_without_warnings(self, schemes, rounds):
        # the CLI rejects these round counts by ir's and cc's rate factors,
        # not type1's; the power products underflow and the chain meets
        # inf * 0, which must end in TrainingDiverged, not a numpy warning
        proto = ChannelParams(rho=0.0, num_rounds=rounds)
        cfg = TrainConfig(epochs=1, dataset_size=1, batch_size=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDiverged, match="at iteration 0"):
                train_stack([(scheme, LINK) for scheme in schemes], proto, cfg)


class TestTapeReplay:
    """A training step replays the graph built once before the first step
    by calling its two ops directly, with no tape; every such step must
    equal a graph built afresh from the same values."""

    @pytest.mark.parametrize("runs", [
        [(Scheme.INCREMENTAL, LINK)],
        [(scheme, LinkConfig(power_budget_dbw=budget)) for scheme, budget
         in ((Scheme.TYPE_I, 14.0), (Scheme.CHASE, 15.0),
             (Scheme.INCREMENTAL, 16.0))]],
        ids=("R=1", "R=3"))
    def test_replayed_steps_equal_fresh_builds(self, runs):
        cfg = TrainConfig(dataset_size=60, batch_size=10)
        adj_all, inv_all = dataset_constants(sample_rho_dataset(cfg), PROTO)
        order = np.random.default_rng(7).permutation(cfg.dataset_size)
        mats = [np.stack([m] * len(runs)) for m in init_weights(4).matrices]
        d_all = profile(adj_all, len(mats))
        adams = [AdamState.like(m) for m in mats]
        # built once on the dataset's first rows, as train_stack builds it
        d = d_all[:10].copy()
        inv_corr = inv_all[:10].copy()
        lam, ups = np.zeros(len(runs)), np.zeros(len(runs))
        root, nodes = batch_lagrangian([ad.parameter(m) for m in mats], d,
                                       inv_corr, runs, lam, ups)
        (network,) = root.parents
        for step in range(6):
            sel = order[10 * step:10 * (step + 1)]
            np.take(d_all, sel, axis=0, out=d)
            np.take(inv_all, sel, axis=0, out=inv_corr)
            network.compute()
            value = root.compute()
            grads = network.vjp(*root.vjp(1.0))

            fresh = [ad.parameter(m.copy()) for m in mats]
            want_root, want_nodes = batch_lagrangian(
                fresh, profile(adj_all[sel], len(mats)), inv_all[sel], runs,
                lam.copy(), ups.copy())
            ad.backward(want_root)
            stats = run_means(nodes, len(runs), 10)
            want = run_means(want_nodes, len(runs), 10)
            assert np.float64(value).tobytes() == want_root.value.tobytes()
            assert set(stats) == set(want)
            for key in want:
                assert stats[key].tobytes() == want[key].tobytes(), key
            for g, f in zip(grads, fresh):
                assert g.tobytes() == f.adjoint.tobytes()

            # train_stack's guard: every sample's latency clipped to 0
            assert np.array_equal(stats["mean_tau_s"] == 0.0,
                                  want["mean_tau_s"] == 0.0)

            # move every leaf in place, as a training step does
            for adam, m, g in zip(adams, mats, grads):
                adam_update(adam, m, g, lr=0.05)
            lam += 0.5
            ups += 2e-3

    def test_train_stack_steps_equal_fresh_builds(self, monkeypatch):
        # every step of train_stack, the first included, hands Adam the
        # gradient of a graph built afresh on its own batch, weights and
        # multipliers
        runs = [(Scheme.TYPE_I, LinkConfig(power_budget_dbw=14.0)),
                (Scheme.INCREMENTAL, LINK)]
        cfg = TrainConfig(epochs=2, dataset_size=30, batch_size=10)
        seen = []
        original = training.adam_update

        def recorded(state, x, g, lr):
            seen.append((x.copy(), g.copy()))
            original(state, x, g, lr)

        monkeypatch.setattr(training, "adam_update", recorded)
        results = train_stack(runs, PROTO, cfg)
        adj_all, inv_all = dataset_constants(sample_rho_dataset(cfg), PROTO)
        shuffle = np.random.default_rng(
            np.random.SeedSequence((cfg.seed, 13)))
        batches = [sel for _ in range(cfg.epochs) for sel in
                   shuffle.permutation(cfg.dataset_size).reshape(
                       -1, cfg.batch_size)]
        assert len(seen) == len(batches)
        like = init_weights(cfg.seed).matrices
        duals = np.zeros((2, len(runs)))
        for it, ((x, g), sel) in enumerate(zip(seen, batches)):
            params = [ad.parameter(m) for m in flat_views(x, like)]
            root, _ = batch_lagrangian(
                params, profile(adj_all[sel], len(like)), inv_all[sel], runs,
                *duals)
            ad.backward(root)
            assert params[0].adjoint.base.tobytes() == g.tobytes(), it
            # the multipliers after step it, which step it + 1 reads
            duals = np.array([r.history[it, 4:] for r in results]).T


class TestHandDerivedStep:
    """The step is two fused ops with hand-derived products (the network
    and the Lagrangian), over buffers made before the first step."""

    STACK = [(scheme, LinkConfig(power_budget_dbw=budget)) for scheme, budget
             in ((Scheme.TYPE_I, 14.0), (Scheme.CHASE, 15.0),
                 (Scheme.INCREMENTAL, 16.0))]

    @pytest.mark.parametrize("runs", [
        *[[(scheme, LINK)] for scheme in Scheme], STACK],
        ids=[f"R=1-{scheme.value}" for scheme in Scheme] + ["R=3"])
    def test_weight_gradient_matches_finite_differences(self, runs):
        # seed-4 weights scaled to a mid operating point, where every
        # sample's powers sit above the floor and its outage below one half
        rho = np.random.default_rng(np.random.SeedSequence((4, 17))).random(8)
        adj, inv_corr = dataset_constants(0.95 * rho, PROTO)
        mats = [np.stack([m] * len(runs)) for m in init_weights(4).matrices]
        p_bar = np.array([lk.power_budget_w for _, lk in runs])
        out = forward(adj, mats, p_bar).out
        mats[-1] *= 18.0 / out.mean()
        lam = np.linspace(0.05, 0.02, len(runs))
        ups = np.linspace(1e-3, 2e-4, len(runs))

        def build(params):
            return batch_lagrangian(params, profile(adj, len(params)),
                                    inv_corr, runs, lam, ups)[0]

        rep = ad.finite_diff_check(build, mats, step=1e-5)
        assert rep.max_rel_error < 1e-5
        # the gradient is one (R, P) buffer, row r laid out as run r's
        # matrices
        params = [ad.parameter(m) for m in mats]
        ad.backward(build(params))
        flat = params[0].adjoint.base
        assert flat.shape == (len(runs), sum(m[0].size for m in mats))
        assert all(p.adjoint.base is flat for p in params)

    @pytest.mark.parametrize("rounds", (1, 5))
    def test_stacked_runs_equal_serial_runs_at_round_edges(self, rounds):
        # one round has no retransmission terms; five rounds are wider
        # than the default three
        proto = ChannelParams(rho=0.0, num_rounds=rounds)
        cfg = TrainConfig(epochs=1, dataset_size=100, batch_size=25)
        stacked = train_stack(self.STACK, proto, cfg)
        for run, got in zip(self.STACK, stacked):
            alone = train_stack([run], proto, cfg)[0]
            assert got.history.tobytes() == alone.history.tobytes()
            assert all(np.array_equal(a, b) for a, b in
                       zip(got.weights.matrices, alone.weights.matrices))

    @pytest.mark.parametrize("n_runs", (1, 3))
    def test_later_steps_allocate_no_layer_arrays(self, monkeypatch,
                                                  n_runs):
        # trace the memory a whole step takes, from the start of one Adam
        # update to the start of the next, from the second step on: less
        # than two (R, P) arrays of the weights.  A step that made Adam's
        # terms afresh would hold three at once, and one that made its
        # gradient or layers afresh several.  What remains is numpy's
        # iterator buffers for a broadcasting ufunc, the largest the outer
        # product of the (R, 16, 32) layer's gradient: two such buffers at
        # R = 1 (9.4 KB, 1.09 (R, P) arrays) and three at R = 3 (38.1 KB,
        # 1.48 arrays), so one (R, P) array is out of reach
        peaks, calls = [], []
        original = training.adam_update

        def traced(*args, **kwargs):
            calls.append(None)
            if tracemalloc.is_tracing():
                peaks.append(tracemalloc.get_traced_memory()[1] - start[0])
                tracemalloc.stop()
            if len(calls) >= 2:
                tracemalloc.start()
                start[0] = tracemalloc.get_traced_memory()[0]
            original(*args, **kwargs)

        start = [0]
        monkeypatch.setattr(training, "adam_update", traced)
        cfg = TrainConfig(epochs=1, dataset_size=250, batch_size=50)
        try:
            train_stack(self.STACK[:n_runs], PROTO, cfg)
        finally:
            if tracemalloc.is_tracing():
                tracemalloc.stop()
        assert len(peaks) == 3
        weight_bytes = 8 * n_runs * sum(m.size for m in
                                        init_weights(4).matrices)
        assert max(peaks) < 2 * weight_bytes, (peaks, weight_bytes)


class TestEvaluatePolicy:
    def test_consistent_with_analytics(self):
        weights = GcnWeights(matrices=scalar_policy(2.0))
        ch = ChannelParams(rho=0.5)
        policy, report = evaluate_policy(weights, ch, LINK, Scheme.CHASE)
        direct = evaluate(policy, ch, Scheme.CHASE, LINK)
        assert report.latency_s == direct.latency_s
        assert report.outage_profile == direct.outage_profile
        adj = session_adjacency(ch)
        want = 2.0 * (LINK.power_budget_w / 3.0) * (adj @ np.ones(3))
        assert policy.powers == pytest.approx(tuple(want), rel=1e-14)
