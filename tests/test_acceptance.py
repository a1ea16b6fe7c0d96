"""System-level acceptance tests.

These exercise the package end to end: policy training at the default
configuration, learned-policy quality against a grid-search oracle, scheme
orderings across power budgets, Monte-Carlo certification of the analytic
asymptotes, gradient correctness of the training graph, and bit-level CLI
reproducibility. The heavy artifacts (trained networks, the budget sweep)
are built once in session fixtures; the full module takes several minutes.
"""
import math
import time

import generic_ops as ad
import numpy as np
import pytest

from harqpower import training
from harqpower.analytics import correlation_factor, evaluate, rate_factors
from harqpower.cli import SEED_ENV_VAR, main
from harqpower.gcn import forward, init_weights, profile
from harqpower.graph import batch_adjacency, session_adjacency
from harqpower.montecarlo import estimate_outage_conditional, estimate_profile
from harqpower.oracle import default_grid, grid_search
from harqpower.training import (TrainConfig, batch_lagrangian,
                                dataset_constants, evaluate_policy,
                                train_stack)
from harqpower.types import ChannelParams, LinkConfig, PowerPolicy, Scheme

SCHEMES = (Scheme.INCREMENTAL, Scheme.CHASE, Scheme.TYPE_I)

# published operating points for the incremental-redundancy policy at the
# default link: latency and final outage at the correlation extremes
LATENCY_RHO0_S = 0.0554
LATENCY_RHO98_S = 0.0564
OUTAGE_RHO0 = 5.76e-5
OUTAGE_RHO98 = 1.68e-3
LATENCY_REL_TOL = 0.10
OUTAGE_FACTOR_TOL = 3.0

# audit slack for feasibility of learned policies: dual ascent settles on
# the constraint boundary, so exact comparisons flip on residual wobble
OUTAGE_SLACK = 1.05
POWER_SLACK = 1.01

BUDGET_GRID_DBW = (12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0)

MC_TRIALS = 10_000_000
MC_SEED = 20260816
MC_POWER_W = 1000.0  # 30 dBW

# seeded gradcheck instances, pre-screened so every sample of the batch sits
# at a healthy operating point (outage far from one, powers far from the
# clamp floor); at unhealthy points the central difference itself is noise
FD_SEEDS = (4, 6, 12, 14, 17, 18, 24, 26, 28, 31)
FD_BATCH = 8
FD_DUALS = (0.05, 1e-3)
FD_TARGET_MEAN_W = 18.0


def audited_feasible(report, link) -> bool:
    return (report.outage_profile[-1] <= OUTAGE_SLACK * link.outage_target
            and report.average_power_w <= POWER_SLACK * link.power_budget_w)


@pytest.fixture(scope="session")
def default_link():
    return LinkConfig()


@pytest.fixture(scope="session")
def trained_default(default_link):
    """Default-configuration training of every scheme as one stack, with the
    stack's wall time."""
    t0 = time.perf_counter()
    results = train_stack([(scheme, default_link) for scheme in SCHEMES],
                          ChannelParams(rho=0.0), TrainConfig())
    wall_s = time.perf_counter() - t0
    return {scheme: (result, wall_s)
            for scheme, result in zip(SCHEMES, results)}


@pytest.fixture(scope="session")
def budget_sweep():
    """Policies on the budget grid, trained as one stack and evaluated at
    rho = 0.5."""
    runs = [(scheme, LinkConfig(power_budget_dbw=budget))
            for budget in BUDGET_GRID_DBW for scheme in SCHEMES]
    results = train_stack(runs, ChannelParams(rho=0.0), TrainConfig())
    rows = {}
    for (scheme, link), result in zip(runs, results):
        _, rep = evaluate_policy(result.weights, ChannelParams(rho=0.5),
                                 link, scheme)
        rows[link.power_budget_dbw, scheme] = (rep, audited_feasible(rep, link))
    return rows


@pytest.fixture(scope="session")
def oracle_reference(default_link):
    grid = default_grid(default_link, points=40)
    return grid_search(ChannelParams(rho=0.5), Scheme.INCREMENTAL,
                       default_link, grid)


class TestTrainingConvergence:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
    def test_smoothed_latency_settles_inside_band(self, trained_default,
                                                  scheme):
        result, _ = trained_default[scheme]
        tau_hist = np.asarray(result.history)[:, 1]
        smoothed = np.convolve(tau_hist, np.ones(200) / 200.0, mode="valid")
        tail = smoothed[-int(0.2 * len(smoothed)):]
        drift = (tail.max() - tail.min()) / tail[-1]
        assert drift < 0.01, f"late-training drift {drift:.2%}"
        assert 0.05 <= tail[-1] <= 0.06

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
    def test_wall_time_within_budget(self, trained_default, scheme):
        _, wall_s = trained_default[scheme]
        assert wall_s < 300.0


@pytest.fixture(scope="session")
def endpoint_reports(trained_default, default_link):
    result, _ = trained_default[Scheme.INCREMENTAL]
    reports = {}
    for rho in (0.0, 0.98):
        _, rep = evaluate_policy(result.weights, ChannelParams(rho=rho),
                                 default_link, Scheme.INCREMENTAL)
        reports[rho] = rep
    return reports


class TestCorrelationEndpoints:
    def test_latency_endpoints(self, endpoint_reports):
        tau0 = endpoint_reports[0.0].latency_s
        tau98 = endpoint_reports[0.98].latency_s
        assert abs(tau0 - LATENCY_RHO0_S) <= LATENCY_REL_TOL * LATENCY_RHO0_S
        assert abs(tau98 - LATENCY_RHO98_S) <= LATENCY_REL_TOL * LATENCY_RHO98_S
        assert tau98 > tau0

    def test_outage_endpoints(self, endpoint_reports):
        p0 = endpoint_reports[0.0].outage_profile[-1]
        p98 = endpoint_reports[0.98].outage_profile[-1]
        assert OUTAGE_RHO0 / OUTAGE_FACTOR_TOL <= p0 \
            <= OUTAGE_RHO0 * OUTAGE_FACTOR_TOL
        assert OUTAGE_RHO98 / OUTAGE_FACTOR_TOL <= p98 \
            <= OUTAGE_RHO98 * OUTAGE_FACTOR_TOL
        assert p98 > p0


class TestSchemeOrdering:
    def test_incremental_feasible_across_grid(self, budget_sweep):
        for budget in BUDGET_GRID_DBW:
            _, ok = budget_sweep[budget, Scheme.INCREMENTAL]
            assert ok, f"incremental policy infeasible at {budget} dBW"

    def test_plain_repetition_infeasible_at_low_budget(self, budget_sweep):
        # at the bottom of the grid the no-combining scheme cannot reach the
        # outage target within the power budget while incremental decoding
        # still can; its training lands on an honest constraint violation
        _, t1_ok = budget_sweep[12.0, Scheme.TYPE_I]
        _, ir_ok = budget_sweep[12.0, Scheme.INCREMENTAL]
        assert ir_ok and not t1_ok

    @pytest.mark.parametrize("pair", [(Scheme.INCREMENTAL, Scheme.CHASE),
                                      (Scheme.CHASE, Scheme.TYPE_I)],
                             ids=("ir<=cc", "cc<=type1"))
    def test_latency_ordering_where_both_feasible(self, budget_sweep, pair):
        better, worse = pair
        compared = 0
        for budget in BUDGET_GRID_DBW:
            rep_b, ok_b = budget_sweep[budget, better]
            rep_w, ok_w = budget_sweep[budget, worse]
            if not (ok_b and ok_w):
                continue
            assert rep_b.latency_s <= rep_w.latency_s, f"at {budget} dBW"
            compared += 1
        assert compared >= 5

    @pytest.mark.parametrize("pair", [(Scheme.INCREMENTAL, Scheme.CHASE),
                                      (Scheme.CHASE, Scheme.TYPE_I)],
                             ids=("ir<=cc", "cc<=type1"))
    def test_outage_ordering_where_both_feasible(self, budget_sweep, pair):
        better, worse = pair
        compared = 0
        for budget in BUDGET_GRID_DBW:
            rep_b, ok_b = budget_sweep[budget, better]
            rep_w, ok_w = budget_sweep[budget, worse]
            if not (ok_b and ok_w):
                continue
            assert rep_b.outage_profile[-1] <= rep_w.outage_profile[-1], \
                f"at {budget} dBW"
            compared += 1
        assert compared >= 5


class TestAsymptoteCertification:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
    @pytest.mark.parametrize("rho", (0.0, 0.5))
    def test_conditional_estimator_matches_asymptote(self, scheme, rho):
        channel = ChannelParams(rho=rho)
        policy = PowerPolicy((MC_POWER_W,) * 3)
        profile = evaluate(policy, channel, scheme, LinkConfig()).outage_profile
        estimates = estimate_outage_conditional(policy, channel, 2.0,
                                                trials=MC_TRIALS, seed=MC_SEED,
                                                workers=4)[scheme]
        for k, (analytic, est) in enumerate(zip(profile, estimates), start=1):
            rel = abs(est.mean - analytic) / analytic
            assert rel <= 0.05, f"k={k}: rel error {rel:.2%}"

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
    @pytest.mark.parametrize("rho", (0.0, 0.5))
    def test_first_round_brackets_exact_rayleigh(self, scheme, rho):
        channel = ChannelParams(rho=rho)
        policy = PowerPolicy((MC_POWER_W,) * 3)
        exact = 1.0 - math.exp(-(2.0 ** 2.0 - 1.0) / MC_POWER_W)
        est = estimate_profile(policy, channel, 2.0, trials=MC_TRIALS,
                               seed=MC_SEED, workers=4)[scheme][0]
        assert abs(est.mean - exact) <= 3.0 * est.stderr


class TestClosedFormIdentities:
    def test_single_round_correlation_factor_is_one(self):
        for rho in (0.0, 0.3, 0.9, 0.98):
            for delta in (1, 2, 3):
                assert correlation_factor(rho, 1, delta)[0] == 1.0

    def test_uncorrelated_factor_is_one(self):
        for k in (1, 2, 3):
            assert correlation_factor(0.0, k, 2)[k - 1] == 1.0

    def test_first_round_rate_factor_is_snr_threshold(self):
        for scheme in SCHEMES:
            assert rate_factors(scheme, 2.0, 1)[0] == 3.0
            assert rate_factors(scheme, 1.0, 1)[0] == 1.0

    def test_zero_rate_factor_vanishes(self):
        for scheme in SCHEMES:
            for k in (1, 2, 3):
                assert rate_factors(scheme, 0.0, k)[k - 1] == 0.0

    def test_incremental_three_round_constant(self):
        value = rate_factors(Scheme.INCREMENTAL, 2.0, 3)[2]
        assert abs(value - 1.29844) <= 1e-5

    def test_half_correlation_two_round_factor_exact(self):
        assert correlation_factor(0.5, 2, 1)[1] == 0.984375


def generic_lagrangian(rows, inv_corr, runs, lam, ups, tau_clip):
    """batch_lagrangian's root from the generic ops on per-round power
    leaves: the reference for its fused Lagrangian op, in the chain's order."""
    link, k = runs[0][1], len(rows)

    def per_run(values):
        return ad.constant(np.reshape(values, (-1, 1, 1, 1)))

    def per_sample(values):
        return ad.constant(np.reshape(values, (-1, 1, 1)))

    factors = np.array([rate_factors(scheme, link.rate, k)
                        for scheme, _ in runs])
    prod, pouts = None, []
    for kk, p in enumerate(rows):
        prod = p if prod is None else ad.multiply(prod, p)
        pouts.append(ad.multiply(ad.divide(per_sample(inv_corr[:, kk]), prod),
                                 per_run(factors[:, kk])))
    spent = ad.constant(1.0)
    for pout in pouts[:-1]:
        spent = ad.add(spent, pout)
    success = ad.add(ad.constant(1.0),
                     ad.multiply(pouts[-1], ad.constant(-1.0)))
    eta = ad.divide(ad.multiply(ad.constant(link.rate), success), spent)
    tau = ad.clamp(ad.divide(ad.constant(link.payload_bits),
                             ad.multiply(eta, ad.constant(link.bandwidth_hz))),
                   lo=0.0, hi=tau_clip)
    pavg = rows[0]
    for p, pout in zip(rows[1:], pouts[:-1]):
        pavg = ad.add(pavg, ad.multiply(p, pout))
    log_slack = ad.add(ad.log(pouts[-1]),
                       ad.constant(-math.log(link.outage_target)))
    p_bar = np.array([lk.power_budget_w for _, lk in runs])
    terms = ad.add(ad.add(tau, ad.multiply(per_run(lam), log_slack)),
                   ad.multiply(per_run(ups), ad.add(pavg, per_run(-p_bar))))
    return ad.divide(ad.reduce_sum(terms),
                     ad.constant(float(rows[0].value.shape[1])))


def tau_floor(link) -> float:
    """The latency floor payload / (bandwidth * rate), the clip's unit."""
    return link.payload_bits / (link.bandwidth_hz * link.rate)


def tau_clip(link) -> float:
    """batch_lagrangian's latency clip on `link`, associated as it is there."""
    return training.TAU_CLIP_FLOORS * tau_floor(link)


def assert_fused_adjoint_matches_generic(matrices, rho_batch, runs, lam, ups):
    adj, inv_corr = dataset_constants(rho_batch, ChannelParams(rho=0.0))
    root, stats = batch_lagrangian([ad.parameter(m) for m in matrices],
                                   profile(adj, len(matrices)), inv_corr,
                                   runs, lam, ups)
    ad.backward(root)
    (powers,) = root.parents
    assert root.kind == "lagrangian" and powers.kind == "gcn"
    rows = [ad.parameter(powers.value[..., kk:kk + 1, :].copy())
            for kk in range(powers.value.shape[-2])]
    ref = generic_lagrangian(rows, inv_corr, runs, lam, ups,
                             tau_clip(runs[0][1]))
    ad.backward(ref)
    assert root.value.tobytes() == ref.value.tobytes()
    want = np.concatenate([r.adjoint for r in rows], axis=-2)
    np.testing.assert_allclose(powers.adjoint, want, rtol=1e-12, atol=0.0)
    return stats


class TestGradientCorrectness:
    @staticmethod
    def _instance(seed, link, proto):
        """Seeded weights rescaled to a mid operating point, plus rho batch."""
        rng = np.random.default_rng(np.random.SeedSequence((seed, 17)))
        rho_batch = rng.random(FD_BATCH) * 0.95
        weights = init_weights(seed)
        scheme = SCHEMES[seed % 3]
        adj = batch_adjacency(rho_batch, proto.num_rounds, proto.delta)
        v = forward(adj, weights.matrices, link.power_budget_w).out
        mean_out = float(np.mean(v))
        assert mean_out > 0.01, f"seed {seed}: collapsed init"
        weights.matrices[-1] *= FD_TARGET_MEAN_W / mean_out
        return weights, rho_batch, scheme

    @pytest.mark.parametrize("seed", FD_SEEDS)
    def test_lagrangian_gradient_matches_finite_differences(self, seed):
        link = LinkConfig()
        proto = ChannelParams(rho=0.0)
        weights, rho_batch, scheme = self._instance(seed, link, proto)

        # guard that the instance is in the smooth interior: every sample's
        # final outage below one half, every output power above the floor
        k = proto.num_rounds
        for rho in rho_batch:
            ch = ChannelParams(rho=float(rho))
            p = forward(session_adjacency(ch), weights.matrices,
                        link.power_budget_w).out.reshape(-1)
            assert p.min() >= 2.0
            pout = rate_factors(scheme, link.rate, k)[k - 1] / (
                correlation_factor(float(rho), k, proto.delta)[k - 1]
                * np.prod(p))
            assert pout <= 0.5

        lam, ups = FD_DUALS
        adj, inv_corr = dataset_constants(rho_batch, proto)

        def build(params):
            root, _ = batch_lagrangian(params, profile(adj, len(params)),
                                       inv_corr, [(scheme, link)], lam, ups)
            return root

        report = ad.finite_diff_check(build, weights.matrices, step=1e-4)
        assert report.max_rel_error < 1e-4, \
            f"seed {seed}: max rel error {report.max_rel_error:.3e}"

    @pytest.mark.parametrize("seed", FD_SEEDS)
    def test_fused_adjoint_matches_generic_ops(self, seed):
        link = LinkConfig()
        weights, rho_batch, scheme = self._instance(
            seed, link, ChannelParams(rho=0.0))
        assert_fused_adjoint_matches_generic(
            weights.matrices, rho_batch, [(scheme, link)], *FD_DUALS)

    def test_fused_adjoint_matches_generic_ops_on_a_stack(self):
        link = LinkConfig()
        weights, rho_batch, _ = self._instance(4, link, ChannelParams(rho=0.0))
        runs = [(scheme, LinkConfig(power_budget_dbw=budget)) for scheme, budget
                in zip(SCHEMES, (14.0, 15.0, 16.0))]
        assert_fused_adjoint_matches_generic(
            [np.stack([m] * 3) for m in weights.matrices], rho_batch, runs,
            np.array([0.05, 0.0, 0.02]), np.array([1e-3, 2e-4, 0.0]))

    def test_fused_adjoint_matches_generic_ops_where_the_clip_binds(
            self, monkeypatch):
        link = LinkConfig()
        weights, rho_batch, scheme = self._instance(
            6, link, ChannelParams(rho=0.0))
        adj, inv_corr = dataset_constants(rho_batch, ChannelParams(rho=0.0))
        _, stats = batch_lagrangian([ad.constant(m) for m in weights.matrices],
                                    profile(adj, len(weights.matrices)),
                                    inv_corr, [(scheme, link)], 0.0, 0.0)
        # move the clip to the batch's median latency, in latency floors
        median = float(np.median(stats["mean_tau_s"]))
        monkeypatch.setattr(training, "TAU_CLIP_FLOORS",
                            median / tau_floor(link))
        stats = assert_fused_adjoint_matches_generic(
            weights.matrices, rho_batch, [(scheme, link)], *FD_DUALS)
        clipped = stats["mean_tau_s"] == tau_clip(link)
        assert clipped.any() and not clipped.all()


class TestLearnedVersusOracle:
    def test_latency_within_ten_percent_of_grid_best(self, trained_default,
                                                     oracle_reference,
                                                     default_link):
        result, _ = trained_default[Scheme.INCREMENTAL]
        _, rep = evaluate_policy(result.weights, ChannelParams(rho=0.5),
                                 default_link, Scheme.INCREMENTAL)
        gap = abs(rep.latency_s - oracle_reference.latency_s) \
            / oracle_reference.latency_s
        assert gap <= 0.10, f"latency gap {gap:.2%}"

    def test_learned_policy_passes_audit(self, trained_default, default_link):
        result, _ = trained_default[Scheme.INCREMENTAL]
        _, rep = evaluate_policy(result.weights, ChannelParams(rho=0.5),
                                 default_link, Scheme.INCREMENTAL)
        assert rep.outage_profile[-1] \
            <= OUTAGE_SLACK * default_link.outage_target
        assert rep.average_power_w \
            <= POWER_SLACK * default_link.power_budget_w


class TestReproducibility:
    @pytest.fixture(autouse=True)
    def no_ambient_seed(self, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)

    def test_manifest_rerun_is_bit_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["train", "--out", str(a), "--seed", "6", "--epochs", "40",
                "--dataset-size", "200", "--batch-size", "50"]
        assert main(argv) == 0
        assert main(["train", "--out", str(b), "--config",
                     str(a / "manifest.txt")]) == 0
        assert (a / "history.csv").read_bytes() == \
            (b / "history.csv").read_bytes()
        assert (a / "checkpoint_ir.txt").read_bytes() == \
            (b / "checkpoint_ir.txt").read_bytes()

    def test_mc_report_invariant_to_thread_count(self, tmp_path):
        outputs = []
        for threads in (1, 4):
            d = tmp_path / f"threads{threads}"
            rc = main(["mc-validate", "--out", str(d), "--trials", "300000",
                       "--threads", str(threads), "--seed", "11"])
            assert rc == 0
            outputs.append((d / "mc_report.csv").read_bytes())
        assert outputs[0] == outputs[1]
