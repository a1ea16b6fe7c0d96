"""Grid-search oracle tests.

The one-round problem is solvable by hand on a known geometric axis, and a
small two-round grid can be brute-forced through the scalar evaluator to
confirm the vectorized search picks the identical point.  A property test
checks the bisecting search against the chain evaluated on every grid
point.
"""
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harqpower import oracle
from harqpower.analytics import (analytic_chain, correlation_factor, evaluate,
                                 rate_factors)
from harqpower.oracle import (ComplexityGuard, GridInfeasible, GridSpec,
                              default_grid, grid_search)
from harqpower.types import (ChannelParams, LinkConfig, PowerPolicy, Scheme,
                             dbw_to_watts)


class TestGridSpec:
    def test_axis_is_geometric(self):
        g = GridSpec(points_per_axis=5, p_min_w=1.0, p_max_w=16.0)
        assert g.axis() == pytest.approx([1.0, 2.0, 4.0, 8.0, 16.0], rel=1e-12)

    def test_default_grid_spans_budget_plus_3db(self):
        link = LinkConfig()
        g = default_grid(link, points=25)
        assert g.points_per_axis == 25
        assert g.p_max_w == pytest.approx(dbw_to_watts(18.0), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(points_per_axis=1)
        with pytest.raises(ValueError):
            GridSpec(p_min_w=2.0, p_max_w=1.0)


class TestSingleRound:
    # With one round, outage is (2^R - 1) / (p * xi^2), latency falls as p
    # grows, and feasibility needs p inside [threshold/target, budget].
    def test_hand_solvable_instance(self):
        link = LinkConfig(outage_target=0.15,
                          power_budget_dbw=10.0 * np.log10(25.0))
        ch = ChannelParams(rho=0.5, num_rounds=1)
        grid = GridSpec(points_per_axis=10, p_min_w=1.0, p_max_w=100.0)
        # axis point 10^(4/3) ~ 21.544 is the only one in [20, 25]
        res = grid_search(ch, Scheme.TYPE_I, link, grid)
        assert res.policy.powers[0] == pytest.approx(10.0 ** (4.0 / 3.0),
                                                     rel=1e-12)
        ref = evaluate(res.policy, ch, Scheme.TYPE_I, link)
        assert res.latency_s == pytest.approx(ref.latency_s, rel=1e-12)
        assert res.average_power_w == pytest.approx(ref.average_power_w,
                                                    rel=1e-12)
        assert res.outage_k == pytest.approx(ref.outage_profile[-1], rel=1e-12)

    def test_budget_met_with_equality_is_feasible(self):
        # the grid's top point spends exactly the budget, and latency falls
        # as p grows, so the top point wins
        link = LinkConfig(outage_target=0.5, power_budget_dbw=10.0)
        grid = GridSpec(points_per_axis=7, p_min_w=1.0,
                        p_max_w=link.power_budget_w)
        res = grid_search(ChannelParams(rho=0.5, num_rounds=1),
                          Scheme.TYPE_I, link, grid)
        assert res.policy.powers == (link.power_budget_w,)
        assert res.average_power_w == link.power_budget_w

    def test_infeasible_grid_raises(self):
        link = LinkConfig()  # target 1e-2 needs p >= 300 W, grid tops at 63 W
        ch = ChannelParams(rho=0.5, num_rounds=1)
        with pytest.raises(GridInfeasible):
            grid_search(ch, Scheme.TYPE_I, link, default_grid(link))


class TestGridSearch:
    def setup_method(self):
        self.link = LinkConfig()
        self.ch = ChannelParams(rho=0.5, num_rounds=2)
        self.grid = GridSpec(points_per_axis=8, p_min_w=0.5, p_max_w=40.0)

    def test_matches_scalar_brute_force(self):
        res = grid_search(self.ch, Scheme.CHASE, self.link, self.grid)
        best = None
        for powers in itertools.product(self.grid.axis(), repeat=2):
            rep = evaluate(PowerPolicy(powers), self.ch, Scheme.CHASE, self.link)
            if not rep.feasible:
                continue
            key = (rep.latency_s, rep.average_power_w) + powers
            if best is None or key < best[0]:
                best = (key, powers, rep)
        assert best is not None
        _, powers, rep = best
        assert res.policy.powers == pytest.approx(powers, rel=1e-14)
        assert res.latency_s == pytest.approx(rep.latency_s, rel=1e-12)
        assert res.average_power_w == pytest.approx(rep.average_power_w,
                                                    rel=1e-12)

    def test_winner_is_feasible(self):
        res = grid_search(self.ch, Scheme.INCREMENTAL, self.link, self.grid)
        assert evaluate(res.policy, self.ch, Scheme.INCREMENTAL,
                        self.link).feasible

    def test_repeat_runs_identical(self):
        a = grid_search(self.ch, Scheme.CHASE, self.link, self.grid)
        b = grid_search(self.ch, Scheme.CHASE, self.link, self.grid)
        assert a.policy.powers == b.policy.powers
        assert a.latency_s == b.latency_s

    def test_larger_budget_never_hurts(self):
        taus = []
        for dbw in (14.0, 16.0, 18.0):
            link = LinkConfig(power_budget_dbw=dbw)
            res = grid_search(self.ch, Scheme.CHASE, link, self.grid)
            taus.append(res.latency_s)
        assert taus[0] >= taus[1] >= taus[2]

    @pytest.mark.parametrize("block", (1, 7, 500))
    def test_block_size_does_not_change_the_result(self, monkeypatch, block):
        # the search reduces block by block; with one row (a point of the
        # rounds 1..K-1 grid) per block the cross-block reduction alone
        # picks the winner
        ch = ChannelParams(rho=0.5)
        grid = default_grid(self.link, points=12)
        want = grid_search(ch, Scheme.INCREMENTAL, self.link, grid)
        monkeypatch.setattr(oracle, "BLOCK_POINTS", block)
        got = grid_search(ch, Scheme.INCREMENTAL, self.link, grid)
        assert got.policy == want.policy
        assert (got.latency_s, got.average_power_w, got.outage_k) == \
            (want.latency_s, want.average_power_w, want.outage_k)

    def test_working_set_stays_small(self):
        # the certify grid, 100^3 points; one 2^16-point block peaks at
        # 9.7 MiB
        grid = default_grid(self.link, points=100)
        tracemalloc.start()
        try:
            grid_search(ChannelParams(rho=0.5), Scheme.INCREMENTAL, self.link,
                        grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * (1 << 20)

    def search_quietly(self, bandwidth_hz):
        link = LinkConfig(bandwidth_hz=bandwidth_hz)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return grid_search(ChannelParams(rho=0.5), Scheme.INCREMENTAL,
                               link, default_grid(link, points=8))

    def test_overflowing_latency_is_infeasible(self):
        # at 1e-300 Hz most latencies overflow to inf; the best finite one wins
        res = self.search_quietly(1e-300)
        assert math.isfinite(res.latency_s) and res.latency_s > 1e305

    def test_grid_without_finite_latency_raises(self):
        with pytest.raises(GridInfeasible):
            self.search_quietly(1e-305)

    def test_round_count_guard(self):
        ch = ChannelParams(rho=0.2, num_rounds=5)
        with pytest.raises(ComplexityGuard):
            grid_search(ch, Scheme.CHASE, self.link,
                        GridSpec(points_per_axis=3, p_min_w=1.0, p_max_w=10.0))

    def test_negative_rate_factor_rejected(self):
        # ir's alternating sum cancels to -2^-53 in round 3 at this rate,
        # where latency would rise with p_3; the CLI rejects such a rate
        link = LinkConfig(rate=1e-5)
        assert rate_factors(Scheme.INCREMENTAL, 1e-5, 3)[2] < 0.0
        with pytest.raises(ValueError) as err:
            grid_search(ChannelParams(rho=0.5), Scheme.INCREMENTAL, link,
                        default_grid(link, points=5))
        assert str(err.value) == (
            "grid search needs non-negative rate factors, but the ir rate "
            "factor of round 3 is -1.11022e-16 at rate 1e-05")

    def test_zero_rate_factor_picks_the_smallest_feasible_power(self):
        # ir's round-2 factor is 0 at this rate, so P_2 = 0 and the latency
        # is flat in p_2: the cheapest p_2, the axis floor, wins
        link = LinkConfig(rate=1e-8)
        assert rate_factors(Scheme.INCREMENTAL, 1e-8, 2)[1] == 0.0
        ch = ChannelParams(rho=0.5, num_rounds=2)
        grid = default_grid(link, points=9)
        res = grid_search(ch, Scheme.INCREMENTAL, link, grid)
        assert res.policy.powers[1] == grid.axis()[0]
        assert res.outage_k == 0.0
        assert res == brute_force(ch, Scheme.INCREMENTAL, link, grid)


def brute_force(channel, scheme, link, grid):
    """The grid's best point from the chain on all n^K points, ranked by
    (latency, average power, p_1..p_K); None when no point is feasible."""
    k = channel.num_rounds
    powers = np.array(list(itertools.product(grid.axis(), repeat=k)))
    inv_corr = 1.0 / correlation_factor(channel.rho, k, channel.delta)
    with np.errstate(all="ignore"):
        outages, _, tau, pavg = analytic_chain(
            powers, inv_corr, rate_factors(scheme, link.rate, k), link,
            capped=True)
    feasible = np.flatnonzero((outages[:, -1] <= link.outage_target)
                              & (pavg <= link.power_budget_w)
                              & np.isfinite(tau))
    if not feasible.size:
        return None
    keys = tuple(powers[feasible, j] for j in reversed(range(k)))
    best = feasible[np.lexsort(keys + (pavg[feasible], tau[feasible]))[0]]
    return oracle.OracleResult(
        policy=PowerPolicy(tuple(powers[best])), latency_s=float(tau[best]),
        average_power_w=float(pavg[best]),
        outage_k=float(outages[best, -1]))


def log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@st.composite
def search_problems(draw):
    k = draw(st.integers(1, 4))
    points = draw(st.integers(2, 8 if k == 4 else 13))
    # rates and targets log-uniform, where latencies go flat at small
    # rates and large powers
    link = LinkConfig(
        rate=draw(st.sampled_from((1e-15, 7.0)) | log_uniform(-4.0, 0.845)),
        outage_target=draw(st.sampled_from((1e-2, 1e-6))
                           | log_uniform(-12.0, -0.3)),
        power_budget_dbw=draw(st.floats(-10.0, 40.0)),
        bandwidth_hz=draw(st.sampled_from((1e7, 1e3, 1e-300))))
    channel = ChannelParams(rho=draw(st.floats(0.0, 0.999)), num_rounds=k)
    scheme = draw(st.sampled_from(Scheme))
    return channel, scheme, link, default_grid(link, points=points)


class TestAgainstBruteForce:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(search_problems())
    def test_bisection_picks_the_exhaustive_point(self, problem):
        channel, scheme, link, grid = problem
        factors = rate_factors(scheme, link.rate, channel.num_rounds)
        if min(factors) < 0.0:
            with pytest.raises(ValueError, match="non-negative rate factors"):
                grid_search(*problem)
            return
        want = brute_force(*problem)
        if want is None:
            with pytest.raises(GridInfeasible):
                grid_search(*problem)
        else:
            assert grid_search(*problem) == want
