"""Grid-search oracle tests.

The one-round problem is solvable by hand on a known geometric axis, and a
small two-round grid can be brute-forced through the scalar evaluator to
confirm the vectorized search picks the identical point.
"""
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from harqpower import oracle
from harqpower.analytics import evaluate
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
        # the search reduces block by block; with one point per block the
        # cross-block reduction alone picks the winner
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
