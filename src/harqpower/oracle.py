"""Exhaustive grid-search baseline for the power-allocation problem.

Searches a per-round geometric power grid for the feasible point of minimum
latency.  Exponential in the round count, so it is guarded to K <= 4; its
role is to certify learned policies on small instances, not to scale.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytics import (ChainWork, analytic_chain, correlation_factor,
                        rate_factors)
from .types import (P_MIN_WATTS, ChannelParams, LinkConfig,
                    PowerPolicy, Scheme, dbw_to_watts)

MAX_GRID_ROUNDS = 4
# grid points evaluated per block: a block's dozen or so arrays stay near
# 1 MB, in cache, whatever the grid size; the tie-break makes the result
# independent of the block size
BLOCK_POINTS = 1 << 13


class ComplexityGuard(ValueError):
    pass


class GridInfeasible(RuntimeError):
    pass


@dataclass(frozen=True)
class GridSpec:
    points_per_axis: int = 40
    p_min_w: float = P_MIN_WATTS
    p_max_w: float = 1.0

    def __post_init__(self):
        if self.points_per_axis < 2:
            raise ValueError("need at least 2 grid points per axis")
        if not 0 < self.p_min_w < self.p_max_w:
            raise ValueError("need 0 < p_min_w < p_max_w")

    def axis(self) -> np.ndarray:
        return np.geomspace(self.p_min_w, self.p_max_w, self.points_per_axis)


def default_grid(link: LinkConfig,
                 points: int = GridSpec.points_per_axis) -> GridSpec:
    """Grid spanning the power floor up to 3 dB above the average budget.

    Raises GridInfeasible when that top is not above the floor: every
    policy is floored at P_MIN_WATTS, so none can meet such a budget.
    """
    p_max_w = dbw_to_watts(link.power_budget_dbw + 3.0)
    if p_max_w <= P_MIN_WATTS:
        raise GridInfeasible(
            f"no feasible power vector at {link.power_budget_dbw} dBW: the "
            f"grid top {p_max_w:g} W is not above the {P_MIN_WATTS:g} W floor")
    return GridSpec(points_per_axis=points, p_min_w=P_MIN_WATTS, p_max_w=p_max_w)


@dataclass
class OracleResult:
    policy: PowerPolicy
    latency_s: float
    average_power_w: float
    outage_k: float


def grid_search(channel: ChannelParams, scheme: Scheme, link: LinkConfig,
                grid: GridSpec) -> OracleResult:
    """Best feasible grid point by latency.

    Ties break toward smaller average power, then lexicographically smaller
    power vectors, making the result independent of evaluation order.  A
    point whose latency overflows (a tiny bandwidth, say) is infeasible.
    Raises GridInfeasible when no grid point satisfies both constraints and
    ComplexityGuard when the round count exceeds MAX_GRID_ROUNDS.
    """
    k = channel.num_rounds
    if k > MAX_GRID_ROUNDS:
        raise ComplexityGuard(
            f"grid search supports at most {MAX_GRID_ROUNDS} rounds, got {k}")
    axis = grid.axis()
    inv_corr = 1.0 / correlation_factor(channel.rho, k, channel.delta)
    factors = rate_factors(scheme, link.rate, k)
    size = grid.points_per_axis ** k
    shape = (grid.points_per_axis,) * k
    # one block's buffers, reused by every block: (points, K) powers, each
    # round's contiguous, and the chain's work
    rows = min(BLOCK_POINTS, size)
    powers, work = np.empty((k, rows)).T, ChainWork((rows, k))
    # each block's best feasible point as (tau, pavg, powers, P_out_K)
    bests = []
    for start in range(0, size, BLOCK_POINTS):
        flat = np.arange(start, min(start + BLOCK_POINTS, size))
        if flat.size < rows:
            powers, work = powers[:flat.size], ChainWork((flat.size, k))
        # mode="clip" writes straight into `out` ("raise" buffers); every
        # index is in range
        for j, index in enumerate(np.unravel_index(flat, shape)):
            np.take(axis, index, out=powers[:, j], mode="clip")
        # an overflow or a 0/0 leaves inf or nan, and the test below is
        # false for both
        with np.errstate(all="ignore"):
            outages, _, tau, pavg = analytic_chain(
                powers, inv_corr, factors, link, capped=True, work=work)
        feasible = ((outages[:, -1] <= link.outage_target)
                    & (pavg <= link.power_budget_w) & np.isfinite(tau))
        idx = np.flatnonzero(feasible)
        if idx.size:
            keys = tuple(powers[idx, j] for j in reversed(range(k)))
            best = idx[np.lexsort(keys + (pavg[idx], tau[idx]))[0]]
            bests.append((tau[best], pavg[best], tuple(powers[best]),
                          outages[best, -1]))
    if not bests:
        raise GridInfeasible(
            f"no feasible point on a {grid.points_per_axis}^{k} grid for "
            f"{scheme.value} at {link.power_budget_dbw} dBW")

    # the same order across blocks; min keeps the first of equal keys, and
    # blocks run in grid order, so ties still go to the earliest grid point
    tau, pavg, powers, outage_k = min(bests, key=lambda b: b[:2] + b[2])
    return OracleResult(policy=PowerPolicy(powers), latency_s=float(tau),
                        average_power_w=float(pavg),
                        outage_k=float(outage_k))
