"""Grid-search baseline for the power-allocation problem.

Finds the feasible point of minimum latency on a per-round geometric power
grid, exactly as an exhaustive search would.  Every outage is a monomial in
the powers, so with the first K-1 powers fixed the latency and the average
power are monotone in the last one, and each row of the grid of rounds
1..K-1 is searched for its best last-round power by bisection.  Still
exponential in the round count, so it is guarded to K <= 4; its role is to
certify learned policies on small instances, not to scale.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytics import ChainWork, correlation_factor, rate_factors
from .types import (P_MIN_WATTS, ChannelParams, LinkConfig,
                    PowerPolicy, Scheme, dbw_to_watts)

MAX_GRID_ROUNDS = 4
# grid rows (points of rounds 1..K-1) searched per block: a block's dozen or
# so arrays stay near 1 MB, in cache, whatever the grid size; the tie-break
# makes the result independent of the block size
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
    Raises GridInfeasible when no grid point satisfies both constraints,
    ComplexityGuard when the round count exceeds MAX_GRID_ROUNDS and
    ValueError when a rate factor is negative.

    The search runs over rows, the points of the grid of rounds 1..K-1 in
    order, and bisects each row's last-round axis.  With non-negative rate
    factors, P_K and the latency are non-increasing and the average power
    is non-decreasing in p_K, in floating point too: every step of the
    chain is a monotone rounding.  So a row's feasible indices form an
    interval, found by two bisections, and its best point is the first
    index of that interval whose latency equals the latency at its top.
    Rows rank by (latency, average power, row order), which picks the point
    an exhaustive search ranked by (latency, average power, p_1..p_K) would.
    A row costs four chain evaluations and log2(points) steps of its
    average power alone, and log2(points) more chain evaluations in a block
    where some row's latency is flat at its top, instead of points chain
    evaluations.
    """
    k = channel.num_rounds
    if k > MAX_GRID_ROUNDS:
        raise ComplexityGuard(
            f"grid search supports at most {MAX_GRID_ROUNDS} rounds, got {k}")
    factors = rate_factors(scheme, link.rate, k)
    for j, f in enumerate(factors, 1):
        # a negative factor makes latency rise with p_K, or the average
        # power fall, and the bisections would miss points
        if f < 0.0:
            raise ValueError(
                f"grid search needs non-negative rate factors, but the "
                f"{scheme.value} rate factor of round {j} is {f:g} at rate "
                f"{link.rate:g}")
    axis, n = grid.axis(), grid.points_per_axis
    inv_corr = 1.0 / correlation_factor(channel.rho, k, channel.delta)
    size = n ** (k - 1)
    # one block's buffers, reused by every block: (rows, K) powers, each
    # round's contiguous, the chain on them, and per-row scratch
    rows = min(BLOCK_POINTS, size)
    powers = np.empty((k, rows)).T
    chain = ChainWork(powers, inv_corr, factors, link, capped=True)
    scratch = (np.empty((3, rows)), np.empty((3, rows), dtype=np.intp),
               np.empty((3, rows), dtype=bool))
    # each block's best feasible point as (tau, pavg, powers, P_out_K)
    bests = []
    for start in range(0, size, BLOCK_POINTS):
        flat = np.arange(start, min(start + BLOCK_POINTS, size))
        if flat.size < rows:
            powers = powers[:flat.size]
            chain = ChainWork(powers, inv_corr, factors, link, capped=True)
            scratch = tuple(a[:, :flat.size] for a in scratch)
        # mode="clip" writes straight into `out` ("raise" buffers); every
        # index is in range
        for j in range(k - 1):
            np.take(axis, flat // n ** (k - 2 - j) % n, out=powers[:, j],
                    mode="clip")
        # an overflow or a 0/0 leaves inf or nan, and every test below is
        # false for both
        with np.errstate(all="ignore"):
            feasible = _search_rows(powers, axis, link, chain, scratch)
            outages, _, tau, pavg = chain.run()
        idx = np.flatnonzero(feasible)
        if idx.size:
            # lexsort is stable: equal keys keep row order
            best = idx[np.lexsort((pavg[idx], tau[idx]))[0]]
            bests.append((tau[best], pavg[best], tuple(powers[best]),
                          outages[best, -1]))
    if not bests:
        raise GridInfeasible(
            f"no feasible point on a {n}^{k} grid for "
            f"{scheme.value} at {link.power_budget_dbw} dBW")

    # the same order across blocks; min keeps the first of equal keys, and
    # blocks run in row order, so ties still go to the earliest grid point
    tau, pavg, powers, outage_k = min(bests, key=lambda b: b[:2])
    return OracleResult(policy=PowerPolicy(powers), latency_s=float(tau),
                        average_power_w=float(pavg),
                        outage_k=float(outage_k))


def _search_rows(powers, axis, link: LinkConfig, chain: ChainWork,
                 scratch) -> np.ndarray:
    """Each row's best last-round power, written to powers[:, -1].

    `chain` is the capped chain on `powers`, which holds the rows' powers
    of rounds 1..K-1 in its first K-1 columns.  Returns a bool row, True
    where the row has a feasible point; an infeasible row's last power is
    some axis point.  Both bisections take fixed power-of-two steps from
    index -1 and keep a step where the tested index is still on the near
    side.
    """
    (base, slope, top), (last, pos, cand), (ok, fit, feasible) = scratch
    n = len(axis)

    def chain_at(index):
        # the chain with round K at axis[index], an index below 0 at axis[0]
        np.take(axis, index, out=powers[:, -1], mode="clip")
        return chain.run()

    # at p_K = 0 the average power is the sum of rounds 1..K-1's terms; the
    # chain adds p_K * P_{K-1} to it last
    powers[:, -1] = 0.0
    _, _, _, pavg = chain.run()
    np.copyto(base, pavg)
    np.copyto(slope, chain.prev[:, -1])
    # last: the highest index whose average power is within the budget, -1
    # for none
    last.fill(-1)
    for step in _steps(n + 1):
        np.add(last, step, out=cand)
        np.take(axis, cand, out=top, mode="clip")
        np.multiply(top, slope, out=top)
        np.add(base, top, out=top)
        np.less_equal(top, link.power_budget_w, out=ok)
        ok &= np.less(cand, n, out=fit)
        np.copyto(last, cand, where=ok)
    # P_K and the latency are lowest at `last`; the row is feasible when
    # they pass there
    outages, _, tau, _ = chain_at(last)
    np.less_equal(outages[:, -1], link.outage_target, out=feasible)
    feasible &= np.isfinite(tau, out=fit)
    feasible &= np.greater_equal(last, 0, out=fit)
    np.copyto(top, tau)
    # pos + 1: the first index whose outage passes and whose latency is
    # `last`'s; both tests hold from some index up to `last`.  Where the
    # latency falls at `last`, pos is last - 1; only a block with a row
    # whose latency is flat there runs the bisection
    np.subtract(last, 1, out=pos)
    tied = _passes(chain_at(pos), link, top, ok, fit)
    tied &= feasible
    tied &= np.greater_equal(pos, 0, out=fit)
    if tied.any():
        pos.fill(-1)
        for step in _steps(n):
            np.add(pos, step, out=cand)
            _passes(chain_at(cand), link, top, ok, fit)
            np.less(cand, last, out=fit)
            np.copyto(pos, cand, where=np.greater(fit, ok, out=fit))
    pos += 1
    np.take(axis, pos, out=powers[:, -1], mode="clip")
    return feasible


def _passes(chain, link: LinkConfig, top, out, scratch) -> np.ndarray:
    """Where the chain's P_K meets the outage target and its latency is at
    most `top`, into `out`."""
    outages, _, tau, _ = chain
    np.less_equal(outages[:, -1], link.outage_target, out=out)
    out &= np.less_equal(tau, top, out=scratch)
    return out


def _steps(outcomes: int) -> list:
    """Power-of-two steps, largest first, that bisect `outcomes` positions."""
    return [1 << s for s in reversed(range((outcomes - 1).bit_length()))]
