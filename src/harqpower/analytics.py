"""Closed-form high-SNR outage and latency metrics for HARQ retransmission.

All outage probabilities here are the asymptotic (high-SNR) expressions for
a block-fading Rayleigh channel whose per-round coefficients share a common
time-correlated component.  Three combining schemes are covered:

  * Type-I   : each round is decoded alone, outage needs every round to fail
  * Chase    : maximum-ratio combining, received SNRs add
  * IR       : incremental redundancy, mutual information accumulates

For round k the asymptote factors as

    P_out_k ~ scale_k * rate_factor_k

where scale_k folds the power allocation and the correlation penalty, and
rate_factor_k depends only on (scheme, rate, k); correlation_factor and
rate_factors return them for every round 1..K in one prefix pass.
"""
from __future__ import annotations

import math

import numpy as np

from .types import (OUTAGE_CAP, ChannelParams, LinkConfig, PerformanceReport,
                    PowerPolicy, Scheme)

__all__ = [
    "correlation_factor",
    "rate_factors",
    "ChainWork",
    "analytic_chain",
    "chain_adjoint",
    "evaluate",
]


def correlation_factor(rho, rounds: int, delta: int = 1) -> np.ndarray:
    """Correlation penalties of the first k = 1..`rounds` transmissions.

    Entry k-1 of the (rounds,) + np.shape(rho) result is, with
    t_j = rho^{2(j+delta-1)} over j <= k, the penalty
    (1 + sum_j t_j/(1-t_j)) * prod_j (1-t_j) in the expanded form

        prod_j (1-t_j) + sum_j t_j * prod_{i!=j} (1-t_i)

    which is exact in floating point for the identity cases (single round,
    or rho = 0) and for dyadic-rational rho.  Round k multiplies the product
    and every earlier term by (1-t_k) and adds t_k (1-t_1) ... (1-t_{k-1});
    products run left to right and the sum in j order.
    """
    rho = np.asarray(rho, dtype=np.float64)
    inside = (0.0 <= rho) & (rho < 1.0)  # False for a NaN
    if not np.all(inside):
        raise ValueError(f"rho must lie in [0, 1), got {rho[~inside][0]}")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    flat = rho.ravel().tolist()
    # keep's rows 1..k hold 1 - t_j; terms' row 0 the product, row j term j
    keep, terms = np.empty((2, rounds + 1, len(flat)))
    terms[0] = 1.0
    out = np.empty((rounds, len(flat)))
    for k in range(1, rounds + 1):
        # Python's float power: numpy's vector power can miss it by an ulp
        keep[0] = [r ** (2 * (k + delta - 1)) for r in flat]
        fresh = np.multiply.accumulate(keep[:k])[-1]  # row by row, in order
        keep[k] = 1.0 - keep[0]
        terms[:k] *= keep[k]
        terms[k] = fresh
        out[k - 1] = np.add.accumulate(terms[:k + 1])[-1]
    return out.reshape((rounds,) + rho.shape)


def rate_factors(scheme: Scheme, rate: float, rounds: int) -> list:
    """Rate coefficients of rounds K = 1..`rounds`, in Python floats.

    Type-I's is (2^R - 1)^K, Chase combining's (2^R - 1)^K / K! (the K-fold
    MRC integral's volume) and incremental redundancy's

        (-1)^K + 2^R * sum_{k=0}^{K-1} (-1)^k (R ln 2)^{K-k-1} / (K-k-1)!

    which equals 2^R - 1 at K = 1, tends to 0 as R -> 0 and is positive in
    exact arithmetic, though its alternating sum can cancel to <= 0 in
    floating point.  A huge rate raises OverflowError.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if rate < 0:
        raise ValueError("rate must be nonnegative")
    fact = [1.0]  # fact[m] = 2 * 3 * ... * m
    for m in range(1, rounds + 1):
        fact.append(fact[-1] * m)
    if scheme is not Scheme.INCREMENTAL:
        powers = [(2.0 ** rate - 1.0) ** k for k in range(1, rounds + 1)]
        return (powers if scheme is Scheme.TYPE_I
                else [p / f for p, f in zip(powers, fact[1:])])
    q = [(rate * math.log(2.0)) ** m / fact[m] for m in range(rounds)]
    factors = []
    for n in range(1, rounds + 1):
        acc = 0.0
        for k in range(n):
            acc += (-1.0) ** k * q[n - k - 1]
        factors.append((-1.0) ** n + 2.0 ** rate * acc)
    return factors


def _rounds_last(rows: int, lead) -> np.ndarray:
    """An empty (lead..., rows) array whose rows along the last axis are
    each contiguous, so a loop over rounds runs on contiguous rows."""
    return np.moveaxis(np.empty((rows,) + tuple(lead)), 0, -1)


def _arrays(count: int, lead) -> list:
    """`count` empty arrays shaped `lead`, 0-d ones included."""
    block = np.empty((count,) + tuple(lead))
    return [block[i, ...] for i in range(count)]


class ChainWork:
    """Buffers of analytic_chain and chain_adjoint for one shape (..., K).

    A caller that runs the chain on arrays of one shape again and again
    passes one ChainWork to every call, so that no call allocates.  The
    adjoint's buffers are made on its first call.
    """

    def __init__(self, shape):
        self.shape = tuple(shape)
        lead, k = self.shape[:-1], self.shape[-1]
        self.prod = _rounds_last(k, lead)
        # ext holds P_0 = 1 and the outages P_1..P_K: prev and outages are
        # its two overlapping views
        self.ext = _rounds_last(k + 1, lead)
        self.ext[..., 0] = 1.0
        self.terms = _rounds_last(k, lead)  # the pavg terms p_k P_{k-1}
        self.spent, self.eta, self.tau, self.pavg = _arrays(4, lead)
        self.tail = None

    def _adjoint_buffers(self) -> None:
        lead, k = self.shape[:-1], self.shape[-1]
        # the suffix sums start from round K's zero
        self.tail, self.later = (_rounds_last(k, lead) for _ in range(2))
        self.tail[..., -1] = self.later[..., -1] = 0.0
        self.pull, self.scratch = (_rounds_last(k, lead) for _ in range(2))
        self.lat, self.pole = _arrays(2, lead)

    @property
    def prev(self) -> np.ndarray:
        return self.ext[..., :-1]

    @property
    def outages(self) -> np.ndarray:
        return self.ext[..., 1:]


def _running(out, rows) -> None:
    """Left-to-right running total of `rows` (..., K) into `out` (...)."""
    np.copyto(out, rows[..., 0])
    for k in range(1, rows.shape[-1]):
        out += rows[..., k]


def analytic_chain(powers, inv_corr, factors, link: LinkConfig,
                   capped: bool = False, work: ChainWork | None = None):
    """Outage -> throughput -> latency -> average power for power vectors.

    `powers`, `inv_corr` and the scheme's rate factors `factors` (see
    rate_factors) broadcast against each other with one entry per round
    (1..K) on the last axis; the leading axes index candidates, samples or
    runs, and `powers` carries all of them.  Round k's outage is

        P_k = inv_corr_k / prod_{j<=k} p_j * rate_factor_k

    and, with P_0 = 1,

        throughput = rate * (1 - P_K) / ((1 + P_1) + ... + P_{K-1})
        latency    = payload / (throughput * bandwidth)
        avg power  = sum_k p_k * P_{k-1}

    Products and sums run along K from round 1 up, as prefix products and
    running sums, so every caller runs the same operations in the same
    order.  With `capped`, each P_k is replaced by min(P_k, OUTAGE_CAP)
    before it enters the later metrics; the asymptote can exceed 1 at low
    SNR.  Returns (outages, throughput, latency, average power): the
    per-round outages the metrics used, shaped (..., K), and three (...)
    arrays, all views of `work`'s buffers (fresh ones without `work`).
    """
    powers, inv_corr, factors = (np.asarray(x, dtype=np.float64)
                                 for x in (powers, inv_corr, factors))
    if work is None:
        work = ChainWork(np.broadcast_shapes(powers.shape, inv_corr.shape,
                                             factors.shape))
    prod, outages = work.prod, work.outages
    np.copyto(prod[..., 0], powers[..., 0])
    for k in range(1, prod.shape[-1]):
        np.multiply(prod[..., k - 1], powers[..., k], out=prod[..., k])
    np.divide(inv_corr, prod, out=outages)
    np.multiply(outages, factors, out=outages)
    if capped:
        np.minimum(outages, OUTAGE_CAP, out=outages)
    _running(work.spent, work.prev)
    eta = np.subtract(1.0, outages[..., -1], out=work.eta)
    np.multiply(link.rate, eta, out=eta)
    np.divide(eta, work.spent, out=eta)
    tau = np.multiply(eta, link.bandwidth_hz, out=work.tau)
    np.divide(link.payload_bits, tau, out=tau)
    np.multiply(powers, work.prev, out=work.terms)
    _running(work.pavg, work.terms)
    return outages, eta, tau, work.pavg


def chain_adjoint(powers, work: ChainWork, tau, g_tau, g_log_pout,
                  g_pavg) -> np.ndarray:
    """Per-round power adjoints through the uncapped analytic_chain.

    `work` holds the chain's last evaluation on `powers`; `tau` is the
    latency the objective used, and g_tau, g_log_pout and g_pavg are the
    adjoints of tau, log P_K and the average power, all broadcasting
    against the chain's (...) shape.  Each P_k is a monomial,
    dP_k/dp_j = -P_k / p_j for j <= k, so with S = 1 + sum_{k<K} P_k and
    P_0 = 1 the adjoint of p_j is

        g_pavg P_{j-1} - (g_tau tau (sum_{j<=k<K} P_k / S + P_K / (1 - P_K))
                          + g_log_pout + g_pavg sum_{k>j} p_k P_{k-1}) / p_j

    where both suffix sums run from round K down, starting at zero.
    Returns the (..., K) adjoints in a fresh array.
    """
    if work.tail is None:
        work._adjoint_buffers()
    outages, tail, later = work.outages, work.tail, work.later
    last = outages[..., -1]
    lat = np.multiply(g_tau, tau, out=work.lat)
    pole = np.subtract(1.0, last, out=work.pole)
    np.divide(last, pole, out=pole)
    for j in range(tail.shape[-1] - 2, -1, -1):
        np.add(tail[..., j + 1], outages[..., j], out=tail[..., j])
        np.add(later[..., j + 1], work.terms[..., j + 1], out=later[..., j])
    pull = np.divide(tail, work.spent[..., None], out=work.pull)
    pull += pole[..., None]
    np.multiply(lat[..., None], pull, out=pull)
    pull += np.asarray(g_log_pout)[..., None]
    g_pavg = np.asarray(g_pavg)[..., None]
    pull += np.multiply(g_pavg, later, out=work.scratch)
    np.divide(pull, powers, out=pull)
    out = np.multiply(g_pavg, work.prev)
    out -= pull
    return out


def evaluate(policy: PowerPolicy, channel: ChannelParams, scheme: Scheme,
             link: LinkConfig) -> PerformanceReport:
    """Full analytic report for one policy under one channel draw."""
    if policy.num_rounds != channel.num_rounds:
        raise ValueError("policy and channel round counts differ")
    k = channel.num_rounds
    inv_corr = 1.0 / correlation_factor(channel.rho, k, channel.delta)
    work = ChainWork((k,))
    # a power product that overflows to inf gives an outage of 0; one that
    # underflows to 0 leaves no outage at all
    with np.errstate(all="ignore"):
        outages, eta, tau, pavg = analytic_chain(
            policy.powers, inv_corr, rate_factors(scheme, link.rate, k), link,
            capped=True, work=work)
    if not work.prod.all():
        raise ZeroDivisionError("float division by zero")
    profile = tuple(float(p) for p in outages)
    pavg = float(pavg)
    return PerformanceReport(
        outage_profile=profile,
        throughput=float(eta),
        latency_s=float(tau),
        average_power_w=pavg,
        outage_feasible=profile[-1] <= link.outage_target,
        power_feasible=pavg <= link.power_budget_w,
    )
