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


def analytic_chain(powers, inv_corr, factors, link: LinkConfig,
                   capped: bool = False):
    """Outage -> throughput -> latency -> average power for one power vector.

    `powers`, `inv_corr` and the scheme's rate factors `factors` (see
    rate_factors) hold one entry per round (1..K).  The entries may be
    floats or broadcastable arrays (one value per candidate, sample or run):
    the chain uses only + - * /, so every caller runs the same operations in
    the same order.  Round k's outage is

        P_k = inv_corr_k / prod_{j<=k} p_j * rate_factor_k

    and, with P_0 = 1,

        throughput = rate * (1 - P_K) / ((1 + P_1) + ... + P_{K-1})
        latency    = payload / (throughput * bandwidth)
        avg power  = sum_k p_k * P_{k-1}

    With `capped`, each P_k is replaced by min(P_k, OUTAGE_CAP) before it
    enters the later metrics; the asymptote can exceed 1 at low SNR.
    Returns (outages, throughput, latency, average power), where outages are
    the per-round values the metrics used.
    """
    outages = []
    prod = None
    for p, ic, factor in zip(powers, inv_corr, factors):
        prod = p if prod is None else prod * p
        pout = ic / prod * factor
        outages.append(np.minimum(pout, OUTAGE_CAP) if capped else pout)
    spent = 1.0
    for pout in outages[:-1]:
        spent = spent + pout
    eta = link.rate * (1.0 - outages[-1]) / spent
    tau = link.payload_bits / (eta * link.bandwidth_hz)
    pavg = powers[0]
    for p, pout in zip(powers[1:], outages[:-1]):
        pavg = pavg + p * pout
    return outages, eta, tau, pavg


def chain_adjoint(powers, outages, tau, g_tau, g_log_pout, g_pavg) -> list:
    """Per-round power adjoints through the uncapped analytic_chain.

    Given the chain's per-round `powers` and `outages`, its latency `tau`
    and the adjoints g_tau, g_log_pout and g_pavg of tau, log P_K and the
    average power: each P_k is a monomial, dP_k/dp_j = -P_k / p_j for
    j <= k, so with S = 1 + sum_{k<K} P_k and P_0 = 1 the adjoint of p_j is

        g_pavg P_{j-1} - (g_tau tau (sum_{j<=k<K} P_k / S + P_K / (1 - P_K))
                          + g_log_pout + g_pavg sum_{k>j} p_k P_{k-1}) / p_j
    """
    spent = sum(outages[:-1], 1.0)
    lat = g_tau * tau
    pole = outages[-1] / (1.0 - outages[-1])
    tail = later = 0.0  # sum_{j<=k<K} P_k and sum_{k>j} p_k P_{k-1}
    grads = []
    # each round's power, the outage before it and, but for the last, its own
    rounds = zip(powers, [1.0, *outages[:-1]], [*outages[:-1], 0.0])
    for p, prev, own in reversed(list(rounds)):
        tail = tail + own
        pull = lat * (tail / spent + pole) + g_log_pout + g_pavg * later
        grads.insert(0, g_pavg * prev - pull / p)
        later = later + p * prev
    return grads


def evaluate(policy: PowerPolicy, channel: ChannelParams, scheme: Scheme,
             link: LinkConfig) -> PerformanceReport:
    """Full analytic report for one policy under one channel draw."""
    if policy.num_rounds != channel.num_rounds:
        raise ValueError("policy and channel round counts differ")
    k = channel.num_rounds
    inv_corr = (1.0 / correlation_factor(channel.rho, k, channel.delta)).tolist()
    outages, eta, tau, pavg = analytic_chain(
        policy.powers, inv_corr, rate_factors(scheme, link.rate, k), link,
        capped=True)
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
