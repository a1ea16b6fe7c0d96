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
    """An empty (lead..., rows) array stored with its last axis first, so
    that a loop over rounds runs on contiguous rows, and whole-array
    operations meet the network's powers, laid out the same way
    (gcn.forward_profile), without a transposing pass."""
    return np.moveaxis(np.empty((rows,) + tuple(lead)), 0, -1)


def _arrays(count: int, lead) -> list:
    """`count` empty arrays shaped `lead`, 0-d ones included."""
    block = np.empty((count,) + tuple(lead))
    return [block[i, ...] for i in range(count)]


def _round_views(a: np.ndarray) -> list:
    """The views a[..., 0], a[..., 1], ... of the rounds of `a`."""
    return [a[..., k] for k in range(a.shape[-1])]


def _running(out, rows) -> None:
    """Left-to-right running total of the arrays `rows` into `out`."""
    if len(rows) == 1:
        out[...] = rows[0]
        return
    np.add(rows[0], rows[1], out=out)
    for row in rows[2:]:
        np.add(out, row, out=out)


class ChainWork:
    """The analytic chain on fixed input arrays, in buffers and views made
    once.

    ChainWork(powers, inv_corr, factors, link, capped, out) takes
    analytic_chain's arguments and reads `powers`, `inv_corr` and `factors`
    through the arrays given, so after a caller refills them in place (or
    points the attribute `inv_corr` at another array of its shape), run()
    evaluates the chain on the new values; adjoint() is its reverse
    product.  Every buffer, every view of one round and every constant
    operand (the link's floats as 0-d arrays, which a ufunc does not
    convert on each call) is made here, so a call makes no array.  `out`,
    when given, is two (...) arrays that receive the latency and the
    average power.  The adjoint's buffers are made on its first call.
    """

    def __init__(self, powers, inv_corr, factors, link: LinkConfig,
                 capped: bool = False, out=None):
        self.powers, self.inv_corr, self.factors = (
            np.asarray(x, dtype=np.float64) for x in (powers, inv_corr,
                                                      factors))
        self.shape = np.broadcast_shapes(self.powers.shape,
                                         self.inv_corr.shape,
                                         self.factors.shape)
        lead, k = self.shape[:-1], self.shape[-1]
        self.prod = _rounds_last(k, lead)
        # ext holds P_0 = 1 and the outages P_1..P_K: prev and outages are
        # its two overlapping views, last is P_K
        self.ext = _rounds_last(k + 1, lead)
        self.ext[..., 0] = 1.0
        self.prev, self.outages = self.ext[..., :-1], self.ext[..., 1:]
        self.last = self.ext[..., -1]
        self.terms = _rounds_last(k, lead)  # the pavg terms p_k P_{k-1}
        # success is 1 - P_K, which the adjoint's pole term reuses
        self.spent, self.success, self.eta, self.tau, self.pavg = _arrays(
            5, lead)
        if out is not None:
            self.tau, self.pavg = out
        self._one, self._rate, self._bandwidth, self._payload = (
            np.array(x) for x in (1.0, link.rate, link.bandwidth_hz,
                                  link.payload_bits))
        self._cap = np.array(OUTAGE_CAP) if capped else None
        powers_k, prod_k, self._prev_k, self._terms_k = (
            _round_views(x) for x in (self.powers, self.prod, self.prev,
                                      self.terms))
        self._prod_steps = list(zip(prod_k[:-1], powers_k[1:], prod_k[1:]))
        self._prod_first = (prod_k[0], powers_k[0])
        self.tail = None

    def run(self):
        """analytic_chain on the inputs' current values: (outages,
        throughput, latency, average power), the buffers themselves."""
        multiply, divide = np.multiply, np.divide
        prod0, powers0 = self._prod_first
        prod0[...] = powers0
        for before, power, prod in self._prod_steps:
            multiply(before, power, out=prod)
        outages = self.outages
        divide(self.inv_corr, self.prod, out=outages)
        multiply(outages, self.factors, out=outages)
        if self._cap is not None:
            np.minimum(outages, self._cap, out=outages)
        _running(self.spent, self._prev_k)
        np.subtract(self._one, self.last, out=self.success)
        eta = multiply(self._rate, self.success, out=self.eta)
        divide(eta, self.spent, out=eta)
        tau = multiply(eta, self._bandwidth, out=self.tau)
        divide(self._payload, tau, out=tau)
        multiply(self.powers, self.prev, out=self.terms)
        _running(self.pavg, self._terms_k)
        return outages, eta, tau, self.pavg

    def _adjoint_buffers(self) -> None:
        lead, k = self.shape[:-1], self.shape[-1]
        # the suffix sums start from round K's zero
        self.tail, self.later = (_rounds_last(k, lead) for _ in range(2))
        self.tail[..., -1] = self.later[..., -1] = 0.0
        self.pull, self.scratch = (_rounds_last(k, lead) for _ in range(2))
        self.lat, self.pole = _arrays(2, lead)
        tail_k, later_k = _round_views(self.tail), _round_views(self.later)
        # round j's sums from round j + 1's, from round K - 1 down
        self._suffix_steps = [
            (tail_k[j + 1], self._prev_k[j + 1], tail_k[j], later_k[j + 1],
             self._terms_k[j + 1], later_k[j]) for j in range(k - 2, -1, -1)]
        self._columns = (self.spent[..., None], self.pole[..., None],
                         self.lat[..., None])

    def adjoint(self, tau, g_tau, g_log_pout, g_pavg, out=None) -> np.ndarray:
        """Per-round power adjoints through the uncapped chain of the last
        run().

        `tau` is the latency the objective used and g_tau its adjoint,
        both broadcasting against the chain's (...) shape; g_log_pout and
        g_pavg, the adjoints of log P_K and the average power, broadcast
        against the (..., K) adjoints (give (..., 1) columns).  Each P_k
        is a monomial, dP_k/dp_j = -P_k / p_j for j <= k, so with S = 1 +
        sum_{k<K} P_k and P_0 = 1 the adjoint of p_j is

            g_pavg P_{j-1} - (g_tau tau (sum_{j<=k<K} P_k / S
                                         + P_K / (1 - P_K))
                              + g_log_pout + g_pavg sum_{k>j} p_k P_{k-1})
                             / p_j

        where both suffix sums run from round K down, starting at zero.
        Returns the (..., K) adjoints in `out`, or in a fresh array.
        """
        if self.tail is None:
            self._adjoint_buffers()
        multiply, add, divide = np.multiply, np.add, np.divide
        multiply(g_tau, tau, out=self.lat)
        divide(self.last, self.success, out=self.pole)
        for tail_next, outage, tail, later_next, term, later in \
                self._suffix_steps:
            add(tail_next, outage, out=tail)
            add(later_next, term, out=later)
        spent, pole, lat = self._columns
        pull = divide(self.tail, spent, out=self.pull)
        add(pull, pole, out=pull)
        multiply(lat, pull, out=pull)
        add(pull, g_log_pout, out=pull)
        add(pull, multiply(g_pavg, self.later, out=self.scratch), out=pull)
        divide(pull, self.powers, out=pull)
        out = multiply(g_pavg, self.prev, out=out)
        return np.subtract(out, pull, out=out)


def analytic_chain(powers, inv_corr, factors, link: LinkConfig,
                   capped: bool = False):
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
    arrays.  A caller that runs the chain again and again on arrays it
    refills uses a ChainWork, whose run() this is.
    """
    return ChainWork(powers, inv_corr, factors, link, capped).run()


def evaluate(policy: PowerPolicy, channel: ChannelParams, scheme: Scheme,
             link: LinkConfig) -> PerformanceReport:
    """Full analytic report for one policy under one channel draw."""
    if policy.num_rounds != channel.num_rounds:
        raise ValueError("policy and channel round counts differ")
    k = channel.num_rounds
    inv_corr = 1.0 / correlation_factor(channel.rho, k, channel.delta)
    work = ChainWork(policy.powers, inv_corr,
                     rate_factors(scheme, link.rate, k), link, capped=True)
    # a power product that overflows to inf gives an outage of 0; one that
    # underflows to 0 leaves no outage at all
    with np.errstate(all="ignore"):
        outages, eta, tau, pavg = work.run()
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
