"""Monte-Carlo outage validation against the analytic asymptotes.

Sampling follows the time-correlated Rayleigh model: with slot correlation
rho and retransmission gap delta, round k sees

    h_k = sqrt(1 - rho^{2(k+delta-1)}) * a_k + rho^{k+delta-1} * a_0

where a_0..a_K are i.i.d. unit-variance circular complex Gaussians and the
received SNR is gamma_k = p_k |h_k|^2.

Determinism and thread-invariance: trials are partitioned into fixed-size
chunks; chunk c always draws from the stream seeded by (seed, c) regardless
of how chunks are assigned to workers, so results are bit-identical for any
worker count.  Worker w of W (the calling thread is worker 0, and W is at
most the chunk count) runs chunks w, w + W, ...; the per-chunk results are
summed in chunk order afterwards.

Layout: gains, events and weights are held round-major, as contiguous
(K, n) rows, so the running Type-I AND, the CC and IR running sums and the
running product of conditional weights are one ufunc call per round, adding
and multiplying in the order np.cumsum and np.cumprod would.  A worker runs
each chunk in blocks of trials drawn one after another from the chunk's
generator, which reads the stream in the same order as one draw would, and
every step but the final sums is elementwise, so the block size moves no
bit.  The direct estimator works on DIRECT_BLOCK trials at a time: its
scratch is block-sized and its per-block event counts are integers, whose
sum is exact.  The conditional estimator works on CONDITIONAL_BLOCK trials
at a time (large enough that the Bessel term's Chebyshev loop is not
dominated by per-call cost), but keeps chunk-sized rows of |a_0|^2, of the
weights and of each scheme's events: every normal of a chunk precedes its
first uniform in the stream, and each (scheme, round) sum is numpy's
pairwise sum over one contiguous chunk row, which a split would reorder.
Each worker allocates its scratch once per estimator call and fills it
through `out=` arguments; only _i0e's mask is allocated per block.

Two estimators are provided.  Both return {Scheme: (McEstimate for rounds
1..K)}, scoring every scheme on the same draws through outage_event:

  * estimate_profile: the direct empirical mean of the outage event.  Its
    standard error is Bernoulli, useless once P << 1/trials.
  * estimate_outage_conditional: samples only the shared component a_0 plus
    uniform within-threshold gains for all K rounds (all of a chunk's
    normals, then all of its uniforms), weighting each trial by the exact
    conditional density of |h_k|^2 (a noncentral chi-square / Rician
    power).  Every outage event implies each
    per-round SNR is below 2^R - 1, so restricting the proposal to that box
    loses no probability mass.  This keeps the relative error small even at
    deep outage levels ~1e-9.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .types import ChannelParams, PowerPolicy, Scheme

CHUNK_TRIALS = 1 << 15
# trials sampled and scored at a time inside a chunk (see "Layout"); the
# conditional block is larger because the Chebyshev series' per-call cost
# would dominate at the direct block's size
DIRECT_BLOCK = 1 << 12
CONDITIONAL_BLOCK = 1 << 14


# Cephes' i0.c Chebyshev coefficients for exp(-x) I0(x) (tables A and B, the
# ones numpy's np.i0 uses), as the doubles they parse to: 30 for x <= 8 in
# y = x/2 - 2, and 25 for x > 8 in y = 32/x - 2, that series over sqrt(x)
_I0E_TO_8 = (
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16,
    1.715391285555133e-15, -1.1685332877993451e-14, 7.676185498604936e-14,
    -4.856446783111929e-13, 2.95505266312964e-12, -1.726826291441556e-11,
    9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07,
    1.1173875391201037e-06, -4.4167383584587505e-06, 1.6448448070728896e-05,
    -5.754195010082104e-05, 0.00018850288509584165, -0.0005763755745385824,
    0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
    -0.02373741480589947, 0.04930528423967071, -0.09490109704804764,
    0.17162090152220877, -0.3046826723431984, 0.6767952744094761,
)
_I0E_ABOVE_8 = (
    -7.233180487874754e-18, -4.830504485944182e-18, 4.46562142029676e-17,
    3.461222867697461e-17, -2.8276239805165836e-16, -3.425485619677219e-16,
    1.7725601330565263e-15, 3.8116806693526224e-15, -9.554846698828307e-15,
    -4.150569347287222e-14, 1.54008621752141e-14, 3.8527783827421426e-13,
    7.180124451383666e-13, -1.7941785315068062e-12, -1.3215811840447713e-11,
    -3.1499165279632416e-11, 1.1889147107846439e-11, 4.94060238822497e-10,
    3.3962320257083865e-09, 2.266668990498178e-08, 2.0489185894690638e-07,
    2.8913705208347567e-06, 6.889758346916825e-05, 0.0033691164782556943,
    0.8044904110141088,
)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence((int(seed), int(chunk)))))


def _chunk_spans(trials: int) -> list:
    n_chunks = (trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    return [(c, min(CHUNK_TRIALS, trials - c * CHUNK_TRIALS))
            for c in range(n_chunks)]


def _complex_gaussian(re, im, out):
    """(re + 1j * im) / sqrt(2) into `out`: a unit-variance CN(0, 1) draw."""
    np.multiply(1j, im, out=out)
    np.add(re, out, out=out)
    np.multiply(out, 1.0 / math.sqrt(2.0), out=out)


def _blocks(m: int, size: int) -> list:
    """Slices that cover range(m) in order, each at most `size` long."""
    return [slice(s, min(s + size, m)) for s in range(0, m, size)]


def _coeff_sampler(channel: ChannelParams, n_max: int):
    """One worker's sampler: sample(rng, n) draws the next n <= n_max trials
    from rng and returns their (K, n) complex coefficients, a view of
    scratch that the next call overwrites.

    Each trial reads 2(K + 1) consecutive normals, so drawing a chunk in
    blocks reads its stream in the same order as drawing it at once.
    """
    k = channel.num_rounds
    rho_t = channel.rho ** (np.arange(1, k + 1) + channel.delta - 1)
    own = np.sqrt(1.0 - rho_t ** 2)
    z = np.empty((n_max, 2 * (k + 1)))
    a0 = np.empty(n_max, dtype=complex)
    shared = np.empty(n_max, dtype=complex)
    h = np.empty((k, n_max), dtype=complex)

    def sample(rng, n):
        zc = z[:n]
        rng.standard_normal(out=zc)
        _complex_gaussian(zc[:, 0], zc[:, 1], out=a0[:n])
        for j in range(k):
            hj = h[j, :n]
            _complex_gaussian(zc[:, 2 + 2 * j], zc[:, 3 + 2 * j], out=hj)
            np.multiply(own[j], hj, out=hj)
            np.multiply(rho_t[j], a0[:n], out=shared[:n])
            np.add(hj, shared[:n], out=hj)
        return h[:, :n]

    return sample


def sample_channel_coeffs(channel: ChannelParams, trials: int, seed: int) -> np.ndarray:
    """Complex per-round channel coefficients, shape (trials, K)."""
    sample = _coeff_sampler(channel, min(DIRECT_BLOCK, trials))
    out = np.empty((trials, channel.num_rounds), dtype=complex)
    for c, m in _chunk_spans(trials):
        rng = _chunk_rng(seed, c)
        rows = out[c * CHUNK_TRIALS:c * CHUNK_TRIALS + m]
        for b in _blocks(m, DIRECT_BLOCK):
            rows[b] = sample(rng, b.stop - b.start).T
    return out


def outage_event(scheme: Scheme, rate: float, gains: np.ndarray,
                 out=None, work=None) -> np.ndarray:
    """Outage indicators after rounds 1..K for each trial, shape (K, trials).

    `gains` holds one row of per-trial SNRs per round, shape (K, trials).
    Type-I is in outage while every round so far failed, CC while the summed
    SNR stays below 2^R - 1 and IR while the summed log2(1 + SNR) stays below
    R; the running sums add one round at a time, as np.cumsum does.  The
    result goes to `out` (bool) and the running sums to `work` (float), both
    of the shape of `gains` and allocated when not given.
    """
    t = 2.0 ** rate - 1.0
    if out is None:
        out = np.empty(gains.shape, dtype=bool)
    if scheme is Scheme.TYPE_I:
        np.less(gains, t, out=out)
        for k in range(1, len(out)):
            np.logical_and(out[k - 1], out[k], out=out[k])
        return out
    if work is None:
        work = np.empty(gains.shape)
    if scheme is Scheme.CHASE:
        work[0] = gains[0]
        terms, limit = gains, t
    else:
        np.add(1.0, gains, out=work)
        np.log2(work, out=work)
        terms, limit = work, rate
    for k in range(1, len(work)):
        np.add(work[k - 1], terms[k], out=work[k])
    return np.less(work, limit, out=out)


def _map_chunks(make_kernel, trials: int, workers: int) -> list:
    """kernel(c, m) for every chunk, in chunk order.

    Each worker calls make_kernel(m_max) once, so it owns its scratch for
    the whole call, then runs its share of the chunks.  An exception in any
    worker is raised here once every worker has stopped.
    """
    spans = _chunk_spans(trials)
    n_workers = min(workers, len(spans))
    m_max = spans[0][1]
    results = [None] * len(spans)
    errors = []

    def work(w):
        kernel = make_kernel(m_max)
        for c in range(w, len(spans), n_workers):
            results[c] = kernel(*spans[c])

    def thread_main(w):
        try:
            work(w)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=thread_main, args=(w,))
               for w in range(1, n_workers)]
    for t in threads:
        t.start()
    try:
        work(0)
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    return results


def _profiles(means, stderrs) -> dict:
    """{Scheme: (McEstimate for rounds 1..K)} from (schemes, K) arrays."""
    return {scheme: tuple(McEstimate(mean=m, stderr=e) for m, e in zip(ms, es))
            for scheme, ms, es in zip(Scheme, means, stderrs)}


def estimate_profile(policy: PowerPolicy, channel: ChannelParams, rate: float,
                     trials: int, seed: int, workers: int = 1) -> dict:
    """Direct MC outage estimates for every scheme and round.

    Each chunk is sampled once and scored for all schemes.
    """
    powers = np.asarray(policy.powers)[:, None]

    def make_kernel(m_max):
        n_max = min(DIRECT_BLOCK, m_max)
        sample = _coeff_sampler(channel, n_max)
        gains = np.empty((channel.num_rounds, n_max))
        event = np.empty(gains.shape, dtype=bool)
        work = np.empty(gains.shape)

        def kernel(c, m):
            rng = _chunk_rng(seed, c)
            # event counts are integers, so adding them block by block is
            # exact
            counts = np.zeros((len(Scheme), channel.num_rounds), dtype=int)
            for b in _blocks(m, n_max):
                n = b.stop - b.start
                g = gains[:, :n]
                np.abs(sample(rng, n), out=g)
                np.square(g, out=g)
                np.multiply(powers, g, out=g)
                for i, s in enumerate(Scheme):
                    counts[i] += outage_event(s, rate, g, out=event[:, :n],
                                              work=work[:, :n]).sum(axis=1)
            return counts

        return kernel

    # a Python sum keeps chunk order, so any worker count gives the same bits
    means = sum(_map_chunks(make_kernel, trials, workers)) / trials
    return _profiles(means, np.sqrt(means * (1.0 - means) / trials))


def _chbevl(y, coeffs, bufs, out):
    """Cephes' chbevl: the Chebyshev series `coeffs` at y into `out`, adding
    in its order, with the b0, b1, b2 terms rotating through `bufs`."""
    b0, b1, b2 = bufs
    b0.fill(coeffs[0])
    b1.fill(0.0)
    for c in coeffs[1:]:
        b0, b1, b2 = b2, b0, b1
        np.multiply(y, b1, out=b0)
        np.subtract(b0, b2, out=b0)
        np.add(b0, c, out=b0)
    np.subtract(b0, b2, out=out)
    np.multiply(0.5, out, out=out)


def _i0e(x, out, scratch):
    """exp(-x) I0(x) for x >= 0 into `out`, which may be `x`, bit for bit
    as Cephes' i0e; `scratch` holds five float rows of x's length.

    The series up to 8 runs on every element and the one above 8 only when
    some element needs it, the one case that allocates (a bool mask of the
    elements above 8).  Each series reads x clamped into its own range,
    and the one up to 8 also from below at 1e-300, where x/2 - 2 is already
    -2, so no step overflows, underflows or divides by zero.
    """
    y, bufs, high = scratch[0], scratch[1:4], scratch[4]
    above = None
    if x.max() > 8.0:
        np.maximum(x, 8.0, out=y)
        np.divide(32.0, y, out=y)
        np.subtract(y, 2.0, out=y)
        _chbevl(y, _I0E_ABOVE_8, bufs, high)
        np.maximum(x, 8.0, out=y)
        np.sqrt(y, out=y)
        np.divide(high, y, out=high)
        above = x > 8.0
    np.clip(x, 1e-300, 8.0, out=y)
    np.divide(y, 2.0, out=y)
    np.subtract(y, 2.0, out=y)
    _chbevl(y, _I0E_TO_8, bufs, out)
    if above is not None:
        np.copyto(out, high, where=above)


def _rician_power_pdf(u, mean_sq, var, out, arg, scratch):
    """Density of |h|^2 at u when h ~ CN(m, var), |m|^2 = mean_sq, into `out`.

    Written with the exponentially scaled Bessel term i0e so the exponent is
    -(sqrt(u) - |m|)^2 / var <= 0, stable for any argument.  `arg` and the
    five rows of `scratch` are scratch, and `mean_sq` is overwritten with its
    square root.
    """
    np.multiply(u, mean_sq, out=arg)
    np.sqrt(arg, out=arg)
    np.multiply(2.0, arg, out=arg)
    np.divide(arg, var, out=arg)
    _i0e(arg, arg, scratch)
    np.sqrt(u, out=out)
    np.sqrt(mean_sq, out=mean_sq)
    np.subtract(out, mean_sq, out=out)
    np.square(out, out=out)
    np.negative(out, out=out)
    np.divide(out, var, out=out)
    np.exp(out, out=out)
    np.multiply(arg, out, out=out)
    np.divide(out, var, out=out)


def estimate_outage_conditional(policy: PowerPolicy, channel: ChannelParams,
                                rate: float, trials: int, seed: int,
                                workers: int = 1) -> dict:
    """Low-variance outage estimates for every scheme and round.

    Per trial: draw a_0, then draw every |h_j|^2 uniformly inside its
    threshold box and weight it by the conditional Rician-power density.
    The weight after round k is the product of the first k per-round
    factors, so one draw serves every k: its first k columns are distributed
    as a k-round draw, which keeps every k unbiased.  Each draw is scored
    for all schemes; an estimate is the mean of weight * event after round
    k, and its stderr is the sample standard error of that mean.
    """
    t = 2.0 ** rate - 1.0
    n_rounds = channel.num_rounds
    powers = np.asarray(policy.powers)
    u_max = t / powers
    # each round's weight factor is scaled by an exact power of two, so the
    # squared weights stay normal at any power; the weight after round k
    # carries 2 ** -w_exp[k], which the mean and stderr shed at the end
    u_exp = np.frexp(u_max)[1]
    u_unit = np.ldexp(u_max, -u_exp)
    w_exp = np.cumsum(u_exp)
    rho_t = channel.rho ** (np.arange(1, n_rounds + 1) + channel.delta - 1)
    # |E[h_k | a_0]|^2 per unit |a_0|^2
    shared_sq = rho_t ** 2
    var = 1.0 - rho_t ** 2

    def make_kernel(m_max):
        n_max = min(CONDITIONAL_BLOCK, m_max)
        # chunk rows: |a_0|^2 (every normal precedes every uniform in the
        # stream), the weights, each scheme's events and one product row,
        # so that each (scheme, round) sum runs over one contiguous row
        a0_sq, prod = np.empty((2, m_max))
        w = np.empty((n_rounds, m_max))
        events = np.empty((len(Scheme), n_rounds, m_max), dtype=bool)
        # block rows; u holds the uniform draws, then (scaled in place) the
        # gains.  The trial-major draws share memory with scratch that is
        # idle while they live: the normals with the Bessel rows, spent
        # before the first density, and the uniforms with the running sums,
        # spent before the first event
        mean_sq, arg = np.empty((2, n_max))
        bessel = np.empty((5, n_max))
        z = bessel[:2].reshape(n_max, 2)
        u, work = np.empty((2, n_rounds, n_max))
        draw = work.reshape(n_max, n_rounds)

        def kernel(c, m):
            rng = _chunk_rng(seed, c)
            blocks = _blocks(m, n_max)
            for b in blocks:
                n = b.stop - b.start
                rng.standard_normal(out=z[:n])
                a0 = a0_sq[b]
                np.square(z[:n, 0], out=a0)
                np.square(z[:n, 1], out=arg[:n])
                np.add(a0, arg[:n], out=a0)
                np.multiply(0.5, a0, out=a0)
            for b in blocks:
                n = b.stop - b.start
                rng.random(out=draw[:n])
                for j in range(n_rounds):
                    uj, wj = u[j, :n], w[j, b]
                    np.multiply(draw[:n, j], u_max[j], out=uj)
                    np.multiply(shared_sq[j], a0_sq[b], out=mean_sq[:n])
                    _rician_power_pdf(uj, mean_sq[:n], var[j], wj, arg[:n],
                                      bessel[:, :n])
                    np.multiply(wj, u_unit[j], out=wj)
                    if j:
                        np.multiply(w[j - 1, b], wj, out=wj)
                    np.multiply(powers[j], uj, out=uj)
                for ev, scheme in zip(events, Scheme):
                    outage_event(scheme, rate, u[:, :n], out=ev[:, b],
                                 work=work[:, :n])
            sums = np.empty((2, len(Scheme), n_rounds))
            vals = prod[:m]
            for i, ev in enumerate(events):
                for k in range(n_rounds):
                    np.multiply(w[k, :m], ev[k, :m], out=vals)
                    sums[0, i, k] = vals.sum()
                    np.multiply(vals, vals, out=vals)
                    sums[1, i, k] = vals.sum()
            return sums

        return kernel

    # a Python sum keeps chunk order, so any worker count gives the same bits
    s1, s2 = sum(_map_chunks(make_kernel, trials, workers))
    means = s1 / trials
    var_est = np.maximum(0.0, (s2 - trials * means * means) / max(1, trials - 1))
    return _profiles(np.ldexp(means, w_exp),
                     np.ldexp(np.sqrt(var_est / trials), w_exp))
