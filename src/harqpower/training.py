"""Primal-dual training of the GCN power policy.

Each step draws a mini-batch of correlation coefficients, builds one
differentiable graph that evaluates the policy network and the analytic
latency/outage/power metrics for the whole batch, and descends the batch-mean
Lagrangian

    L = latency + lam * (log P_out_K - log target) + ups * (avg_power - budget)

in the network weights (Adam) while ascending the projected multipliers.
Both constraint terms use the same mini-batch as the weight gradient.

Several runs that differ only in scheme and power budget train as one
stack: the weights, Adam moments, multipliers, step-size guard and history
carry a leading run axis R, and every run takes its steps on the same
dataset constants and mini-batch order in one loop.  Runs never mix (each
run's weight gradient is its own gemm), so a run trained in a stack is
bitwise the run trained alone; train() is the stack of one.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .analytics import (analytic_chain, chain_adjoint, correlation_factor,
                        evaluate, rate_factors)
from .gcn import GcnWeights, forward, init_weights
from .graph import batch_adjacency, session_adjacency
from .types import P_MIN_WATTS, ChannelParams, LinkConfig, PowerPolicy, Scheme

__all__ = ["TrainConfig", "TrainResult", "AdamState", "adam_update",
           "sample_rho_dataset", "dataset_constants", "batch_lagrangian",
           "train", "train_stack", "evaluate_policy",
           "TrainingDiverged", "HISTORY_FIELDS"]

HISTORY_FIELDS = ("iter", "mean_tau_s", "mean_log_pout", "mean_pavg_w",
                  "lambda", "upsilon")

# Per-sample ceiling on the latency term inside the training graph, in units
# of the payload/(bandwidth*rate) latency floor.  The asymptotic latency
# expression has a pole where the final outage probability crosses one, and
# near-pole samples otherwise emit enormous gradients that poison the Adam
# second moment for hundreds of steps.  Clipping the per-sample latency to
# [0, TAU_CLIP_FLOORS * floor] removes the pole region from the gradient
# while leaving every operating point of practical interest untouched.
TAU_CLIP_FLOORS = 10.0

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# the weight step decays linearly to this fraction of lr_weights by the
# final iteration; primal-dual last iterates orbit the constraint
# boundary at an amplitude proportional to the primal step, so shrinking
# the step late in training lands the final policy near the boundary
# instead of at a random phase of that orbit
LR_FINAL_FRAC = 0.02
# duals start at zero: constraint pressure builds only once a constraint
# is actually violated, which keeps early descent on the pure objective
INIT_LAMBDA = 0.0
INIT_UPSILON = 0.0
# reject factor for the latency spike guard, in units of the
# payload/(bandwidth*rate) lower bound
DIVERGENCE_FACTOR = 100.0


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 500
    dataset_size: int = 1000
    batch_size: int = 50
    lr_weights: float = 5e-4
    lr_lambda: float = 1e-3
    lr_upsilon: float = 5e-5
    seed: int = 4

    def __post_init__(self):
        if self.batch_size < 1 or self.dataset_size < self.batch_size:
            raise ValueError("need dataset_size >= batch_size >= 1")


@dataclass
class TrainResult:
    weights: GcnWeights
    history: np.ndarray            # (steps, 6) rows matching HISTORY_FIELDS
    lam: float
    ups: float
    guard_steps: int               # steps taken at halved learning rate


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def like(cls, x: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(x), v=np.zeros_like(x))


def adam_update(state: AdamState, x: np.ndarray, g: np.ndarray, lr) -> None:
    """One bias-corrected Adam step applied in place to `x`.

    `lr` is a scalar or an array of per-entry step sizes shaped like `x`.
    """
    state.step += 1
    t = state.step
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
    m_hat = state.m / (1.0 - ADAM_BETA1 ** t)
    v_hat = state.v / (1.0 - ADAM_BETA2 ** t)
    x -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def sample_rho_dataset(cfg: TrainConfig) -> np.ndarray:
    """Training set of correlation coefficients, uniform on [0, 1)."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 11)))
    return rng.random(cfg.dataset_size)


def dataset_constants(rho: np.ndarray, channel_proto: ChannelParams):
    """Per-sample constants of a rho dataset, computed once per training run.

    Returns the normalized adjacencies, shape (N, K, K), and the inverse
    correlation penalties 1 / correlation_factor for rounds 1..K, shape
    (K, N, 1, 1).  A mini-batch slices both with its sample indices.
    """
    k, delta = channel_proto.num_rounds, channel_proto.delta
    adj = batch_adjacency(rho, k, delta)
    inv_corr = 1.0 / correlation_factor(rho, k, delta)
    return adj, inv_corr[:, :, None, None]


def _shared_link(runs) -> LinkConfig:
    """The link of a stack of (scheme, link) runs, with the first run's budget.

    Raises ValueError for an empty stack or for links that differ in
    anything but the power budget.
    """
    if not runs:
        raise ValueError("a training stack needs at least one run")
    link = runs[0][1]
    for _, other in runs[1:]:
        if dataclasses.replace(other, power_budget_dbw=link.power_budget_dbw) != link:
            raise ValueError("runs of one training stack may differ only in "
                             f"scheme and power budget: {other} vs {link}")
    return link


def _run_axis(values) -> np.ndarray:
    """Per-run values as an (R, 1, 1, 1) array, against (R, B, 1, 1) rows."""
    return np.asarray(values, dtype=np.float64).reshape(-1, 1, 1, 1)


def batch_lagrangian(wnodes, adj: np.ndarray, inv_corr: np.ndarray, runs,
                     lam, ups, tau_clip: float | None = None):
    """Build the batch-mean Lagrangian graph of a stack of runs.

    `runs` holds one (scheme, link) pair per run; the links may differ only
    in the power budget.  `wnodes` are the (R, n, m) stacked layer weights
    (or (n, m) matrices for a single run), `lam` and `ups` the R multipliers,
    and `adj` and `inv_corr` a mini-batch's slices of dataset_constants().
    The root is the sum over runs of each run's batch-mean Lagrangian, so
    each run's weights get exactly their own run's gradient.  Returns
    (root, stats), stats a dict of per-sample (R, B, 1, 1) arrays: objective
    (each sample's Lagrangian term), mean_tau_s, mean_log_pout and
    mean_pavg_w; a step's statistics are their per-run batch means.  The
    graph reads `adj`, `inv_corr`, the weights and the multipliers through
    the arrays passed in (`lam` and `ups` as views when they are float
    arrays), so a Tape of the root replays it after those arrays change in
    place, and every evaluation puts its new arrays into that dict.

    One op maps the network's floored (R, B, K, 1) powers to each sample's
    Lagrangian term, by analytics.analytic_chain and chain_adjoint; as the
    divide and log ops do, it raises ZeroDivisionError on a zero denominator
    and ValueError on a nonpositive final outage.  It departs from the
    capped report in two deliberate ways around the outage-near-one region,
    where the latency ratio has a pole that otherwise wrecks the optimizer:

    * per-round outage values are not capped below one (the cap turns the
      pole into an eight-orders-of-magnitude cliff whose gradient poisons
      Adam's second moments for thousands of steps);
    * each sample's latency term is clipped into [0, tau_clip] with zero
      subgradient outside, so uebercorrelated draws whose raw outage sits
      near or beyond one contribute a bounded constant to the objective
      instead of a divergent pull, while their power and outage constraint
      terms stay exact.

    Reported metrics elsewhere always use the capped chain.
    """
    link = _shared_link(runs)
    b, k = adj.shape[0], adj.shape[1]
    p_bar = np.array([lk.power_budget_w for _, lk in runs])
    powers = forward(adj, wnodes, p_bar)

    factors = np.array([rate_factors(scheme, link.rate, k) for scheme, _ in runs])
    factors = [_run_axis(factors[:, kk]) for kk in range(k)]
    lam, ups, p_bar = _run_axis(lam), _run_axis(ups), _run_axis(p_bar)
    log_target = math.log(link.outage_target)
    stats, chain = {}, {}  # chain: what the push reads of the last compute

    # extreme powers overflow the chain or its adjoint, or meet inf * 0;
    # train_stack's finite checks report those, so warnings are only noise
    @np.errstate(all="ignore")
    def compute():
        rows = [powers.value[..., kk:kk + 1, :] for kk in range(k)]
        pouts, eta, tau, pavg = analytic_chain(rows, inv_corr, factors, link)
        # the chain's divisors: power products, 1 + P_1 + ..., eta * bandwidth
        if ((np.multiply.accumulate(powers.value, axis=-2) == 0.0).any()
                or np.any(sum(pouts[:-1], 1.0) == 0.0)
                or (eta * link.bandwidth_hz == 0.0).any()):
            raise ZeroDivisionError("divide: zero denominator entry")
        if (pouts[-1] <= 0.0).any():
            raise ValueError("log: nonpositive entry")
        live = True
        if tau_clip is not None:
            live = (tau > 0.0) & (tau < tau_clip)
            tau = np.minimum(np.maximum(tau, 0.0), tau_clip)
        log_pout = np.log(pouts[-1])
        chain.update(rows=rows, pouts=pouts, live=live)
        # a zero multiplier adds an exact zero, so every run shares one op
        stats.update(objective=tau + lam * (log_pout - log_target)
                     + ups * (pavg - p_bar), mean_tau_s=tau,
                     mean_log_pout=log_pout, mean_pavg_w=pavg)
        return stats["objective"]

    @np.errstate(all="ignore")
    def push(g):
        # a clipped sample's g_tau is zero, so its clipped latency serves
        return np.concatenate(chain_adjoint(
            chain["rows"], chain["pouts"], stats["mean_tau_s"],
            g * chain["live"], g * lam, g * ups), axis=-2)

    terms = ad.op("lagrangian", compute, (powers,), (push,))
    root = ad.divide(ad.reduce_sum(terms), ad.constant(float(b)))
    return root, stats


def _label(run) -> str:
    scheme, link = run
    return f"{scheme.value} at {link.power_budget_dbw:g} dBW"


def train(scheme: Scheme, link: LinkConfig, channel_proto: ChannelParams,
          cfg: TrainConfig) -> TrainResult:
    """Primal-dual training of one policy; deterministic in cfg.seed."""
    return train_stack([(scheme, link)], channel_proto, cfg)[0]


def train_stack(runs, channel_proto: ChannelParams, cfg: TrainConfig) -> list:
    """Train one policy per (scheme, link) run in one primal-dual loop.

    The links may differ only in the power budget (ValueError otherwise).
    Every run starts from the same initial weights and sees the same
    mini-batches; returns one TrainResult per run, each bitwise equal to
    train() on that run alone.
    """
    runs = tuple(runs)
    link = _shared_link(runs)
    n_runs = len(runs)
    p_bar = np.array([lk.power_budget_w for _, lk in runs])
    # every layer's (R, n, m) weight stack is a contiguous view of one flat
    # buffer, so that one Adam pass updates all of them; run_of names the
    # run of each entry of that buffer
    init = [np.stack([m] * n_runs) for m in init_weights(cfg.seed).matrices]
    flat = np.concatenate([m.reshape(-1) for m in init])
    mats = [part.reshape(m.shape) for part, m in
            zip(np.split(flat, np.cumsum([m.size for m in init])[:-1]), init)]
    run_of = np.concatenate([np.repeat(np.arange(n_runs), m[0].size)
                             for m in init])
    adam = AdamState.like(flat)
    adj_all, inv_corr_all = dataset_constants(sample_rho_dataset(cfg),
                                              channel_proto)
    # a network at the power floor for every sample has zero gradients
    # everywhere, so its weights could never move; batch-sized slices keep
    # the check's memory at one step's, and it stops once every run is live
    consts = [ad.constant(m) for m in mats]
    dead = np.ones(n_runs, dtype=bool)
    for i in range(0, cfg.dataset_size, cfg.batch_size):
        out = forward(adj_all[i:i + cfg.batch_size], consts, p_bar).value
        dead &= np.all(out.reshape(n_runs, -1) == P_MIN_WATTS, axis=1)
        if not dead.any():
            break
    if dead.any():
        raise TrainingDiverged(
            f"seed {cfg.seed}: the initial network outputs the "
            f"{P_MIN_WATTS:g} W floor for every training sample (dead ReLU), "
            "so no gradient can move it; choose another seed")
    shuffle_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 13)))

    # the leaves of the training graph, refilled in place every step: the
    # batch slices, the multipliers and the weights (Adam updates flat in
    # place); every batch is full, so the graph's shapes never change
    adj = np.empty((cfg.batch_size,) + adj_all.shape[1:])
    inv_corr = np.empty(inv_corr_all.shape[:1] + (cfg.batch_size,)
                        + inv_corr_all.shape[2:])
    lam = np.full(n_runs, INIT_LAMBDA)
    ups = np.full(n_runs, INIT_UPSILON)
    wnodes = [ad.parameter(m) for m in mats]
    tape = None
    log_target = math.log(link.outage_target)
    tau_floor = link.payload_bits / (link.bandwidth_hz * link.rate)
    guard_level = DIVERGENCE_FACTOR * tau_floor
    tau_clip = TAU_CLIP_FLOORS * tau_floor

    guard_steps = np.zeros(n_runs, dtype=int)
    it = 0
    steps_per_epoch = cfg.dataset_size // cfg.batch_size
    total_steps = cfg.epochs * steps_per_epoch
    history = np.empty((n_runs, total_steps, len(HISTORY_FIELDS)))
    history[:, :, 0] = np.arange(total_steps)
    for _epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(cfg.dataset_size)
        for bidx in range(steps_per_epoch):
            sel = order[bidx * cfg.batch_size:(bidx + 1) * cfg.batch_size]
            np.take(adj_all, sel, axis=0, out=adj)
            np.take(inv_corr_all, sel, axis=1, out=inv_corr)
            try:
                # weights that the last Adam step sent too far overflow here
                with np.errstate(over="raise", invalid="raise"):
                    if tape is None:
                        # the first step records the graph; later steps
                        # replay it
                        root, per_sample = batch_lagrangian(
                            wnodes, adj, inv_corr, runs, lam, ups,
                            tau_clip=tau_clip)
                        tape = ad.Tape(root)
                    else:
                        tape.replay()
            except (ValueError, ZeroDivisionError, FloatingPointError) as exc:
                # a log of an outage that underflowed to zero, a zero
                # denominator or an overflow: the graph has no value at this
                # step, and the stacked arrays do not say which run caused it
                who = (_label(runs[0]) if n_runs == 1
                       else f"a stack of {n_runs} runs")
                raise TrainingDiverged(
                    f"{who}: cannot evaluate the Lagrangian at iteration "
                    f"{it}: {exc}") from exc
            # each statistic is its per-sample array's per-run batch mean
            stats = {key: v.reshape(n_runs, -1).sum(axis=1) / cfg.batch_size
                     for key, v in per_sample.items()}
            bad = ~np.isfinite(stats["objective"])
            if bad.any():
                r = int(np.argmax(bad))
                raise TrainingDiverged(
                    f"{_label(runs[r])}: non-finite objective at iteration "
                    f"{it}: { {key: float(v[r]) for key, v in stats.items()} }")
            tape.backward()
            grad = np.concatenate([w.adjoint.reshape(-1) for w in wnodes])
            if not np.isfinite(grad).all():
                r = run_of[~np.isfinite(grad)].min()
                raise TrainingDiverged(
                    f"{_label(runs[r])}: non-finite gradient at iteration {it}")

            ramp = 1.0 - (1.0 - LR_FINAL_FRAC) * (it / total_steps)
            lr = cfg.lr_weights * ramp
            # batches whose mean latency leaves the sane window (a razor-thin
            # outage-near-one crossing, either branch) get a half-size step
            tau = stats["mean_tau_s"]
            guarded = ~((0.0 < tau) & (tau <= guard_level))
            guard_steps += guarded
            # a step that overflows is reported by the check below
            with np.errstate(over="ignore", invalid="ignore"):
                adam_update(adam, flat, grad,
                            np.where(guarded, lr * 0.5, lr)[run_of])
            if not np.isfinite(flat).all():
                r = run_of[~np.isfinite(flat)].min()
                raise TrainingDiverged(
                    f"{_label(runs[r])}: non-finite weights after the Adam "
                    f"step at iteration {it}")

            lam[:] = np.maximum(0.0, lam + cfg.lr_lambda *
                                (stats["mean_log_pout"] - log_target))
            ups[:] = np.maximum(0.0, ups + cfg.lr_upsilon *
                                (stats["mean_pavg_w"] - p_bar))
            # the step's (R, 5) rows, written field by field through .T
            history[:, it, 1:].T[...] = (tau, stats["mean_log_pout"],
                                         stats["mean_pavg_w"], lam, ups)
            it += 1
    # no replay follows the last step, so its weights get one forward pass
    with np.errstate(over="ignore", invalid="ignore"):
        out = forward(adj_all[:cfg.batch_size], consts, p_bar).value
    bad = ~np.isfinite(out.reshape(n_runs, -1)).all(axis=1)
    if bad.any():
        raise TrainingDiverged(
            f"{_label(runs[int(np.argmax(bad))])}: non-finite network output "
            f"after the Adam step at iteration {it - 1}")
    return [TrainResult(weights=GcnWeights([m[r].copy() for m in mats],
                                           cfg.seed),
                        history=history[r], lam=float(lam[r]),
                        ups=float(ups[r]), guard_steps=int(guard_steps[r]))
            for r in range(n_runs)]


def evaluate_policy(weights: GcnWeights, channel: ChannelParams,
                    link: LinkConfig, scheme: Scheme):
    """Run the trained network on one channel and score it analytically."""
    consts = [ad.constant(m) for m in weights.matrices]
    out = forward(session_adjacency(channel), consts, link.power_budget_w)
    policy = PowerPolicy(tuple(out.value[:, 0]))
    report = evaluate(policy, channel, scheme, link)
    return policy, report
