"""Primal-dual training of the GCN power policy.

Each step draws a mini-batch of correlation coefficients, evaluates the
policy network and the analytic latency/outage/power metrics for the whole
batch, and descends the batch-mean Lagrangian

    L = latency + lam * (log P_out_K - log target) + ups * (avg_power - budget)

in the network weights (Adam) while ascending the projected multipliers.
Both constraint terms use the same mini-batch as the weight gradient.  The
latency term is clipped at TAU_CLIP_FLOORS latency floors of the link.  The
graph is two fused ops with hand-derived products, built once before the
first step; every step calls their forwards and products directly.  Its
leaves are the weights, the multipliers and a batch's rows of two
per-sample constants made once per run, the network profile A^L 1 and the
inverse correlation penalties.  Only the network's pass
(gcn.forward_profile) and the chain's rounds-last rows are buffers made
once, the chain's because a fresh (..., K) chain is several times slower;
the masks, adjoints, Adam's terms and the dual step are plain numpy
expressions.  One finiteness test guards a step (_diagnose).

Several runs that differ only in scheme and power budget train as one
stack: the weights, gradient, Adam moments, multipliers, step-size guard
and history carry a leading run axis R (the weights as (R, P) rows, one per
run), so per-run values broadcast; every run takes its steps on the same
dataset constants and mini-batch order in one loop.  Runs never mix (each
run's weight gradient is its own gemm), so a run trained in a stack is
bitwise the run trained alone; train() is the stack of one.  Checks on a
step's own (R, ...) arrays name the first run that fails, in one pass.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .analytics import (ChainWork, analytic_chain, chain_adjoint,
                        correlation_factor, evaluate, rate_factors)
from .gcn import (GcnWeights, flat_views, forward, forward_profile,
                  init_weights, profile)
from .graph import batch_adjacency, session_adjacency
from .types import P_MIN_WATTS, ChannelParams, LinkConfig, PowerPolicy, Scheme

__all__ = ["TrainConfig", "TrainResult", "AdamState", "adam_update",
           "sample_rho_dataset", "dataset_constants", "batch_lagrangian",
           "train", "train_stack", "evaluate_policy",
           "TrainingDiverged", "UndefinedLagrangian", "HISTORY_FIELDS"]

# mean_tau_s is the batch mean of the clipped latency the objective uses,
# so a batch whose every sample sits past the latency pole logs 0
HISTORY_FIELDS = ("iter", "mean_tau_s", "mean_log_pout", "mean_pavg_w",
                  "lambda", "upsilon")
# the per-sample statistics of batch_lagrangian, in its buffer's order
STAT_FIELDS = ("objective", "mean_tau_s", "mean_log_pout", "mean_pavg_w")

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


class TrainingDiverged(RuntimeError):
    pass


class UndefinedLagrangian(ArithmeticError):
    """The batch Lagrangian of run `run` has no value; the message says why."""

    def __init__(self, run: int, cause: str):
        super().__init__(cause)
        self.run = run


def _first_run(bad: np.ndarray) -> int:
    """The first run with a true entry in `bad`, whose first axis is runs."""
    return int(np.argwhere(bad)[0, 0])


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

    `lr` is a scalar or an array of step sizes that broadcasts against `x`.
    The moments are updated in place, and the step is

        m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g g,
        x -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)
    """
    state.step += 1
    t = state.step
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    x -= lr * (m / (1.0 - ADAM_BETA1 ** t)) / (
        np.sqrt(v / (1.0 - ADAM_BETA2 ** t)) + ADAM_EPS)


def sample_rho_dataset(cfg: TrainConfig) -> np.ndarray:
    """Training set of correlation coefficients, uniform on [0, 1)."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 11)))
    return rng.random(cfg.dataset_size)


def dataset_constants(rho: np.ndarray, channel_proto: ChannelParams):
    """Per-sample constants of a rho dataset, computed once per training run.

    Returns the normalized adjacencies, shape (N, K, K), and the inverse
    correlation penalties 1 / correlation_factor for rounds 1..K, shape
    (N, K).  A mini-batch slices both with its sample indices.
    """
    k, delta = channel_proto.num_rounds, channel_proto.delta
    adj = batch_adjacency(rho, k, delta)
    inv_corr = 1.0 / correlation_factor(rho, k, delta)
    return adj, np.ascontiguousarray(inv_corr.T)


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


def batch_lagrangian(wnodes, d: np.ndarray, inv_corr: np.ndarray, runs,
                     lam, ups, grad=None, out=None):
    """Build the batch-mean Lagrangian graph of a stack of runs.

    `runs` holds one (scheme, link) pair per run; the links may differ only
    in the power budget.  `wnodes` are the (R, n, m) stacked layer weights
    (or (n, m) matrices for a single run), `lam` and `ups` the R multipliers,
    and `d` (B, K, 1) and `inv_corr` (B, K) a mini-batch's rows of the
    network profiles gcn.profile(adjacency, L) and of dataset_constants().
    The root is the sum over runs of each run's batch-mean Lagrangian, so
    each run's weights get exactly their own run's gradient; the backward
    pass writes it into `grad` when given (laid out by gcn.flat_views).
    Returns (root, stats), stats a dict of per-sample (R, B) arrays:
    objective (each sample's Lagrangian term), mean_tau_s, mean_log_pout
    and mean_pavg_w, the rows of one (4, R, B) buffer in STAT_FIELDS order
    (`out` when given), and raw_tau_s, the latency before the clip; a
    step's statistics are their per-run batch means.  The graph reads `d`,
    `inv_corr`, the weights and the multipliers through the arrays passed
    in (`lam` and `ups` as views when they are float arrays), and writes
    the statistics, the network's pass and the chain into buffers made
    here, so after those arrays change in place, calling the network's
    compute() and then the root's evaluates the new values.

    The graph is two ops: the network's pass on `d` (gcn.forward_profile),
    made here the "gcn" op over the weight nodes, and one op that maps its
    floored (R, B, K, 1) powers to the batch-mean Lagrangian by
    analytics.analytic_chain and chain_adjoint.  Its compute(check=True)
    raises UndefinedLagrangian, naming the first run, on a non-finite
    power, then on a zero denominator, then on a nonpositive final outage;
    a plain compute() checks nothing (train_stack tests a step once).
    numpy warns of overflows unless the caller silences it, as train_stack
    does.  The op departs from the capped report in two deliberate ways
    around the outage-near-one region, where the latency ratio has a pole
    that otherwise wrecks the optimizer:

    * per-round outage values are not capped below one (the cap turns the
      pole into an eight-orders-of-magnitude cliff whose gradient poisons
      Adam's second moments for thousands of steps);
    * each sample's latency term is clipped into [0, TAU_CLIP_FLOORS *
      payload / (bandwidth * rate)] with zero subgradient outside, so
      uebercorrelated draws whose raw outage sits near or beyond one
      contribute a bounded constant to the objective instead of a divergent
      pull, while their power and outage constraint terms stay exact.

    Reported metrics elsewhere always use the capped chain.
    """
    link = _shared_link(runs)
    b, k = d.shape[0], d.shape[1]
    p_bar = np.array([lk.power_budget_w for _, lk in runs])
    net = forward_profile(d, [w.value for w in wnodes], p_bar, grad=grad)
    n_runs = len(runs)
    shape = (n_runs, b, k)
    powers = net.out.reshape(shape)

    factors = np.array([rate_factors(scheme, link.rate, k)
                        for scheme, _ in runs]).reshape(n_runs, 1, k)
    # (R, 1) views of the per-run multipliers against (R, B) rows
    lam, ups = (np.asarray(x, dtype=np.float64).reshape(-1, 1)
                for x in (lam, ups))
    p_bar = p_bar.reshape(-1, 1)
    log_target = math.log(link.outage_target)
    tau_clip = TAU_CLIP_FLOORS * (
        link.payload_bits / (link.bandwidth_hz * link.rate))
    work = ChainWork(shape)
    per_sample = np.empty((4,) + shape[:-1]) if out is None else out
    objective, tau, log_pout, pavg = per_sample
    stats = dict(zip(STAT_FIELDS, per_sample), raw_tau_s=work.tau)

    def compute(check=False):
        pouts, eta, raw_tau, chain_pavg = analytic_chain(
            powers, inv_corr, factors, link, work=work)
        if check:
            # the chain's divisors: power products, 1 + P_1 + ...,
            # eta * bandwidth
            defined = (work.prod.all(axis=-1) & (work.spent != 0.0)
                       & (eta * link.bandwidth_hz != 0.0))
            for bad, cause in (
                    (~np.isfinite(powers), "non-finite network output"),
                    (~defined, "divide: zero denominator entry"),
                    (pouts[..., -1] <= 0.0, "log: nonpositive entry")):
                if bad.any():
                    raise UndefinedLagrangian(_first_run(bad), cause)
        np.minimum(np.maximum(raw_tau, 0.0), tau_clip, out=tau)
        np.log(pouts[..., -1], out=log_pout)
        np.copyto(pavg, chain_pavg)
        # a zero multiplier adds an exact zero, so every run shares one op
        objective[...] = (tau + lam * (log_pout - log_target)
                          + ups * (pavg - p_bar))
        return objective.sum() / float(b)

    def vjp(g):
        # a clipped sample's latency adjoint is zero, so its clipped latency
        # serves; a sample is clipped exactly where its latency sits on a
        # bound of [0, tau_clip]
        g = g / float(b)
        live = (0.0 < tau) & (tau < tau_clip)
        g_powers = chain_adjoint(powers, work, tau, g * live, g * lam,
                                 g * ups)
        return (g_powers.reshape(net.out.shape),)

    network = ad.op("gcn", net.forward, tuple(wnodes), net.backward)
    root = ad.op("lagrangian", compute, (network,), vjp)
    return root, stats


def _label(run) -> str:
    scheme, link = run
    return f"{scheme.value} at {link.power_budget_dbw:g} dBW"


def _diagnose(runs, it: int, root, means, grad, flat) -> None:
    """Raise TrainingDiverged for step `it`, whose test tripped, naming the
    first run that fails the step's first failing check: the Lagrangian of
    batch_lagrangian's `root` has a value (its compute(check=True) on the
    step's powers), then its means, the (R, P) gradient and weights after
    Adam are finite.  Returns if all pass.

    The test misses none: a non-finite p_k makes the average power's term
    p_k P_{k-1} non-finite; a zero power product stays zero through later
    finite powers, so P_K = inv_corr_K / 0 * factor_K and log P_K are not
    finite, as log P_K is for P_K <= 0; eta * bandwidth = 0 makes the raw
    latency payload / 0 infinite (the clip hides it: at P_K = 1 every
    statistic is finite); 1 + P_1 + ... + P_{K-1} >= 1, as positive rate
    factors give outages >= 0; a non-finite gradient gives Adam a NaN step.
    """
    try:
        root.compute(check=True)
    except UndefinedLagrangian as exc:
        raise TrainingDiverged(
            f"{_label(runs[exc.run])}: cannot evaluate the Lagrangian at "
            f"iteration {it}: {exc}") from exc
    finite = np.isfinite(means)
    if not finite.all():
        field, r = np.argwhere(~finite)[0]
        stats = dict(zip(STAT_FIELDS, means[:, r].tolist()))
        raise TrainingDiverged(
            f"{_label(runs[r])}: non-finite {STAT_FIELDS[field]} at "
            f"iteration {it}: {stats}")
    for values, what in ((grad, "gradient"),
                         (flat, "weights after the Adam step")):
        bad = ~np.isfinite(values)
        if bad.any():
            raise TrainingDiverged(
                f"{_label(runs[_first_run(bad)])}: non-finite {what} "
                f"at iteration {it}")


def train(scheme: Scheme, link: LinkConfig, channel_proto: ChannelParams,
          cfg: TrainConfig) -> TrainResult:
    """Primal-dual training of one policy; deterministic in cfg.seed."""
    return train_stack([(scheme, link)], channel_proto, cfg)[0]


@np.errstate(all="ignore")
def train_stack(runs, channel_proto: ChannelParams, cfg: TrainConfig) -> list:
    """Train one policy per (scheme, link) run in one primal-dual loop.

    The links may differ only in the power budget (ValueError otherwise).
    Every run starts from the same initial weights and sees the same
    mini-batches; returns one TrainResult per run, each bitwise equal to
    train() on that run alone.  A failed step raises TrainingDiverged
    naming its run, with no numpy warning.
    """
    runs = tuple(runs)
    link = _shared_link(runs)
    n_runs = len(runs)
    p_bar = np.array([lk.power_budget_w for _, lk in runs])
    # the weights are one (R, P) buffer, row r run r's, whose (R, n, m)
    # layer stacks are views (gcn.flat_views): one Adam pass updates them
    # all at a per-run (R, 1) rate; the gradient is a second such buffer
    init = init_weights(cfg.seed).matrices
    flat = np.tile(np.concatenate([m.reshape(-1) for m in init]), (n_runs, 1))
    mats = flat_views(flat, init)
    grad = np.empty_like(flat)
    adam = AdamState.like(flat)
    adj_all, inv_corr_all = dataset_constants(sample_rho_dataset(cfg),
                                              channel_proto)
    # every sample's profile A^L 1, fixed for the run: the pass reads rows
    d_all = profile(adj_all, len(mats))
    del adj_all
    # a network at the power floor for every sample has zero gradients
    # everywhere, so its weights could never move.  Its outputs are
    # max(P_MIN_WATTS, s d), s = (p_bar / K) phi, d > 0; fl(s d) rises with
    # d for s >= 0 and is <= 0 for s < 0, so all are the floor exactly when
    # the largest d's is (a NaN s is live either way)
    top = forward_profile(np.full(d_all.shape[1:], d_all.max()), mats, p_bar)
    if np.all(top.out.reshape(n_runs, -1) == P_MIN_WATTS, axis=1).any():
        raise TrainingDiverged(
            f"seed {cfg.seed}: the initial network outputs the "
            f"{P_MIN_WATTS:g} W floor for every training sample (dead ReLU), "
            "so no gradient can move it; choose another seed")
    shuffle_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 13)))

    # the leaves of the training graph, refilled in place every step: the
    # batch's rows of d and inv_corr, the multipliers and the weights (Adam
    # updates flat in place); every batch is full, so no shape changes
    d = d_all[:cfg.batch_size].copy()
    inv_corr = inv_corr_all[:cfg.batch_size].copy()
    # the multipliers, one row each, and their step sizes and targets
    duals = np.array([[INIT_LAMBDA] * n_runs, [INIT_UPSILON] * n_runs])
    lam, ups = duals
    dual_lr = np.array([[cfg.lr_lambda], [cfg.lr_upsilon]])
    dual_bound = np.stack([np.full(n_runs, math.log(link.outage_target)),
                           p_bar])
    # the graph, built once on the dataset's first rows; its (4, R, B)
    # per-sample statistics in STAT_FIELDS order
    per_sample = np.empty((4, n_runs, cfg.batch_size))
    root, stats = batch_lagrangian([ad.parameter(m) for m in mats], d,
                                   inv_corr, runs, lam, ups, grad=grad,
                                   out=per_sample)
    (network,) = root.parents
    raw_tau = stats["raw_tau_s"]

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
            # mode="clip" writes straight into `out` ("raise" buffers)
            np.take(d_all, sel, axis=0, out=d, mode="clip")
            np.take(inv_corr_all, sel, axis=0, out=inv_corr, mode="clip")
            network.compute()
            root.compute()
            # each statistic is its per-sample row's per-run batch mean
            means = per_sample.sum(axis=-1) / cfg.batch_size
            # the root's adjoint 1 back to the powers, then into grad
            network.vjp(*root.vjp(1.0))

            ramp = 1.0 - (1.0 - LR_FINAL_FRAC) * (it / total_steps)
            lr = cfg.lr_weights * ramp
            # a batch whose every sample sits past the latency pole (each
            # clipped to 0) gets a half-size step
            guarded = means[1] == 0.0
            guard_steps += guarded
            adam_update(adam, flat, grad,
                        np.where(guarded, lr * 0.5, lr)[:, None])
            # the step's one test: a sum is finite only if its terms are
            if not np.isfinite(means.sum() + raw_tau.sum() + flat.sum()):
                _diagnose(runs, it, root, means, grad, flat)

            # projected ascent on the mean outage and power slacks
            np.maximum(0.0, duals + dual_lr * (means[2:] - dual_bound),
                       out=duals)
            history[:, it, 1:4] = means[1:].T
            history[:, it, 4:] = duals.T
            it += 1
    # no step evaluates the last Adam step's weights, so they get one pass
    out = forward_profile(d_all[:cfg.batch_size], mats, p_bar).out
    bad = ~np.isfinite(out)
    if bad.any():
        raise TrainingDiverged(
            f"{_label(runs[_first_run(bad)])}: non-finite network output "
            f"after the Adam step at iteration {it - 1}")
    return [TrainResult(weights=GcnWeights([m[r].copy() for m in mats],
                                           cfg.seed),
                        history=history[r], lam=float(lam[r]),
                        ups=float(ups[r]), guard_steps=int(guard_steps[r]))
            for r in range(n_runs)]


def evaluate_policy(weights: GcnWeights, channel: ChannelParams,
                    link: LinkConfig, scheme: Scheme):
    """Run the trained network on one channel and score it analytically."""
    out = forward(session_adjacency(channel), weights.matrices,
                  link.power_budget_w).out
    policy = PowerPolicy(tuple(out[:, 0]))
    report = evaluate(policy, channel, scheme, link)
    return policy, report
