"""Primal-dual training of the GCN power policy.

Each step draws a mini-batch of correlation coefficients, builds one
differentiable graph that evaluates the policy network and the analytic
latency/outage/power metrics for the whole batch, and descends the batch-mean
Lagrangian

    L = latency + lam * (log P_out_K - log target) + ups * (avg_power - budget)

in the network weights (Adam) while ascending the projected multipliers.
Both constraint terms use the same mini-batch as the weight gradient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .analytics import analytic_chain, correlation_factor, evaluate
from .gcn import GcnWeights, LayerSpec, forward, init_weights
from .graph import batch_adjacency, session_adjacency
from .types import P_MIN_WATTS, ChannelParams, LinkConfig, PowerPolicy, Scheme

__all__ = ["TrainConfig", "TrainResult", "AdamState", "adam_update",
           "sample_rho_dataset", "dataset_constants", "batch_lagrangian",
           "train", "evaluate_policy", "TrainingDiverged",
           "HISTORY_FIELDS"]

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
    history: list                  # rows matching HISTORY_FIELDS
    lam: float
    ups: float
    guard_steps: int               # steps taken at halved learning rate


@dataclass
class AdamState:
    m: list
    v: list
    step: int = 0

    @classmethod
    def like(cls, mats) -> "AdamState":
        return cls(m=[np.zeros_like(x) for x in mats],
                   v=[np.zeros_like(x) for x in mats])


def adam_update(state: AdamState, mats, grads, lr) -> None:
    """One bias-corrected Adam step applied in place to `mats`."""
    state.step += 1
    t = state.step
    for i, g in enumerate(grads):
        state.m[i] = ADAM_BETA1 * state.m[i] + (1.0 - ADAM_BETA1) * g
        state.v[i] = ADAM_BETA2 * state.v[i] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[i] / (1.0 - ADAM_BETA1 ** t)
        v_hat = state.v[i] / (1.0 - ADAM_BETA2 ** t)
        mats[i] -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


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
    adj = batch_adjacency(rho, k, delta, channel_proto.xi_sq)
    inv_corr = np.array([[1.0 / correlation_factor(r, kk, delta) for r in rho]
                         for kk in range(1, k + 1)])
    return adj, inv_corr[:, :, None, None]


def batch_lagrangian(wnodes, spec: LayerSpec, adj: np.ndarray,
                     inv_corr: np.ndarray, scheme: Scheme,
                     channel_proto: ChannelParams, link: LinkConfig,
                     lam: float, ups: float, tau_clip: float | None = None):
    """Build the batch-mean Lagrangian graph.

    `adj` and `inv_corr` are a mini-batch's slices of dataset_constants().
    Returns (root, stats) where stats carries the batch means needed by the
    dual updates and the history: mean_tau_s, mean_log_pout, mean_pavg_w.
    The metrics come from analytics.analytic_chain with two deliberate
    exceptions around the outage-near-one region, where the latency ratio
    has a pole that otherwise wrecks the optimizer:

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
    b, k = adj.shape[0], adj.shape[1]
    p_bar = link.power_budget_w
    powers = forward(adj, spec, wnodes, p_bar)

    # per-round powers as (B,1,1) nodes
    eye = np.eye(k)
    p_k = [ad.matmul(ad.constant(eye[kk:kk + 1, :]), powers) for kk in range(k)]
    pouts, _, tau, pavg = analytic_chain(p_k, inv_corr, channel_proto.xi_sq,
                                         scheme, link)
    if tau_clip is not None:
        tau = ad.clamp(tau, lo=0.0, hi=tau_clip)

    log_pout = ad.log(pouts[-1])
    lagr = tau
    if lam != 0.0:
        lagr = ad.add(lagr, ad.multiply(
            ad.constant(lam),
            ad.add(log_pout, ad.constant(-math.log(link.outage_target)))))
    if ups != 0.0:
        lagr = ad.add(lagr, ad.multiply(
            ad.constant(ups), ad.add(pavg, ad.constant(-p_bar))))
    root = ad.divide(ad.reduce_sum(lagr), ad.constant(float(b)))

    stats = {
        "mean_tau_s": float(np.mean(tau.value)),
        "mean_log_pout": float(np.mean(log_pout.value)),
        "mean_pavg_w": float(np.mean(pavg.value)),
    }
    return root, stats


def train(scheme: Scheme, link: LinkConfig, channel_proto: ChannelParams,
          cfg: TrainConfig, spec: LayerSpec = LayerSpec()) -> TrainResult:
    """Primal-dual training loop; deterministic in cfg.seed."""
    weights = init_weights(spec, cfg.seed)
    adam = AdamState.like(weights.matrices)
    adj_all, inv_corr_all = dataset_constants(sample_rho_dataset(cfg),
                                              channel_proto)
    # a network at the power floor for every sample has zero gradients
    # everywhere, so its weights could never move; batch-sized slices keep
    # the check's memory at one step's, and it stops at the first live one
    consts = [ad.constant(m) for m in weights.matrices]
    if all(np.all(forward(adj_all[i:i + cfg.batch_size], spec, consts,
                          link.power_budget_w).value == P_MIN_WATTS)
           for i in range(0, cfg.dataset_size, cfg.batch_size)):
        raise TrainingDiverged(
            f"seed {cfg.seed}: the initial network outputs the "
            f"{P_MIN_WATTS:g} W floor for every training sample (dead ReLU), "
            "so no gradient can move it; choose another seed")
    shuffle_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 13)))

    lam, ups = INIT_LAMBDA, INIT_UPSILON
    log_target = math.log(link.outage_target)
    tau_floor = link.payload_bits / (link.bandwidth_hz * link.rate)
    guard_level = DIVERGENCE_FACTOR * tau_floor
    tau_clip = TAU_CLIP_FLOORS * tau_floor

    history = []
    guard_steps = 0
    it = 0
    steps_per_epoch = cfg.dataset_size // cfg.batch_size
    total_steps = max(1, cfg.epochs * steps_per_epoch)
    for _epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(cfg.dataset_size)
        for bidx in range(steps_per_epoch):
            sel = order[bidx * cfg.batch_size:(bidx + 1) * cfg.batch_size]
            wnodes = [ad.parameter(m) for m in weights.matrices]
            root, stats = batch_lagrangian(wnodes, spec, adj_all[sel],
                                           inv_corr_all[:, sel], scheme,
                                           channel_proto, link, lam, ups,
                                           tau_clip=tau_clip)
            if not math.isfinite(float(root.value)):
                raise TrainingDiverged(
                    f"non-finite objective at iteration {it}: {stats}")
            ad.backward(root)
            grads = [w.adjoint for w in wnodes]
            if any(not np.all(np.isfinite(g)) for g in grads):
                raise TrainingDiverged(f"non-finite gradient at iteration {it}")

            ramp = 1.0 - (1.0 - LR_FINAL_FRAC) * (it / total_steps)
            lr = cfg.lr_weights * ramp
            # batches whose mean latency leaves the sane window (a razor-thin
            # outage-near-one crossing, either branch) get a half-size step
            if not (0.0 < stats["mean_tau_s"] <= guard_level):
                lr *= 0.5
                guard_steps += 1
            adam_update(adam, weights.matrices, grads, lr)

            lam = max(0.0, lam + cfg.lr_lambda *
                      (stats["mean_log_pout"] - log_target))
            ups = max(0.0, ups + cfg.lr_upsilon *
                      (stats["mean_pavg_w"] - link.power_budget_w))
            history.append((it, stats["mean_tau_s"], stats["mean_log_pout"],
                            stats["mean_pavg_w"], lam, ups))
            it += 1
    return TrainResult(weights=weights, history=history, lam=lam, ups=ups,
                       guard_steps=guard_steps)


def evaluate_policy(weights: GcnWeights, channel: ChannelParams,
                    link: LinkConfig, scheme: Scheme):
    """Run the trained network on one channel and score it analytically."""
    consts = [ad.constant(m) for m in weights.matrices]
    out = forward(session_adjacency(channel), weights.spec, consts,
                  link.power_budget_w)
    policy = PowerPolicy(tuple(out.value[:, 0]))
    report = evaluate(policy, channel, scheme, link)
    return policy, report
