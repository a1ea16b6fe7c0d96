"""Primal-dual training of the GCN power policy.

Each step draws a mini-batch of correlation coefficients, evaluates the
policy network and the analytic latency/outage/power metrics for the whole
batch, and descends the batch-mean Lagrangian

    L = latency + lam * (log P_out_K - log target) + ups * (avg_power - budget)

in the network weights (Adam) while ascending the projected multipliers.
Both constraint terms use the same mini-batch as the weight gradient.  The
latency term is clipped at TAU_CLIP_FLOORS latency floors of the link.  The
graph is two fused ops with hand-derived products, built once before the
first step: the network's pass (gcn.forward_profile) and the Lagrangian,
whose root object is also the training step.  Its leaves are the weights,
the multipliers and a batch's rows of two per-sample constants made once
per run, the network profile A^L 1 and the inverse correlation penalties,
which each epoch gathers once in its shuffled order.  A step is a fixed
sequence of numpy calls on buffers and views made before the first step:
the network's pass, the chain (analytics.ChainWork), the per-sample rows,
the masks and adjoints, Adam's terms and the dual step all write through
`out=`, the history takes one row copy of the step's record, and the
link's and Adam's constants are 0-d arrays, which a ufunc does not
convert on each call.  One finiteness test guards a step (_diagnose).

Several runs that differ only in scheme and power budget train as one
stack: the weights, gradient, Adam moments, multipliers, step-size guard
and history carry a run axis R (the weights as (R, P) rows, one per run),
so per-run values broadcast; every run takes its steps on the same dataset
constants and mini-batch order in one loop.  Runs never mix (each run's
weight gradient is its own gemm), so a run trained in a stack is bitwise
the run trained alone; train() is the stack of one.  Checks on a step's own
(R, ...) arrays name the first run that fails, in one pass.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .analytics import ChainWork, correlation_factor, evaluate, rate_factors
from .gcn import (GcnWeights, flat_views, forward, forward_profile,
                  init_weights, profile, run_column)
from .graph import batch_adjacency, session_adjacency
from .types import P_MIN_WATTS, ChannelParams, LinkConfig, PowerPolicy, Scheme

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
        # a negative rate ascends the Lagrangian; zero freezes what it moves
        for name in ("lr_weights", "lr_lambda", "lr_upsilon"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {value}")


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

    def __post_init__(self):
        # adam_update's step sizes and two temporaries, its bias corrections
        # and its constants b1, 1 - b1, b2, 1 - b2 and eps, as 0-d arrays
        self.scratch = tuple(np.empty_like(self.m) for _ in range(3))
        self.corrections = (np.empty(()), np.empty(()))
        self.terms = tuple(np.array(x) for x in (
            ADAM_BETA1, 1.0 - ADAM_BETA1, ADAM_BETA2, 1.0 - ADAM_BETA2,
            ADAM_EPS))

    @classmethod
    def like(cls, x: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(x), v=np.zeros_like(x))


def adam_update(state: AdamState, x: np.ndarray, g: np.ndarray, lr) -> None:
    """One bias-corrected Adam step applied in place to `x`.

    `lr` is a scalar or an array of step sizes that broadcasts against `x`.
    The moments are updated in place, and the step is

        m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g g,
        x -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)

    evaluated left to right in the state's buffers, so a call makes no
    array of x's shape: `lr` is first copied to one of x's shape, since a
    ufunc that broadcasts an (R, 1) column against (R, P) rows buffers the
    whole operation, several times slower than an elementwise one.
    """
    state.step += 1
    t = state.step
    m, v = state.m, state.v
    rate, a, b = state.scratch
    c1, c2 = state.corrections
    b1, rest1, b2, rest2, eps = state.terms
    multiply, add, divide = np.multiply, np.add, np.divide
    multiply(m, b1, out=m)
    add(m, multiply(g, rest1, out=a), out=m)
    multiply(v, b2, out=v)
    multiply(multiply(g, rest2, out=b), g, out=b)
    add(v, b, out=v)
    c1[()] = 1.0 - ADAM_BETA1 ** t
    c2[()] = 1.0 - ADAM_BETA2 ** t
    rate[...] = lr
    multiply(rate, divide(m, c1, out=a), out=a)
    add(np.sqrt(divide(v, c2, out=b), out=b), eps, out=b)
    np.subtract(x, divide(a, b, out=a), out=x)


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


class _Lagrangian:
    """The root of batch_lagrangian's graph, and a training step.

    It is a node of autodiff's graph (value, adjoint, parents, kind,
    compute and vjp, as autodiff.op makes them) whose one parent is the
    network op; compute() is the batch-mean Lagrangian of the network's
    last pass and vjp(g) the adjoint of its powers.  step(d, inv_corr) and
    gradient() are a training step's own calls: the network's pass and the
    chain on a batch's rows, then the weight gradient of the root's adjoint
    1, with the same float operations as compute(), vjp(1.0) and the
    network's backward, and without the batch sum that only compute()
    returns.  Every buffer, view and constant operand is made here.
    """

    kind = "lagrangian"

    def __init__(self, network, net, runs, link: LinkConfig, p_bar, inv_corr,
                 lam, ups):
        self.parents, self.adjoint, self.net = (network,), None, net
        b, k = net.d.shape[0], net.d.shape[1]
        shape = (len(runs), b, k)
        self.powers = net.out.reshape(shape)
        # the per-run rate factors and budgets repeated over the batch, laid
        # out as the powers and rows are: an elementwise ufunc on operands of
        # one shape and layout skips the buffered iterator that broadcasting
        # takes, which costs more than the arithmetic at these sizes
        factors = np.empty_like(self.powers)
        factors[...] = np.reshape([rate_factors(scheme, link.rate, k)
                                   for scheme, _ in runs], (len(runs), 1, k))
        # the per-sample rows: STAT_FIELDS, the raw latency, then scratch;
        # train_stack sums the first five per run
        self.rows = np.empty((6,) + shape[:-1])
        self.per_sample, raw_tau = self.rows[:5], self.rows[4]
        self.stats = dict(zip(STAT_FIELDS, self.rows[:4]), raw_tau_s=raw_tau)
        self.work = ChainWork(self.powers, inv_corr, factors, link,
                              out=(raw_tau, self.rows[3]))
        self.link = link
        # views of the per-run multipliers against (R, B) rows and against
        # (R, B, K) ones, with buffers for their adjoints
        lam, ups = (np.asarray(x, dtype=np.float64).reshape(-1)
                    for x in (lam, ups))
        self._lam, self._ups = run_column(lam, 1), run_column(ups, 1)
        self._lam_k, self._ups_k = run_column(lam, 2), run_column(ups, 2)
        self._g_lam, self._g_ups = (np.empty(self._lam_k.shape)
                                    for _ in range(2))
        self._p_bar = np.empty(shape[:-1])
        self._p_bar[...] = p_bar.reshape(-1, 1)
        self._b = float(b)
        self._zero, self._inv_b, self._log_target, self._tau_clip = (
            np.array(x) for x in (0.0, 1.0 / self._b,
                                  math.log(link.outage_target),
                                  TAU_CLIP_FLOORS * (link.payload_bits / (
                                      link.bandwidth_hz * link.rate))))
        self._live = np.empty((2,) + shape[:-1], dtype=bool)
        self._g_tau = np.empty(shape[:-1])
        self._g_powers = np.empty_like(net.out)
        self._g_rounds = self._g_powers.reshape(shape)
        self.value = np.asarray(self.compute(), dtype=np.float64)

    def _rows(self) -> None:
        """The per-sample rows of the chain's last run."""
        multiply, subtract, add = np.multiply, np.subtract, np.add
        objective, tau, log_pout, pavg, raw_tau, scratch = self.rows
        np.minimum(np.maximum(raw_tau, self._zero, out=tau), self._tau_clip,
                   out=tau)
        np.log(self.work.last, out=log_pout)
        # a zero multiplier adds an exact zero, so every run shares one op
        multiply(self._lam, subtract(log_pout, self._log_target,
                                     out=scratch), out=scratch)
        add(tau, scratch, out=objective)
        multiply(self._ups, subtract(pavg, self._p_bar, out=scratch),
                 out=scratch)
        add(objective, scratch, out=objective)

    def compute(self, check=False):
        """The batch-mean Lagrangian at the network's last pass.

        With `check`, raises UndefinedLagrangian, naming the first run, on
        a non-finite power, then on a zero denominator, then on a
        nonpositive final outage; a plain compute() checks nothing.
        """
        work = self.work
        work.run()
        if check:
            # the chain's divisors: power products, 1 + P_1 + ...,
            # eta * bandwidth
            defined = (work.prod.all(axis=-1) & (work.spent != 0.0)
                       & (work.eta * self.link.bandwidth_hz != 0.0))
            for bad, cause in (
                    (~np.isfinite(self.powers), "non-finite network output"),
                    (~defined, "divide: zero denominator entry"),
                    (work.last <= 0.0, "log: nonpositive entry")):
                if bad.any():
                    raise UndefinedLagrangian(_first_run(bad), cause)
        self._rows()
        return self.rows[0].sum() / self._b

    def _adjoint(self, g) -> np.ndarray:
        """The powers' adjoint for the adjoint `g` / B of each sample's
        term, in the (R, B, K, 1) buffer that the network's backward reads.
        """
        multiply = np.multiply
        # a clipped sample's latency adjoint is zero, so its clipped latency
        # serves; a sample is clipped exactly where its latency sits on a
        # bound of [0, tau_clip]
        tau, (live, below), g_tau = self.rows[1], self._live, self._g_tau
        np.less(self._zero, tau, out=live)
        np.logical_and(live, np.less(tau, self._tau_clip, out=below),
                       out=live)
        # g times the 0/1 mask; a float copy first skips a casting ufunc
        g_tau[...] = live
        self.work.adjoint(tau, multiply(g, g_tau, out=g_tau),
                          multiply(g, self._lam_k, out=self._g_lam),
                          multiply(g, self._ups_k, out=self._g_ups),
                          out=self._g_rounds)
        return self._g_powers

    def vjp(self, g):
        return (self._adjoint(g / self._b),)

    def step(self, d, inv_corr) -> None:
        """Point the graph at the batch rows `d` and `inv_corr`, which must
        broadcast as the arrays it was built on do (train_stack's carry a
        leading axis of 1 for the runs), and run the network's pass and
        the chain on them: compute() without the batch sum."""
        self.net.d = d
        self.work.inv_corr = inv_corr
        self.net.forward()
        self.work.run()
        self._rows()

    def gradient(self) -> list:
        """The weight gradient of the last step: the network's backward of
        vjp(1.0), into its gradient buffer."""
        return self.net.backward(self._adjoint(self._inv_b))


def batch_lagrangian(wnodes, d: np.ndarray, inv_corr: np.ndarray, runs,
                     lam, ups, grad=None):
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
    and mean_pavg_w, the first rows of one buffer in STAT_FIELDS order
    (the root's per_sample, which adds the raw latency as a fifth row),
    and raw_tau_s, the latency before the clip; a step's statistics are
    their per-run batch means.  The graph reads `d`, `inv_corr`, the
    weights and the multipliers through the arrays passed in (`lam` and
    `ups` as views when they are float arrays), and writes the statistics,
    the network's pass and the chain into buffers made here, so after
    those arrays change in place, calling the network's compute() and then
    the root's evaluates the new values; the root's step() does both on
    other batch rows.

    The graph is two ops: the network's pass on `d` (gcn.forward_profile),
    made here the "gcn" op over the weight nodes, and the root, which maps
    its floored (R, B, K, 1) powers to the batch-mean Lagrangian by an
    analytics.ChainWork and its adjoint.  Its compute(check=True) raises
    UndefinedLagrangian, naming the first run, on a non-finite power, then
    on a zero denominator, then on a nonpositive final outage; a plain
    compute() checks nothing (train_stack tests a step once).  numpy warns
    of overflows unless the caller silences it, as train_stack does.  The
    op departs from the capped report in two deliberate ways around the
    outage-near-one region, where the latency ratio has a pole that
    otherwise wrecks the optimizer:

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
    p_bar = np.array([lk.power_budget_w for _, lk in runs])
    net = forward_profile(d, [w.value for w in wnodes], p_bar, grad=grad)
    network = ad.op("gcn", net.forward, tuple(wnodes), net.backward)
    root = _Lagrangian(network, net, runs, link, p_bar, inv_corr, lam, ups)
    return root, root.stats


def _label(run) -> str:
    scheme, link = run
    return f"{scheme.value} at {link.power_budget_dbw:g} dBW"


def _diagnose(runs, it: int, root, means, grad, flat) -> None:
    """Raise TrainingDiverged for step `it`, whose test tripped, naming the
    first run that fails the step's first failing check: the Lagrangian of
    batch_lagrangian's `root` has a value (its compute(check=True) on the
    step's powers), then its (4, R) means, the (R, P) gradient and weights
    after Adam are finite.  Returns if all pass.

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

    # each epoch gathers its batches' rows of d and inv_corr once, in its
    # shuffled order, from round-major copies, into (steps, K, B) buffers:
    # step s reads samples s B .. (s + 1) B - 1 through (1, B, K, 1) and
    # (1, B, K) views made here, laid out as the network's powers and the
    # chain are (every batch is full, so no shape changes)
    n, k = inv_corr_all.shape
    steps_per_epoch = cfg.dataset_size // cfg.batch_size
    used = steps_per_epoch * cfg.batch_size
    by_round = [np.ascontiguousarray(x.reshape(n, k).T)
                for x in (d_all, inv_corr_all)]
    # the flat index into a (K, N) copy of each step's round and sample
    index = np.empty((steps_per_epoch, k, cfg.batch_size), dtype=np.intp)
    round_start = (np.arange(k) * n)[:, None]
    epoch = [np.empty(index.shape) for _ in by_round]
    batches = [(d.T[None, :, :, None], inv_corr.T[None])
               for d, inv_corr in zip(*epoch)]
    total_steps = cfg.epochs * steps_per_epoch
    # the history as (steps, fields, R), so that a step writes one row;
    # run r's (steps, fields) rows are history[:, :, r]
    history = np.empty((total_steps, len(HISTORY_FIELDS), n_runs))
    history[:, 0] = np.arange(total_steps)[:, None]
    # a step's row after the iteration: the batch means of the clipped
    # latency, log P_K and the average power, then the multipliers, which
    # the graph reads, with their step sizes and targets
    record = np.empty((len(HISTORY_FIELDS) - 1, n_runs))
    means, duals = record[:3], record[3:]
    mean_tau, constrained = means[0], means[1:]
    duals[0], duals[1] = INIT_LAMBDA, INIT_UPSILON
    lam, ups = duals
    dual_lr = np.array([[cfg.lr_lambda], [cfg.lr_upsilon]])
    dual_bound = np.stack([np.full(n_runs, math.log(link.outage_target)),
                           p_bar])
    slack = np.empty_like(duals)
    # the graph, built once on the dataset's first rows
    root, _ = batch_lagrangian([ad.parameter(m) for m in mats],
                               d_all[:cfg.batch_size],
                               inv_corr_all[:cfg.batch_size], runs, lam, ups,
                               grad=grad)
    # each step's per-run sums of the root's per-sample rows (STAT_FIELDS
    # and the raw latency) and the step's per-run rate column
    sums = np.empty((root.per_sample.shape[0], n_runs))
    batch_size, zero = np.array(float(cfg.batch_size)), np.array(0.0)
    lr_col = np.empty((n_runs, 1))
    add, reduce = np.add, np.add.reduce
    per_sample, stat_sums = root.per_sample, sums[1:4]

    it = 0
    for _epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(cfg.dataset_size)[:used]
        np.add(order.reshape(steps_per_epoch, 1, cfg.batch_size), round_start,
               out=index)
        for source, rows in zip(by_round, epoch):
            # mode="clip" writes straight into `out` ("raise" buffers)
            np.take(source, index, out=rows, mode="clip")
        for d, inv_corr in batches:
            root.step(d, inv_corr)
            # each statistic is its per-sample row's per-run batch mean
            reduce(per_sample, axis=-1, out=sums)
            np.divide(stat_sums, batch_size, out=means)
            root.gradient()

            ramp = 1.0 - (1.0 - LR_FINAL_FRAC) * (it / total_steps)
            lr = cfg.lr_weights * ramp
            # a batch whose every sample sits past the latency pole (each
            # clipped to 0) gets a half-size step
            lr_col.fill(lr)
            if not mean_tau.all():
                np.copyto(lr_col, lr * 0.5, where=(mean_tau == 0.0)[:, None])
            adam_update(adam, flat, grad, lr_col)
            # the step's one test: a sum is finite only if its terms are,
            # and a mean only if its sum is
            if not math.isfinite(reduce(sums, None) + reduce(flat, None)):
                _diagnose(runs, it, root, sums[:4] / cfg.batch_size, grad,
                          flat)

            # projected ascent on the mean outage and power slacks
            np.subtract(constrained, dual_bound, out=slack)
            np.maximum(zero, add(duals, np.multiply(dual_lr, slack,
                                                    out=slack), out=slack),
                       out=duals)
            history[it, 1:] = record
            it += 1
    # no step evaluates the last Adam step's weights, so they get one pass
    out = forward_profile(d_all[:cfg.batch_size], mats, p_bar).out
    bad = ~np.isfinite(out)
    if bad.any():
        raise TrainingDiverged(
            f"{_label(runs[_first_run(bad)])}: non-finite network output "
            f"after the Adam step at iteration {it - 1}")
    # the guarded steps are those whose mean clipped latency is 0
    guard_steps = np.count_nonzero(history[:, 1] == 0.0, axis=0)
    return [TrainResult(weights=GcnWeights([m[r].copy() for m in mats],
                                           cfg.seed),
                        history=history[:, :, r], lam=float(lam[r]),
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
