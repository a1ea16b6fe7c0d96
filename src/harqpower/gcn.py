"""Graph-convolutional power policy.

The network maps a session's normalized correlation adjacency to per-round
transmit powers.  Every layer propagates features with the same adjacency:

    V_{l+1} = act_l(A_norm @ V_l @ W_l)

The input feature of every round is the uniform split p_bar / K, so the
learned policy depends on the channel only through the adjacency.  A network
is its list of weight matrices W_0..W_{L-1}: layer l maps n_l features to
n_{l+1}, every layer but the last is relu and the last is linear.  The
output is floored at P_MIN_WATTS, the smallest power a policy may use.

forward() returns a network's pass, plain numpy with a hand-derived
backward; training makes it one op of its autodiff graph.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .types import P_MIN_WATTS

__all__ = ["GcnWeights", "init_weights", "flat_views", "forward",
           "save_checkpoint", "load_checkpoint"]

CHECKPOINT_MAGIC = "HARQPOWER-GCN"
CHECKPOINT_VERSION = 1

# feature widths n_0..n_L of the default architecture; input and output are 1
DEFAULT_DIMS = (1, 16, 32, 16, 2, 1)


@dataclass
class GcnWeights:
    matrices: list = field(default_factory=list)
    seed: int = 0


def _activations(num_layers: int) -> tuple:
    return ("relu",) * (num_layers - 1) + ("linear",)


def init_weights(seed: int) -> GcnWeights:
    """Glorot-uniform DEFAULT_DIMS network, deterministic in `seed`."""
    rng = np.random.default_rng(seed)
    mats = []
    for n_in, n_out in zip(DEFAULT_DIMS[:-1], DEFAULT_DIMS[1:]):
        bound = np.sqrt(6.0 / (n_in + n_out))
        mats.append(rng.uniform(-bound, bound, size=(n_in, n_out)))
    return GcnWeights(matrices=mats, seed=seed)


def flat_views(flat: np.ndarray, like) -> list:
    """Views of the 1-D buffer `flat` shaped like the arrays `like`, laid
    out one after another."""
    ends = np.cumsum([m.size for m in like])[:-1]
    return [part.reshape(m.shape)
            for part, m in zip(np.split(flat, ends), like)]


def _swap(x: np.ndarray) -> np.ndarray:
    return x.swapaxes(-1, -2)


class _Network:
    """One network's pass over fixed shapes, in buffers made once.

    Reads the adjacency and the weight matrices through the arrays given,
    so a caller that refills them in place evaluates the new values.
    Layer l keeps u_l = A @ V_l, its output z_l (relu'd in place but for
    the last layer) and the 0/1 mask of its entries above the floor, which
    are what the backward pass reads.  The masks are float, so that the
    backward products need no cast buffer.  Every view a pass uses is made
    here, or on the first backward pass for the gradient.
    """

    def __init__(self, adjacency, matrices, share, grad):
        self.adjacency, self.matrices = adjacency, matrices
        runs = share.shape
        lead = runs + adjacency.shape[:-1]
        # the input feature of every round: the uniform split p_bar / K
        self.v0 = (share.reshape(runs + (1,) * adjacency.ndim)
                   * np.ones(lead + (1,)))
        self.out = np.empty(lead + (1,))
        # the axes between the run axis and the feature axis are one gemm's
        # rows, so each layer is one (rows, n) x (n, m) product per run; a
        # single network's weights have no run axis, whatever p_bar's shape
        runs = matrices[0].shape[:-2]
        self._rows = lambda x: x.reshape(runs + (-1, x.shape[-1]))
        self.u, self.z, self.mask = [], [], []
        self._layers = []
        last = len(matrices) - 1
        for layer, w in enumerate(matrices):
            u = np.empty(lead + w.shape[-2:-1])
            z = np.empty(lead + w.shape[-1:])
            mask = np.empty(z.shape)
            floor, act = (0.0, z) if layer < last else (P_MIN_WATTS, self.out)
            self._layers.append((u, self._rows(u), w, self._rows(z), z,
                                 np.empty(z.shape, dtype=bool), mask, floor,
                                 act))
            self.u.append(u)
            self.z.append(z)
            self.mask.append(mask)
        self._flat = grad
        self.grad = None

    def forward(self) -> np.ndarray:
        """Run the pass on the arrays' current values; returns `out`."""
        a, v = self.adjacency, self.v0
        for u, u_rows, w, z_rows, z, above, mask, floor, act in self._layers:
            np.matmul(a, v, out=u)
            np.matmul(u_rows, w, out=z_rows)
            np.copyto(mask, np.greater(z, floor, out=above))
            v = np.maximum(z, floor, out=act)
        return self.out

    def _backward_plan(self) -> None:
        if self._flat is None:
            self._flat = np.empty(sum(m.size for m in self.matrices))
        self.grad = flat_views(self._flat, self.matrices)
        self.gz = [np.empty_like(z) for z in self.z]
        a_t = _swap(self.adjacency)
        # per layer from the last: the weight gradient's operands and, below
        # the first layer, the adjoint pushed through w, A and the relu
        self._plan = []
        for layer in range(len(self.matrices) - 1, -1, -1):
            gz = self._rows(self.gz[layer])
            below = None
            if layer:
                gu = np.empty_like(self.u[layer])
                below = (_swap(self.matrices[layer]), gu, self._rows(gu), a_t,
                         self.gz[layer - 1], self.mask[layer - 1])
            self._plan.append((_swap(self._rows(self.u[layer])), gz,
                               self.grad[layer], below))

    def backward(self, g: np.ndarray) -> list:
        """Each layer's weight gradient for the adjoint `g` of `out`, at
        the values of the last forward pass.

        The gradients are views of one flat buffer laid out by flat_views,
        the same list on every call.
        """
        if self.grad is None:
            self._backward_plan()
        np.multiply(g, self.mask[-1], out=self.gz[-1])
        for u_t, gz, grad_w, below in self._plan:
            np.matmul(u_t, gz, out=grad_w)
            if below is not None:
                w_t, gu, gu_rows, a_t, gz_below, mask = below
                np.matmul(gz, w_t, out=gu_rows)
                np.matmul(a_t, gu, out=gz_below)
                np.multiply(gz_below, mask, out=gz_below)
        return self.grad


def forward(adjacency: np.ndarray, matrices, p_bar_w, grad=None) -> _Network:
    """The network's pass on `adjacency`, run once; its powers are `.out`.

    `adjacency` is one (K, K) session or a (B, K, K) stack.  `matrices` are
    the layer weight arrays; every layer but the last applies relu, and the
    output is floored at P_MIN_WATTS.  For one network they are (n, m)
    matrices and `p_bar_w` is a float; `.out` has shape (K, 1) or
    (B, K, 1).  For a stack of R networks they are (R, n, m), `p_bar_w`
    holds the R budgets, and `.out` gains a leading run axis.

    The pass reads the adjacency and the weights through the arrays given
    and writes into buffers it makes once: after a caller refills those
    arrays in place, `.forward()` runs it again.  `.backward(g)` writes
    every layer's weight gradient into one flat buffer (`grad` when given)
    laid out by flat_views, and returns its views.
    """
    adjacency = np.asarray(adjacency, dtype=np.float64)
    k = adjacency.shape[-1]
    if adjacency.ndim not in (2, 3) or adjacency.shape[-2] != k:
        raise ValueError("adjacency must be square")
    if matrices[-1].shape[-1] != 1:
        raise ValueError("final layer must emit one feature per round")
    net = _Network(adjacency, matrices,
                   np.asarray(p_bar_w, dtype=np.float64) / k, grad)
    net.forward()
    return net


def save_checkpoint(path, weights: GcnWeights) -> None:
    """Versioned plain-text serialization; exact round trip via repr floats."""
    mats = weights.matrices
    dims = [mats[0].shape[0]] + [m.shape[1] for m in mats]
    lines = [f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}",
             "dims " + " ".join(str(d) for d in dims),
             "activations " + " ".join(_activations(len(mats))),
             f"seed {weights.seed}"]
    for idx, m in enumerate(weights.matrices):
        lines.append(f"matrix {idx} {m.shape[0]} {m.shape[1]}")
        for row in m:
            lines.append(" ".join(repr(float(x)) for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> GcnWeights:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    head = lines[0].split()
    if head[0] != CHECKPOINT_MAGIC:
        raise ValueError(f"not a checkpoint file: bad magic {head[0]!r}")
    if int(head[1]) != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {head[1]}")
    if not lines[1].startswith("dims ") or not lines[2].startswith("activations "):
        raise ValueError("malformed checkpoint header")
    dims = tuple(int(x) for x in lines[1].split()[1:])
    acts = tuple(lines[2].split()[1:])
    seed = int(lines[3].split()[1])
    if len(dims) < 2 or min(dims) < 1:
        raise ValueError(f"checkpoint dims {dims} need at least one layer "
                         "and positive widths")
    if acts != _activations(len(dims) - 1):
        raise ValueError(f"checkpoint activations {acts} disagree with "
                         f"{_activations(len(dims) - 1)} for dims {dims}")
    mats = []
    pos = 4
    for _ in range(len(dims) - 1):
        tag, _, rows, cols = lines[pos].split()
        if tag != "matrix":
            raise ValueError("malformed checkpoint matrix block")
        rows, cols = int(rows), int(cols)
        block = [[float(x) for x in lines[pos + 1 + r].split()] for r in range(rows)]
        m = np.asarray(block, dtype=np.float64)
        if m.shape != (rows, cols):
            raise ValueError("checkpoint matrix shape mismatch")
        mats.append(m)
        pos += 1 + rows
    expected = list(zip(dims[:-1], dims[1:]))
    actual = [m.shape for m in mats]
    if actual != expected:
        raise ValueError(f"checkpoint matrices {actual} disagree with dims {dims}")
    return GcnWeights(matrices=mats, seed=seed)
