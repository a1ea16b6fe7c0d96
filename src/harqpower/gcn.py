"""Graph-convolutional power policy.

The network maps a session's normalized correlation adjacency to per-round
transmit powers.  Every layer propagates features with the same adjacency:

    V_{l+1} = act_l(A_norm @ V_l @ W_l)

The input feature of every round is the uniform split p_bar / K, so the
learned policy depends on the channel only through the adjacency.  A network
is its list of weight matrices W_0..W_{L-1}: layer l maps n_l features to
n_{l+1}, every layer but the last is relu and the last is linear.  The
output is floored at P_MIN_WATTS, the smallest power a policy may use.

The layers have no bias, the input is the constant c = p_bar / K >= 0 and
A_norm is entrywise >= 0, so relu(t x) = t relu(x) for t >= 0 makes layer
l's activations the outer product c (A_norm^l 1) psi_{l-1}, where psi_0 =
W_0 and psi_l = relu(psi_{l-1}) @ W_l depend on the weights alone.  The
network is exactly p = max(P_MIN_WATTS, c * phi * A_norm^L 1), phi the
1 x 1 psi_{L-1}: one scalar scales a fixed correlation-shaped profile, and
phi <= 0 is a dead network.  profile() builds d = A_norm^L 1 (rejecting a
negative adjacency entry, where the form fails), training once per run for
every sample; forward_profile() is the pass on d, plain numpy with a
hand-derived backward, and forward() the two on one adjacency.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .types import P_MIN_WATTS

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
    """Views of `flat` shaped like the last two axes of the matrices `like`,
    one after another along its last axis: a 1-D buffer gives one network's
    (n, m) matrices, an (R, P) buffer the (R, n, m) stacks, row r run r's."""
    ends = np.cumsum([m.shape[-2] * m.shape[-1] for m in like])[:-1]
    return [part.reshape(flat.shape[:-1] + m.shape[-2:])
            for part, m in zip(np.split(flat, ends, axis=-1), like)]


def _swap(x: np.ndarray) -> np.ndarray:
    return x.swapaxes(-1, -2)


class _Network:
    """One network's pass over fixed shapes, in its rank-one form, in
    buffers made once.

    Reads the profile d = A^L 1 and the weight matrices through the arrays
    given, so a caller that refills them in place evaluates the new values.
    The pass keeps the chain psi_l, relu(psi_l) and the 0/1 mask of the live
    hidden units (`mask`, one per hidden layer), which with `out` are what
    the backward pass reads.  The masks are float, so that the backward
    products need no cast buffer.
    """

    def __init__(self, d, matrices, share, grad):
        self.d, self.matrices = d, matrices
        runs, k_axes = share.shape, (1,) * d.ndim
        self.share = share.reshape(runs + k_axes)
        # psi_0 is W_0 itself, a (1, n_1) row per run; phi is the last psi
        self.psi = [matrices[0]] + [np.empty(w.shape[:-2] + (1, w.shape[-1]))
                                    for w in matrices[1:]]
        self.relu = [np.empty_like(p) for p in self.psi[:-1]]
        self.mask = [np.empty_like(p) for p in self.psi[:-1]]
        self._phi = self.psi[-1].reshape(self.psi[-1].shape[:-2] + k_axes)
        self._scale = np.empty(np.broadcast_shapes(self.share.shape,
                                                   self._phi.shape))
        self.out = np.empty(runs + d.shape)
        # the backward pass: the adjoint of out, of phi per run and of each
        # psi, psi_0's being W_0's gradient in the gradient buffer
        size = sum(m.shape[-2] * m.shape[-1] for m in matrices)
        self.grad = flat_views(np.empty(matrices[0].shape[:-2] + (size,))
                               if grad is None else grad, matrices)
        self._g = np.empty(self.out.shape)
        self._g_rows = self._g.reshape(runs + (-1,))
        self._g_psi = self.grad[:1] + [np.empty_like(p) for p in self.psi[1:]]
        self._g_phi = self._g_psi[-1].reshape(runs)
        self._share_runs = share.reshape(runs)
        self._plan = [(_swap(self.relu[layer - 1]), self._g_psi[layer],
                       self.grad[layer], _swap(self.matrices[layer]),
                       self._g_psi[layer - 1], self.mask[layer - 1])
                      for layer in range(len(matrices) - 1, 0, -1)]

    def forward(self) -> np.ndarray:
        """Run the pass on the arrays' current values; returns `out`."""
        for psi, w, relu, mask, nxt in zip(self.psi, self.matrices[1:],
                                           self.relu, self.mask,
                                           self.psi[1:]):
            np.matmul(np.maximum(psi, 0.0, out=relu), w, out=nxt)
            np.sign(relu, out=mask)
        np.multiply(self.share, self._phi, out=self._scale)
        np.multiply(self._scale, self.d, out=self.out)
        return np.maximum(self.out, P_MIN_WATTS, out=self.out)

    def backward(self, g: np.ndarray) -> list:
        """Each layer's weight gradient for the adjoint `g` of `out`, at
        the values of the last forward pass.

        The gradients are views of one buffer laid out by flat_views, the
        same list on every call.
        """
        # above the floor out = (p_bar / K) phi d, so phi's adjoint is
        # (p_bar / K) sum(g d) over those outputs; out - P_MIN_WATTS is 0 on
        # the floor and exactly nonzero above it, so its sign is the 0/1 mask
        np.subtract(self.out, P_MIN_WATTS, out=self._g)
        np.sign(self._g, out=self._g)
        np.multiply(self._g, g, out=self._g)
        np.multiply(self._g, self.d, out=self._g)
        np.sum(self._g_rows, axis=-1, out=self._g_phi)
        np.multiply(self._g_phi, self._share_runs, out=self._g_phi)
        for relu_t, g_psi, grad_w, w_t, below, mask in self._plan:
            np.multiply(relu_t, g_psi, out=grad_w)
            np.matmul(g_psi, w_t, out=below)
            np.multiply(below, mask, out=below)
        return self.grad


def profile(adjacency: np.ndarray, depth: int) -> np.ndarray:
    """A^depth 1 of one (K, K) adjacency or a (B, K, K) stack, entrywise
    >= 0, shaped (K, 1) or (B, K, 1).  np.matmul takes a stack's matrices
    one by one, so its rows are the profiles of its matrices alone."""
    adjacency = np.asarray(adjacency, dtype=np.float64)
    k = adjacency.shape[-1]
    if adjacency.ndim not in (2, 3) or adjacency.shape[-2] != k:
        raise ValueError("adjacency must be square")
    if np.any(adjacency < 0.0):
        raise ValueError("adjacency entries must be nonnegative")
    d = np.ones(adjacency.shape[:-1] + (1,))
    for _ in range(depth):
        d = adjacency @ d
    return d


def forward_profile(d: np.ndarray, matrices, p_bar_w, grad=None) -> _Network:
    """The network's pass on the profile `d` = A^L 1, run once; its powers
    are `.out`, shaped like `d`: one (K, 1) profile or a (B, K, 1) stack.

    `matrices` are the layer weight arrays, the first taking one feature and
    the last emitting one, (n, m) for one network with one budget `p_bar_w`
    >= 0 (given as a (1,) array, `.out` gains a run axis of 1), or (R, n,
    m) for a stack of R networks with the R budgets in `p_bar_w`, where
    `.out` gains a leading run axis; ValueError names both counts when they
    differ.  The pass reads `d` and the weights through the arrays given
    and writes into buffers it makes once: after a caller refills those
    arrays in place, `.forward()` runs it again.  `.backward(g)` writes
    every layer's weight gradient into one buffer (`grad` when given) laid
    out by flat_views, 1-D for one network and (R, P) for a stack, and
    returns its views.
    """
    if d.ndim not in (2, 3) or d.shape[-1] != 1:
        raise ValueError("a profile must be (K, 1) or (B, K, 1)")
    if matrices[0].shape[-2] != 1 or matrices[-1].shape[-1] != 1:
        raise ValueError("the network must map one feature per round to one")
    share = np.asarray(p_bar_w, dtype=np.float64) / d.shape[-2]
    runs = matrices[0].shape[:-2]
    if share.size != math.prod(runs):
        raise ValueError(f"p_bar_w's budget count {share.size} does not "
                         f"match the network count {math.prod(runs)}")
    if np.any(share < 0.0):
        raise ValueError("p_bar_w must be nonnegative")
    # a stack's budgets take its run shape; one network keeps its budget's
    net = _Network(d, matrices, share.reshape(runs or share.shape), grad)
    net.forward()
    return net


def forward(adjacency: np.ndarray, matrices, p_bar_w) -> _Network:
    """forward_profile's pass on profile(adjacency, len(matrices))."""
    return forward_profile(profile(adjacency, len(matrices)), matrices,
                           p_bar_w)


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
    """The network save_checkpoint wrote to `path`.

    OSError when the file cannot be read; any other fault, a non-finite
    weight among them, raises one ValueError naming the file and the fault.
    """
    try:
        with open(path) as fh:
            return _parse_checkpoint(iter([ln.split() for ln in fh
                                           if ln.strip()]))
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None


def _fields(lines, tag: str, count=None) -> list:
    """The fields after `tag` on the next line, `count` of them if given."""
    fields = next(lines, None)
    if fields is None:
        raise ValueError(f"the file ends before its {tag} line")
    if fields[0] != tag or count not in (None, len(fields) - 1):
        raise ValueError(f"expected a {tag} line, got {' '.join(fields)!r}")
    return fields[1:]


def _parse_checkpoint(lines) -> GcnWeights:
    head = next(lines, None)
    if head is None:
        raise ValueError("the file is empty")
    if head[0] != CHECKPOINT_MAGIC:
        raise ValueError(f"not a checkpoint file: bad magic {head[0]!r}")
    if head[1:] != [str(CHECKPOINT_VERSION)]:
        raise ValueError("unsupported checkpoint version "
                         f"{' '.join(head[1:])!r}")
    dims = tuple(int(x) for x in _fields(lines, "dims"))
    acts = tuple(_fields(lines, "activations"))
    (seed,) = (int(x) for x in _fields(lines, "seed", 1))
    if len(dims) < 2 or min(dims) < 1:
        raise ValueError(f"dims {dims} need at least one layer and positive "
                         "widths")
    if acts != _activations(len(dims) - 1):
        raise ValueError(f"activations {acts} disagree with "
                         f"{_activations(len(dims) - 1)} for dims {dims}")
    mats = []
    for idx, shape in enumerate(zip(dims[:-1], dims[1:])):
        if tuple(int(x) for x in _fields(lines, "matrix", 3)) != (idx, *shape):
            raise ValueError(f"matrix {idx} is not headed 'matrix {idx} "
                             f"{shape[0]} {shape[1]}', as dims {dims} give")
        rows = list(itertools.islice(lines, shape[0]))
        if len(rows) < shape[0] or any(len(r) != shape[1] for r in rows):
            raise ValueError(f"matrix {idx} is not {shape[0]} rows of "
                             f"{shape[1]} numbers")
        mats.append(np.array([[float(x) for x in row] for row in rows]))
        if not np.isfinite(mats[-1]).all():
            raise ValueError(f"matrix {idx} holds a non-finite weight")
    if next(lines, None) is not None:
        raise ValueError("lines follow the last matrix")
    return GcnWeights(matrices=mats, seed=seed)
