"""Graph-convolutional power policy.

The network maps a session's normalized correlation adjacency to per-round
transmit powers.  Every layer propagates features with the same adjacency:

    V_{l+1} = act_l(A_norm @ V_l @ W_l)

The input feature of every round is the uniform split p_bar / K, so the
learned policy depends on the channel only through the adjacency.  A network
is its list of weight matrices W_0..W_{L-1}: layer l maps n_l features to
n_{l+1}, every layer but the last is relu and the last is linear.  The
output is floored at P_MIN_WATTS, the smallest power a policy may use.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .types import P_MIN_WATTS

__all__ = ["GcnWeights", "init_weights", "forward", "save_checkpoint",
           "load_checkpoint"]

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


def forward(adjacency: np.ndarray, matrices, p_bar_w) -> ad.Node:
    """Per-round powers floored at P_MIN_WATTS, as an autodiff node.

    `adjacency` is one (K, K) session or a (B, K, K) stack.  `matrices` are
    the layer weights as autodiff nodes: parameters to differentiate through
    the network, constants to just evaluate it.  Every layer but the last
    applies relu.  For one network they are (n, m) matrices and `p_bar_w`
    is a float; the output has shape (K, 1) or (B, K, 1).  For a stack of R
    networks they are (R, n, m), `p_bar_w` holds the R budgets, and the
    output gains a leading run axis.
    """
    k = adjacency.shape[-1]
    if adjacency.ndim not in (2, 3) or adjacency.shape[-2] != k:
        raise ValueError("adjacency must be square")
    share = np.asarray(p_bar_w, dtype=np.float64) / k
    runs = share.shape
    a = ad.constant(adjacency)
    v = ad.constant(share.reshape(runs + (1,) * adjacency.ndim)
                    * np.ones(runs + adjacency.shape[:-1] + (1,)))
    for layer, w in enumerate(matrices):
        v = ad.dense(ad.matmul(a, v), w)
        if layer < len(matrices) - 1:
            v = ad.relu(v)
    if v.value.shape[-1] != 1:
        raise ValueError("final layer must emit one feature per round")
    return ad.clamp(v, lo=P_MIN_WATTS)


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
