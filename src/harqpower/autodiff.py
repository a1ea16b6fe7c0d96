"""Minimal reverse-mode automatic differentiation on dense numpy arrays.

Graphs are built eagerly: every operation computes its value on creation and
remembers, per parent, how to push an adjoint back to it.  backward() walks
the graph in reverse topological order, so each node's adjoint is complete
before it is propagated, and it visits only nodes with a parameter ancestor:
constant subgraphs (inputs, selectors, dual constants) get no adjoint.  No
global tape is kept; separate graphs never share state and may be evaluated
concurrently.

Gradient conventions at nondifferentiable points: relu'(0) = 0 and the
derivative of clamp at an exactly-clamped entry is 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Node", "constant", "parameter", "add", "multiply", "divide", "negate",
    "matmul", "dense", "relu", "clamp", "log", "reduce_sum",
    "backward", "GradientReport", "finite_diff_check", "activity_signature",
]


class Node:
    __slots__ = ("value", "adjoint", "parents", "pushes", "kind")
    # numpy defers to the reflected operators below, so `ndarray / Node`
    # builds a Node instead of an object array of per-element Nodes
    __array_ufunc__ = None

    def __init__(self, value, parents=(), pushes=(), kind="constant"):
        self.value = np.asarray(value, dtype=np.float64)
        self.adjoint = None
        self.parents = parents
        # pushes[i](g) maps this node's adjoint g to parents[i]'s contribution
        self.pushes = pushes
        self.kind = kind

    # convenience operators; all dispatch to the module-level ops
    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __mul__(self, other):
        return multiply(self, _lift(other))

    def __rmul__(self, other):
        return multiply(_lift(other), self)

    def __truediv__(self, other):
        return divide(self, _lift(other))

    def __rtruediv__(self, other):
        return divide(_lift(other), self)

    def __neg__(self):
        return negate(self)

    def __sub__(self, other):
        return add(self, negate(_lift(other)))

    def __rsub__(self, other):
        return add(_lift(other), negate(self))

    def __matmul__(self, other):
        return matmul(self, _lift(other))

    def __repr__(self):
        return f"Node({self.kind}, shape={self.value.shape})"


def _lift(x):
    return x if isinstance(x, Node) else Node(x)


def constant(value) -> Node:
    return Node(value, kind="constant")


def parameter(value) -> Node:
    return Node(value, kind="parameter")


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a: Node, b: Node) -> Node:
    return Node(a.value + b.value, (a, b),
                (lambda g: _unbroadcast(g, a.value.shape),
                 lambda g: _unbroadcast(g, b.value.shape)), "add")


def multiply(a: Node, b: Node) -> Node:
    return Node(a.value * b.value, (a, b),
                (lambda g: _unbroadcast(g * b.value, a.value.shape),
                 lambda g: _unbroadcast(g * a.value, b.value.shape)),
                "multiply")


def divide(a: Node, b: Node) -> Node:
    if np.any(b.value == 0.0):
        raise ZeroDivisionError("divide: zero denominator entry")
    return Node(a.value / b.value, (a, b),
                (lambda g: _unbroadcast(g / b.value, a.value.shape),
                 lambda g: _unbroadcast(-g * a.value / (b.value * b.value),
                                        b.value.shape)), "divide")


def negate(a: Node) -> Node:
    return Node(-a.value, (a,), (lambda g: -g,), "negate")


def _swap(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def matmul(a: Node, b: Node) -> Node:
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")
    return Node(a.value @ b.value, (a, b),
                (lambda g: _unbroadcast(g @ _swap(b.value), a.value.shape),
                 lambda g: _unbroadcast(_swap(a.value) @ g, b.value.shape)),
                "matmul")


def dense(x: Node, w: Node) -> Node:
    """Dense layer x @ w over the last axis of x, one gemm per weight matrix.

    `w` is one (n, m) matrix, or a stack (R, n, m) of one matrix per run
    with `x` shaped (R, ..., n).  The axes of x between the run axis and the
    feature axis are flattened into the gemm's rows, so the forward pass and
    the weight gradient are each one (rows, n) x (n, m) product per run,
    not one small product per sample summed afterwards.
    """
    n, m = w.value.shape[-2:]
    if w.value.ndim not in (2, 3) or x.value.shape[-1] != n:
        raise ValueError("dense needs x (..., n) and w (n, m) or (R, n, m)")
    rows = x.value.reshape(w.value.shape[:-2] + (-1, n))
    out_shape = x.value.shape[:-1] + (m,)

    def flat(g):
        return g.reshape(w.value.shape[:-2] + (-1, m))
    return Node((rows @ w.value).reshape(out_shape), (x, w),
                (lambda g: (flat(g) @ _swap(w.value)).reshape(x.value.shape),
                 lambda g: _swap(rows) @ flat(g)), "dense")


def relu(a: Node) -> Node:
    return Node(np.maximum(a.value, 0.0), (a,),
                (lambda g: g * (a.value > 0.0),), "relu")


def clamp(a: Node, lo=None, hi=None) -> Node:
    """Elementwise clamp to [lo, hi]; gradient is zero outside the open interval."""
    if lo is None and hi is None:
        raise ValueError("clamp needs at least one bound")
    out = a.value
    if lo is not None:
        out = np.maximum(out, lo)
    if hi is not None:
        out = np.minimum(out, hi)
    inside = np.ones_like(a.value, dtype=bool)
    if lo is not None:
        inside &= a.value > lo
    if hi is not None:
        inside &= a.value < hi
    return Node(out, (a,), (lambda g: g * inside,), "clamp")


def log(a: Node) -> Node:
    if np.any(a.value <= 0.0):
        raise ValueError("log: nonpositive entry")
    return Node(np.log(a.value), (a,), (lambda g: g / a.value,), "log")


def reduce_sum(a: Node) -> Node:
    return Node(a.value.sum(), (a,),
                (lambda g: np.broadcast_to(g, a.value.shape),), "sum")


def _topo_order(root: Node) -> list:
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    return order


@dataclass
class GradientReport:
    grads: list
    max_rel_error: float | None = None


def backward(root: Node) -> None:
    """Accumulate adjoints of `root` (must be scalar) into the graph.

    Only nodes with a parameter ancestor (parameters included) receive an
    adjoint; every other node's adjoint is None.  Adjoints are
    zero-initialized on every call, so repeated backward passes over the
    same graph are idempotent, and a parameter whose gradient vanishes gets
    a zero array.
    """
    if root.value.shape != ():
        raise ValueError("backward root must be scalar")
    order = _topo_order(root)
    # parents precede their children; a live node starts from the scalar
    # 0.0, which its first contribution broadcasts to the node's shape
    # exactly as a zero array would
    for node in order:
        live = node.kind == "parameter" or any(
            p.adjoint is not None for p in node.parents)
        node.adjoint = 0.0 if live else None
    if root.adjoint is not None:
        root.adjoint = np.ones_like(root.value)
    for node in reversed(order):
        if node.adjoint is None:
            continue
        for parent, push in zip(node.parents, node.pushes):
            if parent.adjoint is not None:
                parent.adjoint = parent.adjoint + push(node.adjoint)


def activity_signature(root: Node) -> list:
    """Boolean activity masks of every relu/clamp node, in topological order.

    Two evaluations of the same builder with different parameter values are
    finite-difference comparable only when their signatures match.
    """
    sig = []
    for node in _topo_order(root):
        if node.kind == "relu":
            sig.append(node.parents[0].value > 0.0)
        elif node.kind == "clamp":
            sig.append(node.value == node.parents[0].value)
    return sig


def _same_signature(a, b) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def finite_diff_check(build, values, step: float = 1e-4) -> GradientReport:
    """Compare autodiff gradients against central finite differences.

    build(params) must return a scalar Node given a list of parameter Nodes
    created from `values`.  Entries whose +/-step evaluations land in
    different relu/clamp activity regions are excluded from the error (the
    two-sided difference is meaningless across a kink).  Returns the
    autodiff gradients plus the max relative error over included entries.
    """
    params = [parameter(v) for v in values]
    root = build(params)
    backward(root)
    grads = [p.adjoint.copy() for p in params]

    max_rel = 0.0
    for i, base in enumerate(values):
        base = np.asarray(base, dtype=np.float64)
        flat = base.reshape(-1)
        for j in range(flat.size):
            bumped = []
            sigs = []
            for sgn in (+1.0, -1.0):
                v = base.copy().reshape(-1)
                v[j] += sgn * step
                trial = [np.asarray(x, dtype=np.float64) for x in values]
                trial[i] = v.reshape(base.shape)
                r = build([parameter(x) for x in trial])
                bumped.append(float(r.value))
                sigs.append(activity_signature(r))
            if not _same_signature(sigs[0], sigs[1]):
                continue
            fd = (bumped[0] - bumped[1]) / (2.0 * step)
            ad = grads[i].reshape(-1)[j]
            denom = max(abs(fd), abs(ad), 1e-12)
            max_rel = max(max_rel, abs(fd - ad) / denom)
    return GradientReport(grads=grads, max_rel_error=max_rel)
