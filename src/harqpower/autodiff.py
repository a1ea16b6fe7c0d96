"""Minimal reverse-mode automatic differentiation on dense numpy arrays.

Graphs are built eagerly: every operation computes its value on creation and
remembers how to push an adjoint back to its parents.  backward() walks the
graph in reverse topological order, so each node's adjoint is complete before
it is propagated.  No global tape is kept; separate graphs never share state
and may be evaluated concurrently.

Gradient conventions at nondifferentiable points: relu'(0) = 0 and the
derivative of clamp at an exactly-clamped entry is 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Node", "constant", "parameter", "add", "multiply", "divide", "negate",
    "matmul", "relu", "clamp", "log", "reduce_sum",
    "backward", "GradientReport", "finite_diff_check", "activity_signature",
]


class Node:
    __slots__ = ("value", "adjoint", "parents", "grad_fn", "kind")
    # numpy defers to the reflected operators below, so `ndarray / Node`
    # builds a Node instead of an object array of per-element Nodes
    __array_ufunc__ = None

    def __init__(self, value, parents=(), grad_fn=None, kind="constant"):
        self.value = np.asarray(value, dtype=np.float64)
        self.adjoint = None
        self.parents = parents
        self.grad_fn = grad_fn
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
    def push(g, out):
        return (_unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape))
    return Node(a.value + b.value, (a, b), push, "add")


def multiply(a: Node, b: Node) -> Node:
    def push(g, out):
        return (_unbroadcast(g * b.value, a.value.shape),
                _unbroadcast(g * a.value, b.value.shape))
    return Node(a.value * b.value, (a, b), push, "multiply")


def divide(a: Node, b: Node) -> Node:
    if np.any(b.value == 0.0):
        raise ZeroDivisionError("divide: zero denominator entry")
    def push(g, out):
        return (_unbroadcast(g / b.value, a.value.shape),
                _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape))
    return Node(a.value / b.value, (a, b), push, "divide")


def negate(a: Node) -> Node:
    def push(g, out):
        return (-g,)
    return Node(-a.value, (a,), push, "negate")


def _swap(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def matmul(a: Node, b: Node) -> Node:
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")
    def push(g, out):
        return (_unbroadcast(g @ _swap(b.value), a.value.shape),
                _unbroadcast(_swap(a.value) @ g, b.value.shape))
    return Node(a.value @ b.value, (a, b), push, "matmul")


def relu(a: Node) -> Node:
    out = np.maximum(a.value, 0.0)
    def push(g, o):
        return (g * (a.value > 0.0),)
    return Node(out, (a,), push, "relu")


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
    def push(g, o):
        return (g * inside,)
    return Node(out, (a,), push, "clamp")


def log(a: Node) -> Node:
    if np.any(a.value <= 0.0):
        raise ValueError("log: nonpositive entry")
    def push(g, out):
        return (g / a.value,)
    return Node(np.log(a.value), (a,), push, "log")


def reduce_sum(a: Node) -> Node:
    def push(g, out):
        return (np.broadcast_to(g, a.value.shape),)
    return Node(a.value.sum(), (a,), push, "sum")


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


def backward(root: Node, params=()) -> GradientReport:
    """Accumulate adjoints of `root` (must be scalar) into the graph.

    Adjoints are zero-initialized on every call, so repeated backward passes
    over the same graph are idempotent.
    """
    if root.value.shape != ():
        raise ValueError("backward root must be scalar")
    order = _topo_order(root)
    for node in order:
        node.adjoint = np.zeros_like(node.value)
    root.adjoint = np.ones_like(root.value)
    for node in reversed(order):
        if node.grad_fn is None:
            continue
        contribs = node.grad_fn(node.adjoint, node.value)
        for parent, g in zip(node.parents, contribs):
            parent.adjoint = parent.adjoint + g
    return GradientReport(grads=[p.adjoint for p in params])


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
    backward(root, params)
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
