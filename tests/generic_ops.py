"""Generic reverse-mode ops and a finite-difference checker, for the tests.

The program differentiates its two fused ops (the policy network and the
training Lagrangian) by hand.  The ops here are the independent reference
those products are checked against: the Lagrangian rebuilt op by op
(test_acceptance.generic_lagrangian) and central finite differences.  They
build on harqpower.autodiff's Node, op and backward, whose names this
module re-exports, so a test reads every op through one namespace.

Gradient conventions at nondifferentiable points: relu'(0) = 0 and the
derivative of clamp at an exactly-clamped entry is 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from harqpower.autodiff import (Node, _topo_order, backward, constant, op,
                                parameter)
from harqpower.types import P_MIN_WATTS

__all__ = [
    "Node", "add", "backward", "constant", "op", "parameter",
    "multiply", "divide", "matmul", "relu", "clamp", "log", "reduce_sum",
    "GradientReport", "finite_diff_check", "activity_signature",
]


def _unbroadcast(shape, grad_shape):
    """The reduction of a gradient shaped `grad_shape` to an operand's `shape`."""
    lead = len(grad_shape) - len(shape)
    axes = [axis for axis, n in enumerate(shape)
            if n == 1 and grad_shape[lead + axis] != 1]

    def reduce(grad):
        for _ in range(lead):
            grad = grad.sum(axis=0)
        for axis in axes:
            grad = grad.sum(axis=axis, keepdims=True)
        return grad
    return reduce


def add(a: Node, b: Node) -> Node:
    shape = np.broadcast_shapes(a.value.shape, b.value.shape)
    to_a = _unbroadcast(a.value.shape, shape)
    to_b = _unbroadcast(b.value.shape, shape)
    return op("add", lambda: a.value + b.value, (a, b),
              lambda g: (to_a(g), to_b(g)))


def _binary_reducers(a: Node, b: Node):
    shape = np.broadcast_shapes(a.value.shape, b.value.shape)
    return _unbroadcast(a.value.shape, shape), _unbroadcast(b.value.shape, shape)


def multiply(a: Node, b: Node) -> Node:
    to_a, to_b = _binary_reducers(a, b)
    return op("multiply", lambda: a.value * b.value, (a, b),
              lambda g: (to_a(g * b.value), to_b(g * a.value)))


def divide(a: Node, b: Node) -> Node:
    def compute():
        if (b.value == 0.0).any():
            raise ZeroDivisionError("divide: zero denominator entry")
        return a.value / b.value
    to_a, to_b = _binary_reducers(a, b)
    return op("divide", compute, (a, b),
              lambda g: (to_a(g / b.value),
                         to_b(-g * a.value / (b.value * b.value))))


def _swap(x: np.ndarray) -> np.ndarray:
    return x.swapaxes(-1, -2)


def matmul(a: Node, b: Node) -> Node:
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")
    # g @ b^T and a^T @ g carry the product's batch axes
    batch = np.broadcast_shapes(a.value.shape[:-2], b.value.shape[:-2])
    to_a = _unbroadcast(a.value.shape, batch + a.value.shape[-2:])
    to_b = _unbroadcast(b.value.shape, batch + b.value.shape[-2:])
    return op("matmul", lambda: a.value @ b.value, (a, b),
              lambda g: (to_a(g @ _swap(b.value)), to_b(_swap(a.value) @ g)))


def relu(a: Node) -> Node:
    return op("relu", lambda: np.maximum(a.value, 0.0), (a,),
              lambda g: (g * (a.value > 0.0),))


def clamp(a: Node, lo=None, hi=None) -> Node:
    """Elementwise clamp to [lo, hi]; gradient is zero outside the open interval."""
    if lo is None and hi is None:
        raise ValueError("clamp needs at least one bound")

    def compute():
        out = a.value
        if lo is not None:
            out = np.maximum(out, lo)
        if hi is not None:
            out = np.minimum(out, hi)
        return out

    def vjp(g):
        if hi is None:
            return (g * (a.value > lo),)
        if lo is None:
            return (g * (a.value < hi),)
        return (g * ((a.value > lo) & (a.value < hi)),)
    return op("clamp", compute, (a,), vjp)


def log(a: Node) -> Node:
    def compute():
        if (a.value <= 0.0).any():
            raise ValueError("log: nonpositive entry")
        return np.log(a.value)
    return op("log", compute, (a,), lambda g: (g / a.value,))


def reduce_sum(a: Node) -> Node:
    return op("sum", lambda: a.value.sum(), (a,),
              lambda g: (np.full(a.value.shape, g),))


@dataclass
class GradientReport:
    grads: list
    max_rel_error: float | None = None


def activity_signature(root: Node) -> list:
    """Boolean activity masks of every relu/clamp node, in topological order.

    A policy network op (the pass of gcn.forward) contributes its kinks,
    which its backward pass reads: the sign masks of its hidden units and
    the mask of its outputs above the power floor.  Two evaluations of the
    same builder with different parameter values are finite-difference
    comparable only when their signatures match.
    """
    sig = []
    for node in _topo_order(root):
        if node.kind == "relu":
            sig.append(node.parents[0].value > 0.0)
        elif node.kind == "clamp":
            sig.append(node.value == node.parents[0].value)
        elif node.kind == "gcn":
            net = node.compute.__self__
            sig.extend(mask.copy() for mask in net.mask)
            sig.append(net.out > P_MIN_WATTS)
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
