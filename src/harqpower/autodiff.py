"""Minimal reverse-mode automatic differentiation on dense numpy arrays.

Every operation computes its value on creation and remembers two things: its
forward function of its parents' current values, and, per parent, how to
push an adjoint back to it.  Both read the parents' `.value` when they are
called, so a graph whose leaves change in place can be evaluated again
without rebuilding it.  op() builds such a node; the ops below use it, and
so does any fused op of a caller's own, such as training's Lagrangian.

Tape(root) records the graph under a scalar root once: its topological
order, the op nodes to recompute and the nodes with a parameter ancestor,
each with the pushes to its live parents.  tape.replay() recomputes every op
node from the leaves' current values; tape.backward() accumulates adjoints
in reverse topological order, so each node's adjoint is complete before it
is propagated, and constant subgraphs (inputs, fixed operands) get no
adjoint.  backward(root) is Tape(root).backward().  A tape belongs to its
graph: separate graphs never share state and may be evaluated concurrently.

Gradient conventions at nondifferentiable points: relu'(0) = 0 and the
derivative of clamp at an exactly-clamped entry is 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Node", "constant", "parameter", "op", "add", "multiply", "divide",
    "matmul", "dense", "relu", "clamp", "log", "reduce_sum",
    "Tape", "backward", "GradientReport", "finite_diff_check",
    "activity_signature",
]


class Node:
    __slots__ = ("value", "adjoint", "parents", "pushes", "kind", "compute")

    def __init__(self, value, parents=(), pushes=(), kind="constant",
                 compute=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.adjoint = None
        self.parents = parents
        # pushes[i](g) maps this node's adjoint g to parents[i]'s contribution
        self.pushes = pushes
        self.kind = kind
        # compute() is this op's value from its parents' current values;
        # None for leaves
        self.compute = compute

    def __repr__(self):
        return f"Node({self.kind}, shape={self.value.shape})"


def constant(value) -> Node:
    return Node(value, kind="constant")


def parameter(value) -> Node:
    return Node(value, kind="parameter")


def op(kind: str, compute, parents, pushes) -> Node:
    """An op node valued compute(), which Tape.replay() calls again;
    pushes[i](g) maps its adjoint g to parents[i]'s contribution."""
    return Node(compute(), parents, pushes, kind, compute)


def _identity(grad):
    return grad


def _unbroadcast(shape, grad_shape):
    """The reduction of a gradient shaped `grad_shape` to an operand's `shape`.

    The summed axes are fixed by the two shapes, so an op works them out
    once; an operand that was not broadcast gets the identity.
    """
    lead = len(grad_shape) - len(shape)
    axes = [axis for axis, n in enumerate(shape)
            if n == 1 and grad_shape[lead + axis] != 1]
    if not lead and not axes:
        return _identity

    def reduce(grad):
        for _ in range(lead):
            grad = grad.sum(axis=0)
        for axis in axes:
            grad = grad.sum(axis=axis, keepdims=True)
        return grad
    return reduce


def _binary_reducers(a: Node, b: Node):
    shape = np.broadcast_shapes(a.value.shape, b.value.shape)
    return _unbroadcast(a.value.shape, shape), _unbroadcast(b.value.shape, shape)


def add(a: Node, b: Node) -> Node:
    return op("add", lambda: a.value + b.value, (a, b), _binary_reducers(a, b))


def multiply(a: Node, b: Node) -> Node:
    to_a, to_b = _binary_reducers(a, b)
    return op("multiply", lambda: a.value * b.value, (a, b),
              (lambda g: to_a(g * b.value), lambda g: to_b(g * a.value)))


def divide(a: Node, b: Node) -> Node:
    def compute():
        if (b.value == 0.0).any():
            raise ZeroDivisionError("divide: zero denominator entry")
        return a.value / b.value
    to_a, to_b = _binary_reducers(a, b)
    return op("divide", compute, (a, b),
              (lambda g: to_a(g / b.value),
               lambda g: to_b(-g * a.value / (b.value * b.value))))


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
              (lambda g: to_a(g @ _swap(b.value)),
               lambda g: to_b(_swap(a.value) @ g)))


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
    runs = w.value.shape[:-2]
    out_shape = x.value.shape[:-1] + (m,)

    def rows():
        return x.value.reshape(runs + (-1, n))

    def flat(g):
        return g.reshape(runs + (-1, m))
    return op("dense", lambda: (rows() @ w.value).reshape(out_shape), (x, w),
              (lambda g: (flat(g) @ _swap(w.value)).reshape(x.value.shape),
               lambda g: _swap(rows()) @ flat(g)))


def relu(a: Node) -> Node:
    return op("relu", lambda: np.maximum(a.value, 0.0), (a,),
              (lambda g: g * (a.value > 0.0),))


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

    def push(g):
        if hi is None:
            return g * (a.value > lo)
        if lo is None:
            return g * (a.value < hi)
        return g * ((a.value > lo) & (a.value < hi))
    return op("clamp", compute, (a,), (push,))


def log(a: Node) -> Node:
    def compute():
        if (a.value <= 0.0).any():
            raise ValueError("log: nonpositive entry")
        return np.log(a.value)
    return op("log", compute, (a,), (lambda g: g / a.value,))


def reduce_sum(a: Node) -> Node:
    return op("sum", lambda: a.value.sum(), (a,),
              (lambda g: np.full(a.value.shape, g),))


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


class Tape:
    """The graph under a scalar root, recorded once and run many times.

    The graph's shapes must stay fixed: refill its leaves in place, then
    replay() to recompute every op node and backward() to accumulate the
    adjoints of the new values.
    """

    def __init__(self, root: Node):
        if root.value.shape != ():
            raise ValueError("backward root must be scalar")
        order = _topo_order(root)
        self.root = root
        self._ops = [node for node in order if node.compute is not None]
        # parents precede their children, so one pass marks every node
        # with a parameter ancestor; the others never get an adjoint
        for node in order:
            live = node.kind == "parameter" or any(
                p.adjoint is not None for p in node.parents)
            node.adjoint = 0.0 if live else None
        self._plan = [(node, tuple((p, push) for p, push
                                   in zip(node.parents, node.pushes)
                                   if p.adjoint is not None))
                      for node in reversed(order) if node.adjoint is not None]

    def replay(self) -> None:
        """Recompute every op node, in order, from its parents' values.

        Raises as the ops do on creation: ZeroDivisionError on a zero
        denominator in divide, ValueError on a nonpositive log entry.
        """
        for node in self._ops:
            node.value = np.asarray(node.compute(), dtype=np.float64)

    def backward(self) -> None:
        """Accumulate adjoints of the root into the live nodes.

        Every call starts the adjoints afresh, so repeated passes over the
        same values are idempotent, and a parameter whose gradient vanishes
        gets a zero array.
        """
        # a live node's first contribution becomes its adjoint as it is
        # (adding it to zero would change only the sign of zero entries);
        # contributions are never written in place, so an adjoint may
        # share memory with another node's
        for node, _ in self._plan:
            node.adjoint = None
        if self._plan:
            self.root.adjoint = np.ones_like(self.root.value)
        for node, edges in self._plan:
            g = node.adjoint
            for parent, push in edges:
                if parent.adjoint is None:
                    parent.adjoint = push(g)
                else:
                    parent.adjoint = parent.adjoint + push(g)


@dataclass
class GradientReport:
    grads: list
    max_rel_error: float | None = None


def backward(root: Node) -> None:
    """Accumulate adjoints of `root` (must be scalar) into the graph.

    Only nodes with a parameter ancestor (parameters included) receive an
    adjoint; every other node's adjoint is None.  Same as Tape(root).backward().
    """
    Tape(root).backward()


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
