"""Minimal reverse-mode automatic differentiation on dense numpy arrays.

Every operation computes its value on creation and remembers two things: its
forward function of its parents' current values, and its vector-Jacobian
product, which maps an adjoint of its value to one contribution per parent.
Both read the parents' `.value` when they are called, so a graph whose
leaves change in place can be evaluated again by calling each op's
compute() in order, without rebuilding it.  op() builds such a node.  The
module defines no op of its own: the program's one graph is training's,
two fused ops with hand-derived products (the policy network's pass and
the Lagrangian), which train_stack drives by calling them directly.

backward(root) differentiates the graph under a scalar root at its current
values: it orders the nodes topologically, marks those with a parameter
ancestor, and accumulates their adjoints in reverse order, so each node's
adjoint is complete before it is propagated and constant subgraphs
(inputs, fixed operands) get no adjoint.  It keeps no state between calls:
separate graphs may be differentiated concurrently.
"""
from __future__ import annotations

import numpy as np

__all__ = ["Node", "constant", "parameter", "op", "backward"]


class Node:
    __slots__ = ("value", "adjoint", "parents", "vjp", "kind", "compute")

    def __init__(self, value, parents=(), vjp=None, kind="constant",
                 compute=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.adjoint = None
        self.parents = parents
        # vjp(g) maps this node's adjoint g to one contribution per parent
        self.vjp = vjp
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


def op(kind: str, compute, parents, vjp) -> Node:
    """An op node valued compute(), which a caller may call again once the
    leaves change in place; vjp(g) maps its adjoint g to a sequence of one
    contribution per parent.  An op may return its own buffers from
    either, which its next call overwrites."""
    return Node(compute(), parents, vjp, kind, compute)


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


def backward(root: Node) -> None:
    """Accumulate adjoints of `root` (must be scalar) into the graph.

    Only nodes with a parameter ancestor (parameters included) receive an
    adjoint; every other node's adjoint is None.  Every call starts the
    adjoints afresh, so repeated calls on the same values give the same
    result, and a parameter whose gradient vanishes gets a zero array.
    """
    if root.value.shape != ():
        raise ValueError("backward root must be scalar")
    order = _topo_order(root)
    # parents precede their children, so one pass finds every node with a
    # parameter ancestor; the others never get an adjoint
    live = set()
    for node in order:
        node.adjoint = None
        if node.kind == "parameter" or any(id(p) in live
                                           for p in node.parents):
            live.add(id(node))
    if id(root) in live:
        root.adjoint = np.ones_like(root.value)
    # a live node's first contribution becomes its adjoint as it is
    # (adding it to zero would change only the sign of zero entries);
    # later ones are added into a new array, never in place
    for node in reversed(order):
        edges = [(i, p) for i, p in enumerate(node.parents) if id(p) in live]
        if not edges:
            continue
        parts = node.vjp(node.adjoint)
        for i, parent in edges:
            parent.adjoint = (parts[i] if parent.adjoint is None
                              else parent.adjoint + parts[i])
