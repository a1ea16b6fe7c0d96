"""Minimal reverse-mode automatic differentiation on dense numpy arrays.

Every operation computes its value on creation and remembers two things: its
forward function of its parents' current values, and its vector-Jacobian
product, which maps an adjoint of its value to one contribution per parent.
Both read the parents' `.value` when they are called, so a graph whose
leaves change in place can be evaluated again without rebuilding it.  op()
builds such a node.  The module defines no op of its own: the program's
one graph is training's, two fused ops with hand-derived products (the
policy network's pass and the Lagrangian).

Tape(root) records the graph under a scalar root once: its topological
order, the op nodes to recompute and the nodes with a parameter ancestor,
each with its live parents.  tape.replay() recomputes every op node from
the leaves' current values; tape.backward() accumulates adjoints in reverse
topological order, so each node's adjoint is complete before it is
propagated, and constant subgraphs (inputs, fixed operands) get no adjoint.
backward(root) is Tape(root).backward().  A tape belongs to its graph:
separate graphs never share state and may be evaluated concurrently.
"""
from __future__ import annotations

import numpy as np

__all__ = ["Node", "constant", "parameter", "op", "Tape", "backward"]


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
    """An op node valued compute(), which Tape.replay() calls again;
    vjp(g) maps its adjoint g to a sequence of one contribution per
    parent.  An op may return its own buffers from either, which its next
    call overwrites."""
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
        self._plan = [(node, tuple((i, p) for i, p in enumerate(node.parents)
                                   if p.adjoint is not None))
                      for node in reversed(order) if node.adjoint is not None]

    def replay(self) -> None:
        """Recompute every op node, in order, from its parents' values.

        Raises as the ops do on creation.
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
        # later ones are added into a new array, never in place
        for node, _ in self._plan:
            node.adjoint = None
        if self._plan:
            self.root.adjoint = np.ones_like(self.root.value)
        for node, edges in self._plan:
            if not edges:
                continue
            parts = node.vjp(node.adjoint)
            for i, parent in edges:
                if parent.adjoint is None:
                    parent.adjoint = parts[i]
                else:
                    parent.adjoint = parent.adjoint + parts[i]


def backward(root: Node) -> None:
    """Accumulate adjoints of `root` (must be scalar) into the graph.

    Only nodes with a parameter ancestor (parameters included) receive an
    adjoint; every other node's adjoint is None.  Same as Tape(root).backward().
    """
    Tape(root).backward()
