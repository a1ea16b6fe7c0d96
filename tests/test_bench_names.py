"""The traced benchmark run wraps harqpower attributes by name.

bench/spans.py lists them in WRAPPED as (module, attribute, span name), and
Tracer.install() fails with an AttributeError on any name that is gone.  It
also reads a few attributes of the program's objects while tracing.  The
file is read with ast so that no bench module is imported here.
"""
import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def wrapped_names():
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in
                   getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and "WRAPPED" in targets:
            return [entry[:2] for entry in ast.literal_eval(node.value)]
    raise AssertionError(f"no WRAPPED tuple in {SPANS}")


@pytest.mark.parametrize("module,attr", wrapped_names())
def test_wrapped_attribute_exists(module, attr):
    assert hasattr(importlib.import_module(f"harqpower.{module}"), attr)


def attributes_read(function):
    """Attribute names that a function of bench/spans.py reads."""
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == function:
            return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
    raise AssertionError(f"no {function} in {SPANS}")


def test_traced_reads_exist():
    # _info reads channel.num_rounds and grid.points_per_axis from
    # grid_search's arguments (channel first, grid fourth); tape_size walks
    # Node.parents from the root that batch_lagrangian returns
    from harqpower import autodiff as ad
    from harqpower.gcn import init_weights, profile
    from harqpower.oracle import GridSpec, grid_search
    from harqpower.training import batch_lagrangian, dataset_constants
    from harqpower.types import ChannelParams, LinkConfig, Scheme

    assert {"num_rounds", "points_per_axis"} <= attributes_read("_info")
    assert "parents" in attributes_read("tape_size")
    assert ChannelParams(rho=0.0, num_rounds=2).num_rounds == 2
    names = list(inspect.signature(grid_search).parameters)
    assert names[0] == "channel" and names[3] == "grid"
    assert GridSpec(points_per_axis=7).points_per_axis == 7
    adj, inv_corr = dataset_constants(np.array([0.2, 0.7]),
                                      ChannelParams(rho=0.0))
    mats = init_weights(4).matrices
    root, _ = batch_lagrangian(
        [ad.parameter(m) for m in mats], profile(adj, len(mats)), inv_corr,
        [(Scheme.INCREMENTAL, LinkConfig())], 0.0, 0.0)
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
    # the root, the network op and the network's five weight parameters
    assert len(seen) == 7
