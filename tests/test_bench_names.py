"""The traced benchmark run wraps harqpower attributes by name.

bench/spans.py lists them in WRAPPED as (module, attribute, span name), and
Tracer.install() fails with an AttributeError on any name that is gone.  The
list is read with ast so that no bench module is imported here.
"""
import ast
import importlib
from pathlib import Path

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
