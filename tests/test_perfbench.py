"""The benchmark's tracer patches module attributes by name; they must exist."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _constant(name: str):
    """A top-level literal of tracing.py, read without importing the module."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in {TRACING}")


def test_every_traced_attribute_exists():
    targets = [(module, attr) for module, attr, _ in _constant("CALLS")]
    targets += [("tensor", op) for op in _constant("OPS")]
    missing = [
        f"amr2text.{module}.{attr}"
        for module, attr in targets
        if not callable(getattr(importlib.import_module(f"amr2text.{module}"), attr, None))
    ]
    assert missing == []
    assert callable(importlib.import_module("amr2text.training").Adam.step)
