"""The benchmark's tracer patches module attributes by name; they must exist,
and the backward rules it wraps must be timed."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from amr2text.corpus import Batch
from amr2text.model import Dropout, ModelConfig, build
from amr2text.tensor import Rng
from amr2text.training import batch_loss

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


def test_tracer_times_every_op_backward():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    cfg = ModelConfig(enc_vocab=17, dec_vocab=13, d_model=16, n_heads=2, ffn_dim=24,
                      enc_layers=2, dec_layers=2, max_positions=24, d_word=6, d_pos=4,
                      d_depth=3, d_subgraph=3)
    params = build(cfg, seed=3)
    rng = np.random.default_rng(0)
    src = rng.integers(5, 17, (2, 6))
    tgt = rng.integers(5, 13, (2, 5))
    batch = Batch(src, src % 3, src % 2, np.ones((2, 6), bool), tgt, (0, 1))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        batch_loss(params, batch, 0, 0.1, Dropout(0.1, 0.0, Rng(1), 1)).backward()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(1.0, 1.0)
    assert {op for op in tracing.OPS if metrics[f"tensor.{op}.calls"]["value"]} == set(tracing.OPS)
    assert [op for op in tracing.OPS if not metrics[f"tensor.{op}.bwd_s"]["value"] > 0] == []
    assert metrics["tensor.backward.s"]["value"] > 0
