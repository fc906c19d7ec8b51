"""Spans around calls into each amr2text module, recorded from outside.

The program is not edited: ``Tracer.install`` replaces module attributes
with timing wrappers, each at the name its caller looks up (``cli`` calls
``beam_search`` through ``amr2text.cli.beam_search``, ``model`` calls ops
through ``amr2text.tensor.<op>``, and so on), and ``uninstall`` puts the
originals back.  A span is ``[name, start, end, parent index]``; spans are
kept in memory and written out once, at the end.  Each op's backward rule
is wrapped on the tensor the op returns, so backward time is attributed to
the op that recorded it.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import numpy as np

OPS = (
    "add", "mul", "matmul", "relu", "softmax", "layernorm", "embed",
    "concat_last_dim", "dropout", "reshape", "swapaxes", "label_smoothed_nll",
)

# (module holding the attribute, attribute, span name).  The module is the
# caller's: a function imported by name is looked up in the importer.
CALLS = (
    ("cli", "build", "model.build"),
    ("pretraining", "build", "model.build"),
    ("cli", "save_checkpoint", "model.save_checkpoint"),
    ("cli", "load_checkpoint", "model.load_checkpoint"),
    ("training", "load_checkpoint", "model.load_checkpoint"),
    ("generation", "encode", "model.encode"),
    ("training", "encode", "model.encode"),
    ("generation", "decoder_forward", "model.decoder_forward"),
    ("training", "decoder_forward", "model.decoder_forward"),
    ("pretraining", "decoder_forward", "model.decoder_forward"),
    ("cli", "train", "training.train"),
    ("training", "train", "training.train"),
    ("training", "batch_loss", "training.batch_loss"),
    ("training", "dataset_loss", "training.dataset_loss"),
    ("cli", "initialize_for_finetune", "training.initialize_for_finetune"),
    ("training", "label_smoothed_nll", "tensor.label_smoothed_nll"),
    ("pretraining", "label_smoothed_nll", "tensor.label_smoothed_nll"),
    ("cli", "pretrain_encoder", "pretraining.pretrain_encoder"),
    ("cli", "pretrain_decoder", "pretraining.pretrain_decoder"),
    ("pretraining", "noised_examples", "pretraining.noised_examples"),
    ("pretraining", "lm_sequences", "pretraining.lm_sequences"),
    ("pretraining", "lm_perplexity", "pretraining.lm_perplexity"),
    ("cli", "beam_search", "generation.beam_search"),
    ("cli", "ingest", "corpus.ingest"),
    ("cli", "load_manifest", "corpus.load_manifest"),
    ("cli", "split_store", "corpus.split_store"),
    ("cli", "concat_multilingual", "corpus.concat_multilingual"),
    ("cli", "dataset_fingerprint", "corpus.dataset_fingerprint"),
    ("cli", "encode_linearized", "corpus.encode_linearized"),
    ("cli", "save_examples", "corpus.save_examples"),
    ("cli", "load_examples", "corpus.load_examples"),
    ("training", "make_batches", "corpus.make_batches"),
    ("pretraining", "pack_sequences", "corpus.pack_sequences"),
    ("cli", "train_bpe", "bpe.train_bpe"),
    ("cli", "load_bpe", "bpe.load_bpe"),
    ("cli", "save_bpe", "bpe.save_bpe"),
    ("cli", "bpe_decode", "bpe.decode"),
    ("corpus", "encode", "bpe.encode"),
    ("pretraining", "encode", "bpe.encode"),
    ("cli", "parse_penman", "graph.parse_penman"),
    ("corpus", "parse_penman", "graph.parse_penman"),
    ("cli", "linearize_for_language", "linearize.linearize_for_language"),
    ("corpus", "linearize_for_language", "linearize.linearize_for_language"),
    ("cli", "write_linearized", "linearize.write_linearized"),
    ("cli", "read_linearized", "linearize.read_linearized"),
    ("evaluation", "bleu", "evaluation.bleu"),
    ("evaluation", "sentence_bleu", "evaluation.sentence_bleu"),
    ("evaluation", "score_sentences", "evaluation.score_sentences"),
    ("evaluation", "human_eval_sample", "evaluation.human_eval_sample"),
    ("evaluation", "write_human_eval_sheet", "evaluation.write_human_eval_sheet"),
)

# Per-layer metrics, in BENCHMARK.json order; every traced run reports all.
PER_LAYER = (
    [f"tensor.{op}.{kind}" for op in OPS for kind in ("calls", "fwd_s", "bwd_s")]
    + ["tensor.backward.s", "tensor.matmul.gflop"]
    + ["model.encode.calls", "model.encode.s", "model.decoder_forward.calls",
       "model.decoder_forward.s", "model.decoder_forward.positions",
       "model.decoder_forward.useful_ratio", "model.build.s",
       "model.save_checkpoint.s", "model.load_checkpoint.s"]
    + ["training.batch_loss.s", "training.adam_step.s", "training.dataset_loss.s",
       "training.updates"]
    + ["pretraining.noised_examples.s", "pretraining.pretrain_decoder.s",
       "pretraining.lm_perplexity.s"]
    + ["generation.beam_search.calls", "generation.beam_search.s",
       "generation.beam_search.self_s", "generation.candidates_scored"]
    + ["corpus.ingest.s", "corpus.make_batches.s", "corpus.pad_ratio",
       "corpus.save_examples.s", "corpus.load_examples.s"]
    + ["bpe.train_bpe.s", "bpe.train_bpe.merges", "bpe.encode.calls", "bpe.encode.s"]
    + ["graph.parse_penman.calls", "graph.parse_penman.s"]
    + ["linearize.linearize_for_language.calls", "linearize.linearize_for_language.s",
       "linearize.linearize_for_language.tokens"]
    + ["evaluation.bleu.s", "evaluation.sentence_bleu.calls", "evaluation.sentence_bleu.s"]
    + ["trace.coverage", "trace.overhead_s", "trace.spans"]
)


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("ratio", "coverage")):
        return "ratio"
    if name.endswith("gflop"):
        return "GFLOP"
    return "count"


def _shape(x) -> tuple[int, ...]:
    return np.shape(getattr(x, "data", x))


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Records spans while installed; ``metrics`` aggregates them."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.meta: dict[int, tuple] = {}
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, name: str, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(idx)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, after))

    def _op_after(self, op: str):
        bwd_name = f"tensor.{op}.bwd"
        wrap = self._wrap
        counts = self.counts

        def after(idx, args, kwargs, out):
            rule = getattr(out, "_backward", None)
            # dropout in eval mode returns its input, whose rule is not this op's
            if rule is not None and not any(out is a for a in args):
                out._backward = wrap(rule, bwd_name)
            if op == "matmul":
                a, b = _shape(args[0]), _shape(args[1])
                m = a[-2] if len(a) > 1 else 1
                n = b[-1] if len(b) > 1 else 1
                batch = int(np.prod(np.broadcast_shapes(a[:-2], b[:-2])))
                counts["matmul.flop"] += 2 * batch * m * a[-1] * n

        return after

    def _decoder_after(self, idx, args, kwargs, out):
        shape = _shape(_arg(args, kwargs, 3, "prefix_ids"))
        rows, t = (1, shape[0]) if len(shape) == 1 else shape
        self.meta[idx] = (rows, t, _arg(args, kwargs, 0, "params").config.dec_vocab)

    def _beam_after(self, idx, args, kwargs, out):
        self.meta[idx] = (_arg(args, kwargs, 2, "cfg").max_len,)

    def _batches_after(self, idx, args, kwargs, out):
        real = sum(len(ex.src_ids) + len(ex.tgt_ids) for ex in args[0])
        slots = sum(b.src.size + b.tgt.size for b in out)
        self.counts["pad.real"] += real
        self.counts["pad.slots"] += slots

    def _packed_after(self, idx, args, kwargs, out):
        self.counts["pad.real"] += sum(len(s) for s in args[0])
        self.counts["pad.slots"] += sum(arr.size for arr, _ in out)

    def _merges_after(self, idx, args, kwargs, out):
        self.counts["bpe.merges"] += len(out.merges)

    def _lin_after(self, idx, args, kwargs, out):
        self.counts["linearize.tokens"] += len(out.tokens)

    def install(self) -> None:
        import importlib

        modules = {
            name: importlib.import_module(f"amr2text.{name}")
            for name in ("cli", "corpus", "evaluation", "generation", "pretraining",
                         "tensor", "training")
        }
        tensor = modules["tensor"]
        for op in OPS:
            self._patch(tensor, op, f"tensor.{op}", self._op_after(op))
        self._patch(tensor.Tensor, "backward", "tensor.backward")
        self._patch(modules["training"].Adam, "step", "training.adam_step")
        hooks = {
            "model.decoder_forward": self._decoder_after,
            "generation.beam_search": self._beam_after,
            "corpus.make_batches": self._batches_after,
            "corpus.pack_sequences": self._packed_after,
            "bpe.train_bpe": self._merges_after,
            "linearize.linearize_for_language": self._lin_after,
        }
        for module, attr, name in CALLS:
            after = hooks.get(name)
            if name == "tensor.label_smoothed_nll":
                after = self._op_after("label_smoothed_nll")
            self._patch(modules[module], attr, name, after)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting --------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("index\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer: each span's duration minus its children's."""
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child_s):
            out[name.split(".")[0]] += end - start - inner
        return dict(sorted(out.items()))

    def metrics(self, wall_s: float, untraced_wall_s: float) -> dict[str, dict]:
        """Aggregate spans into the PER_LAYER metrics.

        ``wall_s`` is the traced wall time the spans fall in; coverage is
        the share of it inside outermost spans.  No span is opened for the
        cli module itself, so its argument handling and file reading stay
        uncovered.
        """
        spans = self.spans
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child_s = [0.0] * len(spans)
        covered = 0.0
        for name, start, end, parent in spans:
            dur = end - start
            total[name] += dur
            calls[name] += 1
            if parent >= 0:
                child_s[parent] += dur
            else:
                covered += dur
        positions = useful = 0
        candidates = 0
        for idx, meta in self.meta.items():
            name, _, _, parent = spans[idx]
            if name != "model.decoder_forward":
                continue
            rows, t, vocab = meta
            positions += rows * t
            in_search = parent >= 0 and spans[parent][0] == "generation.beam_search"
            # A search reads only the last position; teacher forcing reads all.
            useful += rows if in_search else rows * t
            if in_search and t < self.meta[parent][0]:
                candidates += rows * vocab
        beam_self = sum(
            (end - start - child_s[i]
             for i, (name, start, end, _) in enumerate(spans)
             if name == "generation.beam_search"),
            0.0,
        )
        out: dict[str, float] = {}
        for op in OPS:
            out[f"tensor.{op}.calls"] = calls[f"tensor.{op}"]
            out[f"tensor.{op}.fwd_s"] = total[f"tensor.{op}"]
            out[f"tensor.{op}.bwd_s"] = total[f"tensor.{op}.bwd"]
        out["tensor.backward.s"] = total["tensor.backward"]
        out["tensor.matmul.gflop"] = self.counts["matmul.flop"] / 1e9
        for name in ("model.encode", "model.decoder_forward", "generation.beam_search",
                     "bpe.encode", "graph.parse_penman", "linearize.linearize_for_language",
                     "evaluation.sentence_bleu"):
            out[f"{name}.calls"] = calls[name]
        for name in PER_LAYER:
            if name.endswith(".s") and name not in out:
                out[name] = total[name[:-2]]
        out["model.decoder_forward.positions"] = positions
        out["model.decoder_forward.useful_ratio"] = useful / positions if positions else 0.0
        out["training.updates"] = calls["training.adam_step"]
        out["generation.beam_search.self_s"] = beam_self
        out["generation.candidates_scored"] = candidates
        slots = self.counts["pad.slots"]
        out["corpus.pad_ratio"] = self.counts["pad.real"] / slots if slots else 0.0
        out["bpe.train_bpe.merges"] = self.counts["bpe.merges"]
        out["linearize.linearize_for_language.tokens"] = self.counts["linearize.tokens"]
        out["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
        out["trace.overhead_s"] = wall_s - untraced_wall_s
        out["trace.spans"] = len(spans)
        return {name: {"value": out[name], "unit": _unit(name)} for name in PER_LAYER}

