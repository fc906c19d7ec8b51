"""Quickstart stages driven in-process through ``amr2text.cli.main``.

Each stage runs the same subcommands a user types, on files under one work
directory, times every call and then checks what the calls wrote.  Checks
run outside the timed calls.  A stage returns a ``StageResult``: wall time
per call, the work counted, operations attempted and failed, the verdict
of each check and digests of the files later changes promise to keep
byte-identical.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from amr2text import cli
from amr2text.bpe import decode as bpe_decode
from amr2text.bpe import encode as bpe_encode
from amr2text.bpe import load_bpe
from amr2text.corpus import encode_linearized, load_examples, make_batches, pack_sequences
from amr2text.evaluation import bleu
from amr2text.generation import BeamConfig, beam_search
from amr2text.graph import parse_penman
from amr2text.linearize import linearize_for_language, read_linearized
from amr2text.model import EncoderInput, build, decoder_forward, desk_config
from amr2text.model import encode as model_encode
from amr2text.model import load_checkpoint, save_checkpoint
from amr2text.pretraining import NoiseSpec, lm_sequences, noised_examples
from amr2text.tensor import no_grad

import gen

LANGS = ("en", "de")
# Small batches: the warmup keeps early steps tiny, so a phase needs about 16
# updates before its last logged loss reliably sits below its first.
MAX_TOKENS = 256
BEAM = 5
MAX_LEN = 32
# The README's demo schedule with the regularisers of the paper recipe on;
# layerdrop stays off so every update of a given batch does the same work.
DEMO_CONFIG = """\
train.base_lr = 0.002
train.warmup_steps = 50
train.label_smoothing = 0.1
train.dropout = 0.1
train.layerdrop = 0.0
train.max_tokens_per_batch = {max_tokens}
train.checkpoint_every = {updates}
"""


class StageFailed(RuntimeError):
    pass


@dataclass
class StageResult:
    seconds: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    def check(self, name: str, ok: bool, operations: int = 0) -> None:
        """Record a verdict; a failed check fails the operations it covers."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            self.failed += operations


class Cli:
    """Runs subcommands in this process and sums their wall time.

    With a tracer, spans are recorded only while a subcommand runs, so
    the checks made between calls neither add spans nor count as covered.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall = 0.0

    def __call__(self, *argv: str) -> float:
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.install()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        finally:
            seconds = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.uninstall()
        self.wall += seconds
        if code != 0:
            raise StageFailed(f"amr2text {argv[0]} exited {code}: {err.getvalue().strip()}")
        return seconds


def _lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return f.read().splitlines()


def _digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


# -- inputs -------------------------------------------------------------------


@dataclass(frozen=True)
class Layout:
    """Where the generated inputs live inside one run's work directory."""

    root: str

    def data(self, name: str) -> str:
        return os.path.join(self.root, "data", name)

    def out(self, *parts: str) -> str:
        return os.path.join(self.root, *parts)


def write_inputs(layout: Layout, seed: int, n_train: int, n_valid: int, n_test: int,
                 n_decode: int, n_lm: int, n_denoise: int) -> dict[str, int]:
    """Generate the corpus and every derived input file; returns split sizes.

    The last ``n_decode`` graphs go to heldout.amr, outside the manifest:
    they are the decoding inputs, and keeping them out of the valid and
    test splits keeps the validation that ends each training phase small.
    """
    corpus = gen.generate(n_train + n_valid + n_test + n_decode, seed)
    split = gen.Corpus(corpus.amr[:-n_decode], corpus.en[:-n_decode], corpus.de[:-n_decode])
    sizes = gen.write_split_corpus(os.path.join(layout.root, "data"), split, n_valid, n_test)
    gen.write_lines(layout.data("heldout.amr"), corpus.amr[-n_decode:])
    for lang in LANGS:
        refs = getattr(corpus, lang)[: sizes["train"]]
        gen.write_lines(layout.data(f"lm.{lang}.txt"), refs[:n_lm])
        gen.write_lines(layout.data(f"hyp.{lang}.txt"), gen.perturb(refs, seed))
    gen.write_lines(layout.data("denoise.amr"), corpus.amr[:n_denoise])
    return sizes


# -- prep: linearize, train-bpe, build-corpus, and scoring ---------------------


def prep(run: Cli, layout: Layout, tag: str, sizes: dict[str, int], merges: int) -> StageResult:
    """Quickstart stages 1-3 on the generated corpus, one pass."""
    res = StageResult()
    d = layout.out(tag)
    os.makedirs(d, exist_ok=True)
    t = 0.0
    for lang in LANGS:
        for split in ("train", "heldout"):
            t += run("linearize", "--in", layout.data(f"{split}.amr"),
                     "--out", os.path.join(d, f"{split}.{lang}.lin"), "--lang", lang)
    t += run("train-bpe", "--in", os.path.join(d, "train.en.lin"),
             "--in", os.path.join(d, "train.de.lin"), "--merges", str(merges),
             "--protect-roles", "--languages", "en,de",
             "--out-dir", os.path.join(d, "enc-bpe"))
    t += run("train-bpe", "--in", layout.data("train.en.txt"),
             "--in", layout.data("train.de.txt"), "--merges", str(merges),
             "--languages", "en,de", "--out-dir", os.path.join(d, "dec-bpe"))
    t += run("build-corpus", "--manifest", layout.data("manifest.tsv"),
             "--enc-bpe", os.path.join(d, "enc-bpe", "bpe.model"),
             "--dec-bpe", os.path.join(d, "dec-bpe", "bpe.model"),
             "--languages", "en,de", "--out-dir", os.path.join(d, "corpus"))
    pairs = len(LANGS) * sum(sizes.values())
    res.seconds["prep"] = t
    res.counts["pairs"] = pairs
    res.attempted = pairs

    report = dict(line.split("=", 1) for line in _lines(os.path.join(d, "corpus", "report.txt")))
    dropped = sum(int(v) for k, v in report.items() if k.startswith("dropped."))
    res.check("prep.no_dropped_lines", dropped == 0, dropped)
    common_test = {"train": sizes["train"], "valid": sizes["valid"] + (sizes["test"] + 1) // 2,
                   "test": sizes["test"] // 2}
    kept = 0
    for split, n in common_test.items():
        for lang in LANGS:
            got = int(report.get(f"{split}.count.{lang}", 0))
            kept += got
            res.check("prep.pair_counts", got == n, abs(n - got))
    res.counts["pairs_kept"] = kept

    enc = load_bpe(os.path.join(d, "enc-bpe", "bpe.model"))
    dec = load_bpe(os.path.join(d, "dec-bpe", "bpe.model"))
    res.counts["merges"] = len(enc.merges) + len(dec.merges)
    res.counts["enc_vocab"] = enc.vocab_size
    res.counts["dec_vocab"] = dec.vocab_size
    sample = _lines(os.path.join(d, "train.en.lin"))[:50] + _lines(layout.data("train.de.txt"))[:50]
    bad = sum(bpe_decode(m, bpe_encode(m, line)) != line
              for m, line in zip([enc] * 50 + [dec] * 50, sample))
    res.check("prep.bpe_round_trip", bad == 0, bad)
    for name in ("enc-bpe/bpe.model", "dec-bpe/bpe.model", "corpus/train.examples"):
        res.digests[name] = _digest(os.path.join(d, name))
    return res


def score(run: Cli, layout: Layout, tag: str, seed: int) -> StageResult:
    """evaluate and human-eval-sheet on seeded perturbations of the references."""
    res = StageResult()
    d = layout.out(tag)
    t = 0.0
    sentences = 0
    for lang in LANGS:
        hyp, ref = layout.data(f"hyp.{lang}.txt"), layout.data(f"train.{lang}.txt")
        t += run("evaluate", "--hyp", hyp, "--ref", ref,
                 "--out-dir", os.path.join(d, f"bleu.{lang}"))
        t += run("human-eval-sheet", "--hyp", hyp, "--ref", ref, "--seed", str(seed),
                 "--n-high", "10", "--n-low", "10", "--min-words", "3",
                 "--out-dir", os.path.join(d, f"sheet.{lang}"))
        refs = _lines(ref)
        sentences += 2 * len(refs)
        res.digests[f"bleu.{lang}"] = _digest(os.path.join(d, f"bleu.{lang}", "bleu.txt"))
        rows = _lines(os.path.join(d, f"sheet.{lang}", "sheet.tsv"))
        res.check("score.sheet_rows", len(rows) == 21, len(refs))
        res.check("score.self_bleu_100", bleu(refs, refs).bleu == 100.0, 2 * len(refs))
    res.seconds["score"] = t
    res.counts["sentences"] = sentences
    res.attempted = sentences
    return res


# -- train: pretrain-encoder, pretrain-decoder, train ---------------------------


def _walk(batches_for_epoch, updates: int) -> list:
    """The batches training.train / pretrain_decoder use for ``updates`` steps."""
    out: list = []
    epoch = 0
    while len(out) < updates:
        out.extend(batches_for_epoch(epoch)[: updates - len(out)])
        epoch += 1
    return out


def _target_tokens(layout: Layout, prep_tag: str, seed: int, updates: int,
                   rounds: int) -> dict[str, int]:
    """Target tokens of the updates each phase runs, rebuilt from its inputs."""
    d = layout.out(prep_tag)
    enc = load_bpe(os.path.join(d, "enc-bpe", "bpe.model"))
    dec = load_bpe(os.path.join(d, "dec-bpe", "bpe.model"))
    graphs = [parse_penman(line) for line in _lines(layout.data("denoise.amr"))]
    denoise = noised_examples([linearize_for_language(g) for g in graphs], enc,
                              NoiseSpec(seed=seed), rounds=rounds)
    batches = _walk(lambda e: make_batches(denoise, MAX_TOKENS, seed + e, enc.pad_id), updates)
    denoise_tok = sum(b.n_target_tokens(enc.pad_id) for b in batches)
    corpora = {lang: _lines(layout.data(f"lm.{lang}.txt")) for lang in LANGS}
    seqs = [ids for _, ids in lm_sequences(corpora, dec)]
    packed = _walk(lambda e: pack_sequences(seqs, MAX_TOKENS, seed + e, dec.pad_id), updates)
    lm_tok = sum(int((arr[:, 1:] != dec.pad_id).sum()) for arr, _ in packed)
    train_set = load_examples(os.path.join(d, "corpus", "train.examples"))
    batches = _walk(lambda e: make_batches(train_set, MAX_TOKENS, seed + e, dec.pad_id), updates)
    train_tok = sum(b.n_target_tokens(dec.pad_id) for b in batches)
    return {"denoise": denoise_tok, "lm": lm_tok, "train": train_tok}


def _check_log(res: StageResult, phase: str, path: str, updates: int) -> None:
    losses = [float(line.split("\t")[2]) for line in _lines(path)]
    res.check(f"train.{phase}.updates_logged", len(losses) == updates, updates)
    res.check(f"train.{phase}.losses_finite", all(math.isfinite(x) for x in losses), updates)
    res.check(f"train.{phase}.loss_decreases",
              len(losses) > 1 and losses[-1] < losses[0], updates)
    res.digests[f"{phase}.log"] = _digest(path)


def train(run: Cli, layout: Layout, tag: str, prep_tag: str, seed: int, updates: int,
          rounds: int = 2) -> StageResult:
    """The README pretraining recipe: both pretraining phases, then fine-tuning."""
    res = StageResult()
    d = layout.out(tag)
    os.makedirs(d, exist_ok=True)
    p = layout.out(prep_tag)
    enc_bpe = os.path.join(p, "enc-bpe", "bpe.model")
    dec_bpe = os.path.join(p, "dec-bpe", "bpe.model")
    config = os.path.join(d, "demo.cfg")
    with open(config, "w", encoding="utf-8") as f:
        f.write(DEMO_CONFIG.format(max_tokens=MAX_TOKENS, updates=updates))
    s = str(seed)
    res.seconds["denoise"] = run(
        "pretrain-encoder", "--amr", layout.data("denoise.amr"), "--bpe", enc_bpe,
        "--seed", s, "--rounds", str(rounds), "--updates", str(updates),
        "--config", config, "--out-dir", os.path.join(d, "enc-pre"))
    res.seconds["lm"] = run(
        "pretrain-decoder", "--text", "en=" + layout.data("lm.en.txt"),
        "--text", "de=" + layout.data("lm.de.txt"), "--bpe", dec_bpe, "--seed", s,
        "--updates", str(updates), "--config", config, "--out-dir", os.path.join(d, "dec-pre"))
    res.seconds["train"] = run(
        "train", "--corpus", os.path.join(p, "corpus"), "--enc-bpe", enc_bpe,
        "--dec-bpe", dec_bpe, "--seed", s,
        "--encoder-ckpt", os.path.join(d, "enc-pre", "encoder.ckpt"),
        "--decoder-ckpt", os.path.join(d, "dec-pre", "decoder.ckpt"),
        "--updates", str(updates), "--config", config, "--out-dir", os.path.join(d, "run"))
    res.attempted = 3 * updates
    res.counts["updates"] = 3 * updates
    for phase, log in (("denoise", "enc-pre/pretrain.log"), ("lm", "dec-pre/pretrain.log"),
                       ("train", "run/train.log")):
        _check_log(res, phase, os.path.join(d, log), updates)
    for phase, n in _target_tokens(layout, prep_tag, seed, updates, rounds).items():
        res.counts[f"{phase}_tokens"] = n
    return res


# -- decode: generate at beam 5 and beam 1 --------------------------------------


def make_checkpoint(layout: Layout, prep_tag: str, seed: int) -> str:
    """A seeded, untrained desk-config model over the prep vocabularies."""
    p = layout.out(prep_tag)
    enc = load_bpe(os.path.join(p, "enc-bpe", "bpe.model"))
    dec = load_bpe(os.path.join(p, "dec-bpe", "bpe.model"))
    path = layout.out("model.ckpt")
    save_checkpoint(build(desk_config(enc.vocab_size, dec.vocab_size), seed), path)
    return path


def _log_softmax(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.float64)
    x = x - x.max(axis=-1, keepdims=True)
    return x - np.log(np.exp(x).sum(axis=-1, keepdims=True))


def _check_sample(res: StageResult, name: str, model: str, lin_path: str, enc_bpe: str,
                  dec_bpe: str, beam: int, hyp: str, score_line: str) -> None:
    """Library beam_search on one input must match what generate wrote."""
    params = load_checkpoint(model)
    enc, dec = load_bpe(enc_bpe), load_bpe(dec_bpe)
    ids, depth, sub = encode_linearized(read_linearized(lin_path, lin_path + ".feat")[0], enc)
    enc_in = EncoderInput(np.asarray(ids), np.asarray(depth), np.asarray(sub))
    best, _ = beam_search(params, enc_in, BeamConfig(beam, 1.0, MAX_LEN, MAX_LEN),
                          dec.bos_id, dec.eos_id)
    res.check(f"decode.{name}.matches_library",
              bpe_decode(dec, best.generated(dec.eos_id)) == hyp
              and f"{best.score:.6f}\t{best.logprob:.6f}" == score_line, 1)
    res.check(f"decode.{name}.max_len_ids", len(best.ids) - 1 == MAX_LEN, 1)
    with no_grad():
        memory, mask = model_encode(params, enc_in)
        logits, _ = decoder_forward(params, memory, mask, np.asarray([best.ids[:-1]]))
    logp = _log_softmax(logits.data[0])
    forced = float(logp[np.arange(MAX_LEN), np.asarray(best.ids[1:])].sum())
    res.check(f"decode.{name}.teacher_forced_logprob",
              math.isclose(forced, best.logprob, rel_tol=1e-4, abs_tol=1e-3), 1)


def decode(run: Cli, layout: Layout, tag: str, prep_tag: str, model: str,
           jobs: list[tuple[str, str]], line: int, checked: set[tuple[str, str]]) -> StageResult:
    """``generate`` on held-out graph ``line`` for each (kind, language) job.

    A kind is "beam" (``--beam 5``) or "greedy" (``--beam 1``).  For the
    jobs in ``checked``, the library search is re-run on the same input; a
    re-run costs as much as the decode it checks.
    """
    res = StageResult()
    d = layout.out(tag)
    os.makedirs(d, exist_ok=True)
    p = layout.out(prep_tag)
    enc_bpe = os.path.join(p, "enc-bpe", "bpe.model")
    dec_bpe = os.path.join(p, "dec-bpe", "bpe.model")
    for kind, lang in jobs:
        beam = BEAM if kind == "beam" else 1
        lin = os.path.join(d, f"{kind}.{lang}.lin")
        for suffix in ("", ".feat"):
            rows = _lines(os.path.join(p, f"heldout.{lang}.lin{suffix}"))
            gen.write_lines(lin + suffix, rows[line:line + 1])
        out = os.path.join(d, f"{kind}.{lang}")
        res.seconds[kind] = res.seconds.get(kind, 0.0) + run(
            "generate", "--model", model, "--input", lin, "--enc-bpe", enc_bpe,
            "--dec-bpe", dec_bpe, "--beam", str(beam), "--max-len", str(MAX_LEN),
            "--min-len", str(MAX_LEN), "--out-dir", out)
        res.counts[f"{kind}_sentences"] = res.counts.get(f"{kind}_sentences", 0) + 1
        res.attempted += 1
        hyps = _lines(os.path.join(out, "hypotheses.txt"))
        scores = _lines(os.path.join(out, "scores.txt"))
        res.check("decode.every_input_yields_a_line",
                  len(hyps) == 1 and len(scores) == 1 and all(hyps), 1)
        for name in ("hypotheses.txt", "scores.txt"):
            res.digests[f"{kind}.{lang}/{name}"] = _digest(os.path.join(out, name))
        if (kind, lang) in checked and hyps:
            _check_sample(res, kind, model, lin, enc_bpe, dec_bpe, beam, hyps[0], scores[0])
    return res
