"""Denoising pretraining for the encoder, causal-LM pretraining for the decoder.

Noise maps a LinearizedAmr to a LinearizedAmr: each token's depth and
subgraph ids move with it.  Parentheses and the language token are
structural and untouchable: token masking replaces other tokens with
<mask> independently, span masking collapses Poisson-length runs (never
crossing a parenthesis) into a single <mask>, and shuffling permutes the
root's child segments.  All three are deterministic given (seed, example
index).  Encoder pretraining reconstructs the original sequence from its
noised form through a temporary reconstruction decoder over the encoder
vocabulary; only the encoder weights are kept.  Decoder pretraining is a
language-token-conditioned causal LM with no encoder attached.  Both run
on ``training``'s update loop.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .bpe import MASK, BpeModel, encode
from .corpus import ParallelExample, encode_linearized, pack_sequences
from .langs import is_lang_token
from .linearize import LinearizedAmr
from .model import ModelParams, build, decoder_forward
from .tensor import Rng, label_smoothed_nll, no_grad
from .training import TrainConfig, TrainResult, run_updates
from . import training

logger = logging.getLogger(__name__)


class UnbalancedInput(ValueError):
    pass


class MissingMonolingualData(ValueError):
    pass


@dataclass(frozen=True)
class NoiseSpec:
    mask_prob: float = 0.15
    span_lambda: float = 3.0
    span_mass: float = 0.3
    shuffle: bool = True
    seed: int = 0

    def validate(self) -> None:
        if not 0.0 <= self.mask_prob <= 1.0:
            raise ValueError("mask_prob outside [0, 1]")
        if self.span_lambda <= 0:
            raise ValueError("span_lambda must be positive")
        if not 0.0 <= self.span_mass <= 1.0:
            raise ValueError("span_mass outside [0, 1]")


def _maskable(token: str) -> bool:
    return token not in ("(", ")") and not is_lang_token(token)


def _span_cover(
    tokens: tuple[str, ...], spec: NoiseSpec, gen: np.random.Generator
) -> set[int]:
    """Positions covered by sampled spans, totalling ~span_mass of the
    maskable tokens; a span extends rightward without crossing parens."""
    maskable = [i for i, t in enumerate(tokens) if _maskable(t)]
    target = round(spec.span_mass * len(maskable))
    covered: set[int] = set()
    while len(covered) < target:
        remaining = [p for p in maskable if p not in covered]
        if not remaining:
            break
        start = remaining[int(gen.integers(len(remaining)))]
        length = min(max(1, int(gen.poisson(spec.span_lambda))), target - len(covered))
        p = start
        while length > 0 and p < len(tokens) and _maskable(tokens[p]) and p not in covered:
            covered.add(p)
            length -= 1
            p += 1
    return covered


def _check_balance(tokens: tuple[str, ...]) -> None:
    depth = 0
    for t in tokens:
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth < 0:
                raise UnbalancedInput("close paren without matching open")
    if depth != 0:
        raise UnbalancedInput(f"{depth} unclosed parens")


def _segment_spans(tokens: tuple[str, ...]) -> list[tuple[int, int]]:
    """Per-segment [start, end) spans of the root's children.

    A segment is a role token at root depth together with its value or
    parenthesized subtree.  Returns no segments when the sequence is not a
    single parenthesized node.
    """
    offset = 1 if tokens and is_lang_token(tokens[0]) else 0
    if (
        len(tokens) - offset < 3
        or tokens[offset] != "("
        or tokens[-1] != ")"
    ):
        return []
    segments: list[tuple[int, int]] = []
    depth = 0
    start = None
    for i in range(offset, len(tokens)):
        t = tokens[i]
        if depth == 1 and t.startswith(":") and i > offset + 1:
            if start is not None:
                segments.append((start, i))
            start = i
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth == 0:
                if start is not None:
                    segments.append((start, i))
                return segments
    return segments


def _pick(lin: LinearizedAmr, order, masked=()) -> LinearizedAmr:
    """The tokens at ``order`` with their ids; positions in ``masked`` become <mask>."""
    return LinearizedAmr(
        tuple(MASK if i in masked else lin.tokens[i] for i in order),
        tuple(lin.depth_ids[i] for i in order),
        tuple(lin.subgraph_ids[i] for i in order),
    )


def mask_tokens(lin: LinearizedAmr, spec: NoiseSpec, example_index: int = 0) -> LinearizedAmr:
    """Independently replace non-structural tokens with <mask>."""
    draws = Rng(spec.seed).stream("mask", example_index).random(len(lin.tokens))
    masked = {
        i
        for i, t in enumerate(lin.tokens)
        if _maskable(t) and t != MASK and draws[i] < spec.mask_prob
    }
    return _pick(lin, range(len(lin.tokens)), masked)


def mask_spans(lin: LinearizedAmr, spec: NoiseSpec, example_index: int = 0) -> LinearizedAmr:
    """Collapse Poisson-length spans into single <mask> tokens; each mask
    keeps the ids of the first token it covers."""
    gen = Rng(spec.seed).stream("spans", example_index)
    covered = _span_cover(lin.tokens, spec, gen)
    order = [i for i in range(len(lin.tokens)) if i not in covered or i - 1 not in covered]
    return _pick(lin, order, covered)


def shuffle_segments(
    lin: LinearizedAmr, spec: NoiseSpec, example_index: int = 0
) -> LinearizedAmr:
    """Permute the root's child segments with a seeded permutation."""
    _check_balance(lin.tokens)
    gen = Rng(spec.seed).stream("shuffle", example_index)
    segments = _segment_spans(lin.tokens)
    order = list(range(len(lin.tokens)))
    if len(segments) >= 2:
        body = [i for j in gen.permutation(len(segments)) for i in range(*segments[j])]
        order = order[: segments[0][0]] + body + order[segments[-1][1] :]
    return _pick(lin, order)


def apply_noise(lin: LinearizedAmr, spec: NoiseSpec, example_index: int = 0) -> LinearizedAmr:
    """Spans, then token masking, then segment shuffle (if ``spec.shuffle``)."""
    lin = mask_tokens(mask_spans(lin, spec, example_index), spec, example_index)
    return shuffle_segments(lin, spec, example_index) if spec.shuffle else lin


def noised_examples(
    corpus: list[LinearizedAmr],
    enc_model: BpeModel,
    spec: NoiseSpec,
    rounds: int = 1,
) -> list[ParallelExample]:
    """Denoising pairs: noised pieces as source, original pieces as target.

    ``rounds`` independent corruptions of each example are emitted, keyed
    by (round, example index) for reproducibility.
    """
    targets = [
        (enc_model.bos_id, *encode_linearized(lin, enc_model)[0], enc_model.eos_id)
        for lin in corpus
    ]
    examples: list[ParallelExample] = []
    for r in range(rounds):
        for i, lin in enumerate(corpus):
            noised = apply_noise(lin, spec, r * len(corpus) + i)
            examples.append(
                ParallelExample(*encode_linearized(noised, enc_model), targets[i], "en")
            )
    return examples


def pretrain_encoder(
    params: ModelParams,
    corpus: list[LinearizedAmr],
    enc_model: BpeModel,
    spec: NoiseSpec,
    cfg: TrainConfig,
    rounds: int = 1,
    on_checkpoint=None,
    log_path=None,
) -> tuple[ModelParams, TrainResult]:
    """Train the encoder by seq2seq denoising through a temporary decoder.

    The temporary model shares the encoder tensors of ``params``, so the
    given model's encoder is pretrained in place; its own decoder never
    changes.  The noised training examples are also the validation set:
    the reconstruction loss reported at each checkpoint, and the best
    checkpoint chosen by it, are measured on the examples trained on, not
    on held-out graphs.  Returns (temporary model, training result) so the
    caller can checkpoint either.
    """
    spec.validate()
    temp_cfg = replace(params.config, dec_vocab=params.config.enc_vocab)
    temp = build(temp_cfg, seed=cfg.seed)
    for name in list(temp.tensors):
        if name.startswith("enc"):
            temp.tensors[name] = params.tensors[name]
    examples = noised_examples(corpus, enc_model, spec, rounds=rounds)
    result = training.train(
        temp,
        examples,
        examples,
        cfg,
        pad_id=enc_model.pad_id,
        on_checkpoint=on_checkpoint,
        log_path=log_path,
    )
    return temp, result


def lm_sequences(
    corpora: dict[str, list[str]], dec_model: BpeModel
) -> list[tuple[str, tuple[int, ...]]]:
    """(language, bos + lang token + pieces + eos) per monolingual line."""
    out: list[tuple[str, tuple[int, ...]]] = []
    for lang, lines in corpora.items():
        if not lines:
            raise MissingMonolingualData(f"no monolingual lines for {lang!r}")
        for line in lines:
            ids = (
                [dec_model.bos_id, dec_model.lang_id(lang)]
                + encode(dec_model, line)
                + [dec_model.eos_id]
            )
            out.append((lang, tuple(ids)))
    return out


def lm_perplexity(params: ModelParams, sequences: list[tuple[int, ...]], pad_id: int) -> float:
    """exp of the mean per-token NLL (unsmoothed), LM mode."""
    packed = pack_sequences(list(sequences), max_tokens=4096, shuffle_seed=0, pad_id=pad_id)
    total = 0.0
    tokens = 0
    with no_grad():
        for arr, _ in packed:
            logits, _ = decoder_forward(params, None, None, arr[:, :-1])
            loss = label_smoothed_nll(logits, arr[:, 1:], 0.0, pad_id)
            n = int((arr[:, 1:] != pad_id).sum())
            total += loss.item() * n
            tokens += n
    return math.exp(total / tokens) if tokens else float("inf")


def pretrain_decoder(
    params: ModelParams,
    corpora: dict[str, list[str]],
    dec_model: BpeModel,
    cfg: TrainConfig,
    log_path=None,
) -> tuple[ModelParams, dict[str, float], list[tuple[int, float, float]]]:
    """Causal LM pretraining over language-token-prefixed monolingual text.

    Trains the decoder tensors of ``params`` in place on the training loop,
    with ``cfg``'s dropout and layerdrop and no validation (cross-attention
    is never exercised and keeps its initialization).  Returns the model,
    per-language perplexities, and a (step, lr, loss) log, which is also
    written to ``log_path`` if given.
    """
    tagged = lm_sequences(corpora, dec_model)
    sequences = [ids for _, ids in tagged]
    pad_id = dec_model.pad_id

    def lm_loss(p, packed, drop):
        arr, _ = packed
        logits, _ = decoder_forward(p, None, None, arr[:, :-1], drop)
        return label_smoothed_nll(logits, arr[:, 1:], cfg.label_smoothing, pad_id)

    result = run_updates(
        params,
        cfg,
        lambda seed: pack_sequences(sequences, cfg.max_tokens_per_batch, seed, pad_id),
        lm_loss,
        log_path=log_path,
    )
    perplexities = {}
    for lang in corpora:
        seqs = [ids for tag, ids in tagged if tag == lang]
        perplexities[lang] = lm_perplexity(params, seqs, pad_id)
        logger.info("pretrain-decoder %s perplexity %.3f", lang, perplexities[lang])
    return params, perplexities, [row[:3] for row in result.log]
