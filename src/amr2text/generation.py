"""Beam-search decoding plus cross-attention export.

A hypothesis is the generated id sequence after bos, ending with eos; its
length n (eos included) feeds the length penalty lp(n) = ((5+n)/6)^alpha
and score = logprob / lp(n).  Finished hypotheses are set aside as they
produce eos (they do not occupy beam slots); live beams are ranked by raw
logprob, finished ones by score.  A beam that reaches max_len without eos
is force-finished with eos so the search always returns something.

Beam search drives ``model.decode_step``: the input is encoded once into
one memory row, and each step runs the decoder over one new position per
live beam; the ``model.DecoderState`` keeps the keys and values and
follows the surviving beams.  Candidates are picked
from the flattened beam x vocabulary totals with ``np.argpartition``;
every total tied at the cut-off is kept and the small pool is sorted by
(-logprob, ids), so the choice is that of a full sort.  Live prefixes are
distinct and finished hypotheses from different steps differ in length,
so no id sequence finishes twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    DecoderState,
    EncoderInput,
    ModelParams,
    PrefixTooLong,
    decode_step,
    decoder_forward,
    encode,
)
from .tensor import no_grad


class NoHypothesis(RuntimeError):
    pass


class LengthMismatch(ValueError):
    pass


@dataclass(frozen=True)
class BeamConfig:
    size: int = 5
    alpha: float = 1.0
    max_len: int = 64
    min_len: int = 1

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("beam size must be >= 1")
        if not self.max_len >= self.min_len >= 1:
            raise ValueError("require max_len >= min_len >= 1")


@dataclass(frozen=True)
class Hypothesis:
    """ids includes the leading bos and the final eos when complete."""

    ids: tuple[int, ...]
    logprob: float
    score: float

    def generated(self, eos_id: int) -> tuple[int, ...]:
        body = self.ids[1:]
        if body and body[-1] == eos_id:
            body = body[:-1]
        return body


def length_penalty(n: int, alpha: float) -> float:
    return ((5.0 + n) / 6.0) ** alpha


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _finalize(ids: tuple[int, ...], logprob: float, alpha: float) -> Hypothesis:
    n = len(ids) - 1
    return Hypothesis(ids=ids, logprob=logprob, score=logprob / length_penalty(n, alpha))


def check_max_len(params: ModelParams, max_len: int) -> None:
    """Reject a length budget the decoder's position table cannot reach."""
    limit = params.config.max_positions
    if max_len > limit:
        raise PrefixTooLong(f"max_len {max_len} exceeds the model's max_positions {limit}")


def top_candidates(
    totals: np.ndarray, prefixes: list[tuple[int, ...]], k: int
) -> list[tuple[int, int]]:
    """The k best (row, token) extensions of ``prefixes`` by ``totals`` (rows, V).

    Ranked by total descending, ties by the extended id sequence ascending;
    -inf totals are never candidates.  Every total tied with the k-th best
    joins the sorted pool, so the tie-break sees all of them.
    """
    flat = totals.ravel()
    k = min(k, flat.size)
    cut = flat[np.argpartition(flat, -k)[-k:]].min()
    pool = np.flatnonzero((flat >= cut) & (flat != -np.inf))
    rows, tokens = np.divmod(pool, totals.shape[1])
    ranked = sorted(
        zip(flat[pool].tolist(), rows.tolist(), tokens.tolist()),
        key=lambda c: (-c[0], prefixes[c[1]] + (c[2],)),
    )
    return [(row, token) for _, row, token in ranked[:k]]


def beam_search(
    params: ModelParams,
    enc_input: EncoderInput,
    cfg: BeamConfig,
    bos_id: int,
    eos_id: int,
) -> tuple[Hypothesis, list[Hypothesis]]:
    """Length-normalized beam search over one encoder input.

    Returns (best hypothesis by score, n-best list of size <= cfg.size,
    sorted by score descending).
    """
    check_max_len(params, cfg.max_len)
    alpha = cfg.alpha
    with no_grad():
        memory, memory_mask = encode(params, enc_input)
        state = DecoderState(params, memory, memory_mask, bos_id)
        live: list[tuple[int, ...]] = [(bos_id,)]
        live_logprob = np.zeros(1, dtype=memory.data.dtype)
        last = np.asarray([bos_id])
        finished: list[Hypothesis] = []
        for n_generated in range(cfg.max_len):
            logp = _log_softmax(decode_step(params, state, last))
            if n_generated + 1 < cfg.min_len:
                logp[:, eos_id] = -np.inf
            totals = live_logprob[:, None] + logp
            for ids, total in zip(live, totals[:, eos_id]):
                if total != -np.inf:
                    finished.append(_finalize(ids + (eos_id,), total, alpha))
            if n_generated + 1 >= cfg.max_len:
                break  # budget exhausted: every live beam was forced to eos
            totals[:, eos_id] = -np.inf
            picked = top_candidates(totals, live, cfg.size)
            if not picked:
                break
            rows = np.asarray([row for row, _ in picked])
            last = np.asarray([token for _, token in picked])
            live = [live[row] + (token,) for row, token in picked]
            live_logprob = totals[rows, last]
            state.reorder(rows)
    if not finished:
        raise NoHypothesis("no hypothesis reached eos within max_len")
    finished.sort(key=lambda h: (-h.score, h.ids))
    nbest = finished[: cfg.size]
    return nbest[0], nbest


def cross_attention_matrix(
    params: ModelParams,
    enc_input: EncoderInput,
    hypothesis: Hypothesis,
    layer: int = -1,
    head: int | None = None,
) -> np.ndarray:
    """Cross-attention for each generated token (rows) over input positions.

    Row t is the attention of the query that produced hypothesis token t+1
    (so there is one row per id after bos, eos included), averaged over
    heads unless a specific head is selected; defaults to the final
    decoder layer.
    """
    if len(hypothesis.ids) < 2:
        raise LengthMismatch("hypothesis has no generated tokens")
    with no_grad():
        memory, memory_mask = encode(params, enc_input)
        _, weights = decoder_forward(params, memory, memory_mask, np.asarray([hypothesis.ids]))
    picked = weights[layer][0]  # (heads, T, S)
    matrix = picked[head] if head is not None else picked.mean(axis=0)
    return matrix[:-1, :]


def attention_dump(
    params: ModelParams,
    enc_input: EncoderInput,
    hypothesis: Hypothesis,
    input_tokens: list[str],
    output_pieces: list[str],
    path,
    layer: int = -1,
    head: int | None = None,
) -> np.ndarray:
    """Write the labeled attention grid; rows are output pieces.

    Row labels must match the hypothesis body (bos excluded) and column
    labels the encoder input, else LengthMismatch.
    """
    matrix = cross_attention_matrix(params, enc_input, hypothesis, layer, head)
    if matrix.shape[0] != len(output_pieces):
        raise LengthMismatch(
            f"{len(output_pieces)} row labels for {matrix.shape[0]} attention rows"
        )
    if matrix.shape[1] != len(input_tokens):
        raise LengthMismatch(
            f"{len(input_tokens)} column labels for {matrix.shape[1]} attention columns"
        )
    with open(path, "w", encoding="utf-8") as f:
        f.write("\t" + "\t".join(input_tokens) + "\n")
        for piece, row in zip(output_pieces, matrix):
            f.write(piece + "\t" + "\t".join(f"{v:.6f}" for v in row) + "\n")
    return matrix

