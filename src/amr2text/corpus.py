"""Dataset ingestion, split protocols, multilingual concatenation, batching.

A manifest lists per-language file pairs (PENMAN AMR lines + target text
lines) with a split label.  Ingestion parses and linearizes each AMR,
prepends the target-language token, applies the two subword models, and
replicates per-token graph features onto each subword piece.  Splits are
deterministic: the shared test file is halved by index parity, or a
valid/test portion is carved off the end of the training data.  Batches
are packed by token budget after a seeded shuffle and length bucketing.
"""

from __future__ import annotations

import hashlib
import logging
import os
from dataclasses import dataclass, field

import numpy as np

from .bpe import BpeModel, encode
from .graph import PenmanError, parse_penman
from .langs import UnknownLanguage, check_language
from .linearize import LinearizedAmr, linearize_for_language
from .tensor import Rng

logger = logging.getLogger(__name__)

SPLIT_LABELS = ("train", "valid", "test", "derive")


class LineCountMismatch(ValueError):
    pass


class StoreTooSmall(ValueError):
    pass


class ExampleTooLong(ValueError):
    pass


@dataclass(frozen=True)
class ParallelExample:
    """One AMR-to-text pair, fully numericalized."""

    src_ids: tuple[int, ...]
    src_depth_ids: tuple[int, ...]
    src_subgraph_ids: tuple[int, ...]
    tgt_ids: tuple[int, ...]
    language: str

    def __post_init__(self):
        if not (
            len(self.src_ids) == len(self.src_depth_ids) == len(self.src_subgraph_ids)
        ):
            raise ValueError("source id rows must have equal length")

    def check_target(self, bos_id: int, eos_id: int) -> None:
        if len(self.tgt_ids) < 2 or self.tgt_ids[0] != bos_id or self.tgt_ids[-1] != eos_id:
            raise ValueError(
                f"target {self.tgt_ids} must begin with bos {bos_id} and end with eos {eos_id}"
            )


@dataclass(frozen=True)
class ManifestEntry:
    language: str
    amr_file: str
    text_file: str
    split: str


def load_manifest(path) -> tuple[ManifestEntry, ...]:
    """Tab-separated lines "lang<TAB>amr<TAB>text<TAB>split"; lines starting
    with "#" are comments."""
    entries: list[ManifestEntry] = []
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 tab-separated fields")
            lang, amr_file, text_file, split = parts
            check_language(lang)
            if split not in SPLIT_LABELS:
                raise ValueError(f"{path}:{lineno}: unknown split label {split!r}")
            # relative data paths resolve against the manifest's directory
            base = os.path.dirname(os.path.abspath(path))
            amr_file = amr_file if os.path.isabs(amr_file) else os.path.join(base, amr_file)
            text_file = text_file if os.path.isabs(text_file) else os.path.join(base, text_file)
            entries.append(ManifestEntry(lang, amr_file, text_file, split))
    return tuple(entries)


def encode_linearized(
    lin: LinearizedAmr, enc_model: BpeModel
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Subword-encode linearized tokens; every piece of a token inherits the
    token's depth and subgraph ids.  Returns (ids, depth_ids, subgraph_ids)."""
    src_ids: list[int] = []
    depth_ids: list[int] = []
    subgraph_ids: list[int] = []
    for token, d, s in zip(lin.tokens, lin.depth_ids, lin.subgraph_ids):
        for piece_id in encode(enc_model, token):
            src_ids.append(piece_id)
            depth_ids.append(d)
            subgraph_ids.append(s)
    return tuple(src_ids), tuple(depth_ids), tuple(subgraph_ids)


def numericalize(
    amr_line: str,
    text_line: str,
    language: str,
    enc_model: BpeModel,
    dec_model: BpeModel,
) -> ParallelExample:
    """Parse, linearize, and subword-encode one aligned line pair."""
    graph = parse_penman(amr_line)
    lin = linearize_for_language(graph, language)
    src_ids, depth_ids, subgraph_ids = encode_linearized(lin, enc_model)
    tgt_ids = (dec_model.bos_id,) + tuple(encode(dec_model, text_line)) + (dec_model.eos_id,)
    return ParallelExample(
        src_ids=src_ids,
        src_depth_ids=depth_ids,
        src_subgraph_ids=subgraph_ids,
        tgt_ids=tgt_ids,
        language=language,
    )


@dataclass
class IngestResult:
    """Per-language, per-split-label example lists plus drop counters."""

    stores: dict[str, dict[str, list[ParallelExample]]] = field(default_factory=dict)
    dropped: dict[str, int] = field(default_factory=dict)


def ingest(
    entries: tuple[ManifestEntry, ...], enc_model: BpeModel, dec_model: BpeModel
) -> IngestResult:
    """Read every manifest entry; unparseable AMR lines are dropped and counted."""
    result = IngestResult()
    for entry in entries:
        with open(entry.amr_file, encoding="utf-8") as f:
            amr_lines = f.read().splitlines()
        with open(entry.text_file, encoding="utf-8") as f:
            text_lines = f.read().splitlines()
        if len(amr_lines) != len(text_lines):
            raise LineCountMismatch(
                f"{entry.amr_file} has {len(amr_lines)} lines but "
                f"{entry.text_file} has {len(text_lines)}"
            )
        store = result.stores.setdefault(entry.language, {})
        bucket = store.setdefault(entry.split, [])
        for amr_line, text_line in zip(amr_lines, text_lines):
            try:
                bucket.append(
                    numericalize(amr_line, text_line, entry.language, enc_model, dec_model)
                )
            except (PenmanError, ValueError) as err:
                result.dropped[entry.language] = result.dropped.get(entry.language, 0) + 1
                logger.debug("dropped %s line: %s", entry.language, err)
    for lang, count in result.dropped.items():
        logger.info("dropped %d unparseable %s lines", count, lang)
    return result


def split_store(
    store: dict[str, list[ParallelExample]], mode: str, derive_n: int = 1000
) -> dict[str, list[ParallelExample]]:
    """Produce disjoint train/valid/test lists.

    common-test mode halves the provided test file by index parity (even
    indices become validation, odd become test).  derive mode carves the
    last 2n examples off the training pool: first n to validation, last n
    to test.
    """
    if mode == "common-test":
        test_pool = store.get("test", [])
        return {
            "train": list(store.get("train", [])),
            "valid": list(store.get("valid", [])) + test_pool[0::2],
            "test": test_pool[1::2],
        }
    if mode == "derive":
        pool = list(store.get("train", [])) + list(store.get("derive", []))
        if len(pool) < 2 * derive_n + 1:
            raise StoreTooSmall(
                f"derive mode needs at least {2 * derive_n + 1} examples, have {len(pool)}"
            )
        carved = pool[len(pool) - 2 * derive_n :]
        return {
            "train": pool[: len(pool) - 2 * derive_n],
            "valid": carved[:derive_n],
            "test": carved[derive_n:],
        }
    raise ValueError(f"unknown split mode {mode!r}")


def concat_multilingual(
    stores: dict[str, list[ParallelExample]], languages
) -> list[ParallelExample]:
    """Concatenate requested languages into one dataset, tags preserved."""
    requested = list(languages)
    if not requested:
        raise UnknownLanguage("empty language subset")
    dataset: list[ParallelExample] = []
    for lang in requested:
        if lang not in stores:
            raise UnknownLanguage(f"language {lang!r} was not ingested")
        dataset.extend(stores[lang])
    return dataset


def save_examples(path, examples: list[ParallelExample]) -> None:
    """Five tab-separated columns per line: language and four id rows."""
    with open(path, "w", encoding="utf-8") as f:
        for ex in examples:
            f.write(
                "\t".join(
                    [
                        ex.language,
                        " ".join(map(str, ex.src_ids)),
                        " ".join(map(str, ex.src_depth_ids)),
                        " ".join(map(str, ex.src_subgraph_ids)),
                        " ".join(map(str, ex.tgt_ids)),
                    ]
                )
                + "\n"
            )


def load_examples(path) -> list[ParallelExample]:
    out: list[ParallelExample] = []
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise ValueError(f"{path}:{lineno}: expected 5 tab-separated fields")
            lang, src, depth, sub, tgt = parts
            ints = [tuple(int(x) for x in col.split()) for col in (src, depth, sub, tgt)]
            out.append(ParallelExample(ints[0], ints[1], ints[2], ints[3], lang))
    return out


def dataset_fingerprint(examples: list[ParallelExample]) -> str:
    h = hashlib.sha256()
    for ex in examples:
        h.update(repr((ex.language, ex.src_ids, ex.tgt_ids)).encode("utf-8"))
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class Batch:
    """Padded arrays for one update; pad_mask is True on real positions."""

    src: np.ndarray
    src_depth: np.ndarray
    src_subgraph: np.ndarray
    src_pad_mask: np.ndarray
    tgt: np.ndarray
    example_indices: tuple[int, ...]

    @property
    def size(self) -> int:
        return self.src.shape[0]

    def n_target_tokens(self, pad_id: int) -> int:
        return int((self.tgt[:, 1:] != pad_id).sum())


def _pad_rows(rows: list[tuple[int, ...]], pad_value: int) -> np.ndarray:
    width = max(len(r) for r in rows)
    out = np.full((len(rows), width), pad_value, dtype=np.int64)
    for i, r in enumerate(rows):
        out[i, : len(r)] = r
    return out


def _group_by_budget(
    lengths: list[int], max_tokens: int, gen: np.random.Generator, what: str
) -> list[list[int]]:
    """Seeded shuffle, stable length sort, greedy fill under the budget
    max(length) * batch_size <= max_tokens; batch order reshuffled."""
    for i, n in enumerate(lengths):
        if n > max_tokens:
            raise ExampleTooLong(f"{what} {i} needs {n} tokens, max_tokens is {max_tokens}")
    perm = gen.permutation(len(lengths))
    order = perm[np.argsort([lengths[i] for i in perm], kind="stable")]
    groups: list[list[int]] = []
    current: list[int] = []
    current_max = 0
    for i in order:
        candidate_max = max(current_max, lengths[i])
        if current and candidate_max * (len(current) + 1) > max_tokens:
            groups.append(current)
            current, current_max = [], 0
            candidate_max = lengths[i]
        current.append(int(i))
        current_max = candidate_max
    if current:
        groups.append(current)
    gen.shuffle(groups)
    return groups


def make_batches(
    dataset: list[ParallelExample], max_tokens: int, shuffle_seed: int, pad_id: int
) -> list[Batch]:
    """Token-budget batching over parallel examples."""
    lengths = [max(len(ex.src_ids), len(ex.tgt_ids)) for ex in dataset]
    gen = Rng(shuffle_seed).stream("batches")
    groups = _group_by_budget(lengths, max_tokens, gen, "example")
    batches: list[Batch] = []
    for group in groups:
        exs = [dataset[i] for i in group]
        batches.append(
            Batch(
                src=_pad_rows([ex.src_ids for ex in exs], pad_id),
                src_depth=_pad_rows([ex.src_depth_ids for ex in exs], 0),
                src_subgraph=_pad_rows([ex.src_subgraph_ids for ex in exs], 0),
                src_pad_mask=_pad_rows(
                    [(1,) * len(ex.src_ids) for ex in exs], 0
                ).astype(bool),
                tgt=_pad_rows([ex.tgt_ids for ex in exs], pad_id),
                example_indices=tuple(group),
            )
        )
    return batches


def pack_sequences(
    sequences: list[tuple[int, ...]], max_tokens: int, shuffle_seed: int, pad_id: int
) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """Token-budget packing for plain id sequences (decoder LM pretraining).

    Returns (padded array, original indices) per batch.
    """
    gen = Rng(shuffle_seed).stream("lm-batches")
    groups = _group_by_budget([len(s) for s in sequences], max_tokens, gen, "sequence")
    return [
        (_pad_rows([sequences[i] for i in group], pad_id), tuple(group)) for group in groups
    ]
