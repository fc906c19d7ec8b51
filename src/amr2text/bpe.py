"""Byte-pair subword model: training, encoding, decoding, file formats.

Words are whitespace-separated tokens; each word is decomposed into a
word-boundary marker symbol (U+2581) followed by its characters, then
greedy highest-frequency pair merges are learned over the corpus.  Special
tokens (pad/bos/eos/unk/mask and every "<lang:xx>" token) are atomic: they
never participate in merges and are never split.  The boundary marker
character is reserved; input text containing a literal U+2581 does not
round-trip.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .langs import DEFAULT_LANGUAGES, lang_token

PAD, BOS, EOS, UNK, MASK = "<pad>", "<s>", "</s>", "<unk>", "<mask>"
CORE_SPECIALS = (PAD, BOS, EOS, UNK, MASK)
WORD_BOUNDARY = "▁"


class EmptyCorpus(ValueError):
    pass


class UnknownId(ValueError):
    pass


class MalformedVocabFile(ValueError):
    def __init__(self, path, message: str, line_number: int):
        super().__init__(f"{path}: line {line_number}: {message}")


def special_tokens(languages: frozenset[str] = DEFAULT_LANGUAGES) -> tuple[str, ...]:
    """Core specials followed by language tokens in sorted code order."""
    return CORE_SPECIALS + tuple(lang_token(code) for code in sorted(languages))


@dataclass
class BpeModel:
    """An immutable trained or loaded subword model.

    ``merges`` is in training order; ``vocab`` is dense and 0-based with
    specials first.  ``protected`` holds corpus-derived atomic pieces (role
    tokens when trained with protect_roles).
    """

    merges: tuple[tuple[str, str], ...]
    vocab: dict[str, int]
    specials: dict[str, int]
    protected: frozenset[str] = frozenset()
    _ranks: dict[tuple[str, str], int] = field(default_factory=dict, repr=False, compare=False)
    _pieces: tuple[str, ...] = field(default=(), repr=False, compare=False)
    _cache: dict[str, tuple[int, ...]] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self._ranks = {pair: i for i, pair in enumerate(self.merges)}
        pieces = [""] * len(self.vocab)
        for piece, idx in self.vocab.items():
            pieces[idx] = piece
        self._pieces = tuple(pieces)

    @property
    def pad_id(self) -> int:
        return self.specials[PAD]

    @property
    def bos_id(self) -> int:
        return self.specials[BOS]

    @property
    def eos_id(self) -> int:
        return self.specials[EOS]

    @property
    def unk_id(self) -> int:
        return self.specials[UNK]

    def lang_id(self, code: str) -> int:
        return self.specials[lang_token(code)]

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def piece(self, idx: int) -> str:
        if not 0 <= idx < len(self._pieces):
            raise UnknownId(f"id {idx} outside vocabulary of size {len(self._pieces)}")
        return self._pieces[idx]


def _word_symbols(word: str) -> tuple[str, ...]:
    return (WORD_BOUNDARY,) + tuple(word)


def _adjacent_pairs(symbols: Sequence[str]) -> Iterable[tuple[str, str]]:
    return zip(symbols, symbols[1:])


def train_bpe(
    corpus: Iterable[str],
    num_merges: int,
    languages: frozenset[str] = DEFAULT_LANGUAGES,
    protect_roles: bool = False,
) -> BpeModel:
    """Learn merges greedily by pair frequency, ties to the smallest piece.

    Exactly min(num_merges, achievable) merges are made; training stops
    early when no adjacent pair remains.  Pair counts are maintained
    incrementally so each merge touches only the words containing it.

    Each merge pops the top of a lazily invalidated min-heap of entries
    ``(-count, left + right, birth, pair)``.  A pair takes a new ``birth``
    each time it enters the live counts, so among pairs with equal count and
    equal concatenation the one that entered first wins, as the first of
    them in a scan of the counts in insertion order would.  After a merge,
    every pair whose count changed and is still live gets a fresh entry;
    entries whose count or birth no longer match the live pair are
    discarded when they reach the top, and the heap is rebuilt from the
    live counts once it holds more than twice as many entries as there are
    live pairs.
    """
    if num_merges < 0:
        raise ValueError("num_merges must be >= 0")
    specials = set(special_tokens(languages))
    protected: set[str] = set()
    word_freqs: Counter[str] = Counter()
    for line in corpus:
        for token in line.split():
            if token in specials:
                continue
            if protect_roles and token.startswith(":"):
                protected.add(token)
                continue
            word_freqs[token] += 1
    if not word_freqs:
        raise EmptyCorpus("no trainable tokens in corpus")

    words: list[list[str]] = [list(_word_symbols(w)) for w in word_freqs]
    freqs: list[int] = list(word_freqs.values())
    pair_counts: dict[tuple[str, str], int] = {}
    births: dict[tuple[str, str], int] = {}
    pair_to_words: dict[tuple[str, str], set[int]] = {}

    clock = itertools.count()

    def add(pair: tuple[str, str], f: int, wi: int) -> None:
        if pair not in pair_counts:
            pair_counts[pair] = 0
            births[pair] = next(clock)
        pair_counts[pair] += f
        pair_to_words.setdefault(pair, set()).add(wi)

    for wi, symbols in enumerate(words):
        for pair in _adjacent_pairs(symbols):
            add(pair, freqs[wi], wi)

    def entry(pair: tuple[str, str]) -> tuple:
        return (-pair_counts[pair], pair[0] + pair[1], births[pair], pair)

    heap = [entry(p) for p in pair_counts]
    heapq.heapify(heap)
    merges: list[tuple[str, str]] = []
    while len(merges) < num_merges and pair_counts:
        neg_count, _, birth, best = heapq.heappop(heap)
        if pair_counts.get(best) != -neg_count or births[best] != birth:
            continue
        merges.append(best)
        new_symbol = best[0] + best[1]
        changed: set[tuple[str, str]] = set()
        for wi in sorted(pair_to_words[best]):
            old = words[wi]
            f = freqs[wi]
            for pair in _adjacent_pairs(old):
                changed.add(pair)
                pair_counts[pair] -= f
                if pair_counts[pair] <= 0:
                    del pair_counts[pair]
                    del births[pair]
                members = pair_to_words.get(pair)
                if members is not None:
                    members.discard(wi)
                    if not members:
                        del pair_to_words[pair]
            merged: list[str] = []
            i = 0
            while i < len(old):
                if i + 1 < len(old) and old[i] == best[0] and old[i + 1] == best[1]:
                    merged.append(new_symbol)
                    i += 2
                else:
                    merged.append(old[i])
                    i += 1
            words[wi] = merged
            for pair in _adjacent_pairs(merged):
                changed.add(pair)
                add(pair, f, wi)
        if len(heap) > 2 * len(pair_counts):
            heap = [entry(p) for p in pair_counts]
            heapq.heapify(heap)
        else:
            for pair in changed:
                if pair in pair_counts:
                    heapq.heappush(heap, entry(pair))

    base_symbols = sorted({s for w in word_freqs for s in _word_symbols(w)})
    vocab: dict[str, int] = {}
    for tok in special_tokens(languages):
        vocab[tok] = len(vocab)
    for tok in sorted(protected):
        if tok not in vocab:
            vocab[tok] = len(vocab)
    for sym in base_symbols:
        if sym not in vocab:
            vocab[sym] = len(vocab)
    for left, right in merges:
        piece = left + right
        if piece not in vocab:
            vocab[piece] = len(vocab)
    specials_map = {tok: vocab[tok] for tok in special_tokens(languages)}
    return BpeModel(
        merges=tuple(merges),
        vocab=vocab,
        specials=specials_map,
        protected=frozenset(protected),
    )


def _segment(m: BpeModel, word: str) -> list[str]:
    """Apply merges rank-first until no adjacent pair has a learned rank."""
    symbols = list(_word_symbols(word))
    while len(symbols) > 1:
        ranked = [
            (m._ranks[pair], i)
            for i, pair in enumerate(_adjacent_pairs(symbols))
            if pair in m._ranks
        ]
        if not ranked:
            break
        rank, i = min(ranked)
        symbols[i : i + 2] = [symbols[i] + symbols[i + 1]]
    return symbols


def encode(m: BpeModel, text: str) -> list[int]:
    """Segment a token line into piece ids; unknown symbols map to unk."""
    ids: list[int] = []
    for token in text.split():
        cached = m._cache.get(token)
        if cached is not None:
            ids.extend(cached)
            continue
        if token in m.specials or token in m.protected:
            token_ids: tuple[int, ...] = (m.vocab[token],)
        else:
            token_ids = tuple(m.vocab.get(sym, m.unk_id) for sym in _segment(m, token))
        m._cache[token] = token_ids
        ids.extend(token_ids)
    return ids


def decode(m: BpeModel, ids: Sequence[int]) -> str:
    """Inverse of encode; boundary markers become spaces, pad is skipped."""
    parts: list[str] = []
    special_pieces = set(m.specials) | m.protected
    for idx in ids:
        piece = m.piece(int(idx))
        if piece == PAD:
            continue
        if piece in special_pieces:
            parts.append(WORD_BOUNDARY + piece)
        else:
            parts.append(piece)
    text = "".join(parts).replace(WORD_BOUNDARY, " ")
    return text[1:] if text.startswith(" ") else text


def save_bpe(m: BpeModel, path) -> None:
    """Plain-text model file: header, merges, a "#vocab" section, and an
    optional "#protected" section listing atomic corpus-derived pieces."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"bpe v1 {len(m.merges)}\n")
        for left, right in m.merges:
            f.write(f"{left} {right}\n")
        f.write("#vocab\n")
        for piece, idx in sorted(m.vocab.items(), key=lambda kv: kv[1]):
            f.write(f"{piece} {idx}\n")
        if m.protected:
            f.write("#protected\n")
            for piece in sorted(m.protected):
                f.write(piece + "\n")


def load_bpe(path) -> BpeModel:
    """Load a file written by save_bpe; vocabulary ids are taken verbatim."""
    with open(path, "rb") as f:
        blob = f.read()
    try:
        lines = blob.decode("utf-8").splitlines()
    except UnicodeDecodeError as err:
        line = blob.count(b"\n", 0, err.start) + 1
        raise MalformedVocabFile(path, "not UTF-8 text", line) from None
    if not lines or not lines[0].startswith("bpe v1 "):
        raise MalformedVocabFile(path, "expected header 'bpe v1 <num_merges>'", 1)
    try:
        n_merges = int(lines[0].split()[2])
    except (IndexError, ValueError):
        raise MalformedVocabFile(path, "bad merge count in header", 1) from None
    merges: list[tuple[str, str]] = []
    for lineno in range(2, 2 + n_merges):
        if lineno - 1 >= len(lines) or lines[lineno - 1] == "#vocab":
            raise MalformedVocabFile(path, "fewer merges than header declares", lineno)
        fields = lines[lineno - 1].split(" ")
        if len(fields) != 2:
            raise MalformedVocabFile(path, "merge line must be 'left right'", lineno)
        merges.append((fields[0], fields[1]))
    vocab_start = 2 + n_merges
    if vocab_start - 1 >= len(lines) or lines[vocab_start - 1] != "#vocab":
        raise MalformedVocabFile(path, "expected '#vocab' section", vocab_start)
    vocab: dict[str, int] = {}
    protected: set[str] = set()
    in_protected = False
    for lineno in range(vocab_start + 1, len(lines) + 1):
        line = lines[lineno - 1]
        if not line.strip():
            continue
        if line == "#protected":
            in_protected = True
            continue
        if in_protected:
            protected.add(line)
            continue
        fields = line.rsplit(" ", 1)
        if len(fields) != 2:
            raise MalformedVocabFile(path, "vocab line must be 'piece id'", lineno)
        piece, id_text = fields
        if piece in vocab:
            raise MalformedVocabFile(path, f"duplicate piece {piece!r}", lineno)
        try:
            vocab[piece] = int(id_text)
        except ValueError:
            raise MalformedVocabFile(path, f"bad id {id_text!r}", lineno) from None
    if sorted(vocab.values()) != list(range(len(vocab))):
        raise MalformedVocabFile(path, "vocabulary ids are not dense 0-based", len(lines))
    known_specials = set(special_tokens())
    specials_map = {tok: vocab[tok] for tok in vocab if tok in known_specials}
    missing = [tok for tok in CORE_SPECIALS if tok not in specials_map]
    if missing:
        raise MalformedVocabFile(path, f"missing special tokens {missing}", 1)
    return BpeModel(
        merges=tuple(merges), vocab=vocab, specials=specials_map, protected=frozenset(protected)
    )
