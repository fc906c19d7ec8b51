"""Detokenized corpus BLEU, overlap statistics, human-eval sheet sampling.

The metric owns tokenization: hypotheses and references are tokenized with
the standard international (mteval-13a-compatible) rules, frozen here and
pinned by golden-file tests.  Corpus BLEU uses modified n-gram precisions
for n = 1..4 and the exponential brevity penalty, with no smoothing: a
zero count at any order makes the score 0.  Sentence-level BLEU (used only
to rank sentences for the human-eval sheet) applies add-one smoothing on
orders 2-4 and is flagged as such in reports.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .bpe import BpeModel, encode
from .corpus import LineCountMismatch
from .langs import is_lang_token
from .tensor import Rng

NGRAM_ORDER = 4


class TooFewLanguages(ValueError):
    pass


class InsufficientSentences(ValueError):
    pass


def tokenize_13a(line: str) -> str:
    """Language-independent tokenization equivalent to mteval-v13a."""
    norm = line
    norm = norm.replace("<skipped>", "")
    norm = norm.replace("-\n", "")
    norm = norm.replace("\n", " ")
    norm = norm.replace("&quot;", '"')
    norm = norm.replace("&amp;", "&")
    norm = norm.replace("&lt;", "<")
    norm = norm.replace("&gt;", ">")
    norm = " {} ".format(norm)
    norm = re.sub(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])", " \\1 ", norm)
    norm = re.sub(r"([^0-9])([\.,])", "\\1 \\2 ", norm)
    norm = re.sub(r"([\.,])([^0-9])", " \\1 \\2", norm)
    norm = re.sub(r"([0-9])(-)", "\\1 \\2 ", norm)
    norm = re.sub(r"\s+", " ", norm)
    norm = re.sub(r"^\s+", "", norm)
    norm = re.sub(r"\s+$", "", norm)
    return norm


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _match_counts(hyp_tokens: list[str], ref_tokens: list[str]) -> list[tuple[int, int]]:
    """(clipped n-gram matches, hypothesis n-grams) for n = 1..NGRAM_ORDER."""
    counts = []
    for n in range(1, NGRAM_ORDER + 1):
        hyp_grams = _ngrams(hyp_tokens, n)
        ref_grams = _ngrams(ref_tokens, n)
        correct = sum(min(c, ref_grams[g]) for g, c in hyp_grams.items())
        counts.append((correct, sum(hyp_grams.values())))
    return counts


@dataclass(frozen=True)
class BleuReport:
    bleu: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    hyp_len: int
    ref_len: int

    def signature(self) -> str:
        p = "/".join(f"{100.0 * x:.1f}" for x in self.precisions)
        ratio = self.hyp_len / self.ref_len if self.ref_len else 0.0
        return (
            f"BLEU = {self.bleu:.2f} {p} (BP = {self.brevity_penalty:.3f} "
            f"ratio = {ratio:.3f} hyp_len = {self.hyp_len} ref_len = {self.ref_len})"
        )


def bleu(hypotheses: list[str], references: list[str], tokenize: bool = True) -> BleuReport:
    """Corpus BLEU over one reference per hypothesis, no smoothing."""
    if len(hypotheses) != len(references):
        raise LineCountMismatch(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    correct = [0] * NGRAM_ORDER
    total = [0] * NGRAM_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_tokens = (tokenize_13a(hyp) if tokenize else hyp).split()
        ref_tokens = (tokenize_13a(ref) if tokenize else ref).split()
        hyp_len += len(hyp_tokens)
        ref_len += len(ref_tokens)
        for n, (c, t) in enumerate(_match_counts(hyp_tokens, ref_tokens)):
            correct[n] += c
            total[n] += t
    precisions = tuple(
        (correct[n] / total[n]) if total[n] > 0 else 0.0 for n in range(NGRAM_ORDER)
    )
    if hyp_len == 0:
        bp = 0.0
    elif hyp_len < ref_len:
        bp = math.exp(1.0 - ref_len / hyp_len)
    else:
        bp = 1.0
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = bp * math.exp(sum(math.log(p) for p in precisions) / NGRAM_ORDER) * 100.0
    return BleuReport(
        bleu=score,
        precisions=precisions,
        brevity_penalty=bp,
        hyp_len=hyp_len,
        ref_len=ref_len,
    )


def sentence_bleu(hypothesis: str, reference: str, tokenize: bool = True) -> float:
    """Single-sentence BLEU with add-one smoothing on orders 2-4.

    Not comparable to corpus BLEU; used to rank sentences for sampling.
    """
    hyp_tokens = (tokenize_13a(hypothesis) if tokenize else hypothesis).split()
    ref_tokens = (tokenize_13a(reference) if tokenize else reference).split()
    if not hyp_tokens:
        return 0.0
    (correct, total), *higher = _match_counts(hyp_tokens, ref_tokens)
    if correct == 0:
        return 0.0
    precisions = [correct / total] + [(c + 1.0) / (t + 1.0) for c, t in higher]
    bp = 1.0 if len(hyp_tokens) >= len(ref_tokens) else math.exp(
        1.0 - len(ref_tokens) / len(hyp_tokens)
    )
    return bp * math.exp(sum(math.log(p) for p in precisions) / NGRAM_ORDER) * 100.0


@dataclass(frozen=True)
class ScoredSentence:
    index: int
    hypothesis: str
    reference: str
    score: float


def score_sentences(hypotheses: list[str], references: list[str]) -> list[ScoredSentence]:
    if len(hypotheses) != len(references):
        raise LineCountMismatch(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    return [
        ScoredSentence(i, h, r, sentence_bleu(h, r))
        for i, (h, r) in enumerate(zip(hypotheses, references))
    ]


def human_eval_sample(
    scored: list[ScoredSentence],
    n_high: int = 25,
    n_low: int = 25,
    min_words: int = 5,
    seed: int = 0,
) -> list[tuple[int, str, str]]:
    """Select the n_high best and n_low worst sentences by sentence BLEU.

    Sentences whose hypothesis has fewer than min_words words are dropped
    first.  The returned sheet rows (id, hypothesis, reference) are
    shuffled with the seed and carry no scores.
    """
    eligible = [s for s in scored if len(s.hypothesis.split()) >= min_words]
    if len(eligible) < n_high + n_low:
        raise InsufficientSentences(
            f"need {n_high + n_low} sentences after filtering, have {len(eligible)}"
        )
    by_score = sorted(eligible, key=lambda s: (-s.score, s.index))
    picked = by_score[:n_high] + by_score[len(by_score) - n_low :]
    rows = [(s.index, s.hypothesis, s.reference) for s in picked]
    gen = Rng(seed).stream("human-eval-sheet")
    order = gen.permutation(len(rows))
    return [rows[i] for i in order]


def write_human_eval_sheet(rows: list[tuple[int, str, str]], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("id\thypothesis\treference\n")
        for idx, hyp, ref in rows:
            f.write(f"{idx}\t{hyp}\t{ref}\n")


def _amr_content_tokens(amr_lines: list[str]) -> list[str]:
    """Concept and attribute tokens of linearized AMR lines (structure dropped)."""
    out: list[str] = []
    for line in amr_lines:
        for token in line.split():
            if token in ("(", ")") or token.startswith(":") or is_lang_token(token):
                continue
            out.append(token)
    return out


@dataclass(frozen=True)
class OverlapReport:
    rows: dict[str, tuple[float, float, float]]  # lang -> (word, subword, bleu)
    word_correlation: float
    subword_correlation: float

    def table(self) -> str:
        lines = ["lang\tword_overlap\tsubword_overlap\tbleu"]
        for lang in sorted(self.rows):
            w, s, b = self.rows[lang]
            lines.append(f"{lang}\t{w:.4f}\t{s:.4f}\t{b:.2f}")
        lines.append(
            f"# pearson word={self.word_correlation:.4f} "
            f"subword={self.subword_correlation:.4f}"
        )
        return "\n".join(lines)


def _overlap(source_tokens: list[str], target_tokens: list[str], token_level: bool) -> float:
    if token_level:
        if not target_tokens:
            return 0.0
        source_types = set(source_tokens)
        return sum(1 for t in target_tokens if t in source_types) / len(target_tokens)
    source_types = set(source_tokens)
    target_types = set(target_tokens)
    if not target_types:
        return 0.0
    return len(source_types & target_types) / len(target_types)


def overlap_stats(
    amr_lines: list[str],
    target_corpora: dict[str, list[str]],
    bpe_model: BpeModel,
    per_language_bleu: dict[str, float],
    token_level: bool = False,
) -> OverlapReport:
    """Word and subword overlap between AMR content and each target corpus,
    correlated (Pearson) against per-language BLEU."""
    langs = sorted(set(target_corpora) & set(per_language_bleu))
    if len(langs) < 3:
        raise TooFewLanguages(f"need at least 3 languages, have {len(langs)}")
    amr_words = _amr_content_tokens(amr_lines)
    amr_pieces = [
        bpe_model.piece(i) for w in amr_words for i in encode(bpe_model, w)
    ]
    rows: dict[str, tuple[float, float, float]] = {}
    for lang in langs:
        tgt_words = [w for line in target_corpora[lang] for w in line.split()]
        tgt_pieces = [
            bpe_model.piece(i) for line in target_corpora[lang] for i in encode(bpe_model, line)
        ]
        rows[lang] = (
            _overlap(amr_words, tgt_words, token_level),
            _overlap(amr_pieces, tgt_pieces, token_level),
            per_language_bleu[lang],
        )
    bleus = np.asarray([rows[lang][2] for lang in langs])
    word = np.asarray([rows[lang][0] for lang in langs])
    subword = np.asarray([rows[lang][1] for lang in langs])
    word_corr = float(np.corrcoef(word, bleus)[0, 1])
    subword_corr = float(np.corrcoef(subword, bleus)[0, 1])
    return OverlapReport(rows=rows, word_correlation=word_corr, subword_correlation=subword_corr)
