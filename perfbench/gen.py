"""Seeded synthetic AMR/bitext corpus for the benchmark.

The shipped toy corpus saturates its subword vocabulary at about 150
pieces and its graphs are two levels deep, so it hides where time goes at
realistic sizes.  This generator draws, from one seed:

* a lexicon of ``LEXICON`` pseudo-word lemmas with Zipf(``ZIPF_S``)
  frequencies, each with a German surface form;
* PENMAN graphs of ``MIN_NODES``..``MAX_NODES`` nodes, grown towards depth
  ``MAX_DEPTH``, with re-entrant edges (about ``REENTRANT_SHARE`` of all
  edges) and polarity / quantity / name attributes;
* an English and a German sentence per graph, realised from the graph (the
  German one puts predicates last), so target text shares the lexicon's
  skew.

Only numpy's seeded generator is used; the same seed gives byte-identical
files.  Graphs are written one per line, the layout ``build-corpus`` reads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

LEXICON = 6000
ZIPF_S = 1.05
MIN_NODES = 10
MAX_NODES = 26
MAX_DEPTH = 7
REENTRANT_SHARE = 0.12
ATTRIBUTE_SHARE = 0.15
PREDICATE_SHARE = 0.35
PERTURB_RATE = 0.2

ONSETS = "b d f g k l m n p r s t v z br dr gr kl pl st tr sch".split()
VOWELS = "a e i o u ai au ei".split()
CODAS = ["", "", "n", "r", "s", "l", "t", "nd", "rk"]
ROLES = (":ARG0", ":ARG1", ":ARG2", ":ARG3", ":mod", ":location", ":time",
         ":manner", ":purpose", ":poss", ":topic", ":instrument")
EN_FUNCTION = {":ARG0": "", ":ARG1": "the", ":ARG2": "to", ":ARG3": "from",
               ":mod": "", ":location": "in", ":time": "when", ":manner": "by",
               ":purpose": "for", ":poss": "of", ":topic": "about",
               ":instrument": "with"}
DE_FUNCTION = {":ARG0": "der", ":ARG1": "den", ":ARG2": "zu", ":ARG3": "von",
               ":mod": "", ":location": "in", ":time": "als", ":manner": "durch",
               ":purpose": "für", ":poss": "des", ":topic": "über",
               ":instrument": "mit"}


@dataclass(frozen=True)
class Corpus:
    amr: list[str]
    en: list[str]
    de: list[str]


def _lexicon(gen: np.random.Generator) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < LEXICON:
        n = int(gen.integers(1, 4))
        word = "".join(
            ONSETS[gen.integers(len(ONSETS))]
            + VOWELS[gen.integers(len(VOWELS))]
            + CODAS[gen.integers(len(CODAS))]
            for _ in range(n)
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _german(word: str) -> str:
    return word.replace("k", "ch").replace("ai", "ä").replace("au", "ü") + "e"


class _Lexicon:
    def __init__(self, gen: np.random.Generator):
        self.words = _lexicon(gen)
        weights = 1.0 / np.arange(1, LEXICON + 1) ** ZIPF_S
        self.cdf = np.cumsum(weights / weights.sum())

    def draw(self, gen: np.random.Generator) -> str:
        return self.words[int(np.searchsorted(self.cdf, gen.random()))]


@dataclass
class _Node:
    var: str
    lemma: str
    predicate: bool
    depth: int
    items: list  # (role, kind, value): kind is "child", "reent" or "attr"


def _graph(gen: np.random.Generator, lex: _Lexicon):
    """Grow a tree, then add re-entrant edges that keep the graph acyclic."""
    n_nodes = int(gen.integers(MIN_NODES, MAX_NODES + 1))
    nodes = [_Node("x0", lex.draw(gen), True, 0, [])]
    while len(nodes) < n_nodes:
        # Deeper parents are favoured so graphs reach well past depth 2.
        weights = np.array([1.0 + n.depth for n in nodes if n.depth < MAX_DEPTH])
        open_nodes = [n for n in nodes if n.depth < MAX_DEPTH]
        parent = open_nodes[int(gen.choice(len(open_nodes), p=weights / weights.sum()))]
        child = _Node(f"x{len(nodes)}", lex.draw(gen), bool(gen.random() < PREDICATE_SHARE),
                      parent.depth + 1, [])
        parent.items.append((ROLES[gen.integers(len(ROLES))], "child", child))
        nodes.append(child)
    for node in nodes:
        if gen.random() < ATTRIBUTE_SHARE:
            kind = int(gen.integers(3))
            if kind == 0:
                node.items.append((":polarity", "attr", "-"))
            elif kind == 1:
                node.items.append((":quant", "attr", str(int(gen.integers(2, 1000)))))
            else:
                node.items.append((":name", "attr", '"' + lex.draw(gen).capitalize() + '"'))
    # Pre-order start and finish times: an edge u -> v with v finished
    # before u starts cannot close a cycle.
    start: dict[str, int] = {}
    finish: dict[str, int] = {}
    clock = 0

    def walk(node: _Node) -> None:
        nonlocal clock
        start[node.var] = clock
        clock += 1
        for _, kind, value in node.items:
            if kind == "child":
                walk(value)
        finish[node.var] = clock
        clock += 1

    walk(nodes[0])
    n_tree_edges = len(nodes) - 1
    wanted = int(round(REENTRANT_SHARE * n_tree_edges / (1.0 - REENTRANT_SHARE)))
    for _ in range(wanted):
        u = nodes[int(gen.integers(1, len(nodes)))]
        targets = [v for v in nodes if finish[v.var] < start[u.var]]
        if targets:
            v = targets[int(gen.integers(len(targets)))]
            u.items.append((ROLES[gen.integers(4)], "reent", v))
    return nodes[0]


def _penman(node: _Node) -> str:
    concept = node.lemma + ("-01" if node.predicate else "")
    parts = [f"({node.var} / {concept}"]
    for role, kind, value in node.items:
        if kind == "child":
            parts.append(f"{role} {_penman(value)}")
        elif kind == "reent":
            parts.append(f"{role} {value.var}")
        else:
            parts.append(f"{role} {value}")
    return " ".join(parts) + ")"


def _realise(node: _Node, german: bool) -> list[str]:
    """English keeps head-first order; German moves predicates last."""
    function = DE_FUNCTION if german else EN_FUNCTION
    head = _german(node.lemma) if german else node.lemma
    body: list[str] = []
    for role, kind, value in node.items:
        if kind == "attr":
            if role == ":polarity":
                body.append("nicht" if german else "not")
            else:
                body.append(value.strip('"'))
            continue
        if function[role]:
            body.append(function[role])
        if kind == "child":
            body.extend(_realise(value, german))
        else:
            body.append("es" if german else "it")
    if german and node.predicate:
        return body + [head]
    return [head] + body


def generate(n_pairs: int, seed: int) -> Corpus:
    gen = np.random.default_rng([seed, 0x616D72])
    lex = _Lexicon(gen)
    amr, en, de = [], [], []
    for _ in range(n_pairs):
        root = _graph(gen, lex)
        amr.append(_penman(root))
        en.append(" ".join(_realise(root, german=False)))
        de.append(" ".join(_realise(root, german=True)))
    return Corpus(amr, en, de)


def perturb(lines: list[str], seed: int) -> list[str]:
    """Seeded system-output stand-ins: drop, repeat or swap words."""
    rate = PERTURB_RATE
    gen = np.random.default_rng([seed, 0x687970])
    out = []
    for line in lines:
        words = line.split()
        kept: list[str] = []
        for w in words:
            r = gen.random()
            if r < rate / 3:
                continue
            kept.append(w)
            if r > 1.0 - rate / 3:
                kept.append(w)
        if len(kept) > 2 and gen.random() < rate:
            i = int(gen.integers(len(kept) - 1))
            kept[i], kept[i + 1] = kept[i + 1], kept[i]
        out.append(" ".join(kept) if kept else words[0])
    return out


def write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(line + "\n" for line in lines))


def write_split_corpus(out_dir: str, corpus: Corpus, n_valid: int, n_test: int) -> dict:
    """train/valid/test files per language plus a build-corpus manifest.

    Returns the pair count of each split.
    """
    os.makedirs(out_dir, exist_ok=True)
    n = len(corpus.amr)
    bounds = {"train": (0, n - n_valid - n_test), "valid": (n - n_valid - n_test, n - n_test),
              "test": (n - n_test, n)}
    rows = []
    for split, (lo, hi) in bounds.items():
        write_lines(os.path.join(out_dir, f"{split}.amr"), corpus.amr[lo:hi])
        for lang in ("en", "de"):
            write_lines(os.path.join(out_dir, f"{split}.{lang}.txt"), getattr(corpus, lang)[lo:hi])
            rows.append(f"{lang}\t{split}.amr\t{split}.{lang}.txt\t{split}")
    write_lines(os.path.join(out_dir, "manifest.tsv"), rows)
    return {split: hi - lo for split, (lo, hi) in bounds.items()}
