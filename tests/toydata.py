"""Deterministic synthetic AMR-to-text corpora for the tests.

A tiny closed grammar over invented lexicons produces aligned examples in
up to three "languages" that reuse real language tags: en (SVO, adjective
before noun), de (verb-final), fr (SVO, adjective after noun).  The point
is not linguistic fidelity but controllable, learnable regularities with
distinct word orders and disjoint-enough vocabularies, so language-token
conditioning has something to do.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from amr2text.corpus import SPLIT_LABELS
from amr2text.langs import UnknownLanguage
from amr2text.tensor import Rng

TOY_LANGUAGES = ("en", "de", "fr")

# (concept, en, de, fr)
SUBJECTS = (
    ("boy", "boy", "junge", "garcon"),
    ("girl", "girl", "madchen", "fille"),
    ("dog", "dog", "hund", "chien"),
    ("cat", "cat", "katze", "chat"),
    ("bird", "bird", "vogel", "oiseau"),
    ("farmer", "farmer", "bauer", "fermier"),
    ("teacher", "teacher", "lehrer", "maitre"),
    ("child", "child", "kind", "enfant"),
    ("king", "king", "konig", "roi"),
    ("sailor", "sailor", "seemann", "marin"),
)
VERBS = (
    ("see-01", "sees", "sieht", "voit"),
    ("want-01", "wants", "will", "veut"),
    ("find-01", "finds", "findet", "trouve"),
    ("chase-01", "chases", "jagt", "chasse"),
    ("like-01", "likes", "mag", "aime"),
    ("help-01", "helps", "hilft", "aide"),
    ("hold-01", "holds", "halt", "tient"),
    ("paint-01", "paints", "malt", "peint"),
)
OBJECTS = (
    ("book", "book", "buch", "livre"),
    ("ball", "ball", "ball", "balle"),
    ("house", "house", "haus", "maison"),
    ("tree", "tree", "baum", "arbre"),
    ("apple", "apple", "apfel", "pomme"),
    ("boat", "boat", "boot", "bateau"),
    ("stone", "stone", "stein", "pierre"),
    ("flower", "flower", "blume", "fleur"),
    ("song", "song", "lied", "chanson"),
    ("door", "door", "tur", "porte"),
)
ADJECTIVES = (
    ("small", "small", "kleine", "petite"),
    ("big", "big", "grosse", "grande"),
    ("old", "old", "alte", "vieille"),
    ("new", "new", "neue", "nouvelle"),
)

_COLUMN = {lang: i + 1 for i, lang in enumerate(TOY_LANGUAGES)}


@dataclass(frozen=True)
class ToyPair:
    amr: str
    texts: dict[str, str]


def _render_amr(verb, subj, obj, adj) -> str:
    inner = f"(v2 / {obj[0]}"
    if adj is not None:
        inner += f" :mod (v3 / {adj[0]})"
    inner += ")"
    return f"(v0 / {verb[0]} :ARG0 (v1 / {subj[0]}) :ARG1 {inner})"


def _render_text(language: str, verb, subj, obj, adj) -> str:
    col = _COLUMN[language]
    s, v, o = subj[col], verb[col], obj[col]
    a = adj[col] if adj is not None else None
    if language == "en":
        np = f"{a} {o}" if a else o
        return f"the {s} {v} the {np}"
    if language == "de":
        np = f"{a} {o}" if a else o
        return f"der {s} den {np} {v}"
    np = f"{o} {a}" if a else o
    return f"le {s} {v} le {np}"


def _all_combos():
    for verb in VERBS:
        for subj in SUBJECTS:
            for obj in OBJECTS:
                for adj in (None,) + ADJECTIVES:
                    yield verb, subj, obj, adj


def toy_pairs(n: int, seed: int = 0) -> list[ToyPair]:
    """The first n of a seeded shuffle of the full combination space."""
    combos = list(_all_combos())
    if n > len(combos):
        raise ValueError(f"at most {len(combos)} distinct pairs, asked for {n}")
    gen = Rng(seed).stream("toydata", "pairs")
    order = gen.permutation(len(combos))
    out = []
    for idx in order[:n]:
        verb, subj, obj, adj = combos[idx]
        texts = {
            lang: _render_text(lang, verb, subj, obj, adj) for lang in TOY_LANGUAGES
        }
        out.append(ToyPair(amr=_render_amr(verb, subj, obj, adj), texts=texts))
    return out


def toy_amr_lines(n: int, seed: int = 0) -> list[str]:
    return [p.amr for p in toy_pairs(n, seed)]


def toy_text_lines(n: int, language: str, seed: int = 0) -> list[str]:
    """Monolingual sentences, drawn from a stream independent of toy_pairs."""
    if language not in TOY_LANGUAGES:
        raise UnknownLanguage(f"toy data covers {TOY_LANGUAGES}, not {language!r}")
    combos = list(_all_combos())
    gen = Rng(seed).stream("toydata", "mono", language)
    order = gen.permutation(len(combos))
    if n > len(combos):
        raise ValueError(f"at most {len(combos)} distinct sentences, asked for {n}")
    return [
        _render_text(language, *combos[idx]) for idx in order[:n]
    ]


def write_toy_corpus(
    out_dir,
    counts: dict[str, int],
    languages=("en", "de"),
    seed: int = 0,
) -> str:
    """Write per-split AMR and text files plus a manifest; returns its path.

    Splits draw disjoint pairs from one seeded shuffle, so regenerating
    with the same arguments is byte-identical.
    """
    for split in counts:
        if split not in SPLIT_LABELS:
            raise ValueError(f"unknown split label {split!r}")
    for lang in languages:
        if lang not in TOY_LANGUAGES:
            raise UnknownLanguage(f"toy data covers {TOY_LANGUAGES}, not {lang!r}")
    os.makedirs(out_dir, exist_ok=True)
    pairs = toy_pairs(sum(counts.values()), seed)
    manifest_path = os.path.join(out_dir, "manifest.tsv")
    offset = 0
    lines = []
    for split in sorted(counts):
        chunk = pairs[offset : offset + counts[split]]
        offset += counts[split]
        amr_name = f"{split}.amr"
        with open(os.path.join(out_dir, amr_name), "w", encoding="utf-8") as f:
            for p in chunk:
                f.write(p.amr + "\n")
        for lang in languages:
            text_name = f"{split}.{lang}.txt"
            with open(os.path.join(out_dir, text_name), "w", encoding="utf-8") as f:
                for p in chunk:
                    f.write(p.texts[lang] + "\n")
            lines.append(f"{lang}\t{amr_name}\t{text_name}\t{split}")
    with open(manifest_path, "w", encoding="utf-8") as f:
        for line in lines:
            f.write(line + "\n")
    return manifest_path
