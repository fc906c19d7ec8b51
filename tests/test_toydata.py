"""Bundled toy corpus generator tests."""

from pathlib import Path

import pytest

from amr2text.graph import parse_penman
from amr2text.langs import UnknownLanguage
from toydata import (
    TOY_LANGUAGES,
    toy_amr_lines,
    toy_pairs,
    toy_text_lines,
    write_toy_corpus,
)


def test_pairs_deterministic_and_distinct():
    a = toy_pairs(64, seed=0)
    b = toy_pairs(64, seed=0)
    c = toy_pairs(64, seed=1)
    assert a == b
    assert a != c
    assert len({p.amr for p in a}) == 64


def test_pairs_parse_and_cover_languages():
    for pair in toy_pairs(20, seed=3):
        g = parse_penman(pair.amr)
        assert g.nodes[g.root].endswith(("-01", "-02"))
        assert set(pair.texts) == set(TOY_LANGUAGES)
        for text in pair.texts.values():
            assert len(text.split()) >= 4


def test_pair_budget_enforced():
    with pytest.raises(ValueError):
        toy_pairs(4001)


def test_text_lines_language_check():
    lines = toy_text_lines(10, "de", seed=0)
    assert len(lines) == 10
    with pytest.raises(UnknownLanguage):
        toy_text_lines(5, "xx")


def test_write_toy_corpus_layout(tmp_path):
    write_toy_corpus(
        tmp_path, counts={"train": 12, "valid": 4, "test": 4},
        languages=["en", "de"], seed=0,
    )
    manifest = (tmp_path / "manifest.tsv").read_text(encoding="utf-8").splitlines()
    assert len(manifest) == 6  # 3 splits x 2 languages
    amr = (tmp_path / "train.amr").read_text(encoding="utf-8").splitlines()
    assert len(amr) == 12
    en = (tmp_path / "train.en.txt").read_text(encoding="utf-8").splitlines()
    de = (tmp_path / "train.de.txt").read_text(encoding="utf-8").splitlines()
    assert len(en) == len(de) == 12
    assert en != de
    # splits are disjoint AMRs
    valid = (tmp_path / "valid.amr").read_text(encoding="utf-8").splitlines()
    test = (tmp_path / "test.amr").read_text(encoding="utf-8").splitlines()
    assert not (set(amr) & set(valid)) and not (set(amr) & set(test))
    assert not (set(valid) & set(test))


TOY_DIR = Path(__file__).resolve().parent.parent / "data" / "toy"


def _toy_files(root) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(Path(root).iterdir())}


def test_bundled_corpus_is_seed_0_output(tmp_path):
    """data/toy is exactly write_toy_corpus at seed 0, every file byte for byte."""
    counts = {"train": 64, "valid": 8, "test": 8}
    write_toy_corpus(tmp_path / "s0", counts, ("en", "de"), seed=0)
    assert _toy_files(tmp_path / "s0") == _toy_files(TOY_DIR)
    write_toy_corpus(tmp_path / "s1", counts, ("en", "de"), seed=1)
    assert _toy_files(tmp_path / "s1") != _toy_files(TOY_DIR)


def test_bundled_corpus_matches_generator():
    import os

    root = os.path.join(os.path.dirname(__file__), "..", "data", "toy")
    with open(os.path.join(root, "train.amr"), encoding="utf-8") as f:
        bundled = f.read().splitlines()
    # splits are carved from one shuffle in sorted(label) order:
    # test (8), then train (64), then valid (8)
    assert bundled == toy_amr_lines(80, seed=0)[8:72]
