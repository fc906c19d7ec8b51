"""Subword model tests: hand-computed merges, inversibility, specials."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import scan_train_bpe

from amr2text.bpe import (
    CORE_SPECIALS,
    WORD_BOUNDARY,
    BpeModel,
    EmptyCorpus,
    MalformedVocabFile,
    UnknownId,
    decode,
    encode,
    load_bpe,
    save_bpe,
    special_tokens,
    train_bpe,
)


def test_hand_computed_merges():
    # words: "ab" x2, "abc" x1 -> pairs (_,a):3 (a,b):3 (b,c):1.
    # tie at 3 goes to the smaller merged string: "ab" < "▁a".
    m = train_bpe(["ab ab", "abc"], num_merges=3)
    assert m.merges == (
        ("a", "b"),
        (WORD_BOUNDARY, "ab"),
        (WORD_BOUNDARY + "ab", "c"),
    )


def test_merge_count_capped_by_corpus():
    m = train_bpe(["ab"], num_merges=100)
    assert len(m.merges) == 2  # (a,b) then (_,ab); nothing left to merge


def test_vocab_layout_specials_first_dense():
    m = train_bpe(["ab ab", "abc"], num_merges=3, languages=frozenset({"en", "de"}))
    expect_specials = CORE_SPECIALS + ("<lang:de>", "<lang:en>")
    for i, tok in enumerate(expect_specials):
        assert m.vocab[tok] == i
    assert sorted(m.vocab.values()) == list(range(m.vocab_size))
    assert m.pad_id == 0 and m.bos_id == 1 and m.eos_id == 2
    assert m.lang_id("de") == len(CORE_SPECIALS)


def test_encode_applies_merges_in_rank_order():
    m = train_bpe(["ab ab", "abc"], num_merges=3)
    assert encode(m, "ab") == [m.vocab[WORD_BOUNDARY + "ab"]]
    assert encode(m, "abc") == [m.vocab[WORD_BOUNDARY + "abc"]]
    assert decode(m, encode(m, "abc ab")) == "abc ab"


def test_unknown_symbol_maps_to_unk():
    m = train_bpe(["ab ab", "abc"], num_merges=3)
    ids = encode(m, "az")
    assert m.unk_id in ids


def test_specials_and_lang_tokens_never_split():
    corpus = ["the cat sat", "der hund lief"]
    m = train_bpe(corpus, num_merges=30, languages=frozenset({"en", "de"}))
    for tok in special_tokens(frozenset({"en", "de"})):
        ids = encode(m, f"{tok} cat")
        assert ids[0] == m.vocab[tok]
        if tok != "<pad>":  # pad is invisible on decode by design
            assert decode(m, ids) == f"{tok} cat"


def test_training_determinism():
    corpus = ["the quick brown fox", "the lazy dog", "brown cows low"]
    a = train_bpe(corpus, num_merges=40)
    b = train_bpe(corpus, num_merges=40)
    assert a.merges == b.merges
    assert a.vocab == b.vocab


def test_protect_roles_keeps_role_tokens_atomic():
    corpus = ["( want-01 :ARG0 ( boy ) )", "( go-02 :ARG0 boy :ARG1 home )"]
    m = train_bpe(corpus, num_merges=50, protect_roles=True)
    assert ":ARG0" in m.protected and ":ARG1" in m.protected
    ids = encode(m, ":ARG0 boy")
    assert ids[0] == m.vocab[":ARG0"]
    assert decode(m, ids) == ":ARG0 boy"
    # without protection the role splits into several pieces
    m2 = train_bpe(corpus, num_merges=0)
    assert len(encode(m2, ":ARG0")) > 1


def test_round_trip_identity_on_random_unicode(rng):
    alphabet = "abcdefgå→日本語öüßéç.,;:!?()-'\"0123456789"
    lines = []
    for _ in range(300):
        n_words = int(rng.integers(1, 8))
        words = [
            "".join(rng.choice(list(alphabet), size=int(rng.integers(1, 9))))
            for _ in range(n_words)
        ]
        lines.append(" ".join(words))
    m = train_bpe(lines, num_merges=200)
    for line in lines:
        assert decode(m, encode(m, line)) == line


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(alphabet="abcxyz ,.", min_size=1, max_size=30), min_size=1, max_size=8))
def test_round_trip_property(lines):
    normalized = [" ".join(l.split()) for l in lines if l.split()]
    if not normalized:
        return
    m = train_bpe(normalized, num_merges=50)
    for line in normalized:
        assert decode(m, encode(m, line)) == line


@st.composite
def _small_corpora(draw):
    """Lines over a tiny alphabet, so that many pairs tie on count."""
    alphabet = draw(st.sampled_from(["ab", "aab", "abc", "ab:", "a:bb"]))
    word = st.text(alphabet=alphabet, min_size=1, max_size=8)
    line = st.lists(word, min_size=1, max_size=6).map(" ".join)
    return draw(st.lists(line, min_size=1, max_size=5))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_small_corpora(), st.integers(0, 60), st.booleans())
def test_heap_selection_matches_full_scan(tmp_path_factory, corpus, num_merges, protect_roles):
    # Caps above the achievable count are common at these sizes; a corpus of
    # role tokens alone is empty for both trainers.
    try:
        want = scan_train_bpe(corpus, num_merges, protect_roles=protect_roles)
    except EmptyCorpus:
        with pytest.raises(EmptyCorpus):
            train_bpe(corpus, num_merges, protect_roles=protect_roles)
        return
    got = train_bpe(corpus, num_merges, protect_roles=protect_roles)
    assert got.merges == want.merges
    assert list(got.vocab.items()) == list(want.vocab.items())
    assert got.protected == want.protected
    d = tmp_path_factory.mktemp("bpe")
    save_bpe(got, d / "got.model")
    save_bpe(want, d / "want.model")
    assert (d / "got.model").read_bytes() == (d / "want.model").read_bytes()


def test_decode_skips_pad_and_rejects_bad_id():
    m = train_bpe(["ab"], num_merges=1)
    ids = encode(m, "ab")
    assert decode(m, [m.pad_id] + ids + [m.pad_id]) == decode(m, ids)
    with pytest.raises(UnknownId):
        decode(m, [m.vocab_size])


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpus):
        train_bpe(["", "   "], num_merges=5)


def test_save_load_round_trip(tmp_path):
    corpus = ["( want-01 :ARG0 ( boy ) )", "the boy wants it"]
    m = train_bpe(corpus, num_merges=25, protect_roles=True)
    path = tmp_path / "bpe.model"
    save_bpe(m, path)
    back = load_bpe(path)
    assert back.merges == m.merges
    assert back.vocab == m.vocab
    assert back.specials == m.specials
    assert back.protected == m.protected
    for line in corpus:
        assert encode(back, line) == encode(m, line)


def test_load_rejects_malformed(tmp_path):
    p = tmp_path / "bad.model"
    p.write_text("not a model\n", encoding="utf-8")
    with pytest.raises(MalformedVocabFile):
        load_bpe(p)
    p.write_text("bpe v1 2\na b\n#vocab\nx 0\n", encoding="utf-8")
    with pytest.raises(MalformedVocabFile):
        load_bpe(p)
    # dense 0-based ids enforced
    p.write_text("bpe v1 0\n#vocab\n<pad> 0\n<s> 2\n", encoding="utf-8")
    with pytest.raises(MalformedVocabFile):
        load_bpe(p)


def test_piece_accessor_round_trips_ids():
    m = train_bpe(["ab abc"], num_merges=2)
    for piece, idx in m.vocab.items():
        assert m.piece(idx) == piece
