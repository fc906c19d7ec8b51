"""Corpus ingestion, splitting, and batching tests."""

import numpy as np
import pytest

from amr2text.bpe import train_bpe
from amr2text.corpus import (
    Batch,
    ExampleTooLong,
    LineCountMismatch,
    ParallelExample,
    StoreTooSmall,
    concat_multilingual,
    dataset_fingerprint,
    encode_linearized,
    ingest,
    load_examples,
    load_manifest,
    make_batches,
    numericalize,
    pack_sequences,
    save_examples,
    split_store,
)
from amr2text.graph import parse_penman
from amr2text.langs import UnknownLanguage
from amr2text.linearize import linearize_for_language

AMR = "(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))"


@pytest.fixture(scope="module")
def models():
    lin = " ".join(linearize_for_language(parse_penman(AMR)).tokens)
    enc = train_bpe([lin, "( see-01 :ARG0 ( dog ) )"], 40, protect_roles=True)
    dec = train_bpe(["the boy wants to go", "der junge will gehen"], 40)
    return enc, dec


def test_numericalize_features_replicate_across_pieces(models):
    enc, dec = models
    ex = numericalize(AMR, "the boy wants to go", "en", enc, dec)
    assert len(ex.src_ids) == len(ex.src_depth_ids) == len(ex.src_subgraph_ids)
    ex.check_target(dec.bos_id, dec.eos_id)
    assert ex.language == "en"
    # leading language token carries zero features
    assert ex.src_ids[0] == enc.lang_id("en")
    assert ex.src_depth_ids[0] == 0 and ex.src_subgraph_ids[0] == 0
    # a multi-piece token repeats its features once per piece
    lin = linearize_for_language(parse_penman(AMR), "en")
    ids, depths, subs = encode_linearized(lin, enc)
    assert ids == ex.src_ids
    assert len(ids) >= len(lin.tokens)


def test_parallel_example_validation():
    with pytest.raises(ValueError):
        ParallelExample((1, 2), (0,), (0, 0), (1, 2), "en")
    ex = ParallelExample((1,), (0,), (0,), (1, 5, 2), "en")
    with pytest.raises(ValueError):
        ex.check_target(bos_id=9, eos_id=2)


def _write_parallel(tmp_path, name, amr_lines, text_lines):
    (tmp_path / f"{name}.amr").write_text("\n".join(amr_lines) + "\n", encoding="utf-8")
    (tmp_path / f"{name}.txt").write_text("\n".join(text_lines) + "\n", encoding="utf-8")


def test_manifest_and_ingest(tmp_path, models):
    enc, dec = models
    good = "(s / see-01 :ARG0 (d / dog))"
    _write_parallel(tmp_path, "train_en", [AMR, good, "(broken"], ["a", "b", "c"])
    _write_parallel(tmp_path, "test_en", [good], ["d"])
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(
        "#derive_n=7\n"
        "en\ttrain_en.amr\ttrain_en.txt\ttrain\n"
        "en\ttest_en.amr\ttest_en.txt\ttest\n",
        encoding="utf-8",
    )
    m = load_manifest(manifest)
    assert len(m) == 2
    assert m[0].amr_file.startswith(str(tmp_path))  # resolved relative
    result = ingest(m, enc, dec)
    assert len(result.stores["en"]["train"]) == 2  # the broken line dropped
    assert result.dropped == {"en": 1}
    assert len(result.stores["en"]["test"]) == 1


def test_manifest_rejects_bad_rows(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text("en\tonly_two_fields\ttrain\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_manifest(p)
    p.write_text("en\ta.amr\ta.txt\tnosuchsplit\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_manifest(p)


def test_ingest_line_count_mismatch(tmp_path, models):
    enc, dec = models
    _write_parallel(tmp_path, "bad", [AMR, AMR], ["only one"])
    m = tmp_path / "m.tsv"
    m.write_text("en\tbad.amr\tbad.txt\ttrain\n", encoding="utf-8")
    with pytest.raises(LineCountMismatch):
        ingest(load_manifest(m), enc, dec)


def _fake_examples(n, lang="en", start=0):
    return [
        ParallelExample((i + start, 1), (0, 0), (0, 0), (1, i + start, 2), lang)
        for i in range(n)
    ]


def test_split_common_test_parity():
    store = {"train": _fake_examples(10), "test": _fake_examples(6, start=100)}
    splits = split_store(store, "common-test")
    assert len(splits["train"]) == 10
    assert [ex.src_ids[0] for ex in splits["valid"]] == [100, 102, 104]
    assert [ex.src_ids[0] for ex in splits["test"]] == [101, 103, 105]


def test_split_derive_carves_tail():
    store = {"train": _fake_examples(25)}
    splits = split_store(store, "derive", derive_n=5)
    assert len(splits["train"]) == 15
    assert [ex.src_ids[0] for ex in splits["valid"]] == list(range(15, 20))
    assert [ex.src_ids[0] for ex in splits["test"]] == list(range(20, 25))
    with pytest.raises(StoreTooSmall):
        split_store({"train": _fake_examples(10)}, "derive", derive_n=5)
    with pytest.raises(ValueError):
        split_store(store, "bogus")


def test_splits_are_disjoint():
    store = {"train": _fake_examples(30), "test": _fake_examples(8, start=50)}
    for mode, kw in (("common-test", {}), ("derive", {"derive_n": 4})):
        splits = split_store(store, mode, **kw)
        seen = [ex.src_ids[0] for split in splits.values() for ex in split]
        assert len(seen) == len(set(seen))


def test_concat_multilingual_order_and_unknown():
    stores = {"en": _fake_examples(2, "en"), "de": _fake_examples(3, "de")}
    data = concat_multilingual(stores, ["de", "en"])
    assert [ex.language for ex in data] == ["de"] * 3 + ["en"] * 2
    with pytest.raises(UnknownLanguage):
        concat_multilingual(stores, ["fr"])
    with pytest.raises(UnknownLanguage):
        concat_multilingual(stores, [])


def test_save_load_examples_round_trip(tmp_path):
    examples = _fake_examples(5) + _fake_examples(3, "de", start=10)
    path = tmp_path / "x.examples"
    save_examples(path, examples)
    back = load_examples(path)
    assert back == examples
    assert dataset_fingerprint(back) == dataset_fingerprint(examples)


def test_fingerprint_sensitive_to_content():
    a = _fake_examples(3)
    b = _fake_examples(3, start=1)
    assert dataset_fingerprint(a) != dataset_fingerprint(b)


def _var_examples(rng, n, lang="en"):
    out = []
    for _ in range(n):
        slen = int(rng.integers(2, 30))
        tlen = int(rng.integers(3, 25))
        out.append(
            ParallelExample(
                tuple(rng.integers(5, 50, slen).tolist()),
                (0,) * slen,
                (0,) * slen,
                (1,) + tuple(rng.integers(5, 50, tlen - 2).tolist()) + (2,),
                lang,
            )
        )
    return out


def test_make_batches_budget_and_coverage(rng):
    data = _var_examples(rng, 60)
    batches = make_batches(data, max_tokens=128, shuffle_seed=3, pad_id=0)
    seen = sorted(i for b in batches for i in b.example_indices)
    assert seen == list(range(60))  # every example exactly once
    for b in batches:
        width = max(b.src.shape[1], b.tgt.shape[1])
        assert width * b.size <= 128
        assert b.src_pad_mask.shape == b.src.shape
        for row, ex_i in enumerate(b.example_indices):
            n = len(data[ex_i].src_ids)
            assert b.src_pad_mask[row, :n].all()
            assert not b.src_pad_mask[row, n:].any()
            np.testing.assert_array_equal(b.src[row, :n], data[ex_i].src_ids)
            assert (b.src[row, n:] == 0).all()


def test_make_batches_deterministic_per_seed(rng):
    data = _var_examples(rng, 40)
    a = make_batches(data, 96, shuffle_seed=1, pad_id=0)
    b = make_batches(data, 96, shuffle_seed=1, pad_id=0)
    c = make_batches(data, 96, shuffle_seed=2, pad_id=0)
    assert [x.example_indices for x in a] == [x.example_indices for x in b]
    assert [x.example_indices for x in a] != [x.example_indices for x in c]


def test_make_batches_rejects_oversized(rng):
    data = _var_examples(rng, 3)
    with pytest.raises(ExampleTooLong):
        make_batches(data, max_tokens=4, shuffle_seed=0, pad_id=0)


def test_batch_token_count(rng):
    data = _var_examples(rng, 10)
    batches = make_batches(data, 256, shuffle_seed=0, pad_id=0)
    want = sum(len(ex.tgt_ids) - 1 for ex in data)
    got = sum(b.n_target_tokens(pad_id=0) for b in batches)
    assert got == want


def test_pack_sequences(rng):
    seqs = [tuple(rng.integers(3, 30, int(rng.integers(2, 20))).tolist()) for _ in range(30)]
    packs = pack_sequences(seqs, max_tokens=64, shuffle_seed=5, pad_id=0)
    seen = sorted(i for _, idx in packs for i in idx)
    assert seen == list(range(30))
    for arr, idx in packs:
        assert arr.shape[0] == len(idx)
        assert arr.shape[0] * arr.shape[1] <= 64
        for row, i in enumerate(idx):
            np.testing.assert_array_equal(arr[row, : len(seqs[i])], seqs[i])
