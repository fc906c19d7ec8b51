"""Noise model and pretraining loop tests."""

import dataclasses
import hashlib
import os

import numpy as np
import pytest

from amr2text.bpe import MASK, train_bpe
from amr2text.graph import iter_penman_blocks, parse_penman
from amr2text.linearize import LinearizedAmr, linearize_for_language
from amr2text.model import ModelConfig, build
from amr2text.pretraining import (
    MissingMonolingualData,
    NoiseSpec,
    UnbalancedInput,
    apply_noise,
    lm_perplexity,
    lm_sequences,
    mask_spans,
    mask_tokens,
    noised_examples,
    pretrain_decoder,
    pretrain_encoder,
    shuffle_segments,
)
from amr2text.tensor import no_grad
from amr2text.training import DivergedLoss, TrainConfig

AMR = "(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b) :time (t / today))"
TOKENS = tuple(linearize_for_language(parse_penman(AMR), "en").tokens)


def _lin(tokens) -> LinearizedAmr:
    """Tokens with zero depth and subgraph ids."""
    return LinearizedAmr(tuple(tokens), (0,) * len(tokens), (0,) * len(tokens))


def tiny_cfg(enc_vocab, dec_vocab):
    return ModelConfig(
        enc_vocab=enc_vocab,
        dec_vocab=dec_vocab,
        d_model=16,
        n_heads=2,
        ffn_dim=24,
        enc_layers=1,
        dec_layers=1,
        max_positions=64,
        d_word=6,
        d_pos=4,
        d_depth=3,
        d_subgraph=3,
    )


def test_mask_tokens_protects_structure():
    spec = NoiseSpec(mask_prob=1.0, span_mass=0.0, shuffle=False, seed=0)
    out = mask_tokens(_lin(TOKENS), spec).tokens
    assert len(out) == len(TOKENS)
    for orig, tok in zip(TOKENS, out):
        if orig in ("(", ")") or orig.startswith("<lang:"):
            assert tok == orig
        else:
            assert tok == MASK


def test_mask_tokens_deterministic_per_example_index():
    spec = NoiseSpec(mask_prob=0.4, span_mass=0.0, shuffle=False, seed=3)
    a = mask_tokens(_lin(TOKENS), spec, example_index=5).tokens
    b = mask_tokens(_lin(TOKENS), spec, example_index=5).tokens
    c = mask_tokens(_lin(TOKENS), spec, example_index=6).tokens
    assert a == b
    assert a != c


def test_mask_rate_statistics():
    tokens = ["tok"] * 20000
    spec = NoiseSpec(mask_prob=0.15, span_mass=0.0, shuffle=False, seed=1)
    out = mask_tokens(_lin(tokens), spec).tokens
    rate = out.count(MASK) / len(out)
    assert abs(rate - 0.15) < 0.01


def test_mask_spans_collapse_and_coverage():
    tokens = ["tok"] * 5000
    spec = NoiseSpec(mask_prob=0.0, span_lambda=3.0, span_mass=0.3, shuffle=False, seed=2)
    out = mask_spans(_lin(tokens), spec).tokens
    n_masks = out.count(MASK)
    covered = len(tokens) - (len(out) - n_masks)
    assert abs(covered / len(tokens) - 0.3) < 0.02
    assert n_masks < covered  # spans really collapse multiple tokens


def test_mask_spans_never_cross_parens():
    spec = NoiseSpec(mask_prob=0.0, span_mass=0.9, shuffle=False, seed=0)
    out = mask_spans(_lin(TOKENS), spec).tokens
    assert out.count("(") == TOKENS.count("(")
    assert out.count(")") == TOKENS.count(")")


def test_shuffle_preserves_segments():
    spec = NoiseSpec(shuffle=True, seed=11)
    # find a seed that actually permutes three segments
    out = None
    for seed in range(20):
        noised = shuffle_segments(_lin(TOKENS), NoiseSpec(shuffle=True, seed=seed))
        candidate = list(noised.tokens)
        if candidate != list(TOKENS):
            out = candidate
            break
    assert out is not None
    assert sorted(out) == sorted(TOKENS)  # a permutation of the same tokens
    assert out[:3] == list(TOKENS[:3])  # lang token, "(", concept stay put
    depth = 0
    for t in out:
        depth += {"(": 1, ")": -1}.get(t, 0)
        assert depth >= 0
    assert depth == 0


def test_shuffle_no_op_below_two_segments():
    tokens = ["(", "see-01", ":ARG0", "(", "dog", ")", ")"]
    assert list(shuffle_segments(_lin(tokens), NoiseSpec(seed=0)).tokens) == tokens


def test_shuffle_rejects_unbalanced():
    with pytest.raises(UnbalancedInput):
        shuffle_segments(_lin(["(", "a", "(", "b", ")"]), NoiseSpec(seed=0))


def test_apply_noise_moves_features_with_tokens():
    lin = linearize_for_language(parse_penman(AMR), "en")
    spec = NoiseSpec(mask_prob=0.0, span_mass=0.0, shuffle=True, seed=4)
    noised = apply_noise(lin, spec)
    tokens, depths, subs = noised.tokens, noised.depth_ids, noised.subgraph_ids
    assert len(tokens) == len(depths) == len(subs)
    want = {(t, d, s) for t, d, s in zip(lin.tokens, lin.depth_ids, lin.subgraph_ids)}
    got = {(t, d, s) for t, d, s in zip(tokens, depths, subs)}
    assert got == want  # pure shuffle: triples survive intact


def test_apply_noise_span_keeps_first_token_features():
    tokens = ["(", "a", "b", "c", "d", ")"]
    depths = [0, 1, 2, 3, 4, 0]
    subs = [0, 1, 2, 3, 4, 0]
    spec = NoiseSpec(mask_prob=0.0, span_lambda=50.0, span_mass=1.0, shuffle=False, seed=0)
    noised = apply_noise(LinearizedAmr(tuple(tokens), tuple(depths), tuple(subs)), spec)
    out, d, s = list(noised.tokens), noised.depth_ids, noised.subgraph_ids
    assert out == ["(", MASK, ")"]
    assert d[1] in (1, 2, 3, 4) and d[1] == s[1]  # first covered position's ids


def test_apply_noise_keeps_balance_on_random_graphs():
    import oracles

    rng = np.random.default_rng(0)
    spec = NoiseSpec(mask_prob=0.3, span_mass=0.3, shuffle=True, seed=9)
    for i in range(100):
        lin = linearize_for_language(oracles.random_graph(rng), "en")
        tokens = apply_noise(lin, spec, example_index=i).tokens
        depth = 0
        for t in tokens:
            depth += {"(": 1, ")": -1}.get(t, 0)
            assert depth >= 0
        assert depth == 0


def test_noised_examples_rounds_and_targets():
    corpus = [linearize_for_language(parse_penman(AMR), "en")]
    enc = train_bpe([" ".join(corpus[0].tokens)], 30, protect_roles=True)
    spec = NoiseSpec(mask_prob=0.2, span_mass=0.2, seed=0)
    examples = noised_examples(corpus, enc, spec, rounds=3)
    assert len(examples) == 3
    tgt = examples[0].tgt_ids
    assert tgt[0] == enc.bos_id and tgt[-1] == enc.eos_id
    # all rounds reconstruct the same clean target
    assert len({ex.tgt_ids for ex in examples}) == 1
    # corruption differs between rounds (with overwhelming probability)
    assert len({ex.src_ids for ex in examples}) > 1


# SHA-256 of noised_examples over data/toy/train.amr (numpy 2.4.6); a change
# to the rng streams, their draw order, or the ids a mask keeps shows up here.
NOISED_TOY_DIGESTS = [
    (NoiseSpec(), "7104f12345ae6a99ad3c5d6a8c057040fc0bd7ff467efbd341c786157ea91368"),
    (NoiseSpec(shuffle=False, seed=7),
     "15d48c3a0b3b8eeefd6bd752c80ab5c496688eb8725e1a30ddc0d31ea6c0ffa9"),
]


@pytest.mark.parametrize("spec,digest", NOISED_TOY_DIGESTS, ids=["default", "no-shuffle-seed7"])
def test_noised_examples_digest_on_toy_graphs(spec, digest):
    path = os.path.join(os.path.dirname(__file__), "..", "data", "toy", "train.amr")
    with open(path, encoding="utf-8") as f:
        corpus = [linearize_for_language(parse_penman(b)) for b in iter_penman_blocks(f.read())]
    enc = train_bpe([" ".join(lin.tokens) for lin in corpus], 120, protect_roles=True)
    examples = noised_examples(corpus, enc, spec, rounds=2)
    assert len(examples) == 2 * len(corpus) == 128
    h = hashlib.sha256()
    for ex in examples:
        h.update(repr(dataclasses.astuple(ex)).encode())
    assert h.hexdigest() == digest


def test_pretrain_encoder_updates_shared_encoder_only():
    corpus = [linearize_for_language(parse_penman(AMR), "en")]
    enc = train_bpe([" ".join(corpus[0].tokens)], 30, protect_roles=True)
    params = build(tiny_cfg(enc.vocab_size, 31), seed=0)
    dec_before = {
        n: t.data.copy() for n, t in params.named() if n.startswith("dec")
    }
    enc_before = {
        n: t.data.copy() for n, t in params.named() if n.startswith("enc")
    }
    cfg = TrainConfig(max_updates=3, warmup_steps=1, checkpoint_every=1000,
                      dropout=0.0, layerdrop=0.0, seed=1)
    spec = NoiseSpec(mask_prob=0.2, span_mass=0.2, seed=0)
    temp, result = pretrain_encoder(params, corpus, enc, spec, cfg, rounds=2)
    for name, before in dec_before.items():
        np.testing.assert_array_equal(params[name].data, before)
    assert any(
        not np.array_equal(params[n].data, before) for n, before in enc_before.items()
    )
    for name in enc_before:
        assert temp.tensors[name] is params.tensors[name]  # shared, not copied
    assert len(result.log) == 3


def test_lm_sequences_layout():
    dec = train_bpe(["the cat", "der hund"], 20, languages=frozenset({"en", "de"}))
    seqs = lm_sequences({"en": ["the cat"], "de": ["der hund"]}, dec)
    assert len(seqs) == 2
    for lang, ids in seqs:
        assert ids[0] == dec.bos_id
        assert ids[1] == dec.lang_id(lang)
        assert ids[-1] == dec.eos_id
    with pytest.raises(MissingMonolingualData):
        lm_sequences({"en": []}, dec)


LM_CORPORA = {"en": ["the cat sat", "the dog ran"], "de": ["der hund lief"]}


def _lm_bpe():
    return train_bpe(
        ["the cat sat", "der hund lief", "the dog ran"],
        30,
        languages=frozenset({"en", "de"}),
    )


def test_pretrain_decoder_trains_lm():
    dec = _lm_bpe()
    params = build(tiny_cfg(17, dec.vocab_size), seed=0)
    enc_before = {n: t.data.copy() for n, t in params.named() if n.startswith("enc")}
    cfg = TrainConfig(max_updates=4, warmup_steps=1, checkpoint_every=1000,
                      dropout=0.0, layerdrop=0.0, seed=2)
    model, perplexities, log = pretrain_decoder(params, LM_CORPORA, dec, cfg)
    assert model is params
    assert set(perplexities) == {"en", "de"}
    assert all(p > 0 and np.isfinite(p) for p in perplexities.values())
    assert len(log) == 4
    for name, before in enc_before.items():
        np.testing.assert_array_equal(params[name].data, before)


def test_pretrain_decoder_honours_train_rates():
    dec = _lm_bpe()
    logs = {}
    for rate in (0.0, 0.1, 0.1):
        cfg = TrainConfig(max_updates=4, warmup_steps=1, dropout=rate, layerdrop=0.0, seed=2)
        _, _, log = pretrain_decoder(build(tiny_cfg(17, dec.vocab_size), seed=0),
                                     LM_CORPORA, dec, cfg)
        assert logs.setdefault(rate, log) == log  # the same rate trains the same way
    assert logs[0.1] != logs[0.0]


def test_pretrain_decoder_raises_diverged_loss():
    dec = _lm_bpe()
    params = build(tiny_cfg(17, dec.vocab_size), seed=0)
    params["dec_word_emb"].data[...] = np.nan
    cfg = TrainConfig(max_updates=4, warmup_steps=1, dropout=0.0, layerdrop=0.0, seed=2)
    with pytest.raises(DivergedLoss) as info:
        pretrain_decoder(params, LM_CORPORA, dec, cfg)
    assert info.value.last_good is None


def test_lm_perplexity_matches_manual_nll():
    import math

    from amr2text.model import decoder_forward
    from amr2text.tensor import label_smoothed_nll

    dec = train_bpe(["a b c"], 5)
    params = build(tiny_cfg(9, dec.vocab_size), seed=3)
    seq = tuple([dec.bos_id] + [dec.vocab["▁a"], dec.vocab["▁b"]] + [dec.eos_id])
    with no_grad():
        arr = np.asarray([seq])
        logits, _ = decoder_forward(params, None, None, arr[:, :-1])
        want = math.exp(label_smoothed_nll(logits, arr[:, 1:], 0.0, dec.pad_id).item())
    got = lm_perplexity(params, [seq], dec.pad_id)
    assert abs(got - want) < 1e-4
