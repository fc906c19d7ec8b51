"""Decoding tests: length penalty, beam vs exhaustive search, attention IO."""

import numpy as np
import pytest

import oracles
from oracles import greedy, read_attention_dump
from amr2text.generation import (
    BeamConfig,
    Hypothesis,
    LengthMismatch,
    attention_dump,
    beam_search,
    cross_attention_matrix,
    length_penalty,
    top_candidates,
)
from amr2text.model import (
    DecoderState,
    EncoderInput,
    ModelConfig,
    PrefixTooLong,
    build,
    decode_step,
)
from amr2text.model import encode as model_encode
from amr2text.tensor import no_grad


def tiny_model(enc_vocab=9, dec_vocab=7, seed=0, max_positions=16):
    cfg = ModelConfig(
        enc_vocab=enc_vocab,
        dec_vocab=dec_vocab,
        d_model=16,
        n_heads=2,
        ffn_dim=24,
        enc_layers=1,
        dec_layers=1,
        max_positions=max_positions,
        d_word=6,
        d_pos=4,
        d_depth=3,
        d_subgraph=3,
    )
    return build(cfg, seed=seed)


def one_input(ids):
    ids = np.asarray(ids)
    z = np.zeros_like(ids)
    return EncoderInput(piece_ids=ids, depth_ids=z, subgraph_ids=z)


BOS, EOS = 1, 2


def stepwise_logprobs(params, enc):
    """Next-token log distribution of a prefix, fed one id at a time."""
    with no_grad():
        memory, mask = model_encode(params, enc)

    def step(prefix):
        state = DecoderState(params, memory, mask, BOS)
        for token in prefix:
            last = decode_step(params, state, [token])[0]
        shifted = last - last.max()
        return shifted - np.log(np.exp(shifted).sum())

    return step


def reference_top_candidates(totals, prefixes, k):
    """The ranking loop beam search used before it was vectorized."""
    candidates = []
    for row, ids in enumerate(prefixes):
        for token in range(totals.shape[1]):
            total = totals[row, token]
            if total == -np.inf:
                continue
            candidates.append((ids + (token,), total, row))
    candidates.sort(key=lambda c: (-c[1], c[0]))
    return [(row, ids[-1]) for ids, _, row in candidates[:k]]


def test_length_penalty_values():
    assert length_penalty(1, 1.0) == 1.0
    assert length_penalty(7, 1.0) == 2.0
    assert length_penalty(13, 0.0) == 1.0
    assert abs(length_penalty(7, 0.5) - 2.0**0.5) < 1e-15


def test_hypothesis_generated_strips_bos_eos():
    h = Hypothesis(ids=(1, 5, 6, 2), logprob=-1.0, score=-0.5)
    assert h.generated(eos_id=2) == (5, 6)
    assert Hypothesis(ids=(1, 5), logprob=0.0, score=0.0).generated(2) == (5,)


def test_beam_config_validation():
    with pytest.raises(ValueError):
        BeamConfig(size=0)
    with pytest.raises(ValueError):
        BeamConfig(max_len=2, min_len=3)


def test_exhaustive_beam_matches_oracle_on_random_models():
    vocab, max_len = 5, 4
    for seed in range(5):
        params = tiny_model(dec_vocab=vocab, seed=seed)
        enc = one_input([3, 4, 5])
        cfg = BeamConfig(
            size=vocab**max_len, alpha=1.0,
            max_len=max_len, min_len=1,
        )
        best, nbest = beam_search(params, enc, cfg, BOS, EOS)
        ids, logprob, score = oracles.exhaustive_best_sequence(
            stepwise_logprobs(params, enc), BOS, EOS, vocab, max_len, alpha=1.0
        )
        assert best.ids == ids
        assert abs(best.score - score) < 1e-4
        assert nbest == sorted(nbest, key=lambda h: (-h.score, h.ids))
        assert len(nbest) == len({h.ids for h in nbest})


def test_top_candidates_match_reference_loop():
    rng = np.random.default_rng(7)
    for trial in range(200):
        b = int(rng.integers(1, 6))
        v = int(rng.integers(1, 9))
        k = int(rng.integers(1, 12))
        # few distinct values, so ties at the cut-off are common
        totals = rng.integers(-4, 1, size=(b, v)).astype(np.float32)
        totals[rng.random((b, v)) < 0.2] = -np.inf
        prefixes = [
            (BOS,) + tuple(int(t) for t in rng.integers(3, 6, size=2)) for _ in range(b)
        ]
        if trial % 2:
            totals = totals + rng.standard_normal((b, v)).astype(np.float32)
        assert top_candidates(totals, prefixes, k) == reference_top_candidates(
            totals, prefixes, k
        )


def test_top_candidates_break_ties_at_cutoff_by_ids():
    totals = np.array([[-1.0, -2.0, -2.0], [-2.0, -3.0, -2.0]], dtype=np.float32)
    # row 1's prefix sorts before row 0's, so its tied candidates come first
    prefixes = [(BOS, 5), (BOS, 4)]
    expected = [(0, 0), (1, 0), (1, 2)]
    assert reference_top_candidates(totals, prefixes, 3) == expected
    assert top_candidates(totals, prefixes, 3) == expected
    everything_tied = np.zeros((3, 4), dtype=np.float32)
    prefixes = [(BOS, 6), (BOS, 3), (BOS, 5)]
    for k in (1, 4, 5, 12, 20):
        assert top_candidates(everything_tied, prefixes, k) == reference_top_candidates(
            everything_tied, prefixes, k
        )
    assert top_candidates(np.full((2, 3), -np.inf), [(BOS,), (BOS, 3)], 2) == []


def test_decoding_feeds_one_position_per_live_beam(monkeypatch):
    import amr2text.tensor as T

    shapes = []
    layernorm = T.layernorm

    def recording_layernorm(x, gain, bias, eps=1e-5):
        shapes.append(x.shape)
        return layernorm(x, gain, bias, eps)

    monkeypatch.setattr(T, "layernorm", recording_layernorm)
    params = tiny_model(seed=6)
    cfg = params.config
    source = [3, 4, 5, 6]
    beam = BeamConfig(size=3, max_len=8, min_len=8)
    beam_search(params, one_input(source), beam, BOS, EOS)
    encoder = [s for s in shapes if s[1] == len(source)]
    steps = [s for s in shapes if s[1] != len(source)]
    # the encoder runs once; every decoder call sees one position per row
    assert len(encoder) == 2 * cfg.enc_layers + 1
    per_step = 3 * cfg.dec_layers + 1
    assert len(steps) == beam.max_len * per_step
    assert all(s[1] == 1 and 1 <= s[0] <= beam.size for s in steps)


def test_max_len_beyond_positions_rejected_before_encoding(monkeypatch):
    import amr2text.generation as generation

    def no_encoding(*args, **kwargs):
        raise AssertionError("encoded an input whose budget cannot fit")

    monkeypatch.setattr(generation, "encode", no_encoding)
    params = tiny_model(max_positions=8)
    enc = one_input([3, 4])
    with pytest.raises(PrefixTooLong):
        beam_search(params, enc, BeamConfig(size=2, max_len=9), BOS, EOS)
    with pytest.raises(PrefixTooLong):
        greedy(params, enc, max_len=9, bos_id=BOS, eos_id=EOS)
    monkeypatch.undo()
    best, _ = beam_search(params, enc, BeamConfig(size=2, max_len=8, min_len=8), BOS, EOS)
    assert len(best.ids) == 9
    assert len(greedy(params, enc, max_len=8, bos_id=BOS, eos_id=EOS).ids) <= 9


def test_beam_score_at_least_greedy_raw_logprob():
    for seed in range(6):
        params = tiny_model(seed=seed + 20)
        enc = one_input([3, 4])
        cfg = BeamConfig(size=5, alpha=0.0, max_len=6)
        best, _ = beam_search(params, enc, cfg, BOS, EOS)
        g = greedy(params, enc, max_len=6, bos_id=BOS, eos_id=EOS)
        assert best.score >= g.score - 1e-9


def test_greedy_score_is_raw_logprob():
    params = tiny_model(seed=4)
    g = greedy(params, one_input([3, 4, 5]), max_len=8, bos_id=BOS, eos_id=EOS)
    assert g.score == g.logprob
    assert g.ids[0] == BOS and g.ids[-1] == EOS
    assert g.logprob < 0.0


def test_min_len_blocks_early_eos():
    for seed in range(4):
        params = tiny_model(seed=seed)
        enc = one_input([3])
        cfg = BeamConfig(size=3, max_len=8, min_len=4)
        best, nbest = beam_search(params, enc, cfg, BOS, EOS)
        for h in nbest:
            assert len(h.ids) - 1 >= 4  # eos included in generated length


def test_max_len_is_hard_budget():
    for seed in range(4):
        params = tiny_model(seed=seed + 9)
        enc = one_input([3, 4])
        cfg = BeamConfig(size=4, max_len=3)
        best, nbest = beam_search(params, enc, cfg, BOS, EOS)
        for h in nbest:
            assert len(h.ids) - 1 <= 3
            assert h.ids[-1] == EOS


def test_beam_one_is_greedy_path():
    # with alpha 0 and beam 1 the live path is the argmax path, except
    # that finished hypotheses can come from an earlier eos; both share
    # the same prefix decisions
    params = tiny_model(seed=13)
    enc = one_input([4, 5])
    cfg = BeamConfig(size=1, alpha=0.0, max_len=6)
    best, _ = beam_search(params, enc, cfg, BOS, EOS)
    g = greedy(params, enc, max_len=6, bos_id=BOS, eos_id=EOS)
    assert best.score >= g.score - 1e-9


def test_deterministic_decoding():
    params = tiny_model(seed=2)
    enc = one_input([3, 4, 5])
    cfg = BeamConfig(size=4, max_len=6)
    a, na = beam_search(params, enc, cfg, BOS, EOS)
    b, nb = beam_search(params, enc, cfg, BOS, EOS)
    assert a == b and na == nb


def test_cross_attention_matrix_shape_and_rows():
    params = tiny_model(seed=3)
    enc = one_input([3, 4, 5, 6])
    cfg = BeamConfig(size=3, max_len=5)
    best, _ = beam_search(params, enc, cfg, BOS, EOS)
    m = cross_attention_matrix(params, enc, best)
    assert m.shape == (len(best.ids) - 1, 4)
    np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-5)
    h0 = cross_attention_matrix(params, enc, best, head=0)
    h1 = cross_attention_matrix(params, enc, best, head=1)
    np.testing.assert_allclose((h0 + h1) / 2, m, atol=1e-6)


def test_attention_dump_round_trip(tmp_path):
    params = tiny_model(seed=5)
    enc = one_input([3, 4, 5])
    cfg = BeamConfig(size=3, max_len=5)
    best, _ = beam_search(params, enc, cfg, BOS, EOS)
    cols = ["(", "x", ")"]
    rows = [f"p{i}" for i in range(len(best.ids) - 1)]
    path = tmp_path / "att.tsv"
    matrix = attention_dump(params, enc, best, cols, rows, path)
    rcols, rrows, rmat = read_attention_dump(path)
    assert rcols == cols and rrows == rows
    np.testing.assert_allclose(rmat, matrix, atol=1e-6)


def test_attention_dump_label_mismatch(tmp_path):
    params = tiny_model(seed=5)
    enc = one_input([3, 4, 5])
    best, _ = beam_search(params, enc, BeamConfig(size=2, max_len=4), BOS, EOS)
    with pytest.raises(LengthMismatch):
        attention_dump(params, enc, best, ["a", "b"], ["x"], tmp_path / "x.tsv")
    with pytest.raises(LengthMismatch):
        attention_dump(
            params, enc, best, ["a", "b", "c"],
            ["x"] * (len(best.ids) + 3), tmp_path / "x.tsv",
        )
