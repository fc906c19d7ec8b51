"""Transformer model tests: shapes, masking, tying, checkpoints."""

import os
import re
from dataclasses import fields

import numpy as np
import pytest

from amr2text import tensor as T
from amr2text.model import (
    DecoderState,
    Dropout,
    EmptyInput,
    EncoderInput,
    IdOutOfRange,
    InvalidConfig,
    MalformedCheckpoint,
    ModelConfig,
    PrefixTooLong,
    WidthMismatch,
    build,
    check_decoder_input,
    decode_step,
    decoder_forward,
    desk_config,
    encode,
    layerdrop_mask,
    load_checkpoint,
    load_decoder_embeddings,
    save_checkpoint,
    write_arrays,
)
from amr2text.training import Adam, load_trainer_state

TINY = ModelConfig(
    enc_vocab=23,
    dec_vocab=19,
    d_model=16,
    n_heads=2,
    ffn_dim=24,
    enc_layers=2,
    dec_layers=2,
    max_positions=12,
    depth_buckets=8,
    subgraph_buckets=8,
    d_word=6,
    d_pos=4,
    d_depth=3,
    d_subgraph=3,
)


def enc_in(ids, depth=None, sub=None, mask=None):
    ids = np.asarray(ids)
    z = np.zeros_like(ids)
    return EncoderInput(
        piece_ids=ids,
        depth_ids=z if depth is None else np.asarray(depth),
        subgraph_ids=z if sub is None else np.asarray(sub),
        pad_mask=mask if mask is None else np.asarray(mask),
    )


@pytest.fixture(scope="module")
def params():
    return build(TINY, seed=0)


def test_build_deterministic_and_distinct_by_seed():
    a, b, c = build(TINY, seed=3), build(TINY, seed=3), build(TINY, seed=4)
    for name, t in a.named():
        np.testing.assert_array_equal(t.data, b[name].data)
    assert any(
        not np.array_equal(t.data, c[name].data) for name, t in a.named()
    )


def test_parameter_schema_shapes(params):
    assert params["enc_word_emb"].shape == (23, 6)
    assert params["dec_word_emb"].shape == (19, 6)
    assert params["enc_in_proj"].shape == (6 + 4 + 3 + 3, 16)
    assert params["dec_in_proj"].shape == (6 + 4, 16)
    assert params["dec_out_proj"].shape == (16, 6)  # back to d_word for tying
    assert sum(t.data.size for t in params.tensors.values()) > 0
    assert len(params.parameters()) == len(params.tensors)


def test_config_validation():
    with pytest.raises(InvalidConfig):
        ModelConfig(enc_vocab=10, dec_vocab=10, d_model=15, n_heads=2).validate()
    with pytest.raises(InvalidConfig):
        ModelConfig(enc_vocab=0, dec_vocab=10).validate()
    desk_config(50, 60).validate()


def test_encode_shapes(params):
    memory, mask = encode(params, enc_in([[1, 2, 3, 4]]))
    assert memory.shape == (1, 4, 16)
    assert mask.shape == (1, 4)
    assert mask.all()


def test_pad_positions_do_not_leak_into_real_ones(params):
    ids = [5, 7, 9]
    plain, _ = encode(params, enc_in([ids]))
    padded, mask = encode(
        params,
        enc_in(
            [ids + [0, 0, 0]],
            mask=[[True, True, True, False, False, False]],
        ),
    )
    np.testing.assert_allclose(plain.data[0], padded.data[0, :3], rtol=0, atol=1e-5)
    assert mask.tolist() == [[True, True, True, False, False, False]]


def test_decoder_is_causal(params):
    memory, mask = encode(params, enc_in([[1, 2, 3]]))
    a, _ = decoder_forward(params, memory, mask, np.array([[1, 4, 6, 2]]))
    b, _ = decoder_forward(params, memory, mask, np.array([[1, 4, 6, 9]]))
    np.testing.assert_allclose(a.data[0, :3], b.data[0, :3], atol=1e-6)
    assert not np.allclose(a.data[0, 3], b.data[0, 3], atol=1e-6)


def test_memory_affects_decoder(params):
    m1, k1 = encode(params, enc_in([[1, 2, 3]]))
    m2, k2 = encode(params, enc_in([[4, 5, 6]]))
    a, _ = decoder_forward(params, m1, k1, np.array([[1, 4]]))
    b, _ = decoder_forward(params, m2, k2, np.array([[1, 4]]))
    assert not np.allclose(a.data, b.data, atol=1e-6)


def test_lm_mode_runs_without_memory(params):
    logits, weights = decoder_forward(params, None, None, np.array([[1, 4, 6]]))
    assert logits.shape == (1, 3, 19)
    assert weights == []


def test_cross_attention_collected(params):
    memory, mask = encode(params, enc_in([[1, 2, 3, 4, 5]]))
    _, weights = decoder_forward(params, memory, mask, np.array([[1, 4, 6]]))
    assert len(weights) == TINY.dec_layers
    for w in weights:
        assert w.shape == (1, TINY.n_heads, 3, 5)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-5)


def test_output_tied_to_decoder_embedding(params):
    import copy

    memory, mask = encode(params, enc_in([[1, 2]]))
    base, _ = decoder_forward(params, memory, mask, np.array([[1, 4]]))
    doubled = copy.deepcopy(params)
    doubled.tensors["dec_word_emb"].data[7] *= 2.0
    after, _ = decoder_forward(doubled, memory, mask, np.array([[1, 4]]))
    # logit for id 7 scales with its embedding row; id 4 appears in the
    # prefix so other logits may drift, id 3 does not
    np.testing.assert_allclose(after.data[..., 3], base.data[..., 3], atol=1e-6)
    assert not np.allclose(after.data[..., 7], base.data[..., 7], atol=1e-6)


def test_decode_step_matches_forward(params):
    """The cached step equals a full-prefix pass at every position, with
    and without memory, on a beam of 5 whose rows are reordered between
    steps."""
    with_memory = encode(params, enc_in([[1, 2, 3, 4]]))
    for memory, mask in (with_memory, (None, None)):
        rng = np.random.default_rng(11)
        state = DecoderState(params, memory, mask, bos_id=1)
        prefixes = np.ones((1, 1), dtype=np.int64)
        for t in range(TINY.max_positions):
            step_logits = decode_step(params, state, prefixes[:, -1])
            with T.no_grad():
                full, _ = decoder_forward(params, memory, mask, prefixes)
            assert step_logits.shape == (prefixes.shape[0], TINY.dec_vocab)
            np.testing.assert_allclose(step_logits, full.data[:, t], rtol=0, atol=1e-5)
            rows = rng.integers(0, prefixes.shape[0], size=5)
            state.reorder(rows)
            tokens = rng.integers(3, TINY.dec_vocab, size=(5, 1))
            prefixes = np.concatenate([prefixes[rows], tokens], axis=1)
        with pytest.raises(PrefixTooLong):
            decode_step(params, state, prefixes[:, -1])


def test_decode_step_requires_bos(params):
    memory, mask = encode(params, enc_in([[1]]))
    with pytest.raises(ValueError):
        decode_step(params, DecoderState(params, memory, mask, bos_id=1), [5])
    state = DecoderState(params, memory, mask, bos_id=1)
    decode_step(params, state, [1])
    assert decode_step(params, state, [5]).shape == (1, TINY.dec_vocab)


def test_memory_rows_one_or_one_per_decoder_row(params):
    """One memory row broadcasts over the decoder rows; otherwise each
    decoder row needs its own, in a whole-prefix pass and step by step."""
    memory, mask = encode(params, enc_in([[1, 2, 3], [4, 5, 6]]))
    logits, _ = decoder_forward(params, memory, mask, np.array([[1, 4], [1, 6]]))
    step = decode_step(params, DecoderState(params, memory, mask, bos_id=1), [1, 1])
    np.testing.assert_allclose(step, logits.data[:, 0], rtol=0, atol=1e-5)
    with pytest.raises(ValueError, match="memory holds 2 rows for 3"):
        decoder_forward(params, memory, mask, np.ones((3, 2), dtype=int))
    with pytest.raises(ValueError, match="memory holds 2 rows for 3"):
        decode_step(params, DecoderState(params, memory, mask, bos_id=1), [1, 1, 1])


def test_id_range_and_length_errors(params):
    with pytest.raises(IdOutOfRange):
        encode(params, enc_in([[99]]))
    # Depth and subtree ids past the last bucket are deep nodes, not bad input.
    deep, _ = encode(params, enc_in([[1, 2]], depth=[[50, 3]], sub=[[4, 70]]))
    last, _ = encode(params, enc_in([[1, 2]], depth=[[8, 3]], sub=[[4, 8]]))
    np.testing.assert_array_equal(deep.data, last.data)
    with pytest.raises(IdOutOfRange):
        encode(params, enc_in([[1]], depth=[[-1]]))
    with pytest.raises(IdOutOfRange):
        encode(params, enc_in([[1]], sub=[[-1]]))
    with pytest.raises(EmptyInput):
        encode(params, enc_in(np.zeros((1, 0), dtype=int)))
    with pytest.raises(IdOutOfRange):
        encode(params, enc_in([list(range(1, 14))]))  # 13 > max_positions 12
    memory, mask = encode(params, enc_in([[1, 2]]))
    with pytest.raises(PrefixTooLong):
        decoder_forward(params, memory, mask, np.ones((1, 13), dtype=int))


def test_check_decoder_input_counts_positions_from_start():
    """One row or (rows, t); length counted from ``start``; ids inside dec_vocab."""
    assert check_decoder_input(TINY, [1, 18]).shape == (1, 2)
    assert check_decoder_input(TINY, np.ones((3, 12), dtype=int)).shape == (3, 12)
    assert check_decoder_input(TINY, [1], start=11).shape == (1, 1)
    with pytest.raises(PrefixTooLong, match="prefix length 13 exceeds max_positions 12"):
        check_decoder_input(TINY, [1, 2], start=11)
    with pytest.raises(IdOutOfRange, match=r"ids span \[1, 19\] but table has 19 rows"):
        check_decoder_input(TINY, [1, 19])
    with pytest.raises(EmptyInput):
        check_decoder_input(TINY, np.zeros((2, 0), dtype=int))


def test_dropout_changes_training_forward(params):
    p = build(TINY, seed=0)
    rng = T.Rng(5)
    a, _ = encode(p, enc_in([[1, 2, 3]]), Dropout(0.3, 0.0, rng, 0))
    b, _ = encode(p, enc_in([[1, 2, 3]]), Dropout(0.3, 0.0, rng, 1))
    c, _ = encode(p, enc_in([[1, 2, 3]]), Dropout(0.3, 0.0, rng, 0))
    assert not np.allclose(a.data, b.data)
    np.testing.assert_array_equal(a.data, c.data)  # same step, same masks


def test_layerdrop_mask_behavior():
    gen = np.random.default_rng(0)
    assert layerdrop_mask(0.0, gen, 4).all()
    draws = np.array([layerdrop_mask(0.4, np.random.default_rng(i), 6) for i in range(500)])
    rate = 1.0 - draws.mean()
    assert 0.35 < rate < 0.45
    np.testing.assert_array_equal(
        layerdrop_mask(0.4, np.random.default_rng(9), 6),
        layerdrop_mask(0.4, np.random.default_rng(9), 6),
    )


def test_checkpoint_round_trip(tmp_path, params):
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    back = load_checkpoint(path)
    assert back.config == TINY
    assert set(back.tensors) == set(params.tensors)
    for name, t in params.named():
        np.testing.assert_array_equal(
            t.data.astype(np.float32), back[name].data.astype(np.float32)
        )
    memory, mask = encode(back, enc_in([[1, 2, 3]]))
    assert memory.shape == (1, 3, 16)


def test_checkpoint_malformed(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"not a checkpoint")
    with pytest.raises(MalformedCheckpoint):
        load_checkpoint(p)


def test_checkpoint_truncated(tmp_path, params):
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 50])
    with pytest.raises(MalformedCheckpoint):
        load_checkpoint(path)


@pytest.mark.parametrize("case", [
    "config key missing", "config value", "config invalid", "tensor shape",
    "state arrays missing", "state shapes", "v1 magic",
])
def test_reader_rejects_files_that_do_not_fit(tmp_path, params, case):
    header = {f.name: getattr(TINY, f.name) for f in fields(ModelConfig)}
    arrays = {name: t.data for name, t in params.named()}
    load = load_checkpoint
    if case == "config key missing":
        del header["d_pos"]
    elif case == "config value":
        header["d_pos"] = "x"
    elif case == "config invalid":
        header["n_heads"] = 3  # d_model 16 is not divisible by 3
    elif case == "tensor shape":
        arrays["enc_in_bias"] = np.zeros((4, 4))
    else:
        # trainer state for an optimizer over one (5,) parameter
        header = {"step": 3, "t": 3}
        shape = (5,) if case == "state arrays missing" else (2, 2)
        arrays = {"m.0": np.zeros(shape)}
        if case == "state shapes":
            arrays["v.0"] = np.zeros(shape)
        opt = Adam([T.Tensor(np.zeros(5), requires_grad=True)])
        load = lambda path: load_trainer_state(path, opt)  # noqa: E731
    path = tmp_path / "bad.ckpt"
    write_arrays(path, header, arrays.items())
    if case == "v1 magic":
        # the previous format: its magic line, and the rates in the header
        v1 = b"amr2text-checkpoint v1\ndropout=0.1\nlayerdrop=0.0\n"
        path.write_bytes(path.read_bytes().replace(b"amr2text-checkpoint v2\n", v1, 1))
    with pytest.raises(MalformedCheckpoint, match=f"^{re.escape(str(path))}: "):
        load(path)


def test_failed_write_leaves_previous_file(tmp_path, params):
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    before = path.read_bytes()

    def arrays():
        yield "first", np.zeros(3)
        raise OSError("no space left on device")

    with pytest.raises(OSError):
        write_arrays(path, {"k": 1}, arrays())
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.ckpt"]


def test_load_decoder_embeddings(tmp_path, params):
    import copy

    p = copy.deepcopy(params)
    vocab = {"the": 3, "cat": 7}
    path = tmp_path / "emb.txt"
    d = TINY.d_word
    path.write_text(
        "the " + " ".join(["0.5"] * d) + "\n"
        "dog " + " ".join(["0.25"] * d) + "\n",
        encoding="utf-8",
    )
    n, total = load_decoder_embeddings(p, path, vocab)
    assert (n, total) == (1, 19)  # "dog" is not in the vocab
    np.testing.assert_allclose(p["dec_word_emb"].data[3], 0.5)
    assert not np.allclose(p["dec_word_emb"].data[7], 0.25)


def test_load_decoder_embeddings_width_mismatch(tmp_path, params):
    path = tmp_path / "emb.txt"
    path.write_text("the 0.5 0.5\n", encoding="utf-8")
    with pytest.raises(WidthMismatch):
        load_decoder_embeddings(params, path, {"the": 3})
