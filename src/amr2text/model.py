"""Transformer encoder-decoder over the autodiff core.

Encoder positions embed four ids each: word piece, position, node depth,
and root-subtree index; the four embeddings are concatenated and projected
to d_model.  The depth and subtree tables have ``depth_buckets + 1`` and
``subgraph_buckets + 1`` rows; larger ids share the last row.  The decoder
is a standard pre-norm causal transformer whose input word embedding
matrix is also the output projection (tied); passing ``memory=None`` skips
cross-attention entirely, which turns the decoder into a causal language
model for pretraining.  Layers can be dropped whole during training
(layerdrop).

Every decoder pass is one walk, ``_decode``, over a ``DecoderState``:
``decoder_forward`` feeds whole prefixes to a fresh state, ``decode_step``
one position per hypothesis to a state kept across search steps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import tensor as T
from .tensor import Rng, Tensor

NEG_INF = -1e9
CHECKPOINT_MAGIC = "amr2text-checkpoint v2"


class InvalidConfig(ValueError):
    pass


class EmptyInput(ValueError):
    pass


class IdOutOfRange(ValueError):
    pass


class PrefixTooLong(ValueError):
    pass


class WidthMismatch(ValueError):
    pass


class MalformedEmbeddingFile(ValueError):
    pass


class MalformedCheckpoint(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    enc_vocab: int
    dec_vocab: int
    d_model: int = 256
    n_heads: int = 4
    ffn_dim: int = 1024
    enc_layers: int = 3
    dec_layers: int = 3
    max_positions: int = 256
    depth_buckets: int = 32
    subgraph_buckets: int = 64
    d_word: int = 128
    d_pos: int = 64
    d_depth: int = 32
    d_subgraph: int = 32

    def validate(self) -> None:
        positive = (
            "enc_vocab dec_vocab d_model n_heads ffn_dim enc_layers dec_layers "
            "max_positions depth_buckets subgraph_buckets d_word d_pos"
        ).split()
        for name in positive:
            if getattr(self, name) <= 0:
                raise InvalidConfig(f"{name} must be positive, got {getattr(self, name)}")
        if self.d_depth < 0 or self.d_subgraph < 0:
            raise InvalidConfig("feature embedding widths must be >= 0")
        if self.d_model % self.n_heads != 0:
            raise InvalidConfig(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )

    @property
    def enc_in_width(self) -> int:
        return self.d_word + self.d_pos + self.d_depth + self.d_subgraph

    @property
    def dec_in_width(self) -> int:
        return self.d_word + self.d_pos


def desk_config(enc_vocab: int, dec_vocab: int, **overrides) -> ModelConfig:
    """Default desk-scale configuration (CPU-trainable)."""
    return replace(ModelConfig(enc_vocab=enc_vocab, dec_vocab=dec_vocab), **overrides)


@dataclass
class ModelParams:
    """Named parameter tensors for one model instance."""

    config: ModelConfig
    tensors: dict[str, Tensor] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def named(self) -> list[tuple[str, Tensor]]:
        return sorted(self.tensors.items())

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named()]


def _xavier(gen: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return gen.uniform(-limit, limit, size=(rows, cols))


def _schema(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Every parameter name with its shape, in creation order."""
    d, f = cfg.d_model, cfg.ffn_dim
    out: list[tuple[str, tuple[int, ...]]] = [
        ("enc_word_emb", (cfg.enc_vocab, cfg.d_word)),
        ("enc_pos_emb", (cfg.max_positions, cfg.d_pos)),
        ("enc_depth_emb", (cfg.depth_buckets + 1, cfg.d_depth)),
        ("enc_subgraph_emb", (cfg.subgraph_buckets + 1, cfg.d_subgraph)),
        ("enc_in_proj", (cfg.enc_in_width, d)),
        ("enc_in_bias", (d,)),
        ("dec_word_emb", (cfg.dec_vocab, cfg.d_word)),
        ("dec_pos_emb", (cfg.max_positions, cfg.d_pos)),
        ("dec_in_proj", (cfg.dec_in_width, d)),
        ("dec_in_bias", (d,)),
        ("dec_out_proj", (d, cfg.d_word)),
        ("dec_out_bias", (cfg.d_word,)),
    ]

    def attn(prefix: str) -> list[tuple[str, tuple[int, ...]]]:
        names = []
        for m in ("wq", "wk", "wv", "wo"):
            names.append((f"{prefix}.{m}", (d, d)))
        for b in ("bq", "bk", "bv", "bo"):
            names.append((f"{prefix}.{b}", (d,)))
        return names

    def ln(prefix: str) -> list[tuple[str, tuple[int, ...]]]:
        return [(f"{prefix}.gain", (d,)), (f"{prefix}.bias", (d,))]

    def ffn(prefix: str) -> list[tuple[str, tuple[int, ...]]]:
        return [
            (f"{prefix}.w1", (d, f)),
            (f"{prefix}.b1", (f,)),
            (f"{prefix}.w2", (f, d)),
            (f"{prefix}.b2", (d,)),
        ]

    for i in range(cfg.enc_layers):
        out += ln(f"enc.{i}.ln1") + attn(f"enc.{i}.attn") + ln(f"enc.{i}.ln2") + ffn(
            f"enc.{i}.ffn"
        )
    out += ln("enc_final_ln")
    for i in range(cfg.dec_layers):
        out += (
            ln(f"dec.{i}.ln1")
            + attn(f"dec.{i}.self_attn")
            + ln(f"dec.{i}.ln2")
            + attn(f"dec.{i}.cross_attn")
            + ln(f"dec.{i}.ln3")
            + ffn(f"dec.{i}.ffn")
        )
    out += ln("dec_final_ln")
    return out


def build(cfg: ModelConfig, seed: int) -> ModelParams:
    """Xavier-uniform matrices, zero biases, unit layernorm gains."""
    cfg.validate()
    rng = Rng(seed)
    params = ModelParams(config=cfg)
    for name, shape in _schema(cfg):
        if name.endswith(".gain"):
            data = np.ones(shape)
        elif name.endswith("bias") or name.endswith((".b1", ".b2", ".bq", ".bk", ".bv", ".bo")):
            data = np.zeros(shape)
        elif len(shape) == 2:
            data = _xavier(rng.stream("init", name), shape[0], shape[1])
        else:
            data = np.zeros(shape)
        params.tensors[name] = Tensor(data, requires_grad=True)
    return params


def layerdrop_mask(p: float, gen: np.random.Generator, n_layers: int) -> np.ndarray:
    """Per-layer keep decisions; layer i is skipped with probability p."""
    if p == 0.0:
        return np.ones(n_layers, dtype=bool)
    return gen.random(n_layers) >= p


@dataclass(frozen=True)
class Dropout:
    """Training-mode regularization for one update: the dropout and
    layerdrop rates, and the random streams of update ``step``.  A forward
    pass given None runs in eval mode."""

    rate: float
    layerdrop: float
    rng: Rng
    step: int

    def stream(self, *tags) -> np.random.Generator:
        return self.rng.stream(*tags, self.step)


def _kept_layers(drop: Dropout | None, stack: str, n_layers: int) -> np.ndarray:
    if drop is None:
        return np.ones(n_layers, dtype=bool)
    return layerdrop_mask(drop.layerdrop, drop.stream("layerdrop", stack), n_layers)


@dataclass(frozen=True)
class EncoderInput:
    """Encoder-side id rows; 1-D for one example or 2-D padded batches."""

    piece_ids: np.ndarray
    depth_ids: np.ndarray
    subgraph_ids: np.ndarray
    pad_mask: np.ndarray | None = None  # True where the position is real

    def batched(self) -> "EncoderInput":
        if np.asarray(self.piece_ids).ndim == 2:
            return self
        return EncoderInput(
            piece_ids=np.asarray(self.piece_ids)[None, :],
            depth_ids=np.asarray(self.depth_ids)[None, :],
            subgraph_ids=np.asarray(self.subgraph_ids)[None, :],
            pad_mask=None if self.pad_mask is None else np.asarray(self.pad_mask)[None, :],
        )


def _check_ids(name: str, ids: np.ndarray, table_rows: int) -> np.ndarray:
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table_rows):
        raise IdOutOfRange(
            f"{name}: ids span [{ids.min()}, {ids.max()}] but table has {table_rows} rows"
        )
    return ids


def _bucket(name: str, ids: np.ndarray, last: int) -> np.ndarray:
    """Graph-feature ids clamped to the last row of their table: nodes deeper
    (or subtrees later) than the table holds share that row."""
    ids = np.asarray(ids)
    if ids.size and ids.min() < 0:
        raise IdOutOfRange(f"{name}: negative id {ids.min()}")
    return np.minimum(ids, last)


def _heads(params: ModelParams, prefix: str, w: str, x: Tensor) -> Tensor:
    """Project x (B, T, d_model) with weights ``w`` into heads (B, H, T, d_head)."""
    cfg = params.config
    b, t, _ = x.shape
    y = T.add(T.matmul(x, params[f"{prefix}.w{w}"]), params[f"{prefix}.b{w}"])
    return T.swapaxes(T.reshape(y, (b, t, cfg.n_heads, cfg.d_model // cfg.n_heads)), 1, 2)


def _attend(
    params: ModelParams,
    prefix: str,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    mask: np.ndarray | None,
    rate: float,
    gen: np.random.Generator | None,
):
    """Scaled dot-product attention over projected heads, then the output projection.

    Returns the output (B, Tq, d_model) and the softmax weights
    (B, H, Tq, Tk) before attention dropout, for inspection dumps.
    """
    b, h, tq, dh = q.shape
    scores = T.mul(T.matmul(q, T.swapaxes(k, -1, -2)), 1.0 / np.sqrt(dh))
    if mask is not None:
        scores = T.add(scores, mask.astype(scores.data.dtype))
    weights = T.softmax(scores, axis=-1)
    ctx = T.reshape(T.swapaxes(T.matmul(T.dropout(weights, rate, gen), v), 1, 2), (b, tq, h * dh))
    out = T.add(T.matmul(ctx, params[f"{prefix}.wo"]), params[f"{prefix}.bo"])
    return out, weights


def _ffn(params: ModelParams, prefix: str, x: Tensor) -> Tensor:
    hidden = T.relu(T.add(T.matmul(x, params[f"{prefix}.w1"]), params[f"{prefix}.b1"]))
    return T.add(T.matmul(hidden, params[f"{prefix}.w2"]), params[f"{prefix}.b2"])


def _ln(params: ModelParams, prefix: str, x: Tensor) -> Tensor:
    return T.layernorm(x, params[f"{prefix}.gain"], params[f"{prefix}.bias"])


def check_encoder_input(cfg: ModelConfig, enc_input: EncoderInput) -> np.ndarray:
    """Raise unless the encoder can read ``enc_input``: piece ids inside
    ``enc_vocab``, at least one position and at most ``max_positions``.
    Returns the piece ids as a (batch, length) array."""
    piece_ids = _check_ids("enc_word_emb", enc_input.batched().piece_ids, cfg.enc_vocab)
    if piece_ids.size == 0 or piece_ids.shape[1] == 0:
        raise EmptyInput("encoder input has zero length")
    if piece_ids.shape[1] > cfg.max_positions:
        raise IdOutOfRange(
            f"enc_pos_emb: input length {piece_ids.shape[1]} exceeds max_positions "
            f"{cfg.max_positions}"
        )
    return piece_ids


def check_decoder_input(cfg: ModelConfig, ids, start: int = 0) -> np.ndarray:
    """Raise unless the decoder can read ``ids`` (rows, t), or one row (t,),
    as positions ``start`` onward: at least one position, none past
    ``max_positions``, ids inside ``dec_vocab``.  Returns (rows, t) ids."""
    ids = np.atleast_2d(ids)
    if ids.shape[1] == 0:
        raise EmptyInput("decoder prefix has zero length")
    if start + ids.shape[1] > cfg.max_positions:
        raise PrefixTooLong(
            f"prefix length {start + ids.shape[1]} exceeds max_positions {cfg.max_positions}"
        )
    return _check_ids("dec_word_emb", ids, cfg.dec_vocab)


def encode(
    params: ModelParams,
    enc_input: EncoderInput,
    drop: Dropout | None = None,
) -> tuple[Tensor, np.ndarray]:
    """Run the encoder stack; returns (memory (B,T,d_model), pad_mask (B,T)).

    ``drop`` applies training-mode dropout and layerdrop; None is eval mode.
    """
    cfg = params.config
    batch = enc_input.batched()
    piece_ids = check_encoder_input(cfg, batch)
    depth_ids = _bucket("enc_depth_emb", batch.depth_ids, cfg.depth_buckets)
    subgraph_ids = _bucket("enc_subgraph_emb", batch.subgraph_ids, cfg.subgraph_buckets)
    n, t = piece_ids.shape
    pad_mask = (
        np.ones((n, t), dtype=bool) if batch.pad_mask is None else batch.pad_mask.astype(bool)
    )
    pos_ids = np.broadcast_to(np.arange(t), (n, t))
    parts = [
        T.embed(params["enc_word_emb"], piece_ids),
        T.embed(params["enc_pos_emb"], pos_ids),
    ]
    if cfg.d_depth > 0:
        parts.append(T.embed(params["enc_depth_emb"], depth_ids))
    if cfg.d_subgraph > 0:
        parts.append(T.embed(params["enc_subgraph_emb"], subgraph_ids))
    x = T.add(T.matmul(T.concat_last_dim(parts), params["enc_in_proj"]), params["enc_in_bias"])
    rate = drop.rate if drop else 0.0
    x = T.dropout(x, rate, drop.stream("drop", "enc_in") if drop else None)

    attn_mask = np.where(pad_mask[:, None, None, :], 0.0, NEG_INF)
    keep = _kept_layers(drop, "enc", cfg.enc_layers)
    for i in range(cfg.enc_layers):
        if not keep[i]:
            continue
        gen = drop.stream("drop", "enc", i) if drop else None
        prefix = f"enc.{i}.attn"
        normed = _ln(params, f"enc.{i}.ln1", x)
        q, k, v = (_heads(params, prefix, w, normed) for w in "qkv")
        attn_out, _ = _attend(params, prefix, q, k, v, attn_mask, rate, gen)
        x = T.add(x, T.dropout(attn_out, rate, gen))
        ffn_out = _ffn(params, f"enc.{i}.ffn", _ln(params, f"enc.{i}.ln2", x))
        x = T.add(x, T.dropout(ffn_out, rate, gen))
    return _ln(params, "enc_final_ln", x), pad_mask


class DecoderState:
    """The keys and values of one decoder pass, or of a whole search.

    Each layer's self-attention keys and values for every position fed so
    far (rows, H, length, d_head), and its cross-attention ones, projected
    from the memory the first time the layer asks.  The memory holds one
    row, broadcast over the fed rows (a beam), or one per fed row (teacher
    forcing); memory=None runs LM mode."""

    def __init__(
        self,
        params: ModelParams,
        memory: Tensor | None,
        memory_mask: np.ndarray | None,
        bos_id: int | None,
    ):
        n_layers = params.config.dec_layers
        self.params = params
        self.memory = memory
        self.bos_id = bos_id
        self.length = 0
        self.keys: list[np.ndarray | None] = [None] * n_layers
        self.values: list[np.ndarray | None] = [None] * n_layers
        self.cross: list[tuple[Tensor, Tensor] | None] = [None] * n_layers
        self.cross_mask = None
        if memory is not None and memory_mask is not None:
            self.cross_mask = np.where(memory_mask[:, None, None, :], 0.0, NEG_INF)

    def self_kv(self, layer: int, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        if self.keys[layer] is not None:
            k = Tensor(np.concatenate([self.keys[layer], k.data], axis=2), dtype=k.data.dtype)
            v = Tensor(np.concatenate([self.values[layer], v.data], axis=2), dtype=v.data.dtype)
        self.keys[layer], self.values[layer] = k.data, v.data
        return k, v

    def cross_kv(self, layer: int) -> tuple[Tensor, Tensor] | None:
        if self.memory is not None and self.cross[layer] is None:
            prefix = f"dec.{layer}.cross_attn"
            self.cross[layer] = tuple(_heads(self.params, prefix, w, self.memory) for w in "kv")
        return self.cross[layer]

    def reorder(self, rows) -> None:
        """Keep row ``rows[j]`` as new row j, after at least one step."""
        rows = np.asarray(rows, dtype=np.int64)
        self.keys = [k[rows] for k in self.keys]
        self.values = [v[rows] for v in self.values]


def _decoder_layers(
    params: ModelParams,
    x: Tensor,
    state: DecoderState,
    self_mask: np.ndarray | None,
    drop: Dropout | None,
) -> tuple[Tensor, list[np.ndarray]]:
    """The decoder stack from its projected input x to logits, and each
    kept layer's cross-attention weights."""
    cfg = params.config
    rate = drop.rate if drop else 0.0
    x = T.dropout(x, rate, drop.stream("drop", "dec_in") if drop else None)
    keep = _kept_layers(drop, "dec", cfg.dec_layers)
    cross_weights: list[np.ndarray] = []
    for i in range(cfg.dec_layers):
        if not keep[i]:
            continue
        gen = drop.stream("drop", "dec", i) if drop else None
        prefix = f"dec.{i}.self_attn"
        normed = _ln(params, f"dec.{i}.ln1", x)
        q, k, v = (_heads(params, prefix, w, normed) for w in "qkv")
        k, v = state.self_kv(i, k, v)
        self_out, _ = _attend(params, prefix, q, k, v, self_mask, rate, gen)
        x = T.add(x, T.dropout(self_out, rate, gen))
        cross = state.cross_kv(i)
        if cross is not None:
            prefix = f"dec.{i}.cross_attn"
            q = _heads(params, prefix, "q", _ln(params, f"dec.{i}.ln2", x))
            cross_out, weights = _attend(params, prefix, q, *cross, state.cross_mask, rate, gen)
            x = T.add(x, T.dropout(cross_out, rate, gen))
            cross_weights.append(weights.data)
        ffn_out = _ffn(params, f"dec.{i}.ffn", _ln(params, f"dec.{i}.ln3", x))
        x = T.add(x, T.dropout(ffn_out, rate, gen))
    x = _ln(params, "dec_final_ln", x)
    hidden = T.add(T.matmul(x, params["dec_out_proj"]), params["dec_out_bias"])
    logits = T.matmul(hidden, T.swapaxes(params["dec_word_emb"], 0, 1))
    return logits, cross_weights


def _decode(
    params: ModelParams,
    state: DecoderState,
    ids: np.ndarray,
    drop: Dropout | None = None,
) -> tuple[Tensor, list[np.ndarray]]:
    """The one decoder pass: ``ids`` (rows, t) are the next t positions of
    ``state``, which grows by t; each sees itself and every earlier one.
    The memory must hold one row or ``rows`` rows.  Returns what
    ``decoder_forward`` returns."""
    rows, t = check_decoder_input(params.config, ids, state.length).shape
    if state.memory is not None and state.memory.shape[0] not in (1, rows):
        n = state.memory.shape[0]
        raise ValueError(f"memory holds {n} rows for {rows} decoder rows; expected 1 or {rows}")
    positions = state.length + np.arange(t)
    x = T.concat_last_dim([T.embed(params["dec_word_emb"], ids),
                           T.embed(params["dec_pos_emb"], np.broadcast_to(positions, (rows, t)))])
    x = T.add(T.matmul(x, params["dec_in_proj"]), params["dec_in_bias"])
    causal = None  # t == 1, every search step: the one new position sees all
    if t > 1:
        causal = np.where(np.arange(state.length + t) <= positions[:, None], 0.0, NEG_INF)
    out = _decoder_layers(params, x, state, causal, drop)
    state.length += t
    return out


def decoder_forward(
    params: ModelParams,
    memory: Tensor | None,
    memory_mask: np.ndarray | None,
    prefix_ids: np.ndarray,
    drop: Dropout | None = None,
) -> tuple[Tensor, list[np.ndarray]]:
    """Causal decoder over whole prefixes; memory=None runs LM mode.

    ``drop`` applies training-mode dropout and layerdrop; None is eval
    mode.  Returns logits (B, T, dec_vocab) and each kept layer's
    cross-attention weights (B, H, T, S), the softmax's own arrays (none in
    LM mode); callers read them and never write to them.
    """
    prefix_ids = np.asarray(prefix_ids)
    if prefix_ids.ndim == 1:
        prefix_ids = prefix_ids[None, :]
    state = DecoderState(params, memory, memory_mask, bos_id=None)
    return _decode(params, state, prefix_ids, drop)


def decode_step(params: ModelParams, state: DecoderState, last_ids) -> np.ndarray:
    """Next-token logits (rows, dec_vocab) after one new position per row.

    ``last_ids`` holds each row's newest id, bos on the first step.  Only
    the new positions run through the decoder; earlier ones are read from
    ``state``, which grows by one position.
    """
    ids = np.asarray(last_ids, dtype=np.int64).reshape(-1, 1)
    if state.length == 0 and np.any(ids != state.bos_id):
        raise ValueError("the first decode step must feed the bos id")
    with T.no_grad():
        # (rows, 1, d) throughout, never (rows, d): a stacked matmul gives
        # each row the same bits however many rows are live.
        logits, _ = _decode(params, state, ids)
    return logits.data[:, 0, :]


def load_decoder_embeddings(
    params: ModelParams, path, vocab: dict[str, int]
) -> tuple[int, int]:
    """Overwrite decoder word-embedding rows from a text embedding file.

    Each line is "piece v1 v2 ... vd".  Pieces absent from the decoder
    vocabulary are ignored; rows not covered keep their random init.
    Returns (rows initialized, vocabulary size).
    """
    emb = params["dec_word_emb"]
    d_word = emb.shape[1]
    initialized = 0
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split(" ")
            if len(parts) < 2:
                raise MalformedEmbeddingFile(f"line {lineno}: expected 'piece v1 ... vd'")
            piece, values = parts[0], parts[1:]
            if len(values) != d_word:
                raise WidthMismatch(
                    f"line {lineno}: vector width {len(values)} but d_word is {d_word}"
                )
            if piece not in vocab:
                continue
            try:
                row = np.asarray([float(v) for v in values], dtype=emb.data.dtype)
            except ValueError:
                raise MalformedEmbeddingFile(f"line {lineno}: non-numeric value") from None
            emb.data[vocab[piece]] = row
            initialized += 1
    return initialized, params.config.dec_vocab


def write_arrays(path, header: dict, arrays) -> None:
    """Write the one checkpoint format: the version line, one ``key=value``
    line per header item, ``#tensors``, then for each (name, array) a
    ``tensor NAME D1,D2,...`` line and the array's float32 LE bytes.

    The file is written beside ``path`` and renamed over it only once
    complete, so a failed write leaves any previous file as it was.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            lines = [CHECKPOINT_MAGIC, *(f"{k}={v}" for k, v in header.items()), "#tensors"]
            f.write(("\n".join(lines) + "\n").encode("utf-8"))
            for name, data in arrays:
                shape = ",".join(str(d) for d in data.shape)
                f.write(f"tensor {name} {shape}\n".encode("utf-8"))
                f.write(np.ascontiguousarray(data, dtype="<f4").tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_arrays(path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """(header, {name: read-only float32 array}) of a file written by ``write_arrays``."""
    with open(path, "rb") as f:
        blob = f.read()
    end = blob.find(b"#tensors\n")
    if end < 0 or not blob.startswith(CHECKPOINT_MAGIC.encode("utf-8") + b"\n"):
        raise MalformedCheckpoint(f"{path}: missing header or #tensors marker")
    try:
        header = dict(
            line.split("=", 1) for line in blob[:end].decode("utf-8").splitlines()[1:]
        )
        arrays: dict[str, np.ndarray] = {}
        offset = end + len(b"#tensors\n")
        while offset < len(blob):
            newline = blob.index(b"\n", offset)
            kind, name, shape_text = blob[offset:newline].decode("utf-8").split(" ")
            if kind != "tensor" or name in arrays:
                raise ValueError(f"bad tensor line for {name!r}")
            shape = tuple(int(d) for d in shape_text.split(",")) if shape_text else ()
            count, start = int(np.prod(shape)), newline + 1
            if count < 0 or start + 4 * count > len(blob):
                raise ValueError(f"truncated tensor data for {name!r}")
            # a view into blob: no per-tensor copy of the bytes
            data = np.frombuffer(blob, dtype="<f4", count=count, offset=start)
            arrays[name] = data.reshape(shape)
            offset = start + 4 * count
    except ValueError as err:  # also undecodable text, a missing field, a bad number
        raise MalformedCheckpoint(f"{path}: unreadable checkpoint: {err}") from None
    return header, arrays


def check_header(path, header: dict[str, str], types: dict) -> dict:
    """The header's values converted by ``types``, whose keys it must hold
    exactly; errors name the file at ``path``."""
    if set(header) != set(types):
        missing, unknown = sorted(set(types) - set(header)), sorted(set(header) - set(types))
        raise MalformedCheckpoint(f"{path}: header keys: missing {missing}, unknown {unknown}")
    try:
        return {key: types[key](value) for key, value in header.items()}
    except ValueError as err:
        raise MalformedCheckpoint(f"{path}: bad header value: {err}") from None


def check_arrays(path, arrays: dict[str, np.ndarray], schema) -> None:
    """Raise MalformedCheckpoint, naming the file at ``path``, unless
    ``arrays`` holds exactly the names and shapes of ``schema``, a list of
    (name, shape)."""
    got = {name: a.shape for name, a in arrays.items()}
    want = {name: tuple(shape) for name, shape in schema}
    if got != want:
        bad = sorted(n for n in got.keys() | want.keys() if got.get(n) != want.get(n))
        shapes = ", ".join(f"{n} {got.get(n)} (expected {want.get(n)})" for n in bad[:3])
        raise MalformedCheckpoint(f"{path}: arrays do not fit: {shapes}")


def save_checkpoint(params: ModelParams, path) -> None:
    """The model's architecture (its config fields) as the header, then its
    tensors in name order."""
    header = {f.name: getattr(params.config, f.name) for f in fields(ModelConfig)}
    write_arrays(path, header, ((name, t.data) for name, t in params.named()))


def load_checkpoint(path) -> ModelParams:
    header, arrays = read_arrays(path)
    cfg = ModelConfig(**check_header(path, header, {f.name: int for f in fields(ModelConfig)}))
    try:
        cfg.validate()
    except InvalidConfig as err:
        raise MalformedCheckpoint(f"{path}: bad model config: {err}") from None
    check_arrays(path, arrays, _schema(cfg))
    params = ModelParams(config=cfg)
    for name, data in arrays.items():
        params.tensors[name] = Tensor(data.astype(T.default_dtype()), requires_grad=True)
    return params
