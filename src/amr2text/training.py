"""One update loop for every training phase, and fine-tuning on it.

Training is update-count based.  Batches for epoch e are rebuilt
deterministically from (seed + e), and the batch used at update step k
is a pure function of k, so a run resumed from a saved trainer state
reproduces the uninterrupted run exactly.  The best checkpoint is the
one with minimum validation loss, ties broken by the earlier step.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .corpus import Batch, ParallelExample, make_batches
from .model import (
    Dropout,
    EncoderInput,
    ModelParams,
    check_arrays,
    check_header,
    decoder_forward,
    encode,
    load_checkpoint,
    load_decoder_embeddings,
    read_arrays,
    write_arrays,
)
from .tensor import AllPadTarget, Rng, Tensor, label_smoothed_nll, no_grad

logger = logging.getLogger(__name__)


class DivergedLoss(RuntimeError):
    def __init__(self, message: str, last_good: ModelParams | None = None):
        super().__init__(message)
        self.last_good = last_good


class ConfigMismatch(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    base_lr: float = 0.001
    warmup_steps: int = 4000
    max_updates: int = 100000
    label_smoothing: float = 0.1
    dropout: float = 0.1
    layerdrop: float = 0.1
    seed: int = 1
    checkpoint_every: int = 1000
    max_tokens_per_batch: int = 3584

    def validate(self) -> None:
        if self.warmup_steps < 1:
            raise ValueError("warmup_steps must be >= 1")
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label_smoothing outside [0, 1)")
        for name in ("dropout", "layerdrop"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} outside [0, 1)")
        if self.max_updates < 1 or self.checkpoint_every < 1:
            raise ValueError("max_updates and checkpoint_every must be >= 1")


def lr_at(step: int, cfg: TrainConfig) -> float:
    """base_lr * min(step^-1/2, step * warmup^-3/2); peak at step = warmup."""
    if step < 1:
        raise ValueError("step must be >= 1")
    return cfg.base_lr * min(step**-0.5, step * cfg.warmup_steps**-1.5)


ADAM_BETAS = (0.9, 0.98)
ADAM_EPS = 1e-9


class Adam:
    """Adam over a fixed parameter list of one dtype.

    ``step`` updates the moments and the parameters in place, through two
    scratch buffers sized to the largest parameter.  It runs the same
    ufuncs on the same operands in the same order as the plain expression
    ``m = b1 * m + (1 - b1) * g`` and so on, so the bits are the same.
    """

    def __init__(self, params: list[Tensor]):
        dtypes = {p.data.dtype for p in params}
        if len(dtypes) > 1:
            raise ValueError(f"Adam needs one parameter dtype, got {sorted(map(str, dtypes))}")
        self.params = params
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        size = max((p.data.size for p in params), default=0)
        dtype = dtypes.pop() if dtypes else np.float32
        self._scratch = (np.empty(size, dtype), np.empty(size, dtype))

    def step(self, lr: float) -> None:
        b1, b2 = ADAM_BETAS
        self.t += 1
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            s1, s2 = (buf[: g.size].reshape(g.shape) for buf in self._scratch)
            # m = b1 * m + (1 - b1) * g
            np.multiply(b1, m, out=m)
            np.add(m, np.multiply(1.0 - b1, g, out=s1), out=m)
            # v = b2 * v + (1 - b2) * (g * g)
            np.multiply(b2, v, out=v)
            np.add(v, np.multiply(1.0 - b2, np.multiply(g, g, out=s1), out=s1), out=v)
            # p -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
            np.multiply(lr, np.divide(m, bias1, out=s1), out=s1)
            np.add(np.sqrt(np.divide(v, bias2, out=s2), out=s2), ADAM_EPS, out=s2)
            np.subtract(p.data, np.divide(s1, s2, out=s1), out=p.data)


def save_trainer_state(path, step: int, opt: Adam) -> None:
    """Adam's moments as ``m.<i>``/``v.<i>`` arrays, ``step`` and ``t`` as header keys."""
    moments = [(f"m.{i}", m) for i, m in enumerate(opt.m)]
    moments += [(f"v.{i}", v) for i, v in enumerate(opt.v)]
    write_arrays(path, {"step": step, "t": opt.t}, moments)


def load_trainer_state(path, opt: Adam) -> int:
    """Restore ``opt`` from a saved trainer state; returns the saved step."""
    header, arrays = read_arrays(path)
    values = check_header(path, header, {"step": int, "t": int})
    check_arrays(
        path, arrays, [(f"{k}.{i}", p.shape) for k in "mv" for i, p in enumerate(opt.params)]
    )
    opt.t = values["t"]
    opt.m = [arrays[f"m.{i}"].astype(p.data.dtype) for i, p in enumerate(opt.params)]
    opt.v = [arrays[f"v.{i}"].astype(p.data.dtype) for i, p in enumerate(opt.params)]
    return values["step"]


def batch_loss(
    params: ModelParams,
    batch: Batch,
    pad_id: int,
    label_smoothing: float,
    drop: Dropout | None = None,
) -> Tensor:
    """Teacher-forced label-smoothed loss, averaged over non-pad targets;
    ``drop`` as for ``encode``, None in eval mode."""
    enc_in = EncoderInput(
        piece_ids=batch.src,
        depth_ids=batch.src_depth,
        subgraph_ids=batch.src_subgraph,
        pad_mask=batch.src_pad_mask,
    )
    memory, memory_mask = encode(params, enc_in, drop)
    logits, _ = decoder_forward(params, memory, memory_mask, batch.tgt[:, :-1], drop)
    return label_smoothed_nll(logits, batch.tgt[:, 1:], label_smoothing, pad_id)


def dataset_loss(
    params: ModelParams,
    batches: list[Batch],
    pad_id: int,
    label_smoothing: float = 0.0,
) -> float:
    """Average per-token loss over a batched dataset, in eval mode."""
    total = 0.0
    tokens = 0
    with no_grad():
        for batch in batches:
            n = batch.n_target_tokens(pad_id)
            if n == 0:
                continue
            loss = batch_loss(params, batch, pad_id, label_smoothing)
            total += loss.item() * n
            tokens += n
    if tokens == 0:
        raise AllPadTarget("validation set has no target tokens")
    return total / tokens


@dataclass
class TrainResult:
    best_params: ModelParams
    best_valid_loss: float
    best_step: int
    final_params: ModelParams
    log: list[tuple[int, float, float, float | None]] = field(default_factory=list)


def _snapshot(params: ModelParams) -> ModelParams:
    copy = ModelParams(config=params.config)
    for name, t in params.tensors.items():
        copy.tensors[name] = Tensor(t.data.copy(), requires_grad=True, dtype=t.data.dtype)
    return copy


def run_updates(
    params: ModelParams,
    cfg: TrainConfig,
    epoch_batches,
    loss_fn,
    validate=None,
    on_checkpoint=None,
    log_path=None,
    start_step: int = 0,
    optimizer: Adam | None = None,
) -> TrainResult:
    """The update loop every training phase runs on.

    ``epoch_batches(seed)`` returns one epoch's batches; epoch e uses
    ``cfg.seed + e``.  ``loss_fn(params, batch, drop)`` returns the
    training loss; ``drop`` is the update's ``model.Dropout``, carrying
    ``cfg.dropout``, ``cfg.layerdrop`` and the random streams of that step.
    The model's config holds no rates, so these are the only ones applied.
    ``validate(params)``, if given, returns the validation
    loss at every checkpoint and picks the best snapshot; without it no
    snapshot is taken and the final parameters stand as the best.  Each
    log line is written to ``log_path`` as the step ends, before
    ``on_checkpoint`` sees it: a fresh run (``start_step`` 0) truncates the
    file, a resumed run appends.
    """
    cfg.validate()
    rng = Rng(cfg.seed)
    opt = optimizer or Adam(params.parameters())
    log: list[tuple[int, float, float, float | None]] = []
    best: tuple[float, int, ModelParams] | None = None
    # Batch counts can differ between epochs (reshuffled packing), so the
    # step -> batch mapping walks epochs from zero; resuming replays the walk.
    epoch = 0
    epoch_start = 0
    batches = epoch_batches(cfg.seed)
    # Line-buffered, so the log on disk follows the run step by step.
    lines = (
        open(log_path, "a" if start_step else "w", buffering=1, encoding="utf-8")
        if log_path
        else None
    )
    try:
        for step in range(1, cfg.max_updates + 1):
            if step - 1 - epoch_start >= len(batches):
                epoch_start += len(batches)
                epoch += 1
                batches = epoch_batches(cfg.seed + epoch)
            if step <= start_step:
                continue
            batch = batches[step - 1 - epoch_start]
            for p in params.parameters():
                p.zero_grad()
            loss = loss_fn(params, batch, Dropout(cfg.dropout, cfg.layerdrop, rng, step))
            value = loss.item()
            if not np.isfinite(value):
                raise DivergedLoss(
                    f"non-finite training loss at step {step}",
                    last_good=best[2] if best else None,
                )
            loss.backward()
            lr = lr_at(step, cfg)
            opt.step(lr)
            valid_loss: float | None = None
            if validate is not None and (
                step % cfg.checkpoint_every == 0 or step == cfg.max_updates
            ):
                valid_loss = validate(params)
                if not np.isfinite(valid_loss):
                    raise DivergedLoss(
                        f"non-finite validation loss at step {step}",
                        last_good=best[2] if best else None,
                    )
                if best is None or valid_loss < best[0]:
                    best = (valid_loss, step, _snapshot(params))
            log.append((step, lr, value, valid_loss))
            if lines:
                v = "" if valid_loss is None else f"{valid_loss:.6f}"
                lines.write(f"{step}\t{lr:.8g}\t{value:.6f}\t{v}\n")
            if valid_loss is not None and on_checkpoint is not None:
                if on_checkpoint(step, params, valid_loss):
                    break
    finally:
        if lines:
            lines.close()
    last_step = log[-1][0] if log else start_step
    if validate is None:
        best = (float("nan"), last_step, params)
    elif best is None:
        best = (validate(params), last_step, _snapshot(params))
    return TrainResult(
        best_params=best[2],
        best_valid_loss=best[0],
        best_step=best[1],
        final_params=params,
        log=log,
    )


def train(
    params: ModelParams,
    train_set: list[ParallelExample],
    valid_set: list[ParallelExample],
    cfg: TrainConfig,
    pad_id: int,
    on_checkpoint=None,
    log_path=None,
    start_step: int = 0,
    optimizer: Adam | None = None,
) -> TrainResult:
    """Run Adam updates until max_updates, validating every checkpoint_every.

    ``on_checkpoint(step, params, valid_loss)`` may return True to stop
    early.  Pass ``start_step`` and ``optimizer`` to resume a run; the
    subsequent loss trajectory matches the uninterrupted run.
    """
    valid_batches = make_batches(valid_set, cfg.max_tokens_per_batch, cfg.seed, pad_id)
    return run_updates(
        params,
        cfg,
        lambda seed: make_batches(train_set, cfg.max_tokens_per_batch, seed, pad_id),
        lambda p, batch, drop: batch_loss(p, batch, pad_id, cfg.label_smoothing, drop),
        validate=lambda p: dataset_loss(p, valid_batches, pad_id),
        on_checkpoint=on_checkpoint,
        log_path=log_path,
        start_step=start_step,
        optimizer=optimizer,
    )


def initialize_for_finetune(
    params: ModelParams,
    encoder_ckpt=None,
    decoder_ckpt=None,
    embeddings_path=None,
    dec_vocab_map: dict[str, int] | None = None,
) -> tuple[ModelParams, list[str]]:
    """Load encoder weights, then decoder weights, then embedding rows.

    Later sources win where they overlap (the embedding file overwrites
    rows even if the decoder checkpoint set them).  Returns the model and
    a report of what was initialized.
    """
    report: list[str] = []
    for ckpt_path, prefix in ((encoder_ckpt, "enc"), (decoder_ckpt, "dec")):
        if ckpt_path is None:
            continue
        loaded = load_checkpoint(ckpt_path)
        copied = []
        for name, t in loaded.tensors.items():
            if not name.startswith(prefix):
                continue
            if name not in params.tensors:
                continue
            if params.tensors[name].shape != t.shape:
                raise ConfigMismatch(
                    f"{name}: checkpoint shape {t.shape} vs model shape "
                    f"{params.tensors[name].shape}"
                )
            params.tensors[name].data[...] = t.data.astype(params.tensors[name].data.dtype)
            copied.append(name)
        report.append(f"{prefix}: {len(copied)} tensors from {ckpt_path}")
        logger.info("initialized %d %s tensors from %s", len(copied), prefix, ckpt_path)
    if embeddings_path is not None:
        if dec_vocab_map is None:
            raise ValueError("embeddings_path requires dec_vocab_map")
        n, total = load_decoder_embeddings(params, embeddings_path, dec_vocab_map)
        report.append(f"embeddings: {n}/{total} rows from {embeddings_path}")
        logger.info("initialized %d/%d decoder embedding rows", n, total)
    if not report:
        report.append("fresh: no pretrained weights loaded")
    return params, report
