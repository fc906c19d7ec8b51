"""Dense tensors with reverse-mode automatic differentiation.

Just enough operator coverage for a transformer: broadcast add/mul, batched
matmul, relu, softmax, fused layer-norm, embedding lookup, last-axis
concat, dropout, reshape/swap, and label-smoothed cross-entropy.  Arrays
are float32 by default; gradient checking switches the default to float64
for headroom.  Randomness comes from a counter-based generator keyed by
(seed, tags) so any mask can be replayed in isolation.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


class ShapeMismatch(ValueError):
    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: incompatible shapes {' vs '.join(map(str, shapes))}")


class NonScalarLoss(ValueError):
    pass


class AllPadTarget(ValueError):
    pass


_DEFAULT_DTYPE = np.float32
_GRAD_ENABLED = True


def default_dtype():
    return _DEFAULT_DTYPE


@contextmanager
def gradcheck_mode():
    """Run the enclosed block with float64 defaults for finite differences."""
    global _DEFAULT_DTYPE
    prev = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = np.float64
    try:
        yield
    finally:
        _DEFAULT_DTYPE = prev


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference mode)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


@dataclass(frozen=True)
class Rng:
    """Counter-based random source; streams are independent per tag tuple.

    The same (seed, tags) always yields the same draws on any platform, so
    dropout masks and noise decisions can be reproduced without replaying
    the whole run.
    """

    seed: int

    def stream(self, *tags) -> np.random.Generator:
        digest = hashlib.blake2b(
            repr(tags).encode("utf-8"), digest_size=8, key=b"amr2text"
        ).digest()
        mix = int.from_bytes(digest, "little")
        bits = np.random.Philox(key=(np.uint64(self.seed & (2**64 - 1)), np.uint64(mix)))
        return np.random.Generator(bits)


class Tensor:
    """A numpy array plus an optional gradient and a recorded backward rule."""

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype or _DEFAULT_DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._backward = None
        self._parents = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # One pass, with the bits and layout of zeros_like(data) += g.
            self.grad = np.add(g, 0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def backward(self) -> None:
        """Reverse-topological gradient sweep from a scalar loss.

        The recorded graph is released as the sweep goes: once a node's
        rule has run, its closure and parents are dropped, and so is its
        gradient unless it is a leaf.  Only leaves keep ``.grad``.
        """
        if self.data.size != 1:
            raise NonScalarLoss(f"loss must be scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:
                node.grad = None
            node._backward = None
            node._parents = ()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data, dtype=data.dtype)
    tracked = tuple(p for p in parents if p.requires_grad)
    if _GRAD_ENABLED and tracked:
        out.requires_grad = True
        out._parents = tracked
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeMismatch("add", a.shape, b.shape) from None
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _result(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeMismatch("mul", a.shape, b.shape) from None
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _result(data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.ndim < 1 or b.ndim < 1 or a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise ShapeMismatch("matmul", a.shape, b.shape)
    data = a.data @ b.data

    def backward(g):
        if b.ndim == 2 and a.ndim > 2:
            # Activations times a weight: one 2-D GEMM over the flattened
            # leading dims, not one per leading index.  The forward stays
            # stacked; decoding runs no backward, so its bits stay put.
            k, n = b.shape
            if a.requires_grad:
                a._accumulate((g.reshape(-1, n) @ b.data.T).reshape(a.shape))
            if b.requires_grad:
                b._accumulate(a.data.reshape(-1, k).T @ g.reshape(-1, n))
            return
        if a.requires_grad:
            ga = g @ b.data.swapaxes(-1, -2)
            a._accumulate(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = a.data.swapaxes(-1, -2) @ g
            b._accumulate(_unbroadcast(gb, b.shape))

    return _result(data, (a, b), backward)


def relu(x: Tensor) -> Tensor:
    x = _coerce(x)
    data = np.maximum(x.data, 0)

    def backward(g):
        x._accumulate(g * (x.data > 0))

    return _result(data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _coerce(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        x._accumulate((g - dot) * data)

    return _result(data, (x,), backward)


def layernorm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then affine."""
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    if gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ShapeMismatch("layernorm", x.shape, gain.shape, bias.shape)
    n = x.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = xhat * gain.data + bias.data

    def backward(g):
        if gain.requires_grad:
            gain._accumulate((g * xhat).reshape(-1, n).sum(axis=0))
        if bias.requires_grad:
            bias._accumulate(g.reshape(-1, n).sum(axis=0))
        if x.requires_grad:
            dxhat = g * gain.data
            term = dxhat.sum(axis=-1, keepdims=True) + xhat * (dxhat * xhat).sum(
                axis=-1, keepdims=True
            )
            x._accumulate(inv * (dxhat - term / n))

    return _result(data, (x, gain, bias), backward)


def embed(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup; gradient scatter-adds into the table."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(
            f"embedding id out of range: [{ids.min()}, {ids.max()}] vs table {table.shape[0]}"
        )
    data = table.data[ids]

    def backward(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, ids, g)

    out = Tensor(data, dtype=data.dtype)
    if _GRAD_ENABLED and table.requires_grad:
        out.requires_grad = True
        out._parents = (table,)
        out._backward = backward
    return out


def concat_last_dim(parts: list[Tensor]) -> Tensor:
    parts = [_coerce(p) for p in parts]
    lead = parts[0].shape[:-1]
    for p in parts[1:]:
        if p.shape[:-1] != lead:
            raise ShapeMismatch("concat_last_dim", *(p.shape for p in parts))
    data = np.concatenate([p.data for p in parts], axis=-1)
    widths = [p.shape[-1] for p in parts]

    def backward(g):
        offset = 0
        for p, w in zip(parts, widths):
            if p.requires_grad:
                p._accumulate(g[..., offset : offset + w])
            offset += w

    return _result(data, tuple(parts), backward)


def dropout(x: Tensor, p: float, gen: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability p, scale kept units by 1/(1-p)."""
    if p == 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability {p} outside [0, 1)")
    x = _coerce(x)
    mask = (gen.random(x.shape) >= p) / (1.0 - p)
    mask = mask.astype(x.data.dtype)
    data = x.data * mask

    def backward(g):
        x._accumulate(g * mask)

    return _result(data, (x,), backward)


def reshape(x: Tensor, shape) -> Tensor:
    x = _coerce(x)
    data = x.data.reshape(shape)
    old = x.shape

    def backward(g):
        x._accumulate(g.reshape(old))

    return _result(data, (x,), backward)


def swapaxes(x: Tensor, a: int, b: int) -> Tensor:
    x = _coerce(x)
    data = x.data.swapaxes(a, b)

    def backward(g):
        x._accumulate(g.swapaxes(a, b))

    return _result(data, (x,), backward)


def label_smoothed_nll(
    logits: Tensor, targets: np.ndarray, eps: float, pad_id: int
) -> Tensor:
    """(1-eps) * NLL(target) + eps * mean over vocab of -log p, per token,
    averaged over non-pad targets.  Backward uses the closed form
    (p - w) / n where w is the smoothed target distribution.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"label smoothing eps {eps} outside [0, 1)")
    targets = np.asarray(targets)
    flat_logits = logits.data.reshape(-1, logits.shape[-1])
    flat_targets = targets.reshape(-1)
    if flat_targets.shape[0] != flat_logits.shape[0]:
        raise ShapeMismatch("label_smoothed_nll", logits.shape, targets.shape)
    nonpad = flat_targets != pad_id
    n = int(nonpad.sum())
    if n == 0:
        raise AllPadTarget("every target position is pad")
    v = flat_logits.shape[1]
    shifted = flat_logits - flat_logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    rows = np.arange(flat_logits.shape[0])
    nll = -logp[rows, flat_targets]
    smooth = -logp.mean(axis=1)
    per_token = (1.0 - eps) * nll + eps * smooth
    value = per_token[nonpad].sum() / n

    def backward(g):
        probs = np.exp(logp)
        w = np.full_like(probs, eps / v)
        w[rows, flat_targets] += 1.0 - eps
        d = (probs - w) * nonpad[:, None] * (float(g) / n)
        logits._accumulate(d.reshape(logits.shape).astype(logits.data.dtype))

    return _result(np.asarray(value, dtype=flat_logits.dtype), (logits,), backward)
