"""Dense tensors with reverse-mode automatic differentiation.

Just enough operator coverage for a transformer: broadcast add/mul, batched
matmul, relu, softmax, fused layer-norm, embedding lookup, last-axis
concat, dropout, reshape/swap, and label-smoothed cross-entropy.  Arrays
are float32 by default; gradient checking switches the default to float64
for headroom.  Randomness comes from a counter-based generator keyed by
(seed, tags) so any mask can be replayed in isolation.

Every op records its node through ``_result``: its parents' nodes, a
gradient slot and a backward rule that closes over only the arrays it reads
(dropout's mask, relu's or softmax's output, the operand of mul or matmul
whose partner needs a gradient).  An intermediate array is freed once its
``Tensor`` is dropped unless a rule saved it.  A rule returns one gradient
per parent, and ``Tensor.backward`` accumulates them.
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


class _Node:
    """One recorded op: its parents' nodes (None for a constant), its rule,
    a gradient slot, and the output's shape and dtype but not its array."""

    __slots__ = ("parents", "rule", "grad", "shape", "dtype")

    def __init__(self, parents, rule, shape, dtype):
        self.parents, self.rule, self.grad = parents, rule, None
        self.shape, self.dtype = shape, dtype

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.add(g, 0, out=np.empty(self.shape, self.dtype))
        else:
            self.grad += g


class Tensor:
    """A numpy array, an optional gradient, and the node of the op that made it.

    A leaf that requires a gradient serves as its own node (no parents, no
    rule, gradient in ``grad``) without pointing at itself, so parameters
    are freed by reference counting alone.
    """

    __slots__ = ("data", "requires_grad", "grad", "node")
    parents = ()
    rule = None

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype or _DEFAULT_DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    # The recorded rule, under the name perfbench's tracer wraps.
    _backward = property(lambda self: None if self.node is None else self.node.rule,
                         lambda self, rule: setattr(self.node, "rule", rule))

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
        rule has run, its rule, parents and gradient are dropped.  Only
        leaves keep ``.grad``.
        """
        if self.data.size != 1:
            raise NonScalarLoss(f"loss must be scalar, got shape {self.shape}")
        root = self if self.node is None else self.node
        topo, seen, stack = [], set(), [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
            elif id(node) not in seen:
                seen.add(id(node))
                stack.append((node, True))
                stack.extend((p, False) for p in node.parents
                             if p is not None and id(p) not in seen)
        root.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node.rule is None:  # a leaf
                continue
            if node.grad is not None:
                for parent, g in zip(node.parents, node.rule(node.grad)):
                    if g is not None:
                        parent._accumulate(g)
            node.parents, node.rule, node.grad = (), None, None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _result(data: np.ndarray, parents: tuple[Tensor, ...], rule) -> Tensor:
    """The op's output, with a node when recording: the one place a node is
    made.  ``rule(g)`` returns one gradient, or None, per parent."""
    out = Tensor(data, dtype=data.dtype)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        nodes = tuple((p.node or p) if p.requires_grad else None for p in parents)
        out.node = _Node(nodes, rule, data.shape, data.dtype)
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
    shapes = [p.shape if p.requires_grad else None for p in (a, b)]

    def rule(g):
        return tuple(None if s is None else _unbroadcast(g, s) for s in shapes)

    return _result(a.data + b.data, (a, b), rule)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeMismatch("mul", a.shape, b.shape) from None
    # Each operand is saved only for the other's gradient.
    shape_a, shape_b = a.shape, b.shape
    saved_b = b.data if a.requires_grad else None
    saved_a = a.data if b.requires_grad else None

    def rule(g):
        return (None if saved_b is None else _unbroadcast(g * saved_b, shape_a),
                None if saved_a is None else _unbroadcast(g * saved_a, shape_b))

    return _result(a.data * b.data, (a, b), rule)


def matmul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.ndim < 1 or b.ndim < 1 or a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise ShapeMismatch("matmul", a.shape, b.shape)
    shape_a, shape_b = a.shape, b.shape
    saved_b = b.data if a.requires_grad else None
    saved_a = a.data if b.requires_grad else None

    def rule(g):
        if len(shape_b) == 2 and len(shape_a) > 2:
            # Activations times a weight: one 2-D GEMM over the flattened
            # leading dims, not one per leading index.  The forward stays
            # stacked; decoding runs no backward, so its bits stay put.
            k, n = shape_b
            return (None if saved_b is None else (g.reshape(-1, n) @ saved_b.T).reshape(shape_a),
                    None if saved_a is None else saved_a.reshape(-1, k).T @ g.reshape(-1, n))
        return (None if saved_b is None else _unbroadcast(g @ saved_b.swapaxes(-1, -2), shape_a),
                None if saved_a is None else _unbroadcast(saved_a.swapaxes(-1, -2) @ g, shape_b))

    return _result(a.data @ b.data, (a, b), rule)


def relu(x: Tensor) -> Tensor:
    x = _coerce(x)
    # Saves its output, not a mask: the output is positive where x is, the
    # next matmul saves it anyway, and no comparison runs in the forward.
    data = np.maximum(x.data, 0)
    return _result(data, (x,), lambda g: (g * (data > 0),))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _coerce(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)
    return _result(data, (x,), lambda g: ((g - (g * data).sum(axis=axis, keepdims=True)) * data,))


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
    saved_gain = gain.data if x.requires_grad else None
    need_gain, need_bias = gain.requires_grad, bias.requires_grad

    def rule(g):
        gx = None
        if saved_gain is not None:
            dxhat = g * saved_gain
            term = dxhat.sum(axis=-1, keepdims=True) + xhat * (dxhat * xhat).sum(
                axis=-1, keepdims=True
            )
            gx = inv * (dxhat - term / n)
        return (gx, (g * xhat).reshape(-1, n).sum(axis=0) if need_gain else None,
                g.reshape(-1, n).sum(axis=0) if need_bias else None)

    return _result(xhat * gain.data + bias.data, (x, gain, bias), rule)


def embed(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup; gradient scatter-adds into the table, a leaf."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(
            f"embedding id out of range: [{ids.min()}, {ids.max()}] vs table {table.shape[0]}"
        )

    def rule(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, ids, g)
        return (None,)

    return _result(table.data[ids], (table,), rule)


def concat_last_dim(parts: list[Tensor]) -> Tensor:
    parts = [_coerce(p) for p in parts]
    lead = parts[0].shape[:-1]
    for p in parts[1:]:
        if p.shape[:-1] != lead:
            raise ShapeMismatch("concat_last_dim", *(p.shape for p in parts))
    data = np.concatenate([p.data for p in parts], axis=-1)
    widths, needs = [p.shape[-1] for p in parts], [p.requires_grad for p in parts]

    def rule(g):
        pieces = np.split(g, np.cumsum(widths[:-1]), axis=-1)
        return tuple(s if need else None for s, need in zip(pieces, needs))

    return _result(data, tuple(parts), rule)


def dropout(x: Tensor, p: float, gen: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability p, scale kept units by 1/(1-p)."""
    if p == 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability {p} outside [0, 1)")
    x = _coerce(x)
    keep, dtype = gen.random(x.shape) >= p, x.data.dtype

    def rule(g):  # rebuilds the forward's scaled mask from the saved bool mask
        return (g * (keep / (1.0 - p)).astype(dtype),)

    return _result(x.data * (keep / (1.0 - p)).astype(dtype), (x,), rule)


def reshape(x: Tensor, shape) -> Tensor:
    x = _coerce(x)
    old = x.shape
    return _result(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),))


def swapaxes(x: Tensor, a: int, b: int) -> Tensor:
    x = _coerce(x)
    return _result(x.data.swapaxes(a, b), (x,), lambda g: (g.swapaxes(a, b),))


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
    shape, dtype = logits.shape, logits.data.dtype

    def rule(g):
        probs = np.exp(logp)
        w = np.full_like(probs, eps / v)
        w[rows, flat_targets] += 1.0 - eps
        d = (probs - w) * nonpad[:, None] * (float(g) / n)
        return (d.reshape(shape).astype(dtype),)

    return _result(np.asarray(value, dtype=flat_logits.dtype), (logits,), rule)
