"""Autodiff core tests.

Every primitive gets a central finite-difference check in float64; the
graph machinery (toposort, accumulation, release) is exercised on shared
and diamond-shaped graphs, and what the graph keeps alive is checked with
weak references to its arrays.
"""

import gc
import weakref

import numpy as np
import pytest

from amr2text import tensor as T
from amr2text.model import Dropout, EncoderInput, ModelConfig, build, decoder_forward, encode


def fd_check(fn, inputs, rel_tol=1e-6, eps=1e-6):
    """Compare analytic grads of scalar fn(*inputs) against central FD."""
    with T.gradcheck_mode():
        tensors = [T.Tensor(x, requires_grad=True) for x in inputs]
        loss = fn(*tensors)
        loss.backward()
        grads = [t.grad.copy() for t in tensors]
        for x, ana in zip(inputs, grads):
            flat = x.reshape(-1)
            num = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = fn(*[T.Tensor(v) for v in inputs]).item()
                flat[i] = orig - eps
                down = fn(*[T.Tensor(v) for v in inputs]).item()
                flat[i] = orig
                num[i] = (up - down) / (2 * eps)
            err = np.abs(num - ana.reshape(-1))
            denom = np.maximum(np.abs(num) + np.abs(ana.reshape(-1)), 1e-8)
            assert (err / denom).max() < rel_tol, fn


def _proj(shape, seed=0):
    w = np.random.default_rng(seed).normal(size=shape)

    def reduce(t):
        flat = T.reshape(t, (1, -1))
        return T.reshape(T.matmul(flat, T.Tensor(w.reshape(-1, 1))), ())

    return reduce


def rand(rng, *shape):
    return rng.normal(size=shape)


@pytest.fixture
def r():
    return np.random.default_rng(42)


def test_add_grad_with_broadcast(r):
    a, b = rand(r, 3, 4), rand(r, 4)
    p = _proj((12,))
    fd_check(lambda x, y: p(T.add(x, y)), [a, b])


def test_mul_grad_with_broadcast(r):
    a, b = rand(r, 2, 3, 4), rand(r, 1, 4)
    p = _proj((24,))
    fd_check(lambda x, y: p(T.mul(x, y)), [a, b])


def test_matmul_grad(r):
    a, b = rand(r, 3, 4), rand(r, 4, 5)
    p = _proj((15,))
    fd_check(lambda x, y: p(T.matmul(x, y)), [a, b])


def test_matmul_grad_batched(r):
    a, b = rand(r, 2, 3, 4), rand(r, 2, 4, 5)
    p = _proj((30,))
    fd_check(lambda x, y: p(T.matmul(x, y)), [a, b])


def test_matmul_grad_3d_activations_times_weight(r):
    a, b = rand(r, 2, 3, 4), rand(r, 4, 5)
    p = _proj((30,))
    fd_check(lambda x, y: p(T.matmul(x, y)), [a, b])


def test_matmul_grad_4d_activations_times_weight(r):
    a, b = rand(r, 2, 3, 2, 4), rand(r, 4, 5)
    p = _proj((60,))
    fd_check(lambda x, y: p(T.matmul(x, y)), [a, b])


def test_matmul_grad_times_swapped_table(r):
    """The tied output projection: activations times the embedding table's
    swapaxes view."""
    a, table = rand(r, 2, 3, 4), rand(r, 5, 4)
    p = _proj((30,))
    fd_check(lambda x, t: p(T.matmul(x, T.swapaxes(t, 0, 1))), [a, table])


def test_relu_grad(r):
    x = rand(r, 5, 6)
    x[np.abs(x) < 1e-2] += 0.5  # keep probes away from the kink
    p = _proj((30,))
    fd_check(lambda t: p(T.relu(t)), [x])


def test_softmax_grad(r):
    x = rand(r, 3, 7)
    p = _proj((21,))
    fd_check(lambda t: p(T.softmax(t, axis=-1)), [x])


def test_softmax_rows_sum_to_one(r):
    with T.gradcheck_mode():
        x = T.Tensor(rand(r, 4, 9) * 10)
        s = T.softmax(x, axis=-1)
    np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)


def test_layernorm_grad(r):
    x, g, b = rand(r, 4, 8), rand(r, 8), rand(r, 8)
    p = _proj((32,))
    fd_check(lambda t, gg, bb: p(T.layernorm(t, gg, bb)), [x, g, b], rel_tol=1e-5)


def test_layernorm_normalizes(r):
    x = rand(r, 6, 16) * 3 + 5
    with T.gradcheck_mode():
        out = T.layernorm(T.Tensor(x), T.Tensor(np.ones(16)), T.Tensor(np.zeros(16)))
    np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-9)
    np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-3)


def test_embed_grad_accumulates_repeated_ids(r):
    table = rand(r, 5, 3)
    ids = np.array([[0, 2, 0], [4, 0, 2]])
    p = _proj((18,))
    fd_check(lambda t: p(T.embed(t, ids)), [table])


def test_concat_last_dim_grad(r):
    a, b, c = rand(r, 2, 3), rand(r, 2, 2), rand(r, 2, 4)
    p = _proj((18,))
    fd_check(lambda x, y, z: p(T.concat_last_dim([x, y, z])), [a, b, c])


def test_reshape_swapaxes_grads(r):
    x = rand(r, 2, 3, 4)
    p = _proj((24,))
    fd_check(lambda t: p(T.reshape(t, (6, 4))), [x])
    fd_check(lambda t: p(T.swapaxes(t, 0, 2)), [x])


def test_label_smoothed_nll_grad(r):
    logits = rand(r, 6, 5)
    targets = np.array([1, 4, 0, 2, 0, 3])
    fd_check(
        lambda t: T.label_smoothed_nll(t, targets, eps=0.1, pad_id=0),
        [logits],
        rel_tol=1e-5,
    )


def test_label_smoothed_nll_value_matches_numpy_oracle(r):
    logits = rand(r, 4, 7)
    targets = np.array([3, 0, 5, 1])
    eps, pad = 0.1, 0
    with T.gradcheck_mode():
        got = T.label_smoothed_nll(T.Tensor(logits), targets, eps=eps, pad_id=pad).item()
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    keep = targets != pad
    nll = -logp[np.arange(4), targets]
    smooth = -logp.mean(axis=1)
    want = ((1 - eps) * nll + eps * smooth)[keep].mean()
    assert abs(got - want) < 1e-12


def test_label_smoothed_nll_eps_zero_is_plain_nll(r):
    logits = rand(r, 3, 4)
    targets = np.array([1, 2, 3])
    with T.gradcheck_mode():
        got = T.label_smoothed_nll(T.Tensor(logits), targets, eps=0.0, pad_id=0).item()
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    assert abs(got + logp[np.arange(3), targets].mean()) < 1e-12


def test_label_smoothed_nll_all_pad_raises():
    with pytest.raises(T.AllPadTarget):
        T.label_smoothed_nll(T.Tensor(np.zeros((2, 3))), np.array([0, 0]), 0.1, pad_id=0)


def test_label_smoothed_nll_bad_eps():
    with pytest.raises(ValueError):
        T.label_smoothed_nll(T.Tensor(np.zeros((1, 3))), np.array([1]), 1.0, pad_id=0)


def test_dropout_train_and_eval(r):
    x = T.Tensor(np.ones((1000,)), requires_grad=True)
    gen = np.random.default_rng(0)
    out = T.dropout(x, 0.25, gen)
    zeros = (out.data == 0).mean()
    assert 0.18 < zeros < 0.32
    kept = out.data[out.data != 0]
    np.testing.assert_allclose(kept, 1 / 0.75, atol=1e-12)  # inverted scaling
    eval_out = T.dropout(x, 0.0, gen)  # eval mode passes no rate
    assert eval_out is x


def test_dropout_grad_routes_through_mask(r):
    x = rand(r, 50)
    gen = np.random.default_rng(7)
    with T.gradcheck_mode():
        t = T.Tensor(x, requires_grad=True)
        out = T.dropout(t, 0.5, gen)
        loss = T.matmul(T.reshape(out, (1, -1)), T.reshape(T.Tensor(np.ones(50)), (-1, 1)))
        T.reshape(loss, ()).backward()
        mask = out.data != 0
        np.testing.assert_allclose(t.grad[mask], 2.0)
        np.testing.assert_allclose(t.grad[~mask], 0.0)


def test_diamond_graph_accumulates(r):
    # z = x*y + x : dz/dx = y + 1, dz/dy = x
    x = T.Tensor(np.array(3.0), requires_grad=True)
    y = T.Tensor(np.array(5.0), requires_grad=True)
    z = T.add(T.mul(x, y), x)
    z.backward()
    assert x.grad.item() == 6.0
    assert y.grad.item() == 3.0


def test_shared_subexpression_counts_once_per_path(r):
    x = T.Tensor(np.array(2.0), requires_grad=True)
    s = T.mul(x, x)  # x^2
    z = T.add(s, s)  # 2x^2 -> dz/dx = 4x = 8
    z.backward()
    assert x.grad.item() == 8.0


def test_backward_requires_scalar():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(T.NonScalarLoss):
        T.mul(x, x).backward()


def test_backward_releases_graph():
    x = T.Tensor(np.array(2.0), requires_grad=True)
    z = T.mul(x, x)
    node = z.node
    assert node.parents == (x, x) and node.rule is not None
    z.backward()
    assert node.parents == () and node.rule is None and node.grad is None


def test_backward_keeps_leaf_grads_and_drops_interior_ones():
    x = T.Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    w = T.Tensor(np.array([[3.0, 4.0]]), requires_grad=True)
    h = T.mul(x, w)
    s = T.matmul(h, T.Tensor(np.ones((2, 1))))
    z = T.reshape(s, ())
    z.backward()
    np.testing.assert_array_equal(x.grad, [[3.0, 4.0]])
    np.testing.assert_array_equal(w.grad, [[1.0, 2.0]])
    assert all(t.grad is None and t.node.grad is None for t in (h, s, z))


def test_zero_grad_and_accumulation():
    x = T.Tensor(np.array(1.0), requires_grad=True)
    T.mul(x, x).backward()
    T.mul(x, x).backward()
    assert x.grad.item() == 4.0  # grads accumulate across backwards
    x.zero_grad()
    assert x.grad is None


@pytest.mark.parametrize("case", ["plain", "transposed", "negative zero", "float64 into float32",
                                  "fortran data"])
def test_first_accumulate_matches_zeros_plus_g(r, case):
    """A fresh tensor's first gradient has the bytes and strides of
    zeros_like(data) += g."""
    data = np.zeros((3, 4), dtype=np.float32)
    g = r.normal(size=(3, 4)).astype(np.float32)
    if case == "transposed":
        g = np.ascontiguousarray(g.T).T
    elif case == "negative zero":
        g[0] = -0.0
    elif case == "float64 into float32":
        g = g.astype(np.float64) / 3.0
    elif case == "fortran data":
        data = np.asfortranarray(data)
    want = np.zeros_like(data)
    want += g
    x = T.Tensor(data, requires_grad=True, dtype=np.float32)
    x._accumulate(g)
    assert x.grad.dtype == want.dtype
    assert x.grad.strides == want.strides
    assert x.grad.tobytes(order="A") == want.tobytes(order="A")


def test_no_grad_blocks_recording():
    x = T.Tensor(np.array(2.0), requires_grad=True)
    with T.no_grad():
        z = T.mul(x, x)
    assert z.node is None
    assert not z.requires_grad


@pytest.mark.parametrize("op", ["add", "softmax", "relu"])
def test_dropping_an_unread_input_frees_its_array(r, op):
    """A matmul output that only feeds an op whose backward does not read
    it is freed once its Tensor is dropped, and the gradients still flow."""
    x = T.Tensor(rand(r, 4, 3), requires_grad=True)
    w = T.Tensor(rand(r, 3, 5), requires_grad=True)
    b = T.Tensor(rand(r, 5), requires_grad=True)
    h = T.matmul(x, w)
    freed = weakref.ref(h.data)
    z = {"add": lambda: T.add(h, b), "softmax": lambda: T.softmax(h),
         "relu": lambda: T.relu(h)}[op]()
    del h
    assert freed() is None
    _proj((20,))(z).backward()
    assert x.grad is not None and w.grad is not None


def _rule_arrays(loss):
    """Weak references to every array a rule in loss's graph closes over."""
    refs, stack, seen = [], [loss.node], set()
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen or node.rule is None:
            continue
        seen.add(id(node))
        cells = node.rule.__closure__ or ()
        refs += [weakref.ref(c.cell_contents) for c in cells
                 if isinstance(c.cell_contents, np.ndarray)]
        stack.extend(node.parents)
    return refs


def _model_and_graph_refs():
    cfg = ModelConfig(enc_vocab=17, dec_vocab=13, d_model=16, n_heads=2, ffn_dim=24,
                      enc_layers=2, dec_layers=2, max_positions=24, d_word=6, d_pos=4,
                      d_depth=3, d_subgraph=3)
    params = build(cfg, seed=3)
    rng = np.random.default_rng(0)
    src = rng.integers(5, 17, (2, 6))
    depth = rng.integers(0, 3, (2, 6))
    tgt = rng.integers(5, 13, (2, 5))
    drop = Dropout(0.1, 0.0, T.Rng(1), 1)
    memory, mask = encode(params, EncoderInput(src, depth, depth, np.ones((2, 6), bool)), drop)
    logits, _ = decoder_forward(params, memory, mask, tgt[:, :-1], drop)
    loss = T.label_smoothed_nll(logits, tgt[:, 1:], 0.1, 0)
    refs = _rule_arrays(loss) + [weakref.ref(loss.data), weakref.ref(logits.data)]
    assert len(refs) > 50
    loss.backward()
    refs += [weakref.ref(a) for t in params.parameters() for a in (t.data, t.grad)]
    return refs


def test_model_and_graph_are_freed_by_reference_counting():
    """No reference cycle holds a parameter or a graph array, so nothing
    waits for the cycle collector (a leaf that pointed at itself as its
    own node would)."""
    gc.collect()
    gc.disable()
    try:
        refs = _model_and_graph_refs()
        alive = sum(ref() is not None for ref in refs)
    finally:
        gc.enable()
    assert alive == 0


def test_shape_mismatch_raises():
    with pytest.raises(T.ShapeMismatch):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))


def test_gradcheck_mode_sets_float64():
    assert T.default_dtype() == np.float32
    with T.gradcheck_mode():
        assert T.Tensor(np.zeros(2)).data.dtype == np.float64
    assert T.default_dtype() == np.float32


def test_rng_streams_reproducible_and_independent():
    a1 = T.Rng(7).stream("dropout", 3).normal(size=4)
    a2 = T.Rng(7).stream("dropout", 3).normal(size=4)
    b = T.Rng(7).stream("dropout", 4).normal(size=4)
    c = T.Rng(8).stream("dropout", 3).normal(size=4)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)
