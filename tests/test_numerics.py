"""Numeric core: op semantics vs naive oracles, backward pass, grad checking."""

import ast
import inspect
import math
import weakref

import numpy as np
import pytest

import injecttst.numerics as nm
from injecttst.data import WindowBatch, mask_patches, patchify
from injecttst.errors import ContractError, ShapeError
from injecttst.model import (ModelConfig, forward_forecast,
                             forward_pretrain, init_params)
from injecttst.numerics import Tensor, backward, grad_table
from injecttst.training import forecast_loss, masked_mse

from gradcheck import grad_check


def t(data, req=False):
    return Tensor(np.asarray(data, dtype=np.float32), requires_grad=req)


# ---------------------------------------------------------------------------
# matmul

def test_matmul_identity():
    x = t(np.arange(9, dtype=np.float32).reshape(3, 3))
    out = nm.matmul(t(np.eye(3)), x)
    np.testing.assert_array_equal(out.data, x.data)


def test_matmul_hand_case():
    out = nm.matmul(t([[1, 2], [3, 4]]), t([[0], [1]]))
    np.testing.assert_array_equal(out.data, [[2], [4]])


def _matmul_loops(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            for kk in range(k):
                out[i, j] += float(a[i, kk]) * float(b[kk, j])
    return out


@pytest.mark.parametrize("m,k,n", [(5, 7, 4), (16, 16, 16), (1, 16, 3)])
def test_matmul_vs_triple_loop(m, k, n, rng):
    a = rng.normal(size=(m, k)).astype(np.float32)
    b = rng.normal(size=(k, n)).astype(np.float32)
    out = nm.matmul(t(a), t(b)).data
    assert np.max(np.abs(out - _matmul_loops(a, b))) < 1e-5


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ShapeError) as exc:
        nm.matmul(t(np.zeros((2, 3))), t(np.zeros((4, 2))))
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


@pytest.mark.parametrize("weight_shape", [(2, 4, 5), (1, 4, 5)])
@pytest.mark.parametrize("op", ["matmul", "linear"])
def test_matmul_refuses_a_batched_right_operand(op, weight_shape):
    x, w = t(np.zeros((2, 3, 4))), t(np.zeros(weight_shape))
    with pytest.raises(ShapeError) as exc:
        nm.matmul(x, w) if op == "matmul" else nm.linear(x, w, t(np.zeros(5)))
    assert "(2, 3, 4)" in str(exc.value) and str(weight_shape) in str(exc.value)


def test_matmul_batched_matches_loop(rng):
    a = rng.normal(size=(3, 2, 4, 5)).astype(np.float32)
    b = rng.normal(size=(5, 6)).astype(np.float32)
    out = nm.matmul(t(a), t(b)).data
    for i in range(3):
        for j in range(2):
            assert np.max(np.abs(out[i, j] - _matmul_loops(a[i, j], b))) < 1e-5


# ---------------------------------------------------------------------------
# softmax

def test_softmax_uniform():
    out = nm.softmax(np.zeros(4, dtype=np.float32))
    np.testing.assert_allclose(out, [0.25] * 4, atol=1e-7)


def test_softmax_large_input_no_overflow():
    out = nm.softmax(np.array([1000.0, 0.0], dtype=np.float32))
    assert np.all(np.isfinite(out))
    assert out[0] > 1 - 1e-6 and out[1] < 1e-6


def test_softmax_vs_float64_formula(rng):
    x = rng.normal(size=(6, 9)).astype(np.float32)
    got = nm.softmax(x)
    x64 = x.astype(np.float64)
    want = np.exp(x64) / np.exp(x64).sum(axis=-1, keepdims=True)
    assert np.max(np.abs(got - want)) < 1e-6


def test_softmax_rows_are_distributions(rng):
    for _ in range(20):
        x = rng.normal(scale=5.0, size=(4, 7)).astype(np.float32)
        y = nm.softmax(x)
        assert np.all(y >= 0) and np.all(y <= 1)
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-6)


@pytest.mark.parametrize("scale", [1.0, 100.0], ids=["unshifted", "shifted"])
def test_softmax_returns_a_new_array_and_leaves_its_input(scale, rng):
    x = (scale * rng.normal(size=(3, 4, 5))).astype(np.float32)
    assert (np.max(np.abs(x)) > nm._EXP_SAFE) == (scale > 1.0)     # each guard branch
    before = x.copy()
    y = nm.softmax(x)
    assert type(y) is np.ndarray and y.shape == x.shape and not np.shares_memory(x, y)
    np.testing.assert_array_equal(x, before)


def _shifted_softmax(xd):
    """Row softmax with the row max always subtracted first; its rows are
    summed by softmax's own row reduction, so the comparison is bitwise."""
    y = xd - xd.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= nm._row_sum(y)
    return y


def _shifted_softmax_vjp(y, g):
    dx = g * y
    np.subtract(g, nm._row_sum(dx), out=dx)
    dx *= y
    return dx


_UNGUARDED_ROWS = {
    "large": [[1000.0, 0.0]],
    "all -200": [[-200.0, -200.0, -200.0], [0.5, -0.5, 0.0]],
    "straddles the bound": [[1.0, 2.0, 3.0], [0.0, nm._EXP_SAFE * 1.01, -1.0]],
    "nan": [[0.0, np.nan, 1.0], [1.0, 2.0, 3.0]],
    # a score row's width at the paper shape: summation orders disagree here,
    # where every order gives the same bits over 3 values
    "43 wide": [[100.0 + 3.0 * math.sin(j) for j in range(43)],
                [math.cos(3.0 * j) for j in range(43)]],
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(_UNGUARDED_ROWS))
def test_softmax_outside_the_guard_equals_the_shifted_form_bitwise(case, dtype, monkeypatch):
    monkeypatch.setattr(nm, "_debug_checks", False)     # NaN rows stay NaN
    xd = np.asarray(_UNGUARDED_ROWS[case], dtype=dtype)
    out = nm.softmax(xd)
    assert out.dtype == dtype
    np.testing.assert_array_equal(out, _shifted_softmax(xd))
    if case == "all -200" and dtype == np.float32:
        # without the shift, exp underflows to 0 and the row would be 0/0
        assert np.exp(xd[0]).sum() == 0.0 and np.all(np.isfinite(out))


def test_float16_softmax_always_takes_the_shifted_form():
    # float16 exp(12) overflows, though 12 lies within the float32 guard
    xd = np.array([[11.0, 12.0], [0.0, 1.0]], dtype=np.float16)
    got = nm.softmax(xd)
    assert got.dtype == np.float16
    np.testing.assert_array_equal(got, _shifted_softmax(xd))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_inside_the_guard_matches_the_shifted_form(dtype, rng):
    xd = rng.uniform(-nm._EXP_SAFE, nm._EXP_SAFE, size=(50, 43)).astype(dtype)
    xd[0, :2] = (-nm._EXP_SAFE, nm._EXP_SAFE)         # the bound itself is inside
    got = nm.softmax(xd)
    assert got.dtype == dtype and np.all(np.isfinite(got))
    eps = np.finfo(dtype).eps
    np.testing.assert_allclose(got, _shifted_softmax(xd), rtol=64 * eps, atol=4 * eps)


# ---------------------------------------------------------------------------
# layer_norm

def _ln_params(d):
    return t(np.ones(d), req=True), t(np.zeros(d), req=True)


def test_layer_norm_constant_row_is_zero():
    g, b = _ln_params(5)
    out = nm.layer_norm(t([[3.0] * 5]), g, b)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-6)


def test_layer_norm_two_point_row():
    g, b = _ln_params(2)
    out = nm.layer_norm(t([[1.0, -1.0]]), g, b)
    np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-4)


def test_layer_norm_vs_float64_oracle(rng):
    x = rng.normal(size=(3, 8)).astype(np.float32)
    gain = rng.normal(size=8).astype(np.float32)
    bias = rng.normal(size=8).astype(np.float32)
    got = nm.layer_norm(t(x), t(gain), t(bias)).data
    x64 = x.astype(np.float64)
    mu = x64.mean(axis=-1, keepdims=True)
    var = x64.var(axis=-1, keepdims=True)
    want = (x64 - mu) / np.sqrt(var + 1e-5) * gain + bias
    assert np.max(np.abs(got - want)) < 1e-5


# ---------------------------------------------------------------------------
# row reductions: a row gives the same bits wherever it sits

_ROW_OPS = {
    "softmax": lambda x, p: _softmax_node(x),
    "layer_norm": lambda x, p: nm.layer_norm(x, p["gain"], p["bias"]),
}


def _row_op(name, xd, g, p):
    out = _ROW_OPS[name](Tensor(xd, requires_grad=True), p)
    return out.data, out._vjp(g)[0]


def _check_rows_in_slices(name, xd, g, p, sizes, want):
    """Consecutive slices of each size along the leading axis, the last one
    shorter, give the bits of `want` (the whole stack's forward and dx)."""
    for k in sizes:
        for i in range(0, len(xd), k):
            out, dx = _row_op(name, xd[i:i + k], g[i:i + k], p)
            where = f"{name}, slice of {k} at {i}"
            np.testing.assert_array_equal(out, want[0][i:i + k], err_msg=f"{where}: forward")
            np.testing.assert_array_equal(dx, want[1][i:i + k], err_msg=f"{where}: vjp")


def _row_inputs(shape, dtype, rng):
    xd = rng.normal(scale=3.0, size=shape).astype(dtype)
    g = rng.normal(size=shape).astype(dtype)
    p = {k: Tensor(rng.normal(size=shape[-1]).astype(dtype), requires_grad=True)
         for k in ("gain", "bias")}
    return xd, g, p


_ROW_SLICES = (1, 2, 3, 5, 43, 301)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [5, 32, 43, 64])
@pytest.mark.parametrize("name", sorted(_ROW_OPS))
def test_a_row_gives_the_same_bits_alone_and_in_any_slice_of_a_stack(name, width,
                                                                      dtype, rng):
    # the chunk rule's bitwise claim rests on this: a row sum whose order
    # depends on the row's place in the stack (a BLAS `y @ ones`) fails it
    xd, g, p = _row_inputs((301, width), dtype, rng)
    _check_rows_in_slices(name, xd, g, p, _ROW_SLICES, _row_op(name, xd, g, p))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(6, 7, 43, 64), (6, 7, 4, 43, 43)])
@pytest.mark.parametrize("name", sorted(_ROW_OPS))
def test_a_row_of_a_chunk_shape_gives_the_same_bits_in_any_slice(name, shape, dtype, rng):
    # a paper-shape chunk's token and score arrays: their windows in slices
    # along the batch axis, and their rows alone and in slices of the stack
    xd, g, p = _row_inputs(shape, dtype, rng)
    out, dx = _row_op(name, xd, g, p)
    _check_rows_in_slices(name, xd, g, p, (1, 2, 3, 5), (out, dx))
    rows = (-1, shape[-1])
    _check_rows_in_slices(name, xd.reshape(rows), g.reshape(rows), p, _ROW_SLICES,
                          (out.reshape(rows), dx.reshape(rows)))


# ---------------------------------------------------------------------------
# scaled dot attention

def _attention_loops(q, k, v):
    d = q.shape[-1]
    scores = np.zeros((q.shape[0], k.shape[0]), dtype=np.float64)
    for i in range(q.shape[0]):
        for j in range(k.shape[0]):
            scores[i, j] = float(q[i].astype(np.float64) @ k[j].astype(np.float64)) / np.sqrt(d)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    return w @ v.astype(np.float64)


def test_attention_single_key_returns_value():
    q = t(np.random.default_rng(0).normal(size=(4, 3)).astype(np.float32))
    k = t(np.ones((1, 3), dtype=np.float32))
    v = t(np.array([[5.0, -2.0, 0.5]], dtype=np.float32))
    out = nm.scaled_dot_attention(q, k, v).data
    np.testing.assert_allclose(out, np.tile(v.data, (4, 1)), atol=1e-6)


def test_attention_uniform_scores_give_value_mean(rng):
    q = t(np.zeros((3, 4), dtype=np.float32))       # all scores equal
    k = t(rng.normal(size=(5, 4)).astype(np.float32))
    v = t(rng.normal(size=(5, 4)).astype(np.float32))
    out = nm.scaled_dot_attention(q, k, v).data
    np.testing.assert_allclose(out, np.tile(v.data.mean(axis=0), (3, 1)), atol=1e-6)


@pytest.mark.parametrize("nq,nk,d", [(3, 5, 4), (16, 16, 16)])
def test_attention_vs_loop_oracle(nq, nk, d, rng):
    q = rng.normal(size=(nq, d)).astype(np.float32)
    k = rng.normal(size=(nk, d)).astype(np.float32)
    v = rng.normal(size=(nk, d)).astype(np.float32)
    got = nm.scaled_dot_attention(t(q), t(k), t(v)).data
    assert np.max(np.abs(got - _attention_loops(q, k, v))) < 1e-5


def test_attention_width_mismatch():
    with pytest.raises(ShapeError):
        nm.scaled_dot_attention(t(np.zeros((2, 3))), t(np.zeros((2, 4))), t(np.zeros((2, 4))))


def test_attention_capture_rows_sum_to_one(rng):
    cap = []
    nm.scaled_dot_attention(t(rng.normal(size=(3, 4)).astype(np.float32)),
                            t(rng.normal(size=(5, 4)).astype(np.float32)),
                            t(rng.normal(size=(5, 4)).astype(np.float32)),
                            capture=cap)
    assert len(cap) == 1
    np.testing.assert_allclose(cap[0].sum(axis=-1), 1.0, atol=1e-6)


def test_attention_heads_must_divide_the_width():
    x = t(np.zeros((2, 5, 6)))
    with pytest.raises(ShapeError, match="not divisible by 4 heads"):
        nm.scaled_dot_attention(x, x, x, heads=4)


def test_attention_value_width_mismatch():
    with pytest.raises(ShapeError, match="widths disagree"):
        nm.scaled_dot_attention(t(np.zeros((2, 5, 6))), t(np.zeros((2, 5, 6))),
                                t(np.zeros((2, 5, 4))))


def test_attention_key_value_token_count_mismatch():
    with pytest.raises(ShapeError, match="key/value count mismatch"):
        nm.scaled_dot_attention(t(np.zeros((2, 5, 6))), t(np.zeros((2, 5, 6))),
                                t(np.zeros((2, 4, 6))))


@pytest.mark.parametrize("ctx_shape", [(3, 7, 6), (2, 2, 7, 6)], ids=["shared", "same-rank"])
def test_attention_context_batch_axis_mismatch(ctx_shape):
    ctx = t(np.zeros(ctx_shape))
    with pytest.raises(ShapeError, match="batch axes"):
        nm.scaled_dot_attention(t(np.zeros((2, 4, 5, 6))), ctx, ctx, heads=2)


def _split_heads_chain(x, heads):
    # (..., S, D) -> (..., H, S, D/H)
    *lead, s, d = x.shape
    k = len(lead)
    return nm.transpose(nm.reshape(x, (*lead, s, heads, d // heads)),
                        tuple(range(k)) + (k + 1, k, k + 2))


def _compact(x):
    """The identity as a graph op whose value is a compact copy: the node
    multiplies by a compact transposed key, and numpy's float64 product
    rounds differently over a strided operand."""
    return nm._node(np.ascontiguousarray(x.data), "compact", (x,), lambda g: (g,))


def _softmax_node(x):
    """`nm.softmax` as a graph op with its own vjp; in `src/` only the
    attention node differentiates through a softmax."""
    y = nm.softmax(x.data)
    return nm._node(y, "softmax", (x,), lambda g: (_shifted_softmax_vjp(y, g),))


def _batched_matmul(a, b):
    """The product of two stacks of matrices with the same leading axes, as
    a graph op: `nm.matmul` takes only a 2-D right operand."""
    def vjp(g):
        return g @ np.swapaxes(b.data, -1, -2), np.swapaxes(a.data, -1, -2) @ g

    return nm._node(a.data @ b.data, "batched_matmul", (a, b), vjp)


def _reference_attention(q, k, v, heads, capture):
    """Multi-head attention as a chain of graph ops: join the query axes
    after the batch axis under a shared context, split the heads, scale q,
    multiply by the compact transposed keys, softmax, multiply, merge the
    heads and restore the query axes. The products have the node's shapes:
    a float64 BLAS product rounds a row by its place in the matrix."""
    qshape = q.shape
    joined = k.data.ndim < q.data.ndim
    if joined:
        q = nm.reshape(q, (qshape[0], -1, qshape[-1]))
    qh, kh, vh = (_split_heads_chain(x, heads) for x in (q, k, v))
    qh = nm.mul(qh, 1.0 / math.sqrt(qh.shape[-1]))
    n = kh.data.ndim
    kt = _compact(nm.transpose(kh, tuple(range(n - 2)) + (n - 1, n - 2)))
    attn = _softmax_node(_batched_matmul(qh, kt))
    if joined:
        # the node captures a shared context's weights per query, (B, ..., H, Sq, Sk)
        capture.append(np.moveaxis(attn.data.reshape(qshape[0], heads, *qshape[1:-1], -1), 1, -3))
    else:
        capture.append(attn.data)
    out = _batched_matmul(attn, vh)
    *lead, h, s, dh = out.shape
    perm = tuple(range(len(lead))) + (len(lead) + 1, len(lead), len(lead) + 2)
    return nm.reshape(nm.transpose(out, perm), qshape)


_ATTENTION_SHAPES = {
    # (query shape, context shape, heads)
    "paper ci": ((448, 43, 64), (448, 43, 64), 4),
    "paper sca pat": ((64, 7, 43, 64), (64, 43, 64), 4),
    "paper sca cat": ((64, 7, 43, 64), (64, 7, 64), 4),
    "desk ci": ((64, 5, 32), (64, 5, 32), 4),
    "desk sca": ((32, 2, 5, 32), (32, 5, 32), 4),
    "one head": ((3, 4, 6), (3, 5, 6), 1),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", list(_ATTENTION_SHAPES))
def test_attention_node_equals_the_op_chain(case, dtype, rng):
    """Output and weights bitwise; gradients, whose softmax row term the node
    takes from the output, to roundoff."""
    qshape, kshape, heads = _ATTENTION_SHAPES[case]
    q, k, v = (Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
               for shape in (qshape, kshape, kshape))
    weights = nm.constant(rng.normal(size=qshape).astype(dtype))
    got_cap, want_cap = [], []
    got = nm.scaled_dot_attention(q, k, v, heads=heads, capture=got_cap)
    got_grads = grad_table(nm.sum_(got * weights), {"q": q, "k": k, "v": v})
    want = _reference_attention(q, k, v, heads, want_cap)
    want_grads = grad_table(nm.sum_(want * weights), {"q": q, "k": k, "v": v})
    assert got.data.dtype == dtype and got.data.flags.c_contiguous
    np.testing.assert_array_equal(got.data, want.data)
    assert got_cap[0].shape == want_cap[0].shape
    np.testing.assert_array_equal(got_cap[0], want_cap[0])
    tol = 100 * np.finfo(dtype).eps
    for name, g in got_grads.items():
        assert g.dtype == dtype and g.shape == want_grads[name].shape
        scale = np.max(np.abs(want_grads[name]))
        assert np.max(np.abs(g - want_grads[name])) <= tol * scale, name


_ATTENTION_CHUNKS = {
    # (query shape, context shape) of a paper-shape chunk of 6 windows
    "ci": ((6, 7, 43, 64), (6, 7, 43, 64)),
    "sca pat": ((6, 7, 43, 64), (6, 43, 64)),
    "sca cat": ((6, 7, 43, 64), (6, 7, 64)),
    "mix": ((6, 43, 64), (6, 43, 64)),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", list(_ATTENTION_CHUNKS))
def test_attention_gives_a_window_the_same_bits_alone_and_in_any_slice(case, dtype, rng):
    # the chunk rule's bitwise claim for the node: a product that rounded a
    # window by its place in the stack (as `@ ones` did a row) fails here
    qshape, kshape = _ATTENTION_CHUNKS[case]
    q, k, v, g = (rng.normal(size=shape).astype(dtype)
                  for shape in (qshape, kshape, kshape, qshape))

    def run(s):
        out = nm.scaled_dot_attention(*(Tensor(a[s], requires_grad=True) for a in (q, k, v)),
                                      heads=4)
        return (out.data, *out._vjp(g[s]))

    whole = run(slice(None))
    for size in (1, 2, 3, 5):
        for i in range(0, qshape[0], size):
            s = slice(i, i + size)
            for name, got, want in zip(("output", "dq", "dk", "dv"), run(s), whole):
                np.testing.assert_array_equal(got, want[s],
                                              err_msg=f"{name}, slice of {size} at {i}")


def test_grad_check_multi_head_attention_over_a_shared_context(rng):
    params = {"q": Tensor(rng.normal(size=(2, 3, 4, 6)), requires_grad=True),
              "k": Tensor(rng.normal(size=(2, 5, 6)), requires_grad=True),
              "v": Tensor(rng.normal(size=(2, 5, 6)), requires_grad=True)}
    weights = nm.constant(rng.normal(size=(2, 3, 4, 6)))

    def f(p):
        return nm.sum_(nm.scaled_dot_attention(p["q"], p["k"], p["v"], heads=2) * weights)

    assert params["q"].data.dtype == np.float64
    assert grad_check(f, params, h=1e-5) < 1e-5


# ---------------------------------------------------------------------------
# linear

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bias", ["vector", "positional"])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["2d", "3d", "4d"])
def test_linear_equals_matmul_then_add_bitwise(lead, bias, dtype, rng):
    PN, K, D = 5, 6, 4
    x = Tensor(rng.normal(size=(*lead, PN, K)).astype(dtype), requires_grad=True)
    w = Tensor(rng.normal(size=(K, D)).astype(dtype), requires_grad=True)
    b = Tensor(rng.normal(size=(D,) if bias == "vector" else (PN, D)).astype(dtype),
               requires_grad=True)
    weights = nm.constant(rng.normal(size=(*lead, PN, D)).astype(dtype))
    params = {"x": x, "w": w, "b": b}
    fused = nm.linear(x, w, b)
    grads = grad_table(nm.sum_(fused * fused * weights), params)
    pair = nm.add(nm.matmul(x, w), b)
    expected = grad_table(nm.sum_(pair * pair * weights), params)
    assert fused.data.dtype == dtype
    np.testing.assert_array_equal(fused.data, pair.data)
    for name in params:
        assert grads[name].dtype == dtype and grads[name].shape == params[name].shape
        np.testing.assert_array_equal(grads[name], expected[name])


def test_linear_gives_no_gradient_to_constant_or_frozen_operands(rng):
    x = t(rng.normal(size=(2, 3, 4)))
    params = {"w": t(rng.normal(size=(4, 5)), req=True), "b": t(rng.normal(size=5), req=True)}
    consts = nm.constants(params)
    out = nm.linear(x, params["w"], consts["b"])
    gx, gw, gb = out._vjp(np.ones_like(out.data))
    assert gx is None and gb is None and gw.shape == (4, 5)
    out = nm.linear(x, consts["w"], consts["b"])
    assert not out.requires_grad and out.parents == ()


def test_linear_rejects_a_bias_that_does_not_fit():
    with pytest.raises(ShapeError, match=r"\(2, 5\)"):
        nm.linear(t(np.zeros((3, 4))), t(np.zeros((4, 5))), t(np.zeros((2, 5))))


# ---------------------------------------------------------------------------
# gelu in cache-sized blocks

def _whole_array_gelu(xd, g):
    """The tanh-form GELU and its vjp as whole-array passes."""
    c, a = math.sqrt(2.0 / math.pi), 0.044715
    t = xd * a
    t *= xd
    t *= xd
    t += xd
    t *= c
    np.tanh(t, out=t)
    out = t + 1.0
    out *= xd
    out *= 0.5
    poly = xd * (3.0 * a)
    poly *= xd
    poly += 1.0
    tmp = t * t
    np.subtract(1.0, tmp, out=tmp)
    dx = xd * 0.5
    dx *= tmp
    dx *= c
    dx *= poly
    np.add(t, 1.0, out=tmp)
    tmp *= 0.5
    dx += tmp
    dx *= g
    return out, dx


_BLOCK = nm._BLOCK


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("size", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 5 * _BLOCK // 2])
@pytest.mark.parametrize("layout", ["compact", "strided"])
def test_blocked_gelu_equals_whole_array_passes_bitwise(size, dtype, layout, rng):
    if layout == "compact":
        xd = rng.normal(scale=3.0, size=(size,)).astype(dtype)
    else:
        # every other row of a (2 size, 3) array, transposed: no flat view exists
        xd = rng.normal(scale=3.0, size=(2 * size, 3)).astype(dtype)[::2].T
    x = Tensor(xd, requires_grad=True)
    out = nm.gelu(x)
    g = rng.normal(size=xd.shape).astype(dtype)
    (dx,) = out._vjp(g)
    want, want_dx = _whole_array_gelu(xd, g)
    assert out.shape == dx.shape == xd.shape
    assert out.data.dtype == dx.dtype == dtype
    np.testing.assert_array_equal(out.data, want)
    np.testing.assert_array_equal(dx, want_dx)


# ---------------------------------------------------------------------------
# ops that build their outputs and gradients in place

_IN_PLACE_OPS = {
    "gelu": lambda x, p: nm.gelu(x),
    "softmax": lambda x, p: _softmax_node(x),
    # values far outside the guard take the row-max-shifted branch
    "softmax_shifted": lambda x, p: _softmax_node(nm.mul(x, 100.0)),
    "layer_norm": lambda x, p: nm.layer_norm(x, p["gain"], p["bias"]),
    # self-attention over 4 tokens of width 5, one column per head
    "attention": lambda x, p: nm.scaled_dot_attention(
        *(3 * [nm.reshape(x, (-1, 4, 5))]), heads=5),
}


def _check_writes_only_own_buffers(name, dtype, shape, rng):
    x = Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
    p = {k: Tensor(rng.normal(size=5).astype(dtype), requires_grad=True)
         for k in ("gain", "bias")}
    inputs = {k: v.data.copy() for k, v in {"x": x, **p}.items()}
    out = _IN_PLACE_OPS[name](x, p)
    data = out.data.copy()
    g = rng.normal(size=out.shape).astype(dtype)
    g_before = g.copy()
    first, second = out._vjp(g), out._vjp(g)
    assert out.data.dtype == dtype
    for a, b in zip(first, second):
        assert a.dtype == dtype
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(g, g_before)
    np.testing.assert_array_equal(out.data, data)
    for k, v in {"x": x, **p}.items():
        np.testing.assert_array_equal(v.data, inputs[k])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(_IN_PLACE_OPS))
def test_in_place_op_writes_only_its_own_buffers(name, dtype, rng):
    _check_writes_only_own_buffers(name, dtype, (3, 4, 5), rng)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(_IN_PLACE_OPS))
def test_in_place_op_writes_only_its_own_buffers_over_many_blocks(name, dtype, rng):
    _check_writes_only_own_buffers(name, dtype, (2, _BLOCK // 5 + 1, 5), rng)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_backward_keeps_captured_map_and_gradients(dtype, rng):
    q, k, v = (Tensor(rng.normal(size=(2, 3, 4, 6)).astype(dtype), requires_grad=True)
               for _ in range(3))
    c = Tensor(rng.normal(size=(2, 3, 4, 6)).astype(dtype))
    grads = []
    # a backward consumes its graph, so each pass runs its own forward
    for _ in range(2):
        cap = []
        out = nm.scaled_dot_attention(q, k, v, capture=cap)
        attn, data = cap[0].copy(), out.data.copy()
        backward(nm.sum_(out * c))
        grads.append([p.grad for p in (q, k, v)])
        assert out.data.dtype == dtype and cap[0].dtype == dtype
        np.testing.assert_array_equal(cap[0], attn)
        np.testing.assert_array_equal(out.data, data)
    for a, b in zip(*grads):
        assert a.dtype == dtype
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_trace_attention_maps_survive_backward(dtype, rng):
    cfg = ModelConfig(L=24, T=4, M=3, PL=8, D=12, heads=2, ci_layers=1, mix_layers=1)
    params = init_params(cfg, 0, dtype=dtype)
    hist = rng.normal(size=(2, cfg.L, cfg.M)).astype(dtype).transpose(0, 2, 1)
    tgt = rng.normal(size=(2, cfg.T, cfg.M)).astype(dtype).transpose(0, 2, 1)
    batch = WindowBatch(history=hist, target=tgt)
    trace = {}
    pred = forward_forecast(batch, params, cfg, trace=trace)
    maps = {k: a.copy() for k, a in trace.items() if k.endswith(".attn")}
    backward(forecast_loss(pred, batch.target))
    assert list(maps) == ["ci.0.attn", "mix.0.attn", "sca.attn"]
    for name, want in maps.items():
        assert trace[name].dtype == dtype
        np.testing.assert_array_equal(trace[name], want)


# ---------------------------------------------------------------------------
# constants

def test_frozen_ops_build_no_graph():
    w = t([[1.0, 2.0]], req=True)
    v = t([[1.0]], req=True)
    consts = nm.constants({"w": w})
    # a view over the same array; the parameter itself stays trainable
    assert consts["w"].data is w.data and not consts["w"].requires_grad and w.requires_grad
    out = nm.matmul(consts["w"], t([[3.0], [4.0]]))
    mixed = nm.mul(out, v)
    assert out.parents == () and out._vjp is None and not out.requires_grad
    np.testing.assert_array_equal(out.data, [[11.0]])
    # a constant input next to a trainable one still lets gradients reach it
    backward(nm.sum_(mixed))
    np.testing.assert_array_equal(v.grad, [[11.0]])
    assert w.grad is None


# ---------------------------------------------------------------------------
# backward

def test_backward_sum_of_squares():
    x = t([1.0, -2.0, 3.0], req=True)
    loss = nm.sum_(x * x)
    backward(loss)
    np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-6)


def test_backward_unreachable_param_gets_zero():
    x = t([1.0, 2.0], req=True)
    unused = t([5.0], req=True)
    loss = nm.sum_(x * x)
    table = grad_table(loss, {"x": x, "unused": unused})
    np.testing.assert_array_equal(table["unused"], np.zeros(1, dtype=np.float32))


def test_backward_rejects_non_scalar():
    x = t([1.0, 2.0], req=True)
    with pytest.raises(ContractError):
        backward(x * x)


def test_backward_is_accumulating_over_shared_subexpressions():
    x = t([2.0], req=True)
    y = x * x          # used twice below
    loss = nm.sum_(y + y)
    backward(loss)
    np.testing.assert_allclose(x.grad, [8.0])


def test_forward_deterministic_bitwise(rng):
    a = rng.normal(size=(4, 6)).astype(np.float32)
    b = rng.normal(size=(6, 3)).astype(np.float32)

    def pipeline():
        h = nm.gelu(nm.matmul(t(a), t(b)))
        return nm.softmax(h.data)

    assert np.array_equal(pipeline(), pipeline())


def test_backward_frees_interior_gradients(rng):
    x = t(rng.normal(size=(3, 4)), req=True)
    w = t(rng.normal(size=(4, 2)), req=True)
    h = nm.matmul(x, w)
    y = nm.gelu(h)
    loss = nm.sum_(y * y)
    backward(loss)
    assert h.grad is None and y.grad is None and loss.grad is None
    assert x.grad.shape == x.shape and w.grad.shape == w.shape


def test_backward_consumes_its_graph(rng):
    x = t(rng.normal(size=(3, 4)), req=True)
    w = t(rng.normal(size=(4, 2)), req=True)
    y = nm.gelu(nm.matmul(x, w))
    activation = weakref.ref(y.data)
    loss = nm.sum_(y * y)
    del y
    assert activation() is not None         # only the graph holds it now
    backward(loss)
    # with loss still bound, the arrays the forward saved are gone
    assert activation() is None
    assert loss.parents == () and x.grad is not None and w.grad is not None
    # a second pass would return the first one's leaf gradients
    for again in (backward, lambda loss: grad_table(loss, {"x": x})):
        with pytest.raises(ContractError, match="consumed 'sum' node"):
            again(loss)


def test_backward_refuses_a_graph_that_shares_a_consumed_node(rng):
    x = t(rng.normal(size=(3, 4)), req=True)
    h = nm.gelu(x)
    first, second = nm.sum_(h), nm.sum_(h * h)
    backward(first)
    with pytest.raises(ContractError, match="consumed 'gelu' node"):
        backward(second)


@pytest.mark.parametrize("op", [nm.matmul, nm.add, nm.mul])
def test_constant_operand_gets_no_gradient(op, rng):
    # a stack on the left, a 2-D operand (matmul's weight) on the right
    stack, weight = rng.normal(size=(2, 3, 3)), rng.normal(size=(3, 3))
    for const_at in (1, 0):
        w = t(stack if const_at else weight, req=True)
        c = t(weight if const_at else stack)
        out = op(*((w, c) if const_at else (c, w)))
        grads = out._vjp(np.ones_like(out.data))
        assert grads[const_at] is None and grads[1 - const_at].shape == w.shape
        backward(nm.sum_(out))
        assert c.grad is None and w.grad is not None


def test_scalar_constant_factor_gets_no_gradient(rng):
    scores = t(rng.normal(size=(2, 4, 4)), req=True)
    out = nm.mul(scores, 0.5)
    grads = out._vjp(np.ones_like(out.data))
    assert grads[1] is None
    np.testing.assert_array_equal(grads[0], np.full(scores.shape, 0.5, dtype=np.float32))


@pytest.mark.parametrize("op", [nm.matmul, nm.add, nm.sub, nm.mul])
def test_binary_op_takes_a_tensor_first(op):
    with pytest.raises(TypeError, match="first operand must be a Tensor, got float"):
        op(2.0, t(np.ones((2, 2))))


def test_debug_checks_name_the_op_with_a_non_finite_output():
    # the suite runs with the checks on (conftest)
    with pytest.raises(FloatingPointError, match="op 'add'"):
        nm.add(t(np.ones(3)), np.float32(np.inf))


def test_parameter_used_twice_gets_exactly_twice_the_gradient(rng):
    x = t(rng.normal(size=(2, 5, 4)))
    c = t(rng.normal(size=(2, 5, 3)))
    w = t(rng.normal(size=(4, 3)), req=True)
    backward(nm.sum_(nm.matmul(x, w) * c))
    once = w.grad
    backward(nm.sum_((nm.matmul(x, w) + nm.matmul(x, w)) * c))
    np.testing.assert_array_equal(w.grad, 2 * once)


@pytest.mark.parametrize("mix_mode", ["pat", "cat"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_grad_table_matches_parameter_shape_and_dtype(dtype, mix_mode, rng):
    cfg = ModelConfig(L=24, T=4, M=3, PL=8, D=8, heads=2, ci_layers=1,
                      mix_layers=1, mix_mode=mix_mode)
    params = init_params(cfg, 0, dtype=dtype)
    hist = rng.normal(size=(2, cfg.L, cfg.M)).astype(dtype).transpose(0, 2, 1)
    tgt = rng.normal(size=(2, cfg.T, cfg.M)).astype(dtype).transpose(0, 2, 1)
    batch = WindowBatch(history=hist, target=tgt)
    ps = patchify(hist, cfg.PL)
    masked = mask_patches(ps, 0.5, seed=0)
    losses = (forecast_loss(forward_forecast(batch, params, cfg), batch.target),
              masked_mse(forward_pretrain(masked, params, cfg), ps.patches, masked.mask))
    for loss in losses:
        grads = grad_table(loss, params)
        for name, p in params.items():
            assert grads[name].shape == p.data.shape, name
            assert grads[name].dtype == p.data.dtype, name


# ---------------------------------------------------------------------------
# grad_check

def test_grad_check_quadratic_form(rng):
    x = Tensor(rng.normal(size=5).astype(np.float32), requires_grad=True)

    def f(p):
        return nm.sum_(p["x"] * p["x"])

    assert grad_check(f, {"x": x}, h=1e-3) < 1e-8


def test_take_gathers_token_rows_and_its_vjp_is_one_at_the_kept_rows(rng):
    x = rng.normal(size=(2, 3, 5, 4)).astype(np.float32)
    index = np.sort(rng.random((2, 3, 5)).argsort(axis=-1)[..., :2], axis=-1)
    leaf = t(x, req=True)
    taken = nm.take(leaf, index)
    assert taken.shape == (2, 3, 2, 4)
    for b, m in np.ndindex(2, 3):
        np.testing.assert_array_equal(taken.data[b, m], x[b, m, index[b, m]])
    kept = np.zeros((2, 3, 5), dtype=bool)
    np.put_along_axis(kept, index, True, axis=-1)
    backward(nm.sum_(taken))
    assert leaf.grad.dtype == x.dtype
    np.testing.assert_array_equal(leaf.grad, np.broadcast_to(kept[..., None], x.shape))


@pytest.mark.parametrize("index", [[1, 1], [3, 2]])
def test_take_refuses_an_index_that_does_not_increase(index):
    with pytest.raises(ContractError, match="increase"):
        nm.take(t(np.ones((4, 2), dtype=np.float32)), np.array(index))


def test_grad_check_cross_attention_composition(rng):
    params = {name: Tensor(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True)
              for name in ("q", "k", "v")}

    def f(p):
        out = nm.scaled_dot_attention(p["q"], p["k"], p["v"])
        return nm.sum_(out * out)

    assert grad_check(f, params, h=1e-3) < 1e-5


def test_grad_check_weight_shared_by_3d_and_4d_stacks(rng):
    params = {
        "x3": Tensor(rng.normal(size=(2, 5, 4)).astype(np.float32), requires_grad=True),
        "x4": Tensor(rng.normal(size=(3, 2, 5, 4)).astype(np.float32), requires_grad=True),
        "w": Tensor(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True),
    }

    def f(p):
        y3 = nm.matmul(p["x3"], p["w"])
        y4 = nm.matmul(p["x4"], p["w"])
        return nm.sum_(y3 * y3) + nm.sum_(nm.gelu(y4))

    assert grad_check(f, params, h=1e-3) < 1e-5


def test_grad_check_detects_corrupted_rule(rng):
    x = Tensor(rng.normal(size=4).astype(np.float32) + 1.0, requires_grad=True)

    def bad_square(v):
        # wrong on purpose: backward claims d(x^2)/dx = 3x
        return Tensor(v.data * v.data, requires_grad=True, op="bad_square",
                      parents=(v,), vjp=lambda g: (g * 3.0 * v.data,))

    def f(p):
        return nm.sum_(bad_square(p["x"]))

    assert grad_check(f, {"x": x}, h=1e-3) > 1e-2


_PRIMITIVES = {
    "add": lambda p: nm.sum_(p["a"] + p["b"]),
    "sub_broadcast": lambda p: nm.sum_((p["a"] - p["row"]) * (p["a"] - p["row"])),
    "mul": lambda p: nm.sum_(p["a"] * p["b"] * p["a"]),
    "matmul": lambda p: nm.sum_(nm.matmul(p["a"], p["c"]) * nm.matmul(p["a"], p["c"])),
    "reshape_transpose": lambda p: nm.sum_(nm.transpose(nm.reshape(p["a"], (2, 2, 3)), (1, 0, 2)) * 2.0),
    "mean": lambda p: nm.mean(p["a"] * p["a"] * p["b"]),
    "softmax": lambda p: nm.sum_(_softmax_node(p["a"]) * p["b"]),
    "layer_norm": lambda p: nm.sum_(nm.layer_norm(p["a"], p["g"], p["bias"]) * p["b"]),
    "gelu": lambda p: nm.sum_(nm.gelu(p["a"])),
    "attention": lambda p: nm.sum_(nm.scaled_dot_attention(p["a"], p["b"], p["c2"])),
    "linear": lambda p: nm.sum_(nm.linear(p["a"], p["c"], p["bias5"]) * nm.linear(p["a"], p["c"], p["bias5"])),
    "take": lambda p: nm.sum_(nm.take(p["a"], np.array([0, 2, 3])) * nm.take(p["b"], np.array([1, 2, 3]))),
    # a fresh generator per call draws the same mask at every evaluation
    "dropout": lambda p: nm.sum_(nm.dropout(p["a"], 0.5, np.random.default_rng(0)) * p["b"]),
}


def _primitive_params(rng):
    return {
        "a": Tensor(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True),
        "b": Tensor(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True),
        "c": Tensor(rng.normal(size=(3, 5)).astype(np.float32), requires_grad=True),
        "c2": Tensor(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True),
        "row": Tensor(rng.normal(size=(1, 3)).astype(np.float32), requires_grad=True),
        "g": Tensor(np.ones(3, dtype=np.float32), requires_grad=True),
        "bias": Tensor(np.zeros(3, dtype=np.float32), requires_grad=True),
        "bias5": Tensor(rng.normal(size=5).astype(np.float32), requires_grad=True),
    }


@pytest.mark.parametrize("name", sorted(_PRIMITIVES))
def test_every_primitive_passes_grad_check(name, rng):
    assert grad_check(_PRIMITIVES[name], _primitive_params(rng), h=1e-3) < 1e-4


def test_the_primitive_table_reaches_every_graph_op(rng, monkeypatch):
    # every op name numerics builds a node under, read from its source
    calls = [c for c in ast.walk(ast.parse(inspect.getsource(nm)))
             if isinstance(c, ast.Call) and getattr(c.func, "id", None) == "_node"]
    assert all(isinstance(c.args[1], ast.Constant) for c in calls)
    ops = {c.args[1].value for c in calls}
    assert {"take", "dropout", "attention", "sum"} <= ops
    reached = set()
    node = nm._node
    monkeypatch.setattr(nm, "_node", lambda data, op, *args: reached.add(op) or node(data, op, *args))
    params = _primitive_params(rng)
    for f in _PRIMITIVES.values():
        f(params)
    assert ops - reached == set()


def test_dropout_zero_rate_is_identity(rng):
    x = t(rng.normal(size=(3, 3)).astype(np.float32), req=True)
    assert nm.dropout(x, 0.0, None) is x


def test_dropout_scales_kept_values(rng):
    x = t(np.ones((200, 10), dtype=np.float32), req=True)
    out = nm.dropout(x, 0.5, np.random.default_rng(0))
    kept = out.data[out.data != 0]
    np.testing.assert_allclose(kept, 2.0)
    assert 0.3 < (out.data != 0).mean() < 0.7
