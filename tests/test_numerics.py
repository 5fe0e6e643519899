"""Numeric core: op semantics vs naive oracles, backward pass, grad checking."""

import numpy as np
import pytest

import injecttst.numerics as nm
from injecttst.data import WindowBatch, mask_patches, patchify
from injecttst.errors import ContractError, ShapeError
from injecttst.model import ModelConfig, forward_forecast, forward_pretrain, init_params
from injecttst.numerics import Tensor, backward, grad_check, grad_table
from injecttst.training import forecast_loss, masked_mse


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
    out = nm.softmax(t([0.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.25] * 4, atol=1e-7)


def test_softmax_large_input_no_overflow():
    out = nm.softmax(t([1000.0, 0.0])).data
    assert np.all(np.isfinite(out))
    assert out[0] > 1 - 1e-6 and out[1] < 1e-6


def test_softmax_vs_float64_formula(rng):
    x = rng.normal(size=(6, 9)).astype(np.float32)
    got = nm.softmax(t(x)).data
    x64 = x.astype(np.float64)
    want = np.exp(x64) / np.exp(x64).sum(axis=-1, keepdims=True)
    assert np.max(np.abs(got - want)) < 1e-6


def test_softmax_rows_are_distributions(rng):
    for _ in range(20):
        x = rng.normal(scale=5.0, size=(4, 7)).astype(np.float32)
        y = nm.softmax(t(x)).data
        assert np.all(y >= 0) and np.all(y <= 1)
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-6)


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


# ---------------------------------------------------------------------------
# frozen

def test_frozen_ops_build_no_graph():
    w = t([[1.0, 2.0]], req=True)
    v = t([[1.0]], req=True)
    with nm.frozen([w]):
        out = nm.matmul(w, t([[3.0], [4.0]]))
        mixed = nm.mul(out, v)
    assert out.parents == () and out._vjp is None and not out.requires_grad
    np.testing.assert_array_equal(out.data, [[11.0]])
    # a frozen input next to a trainable one still lets gradients reach it
    backward(nm.sum_(mixed))
    np.testing.assert_array_equal(v.grad, [[11.0]])
    assert w.grad is None


def test_frozen_restores_after_exit_exception_and_nesting():
    a, b, c = t([1.0], req=True), t([2.0], req=True), t([3.0])
    with nm.frozen([a, c]):
        assert not a.requires_grad
    assert a.requires_grad and not c.requires_grad      # a constant stays constant
    with pytest.raises(KeyError):
        with nm.frozen([a, b]):
            raise KeyError("boom")
    assert a.requires_grad and b.requires_grad
    with nm.frozen([a]):
        with nm.frozen([a, b]):
            assert not a.requires_grad and not b.requires_grad
        # the inner block restores only what it switched off
        assert not a.requires_grad and b.requires_grad
    assert a.requires_grad and b.requires_grad


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
        return nm.softmax(h).data

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


@pytest.mark.parametrize("op", [nm.matmul, nm.add, nm.mul])
def test_constant_operand_gets_no_gradient(op, rng):
    w = t(rng.normal(size=(2, 3, 3)), req=True)
    c = t(rng.normal(size=(3, 3)))
    for operands, const_at in (((w, c), 1), ((c, w), 0)):
        out = op(*operands)
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
    cfg = ModelConfig(L=24, T=4, M=3, PL=8, S=8, D=8, heads=2, ci_layers=1,
                      mix_layers=1, mix_mode=mix_mode)
    params = init_params(cfg, 0, dtype=dtype)
    hist = rng.normal(size=(2, cfg.L, cfg.M)).astype(dtype)
    batch = WindowBatch(history=hist, target=rng.normal(size=(2, cfg.T, cfg.M)).astype(dtype),
                        last_values=hist[:, -1, :].copy())
    ps = patchify(hist, cfg.PL, cfg.S)
    masked = mask_patches(ps, 0.5, seed=0)
    losses = (forecast_loss(forward_forecast(batch, params, cfg), batch.target.transpose(0, 2, 1)),
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
    "mean_axis": lambda p: nm.sum_(nm.mean(p["a"] * p["a"], axis=0)),
    "softmax": lambda p: nm.sum_(nm.softmax(p["a"]) * p["b"]),
    "layer_norm": lambda p: nm.sum_(nm.layer_norm(p["a"], p["g"], p["bias"]) * p["b"]),
    "gelu": lambda p: nm.sum_(nm.gelu(p["a"])),
    "attention": lambda p: nm.sum_(nm.scaled_dot_attention(p["a"], p["b"], p["c2"])),
}


@pytest.mark.parametrize("name", sorted(_PRIMITIVES))
def test_every_primitive_passes_grad_check(name, rng):
    params = {
        "a": Tensor(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True),
        "b": Tensor(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True),
        "c": Tensor(rng.normal(size=(3, 5)).astype(np.float32), requires_grad=True),
        "c2": Tensor(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True),
        "row": Tensor(rng.normal(size=(1, 3)).astype(np.float32), requires_grad=True),
        "g": Tensor(np.ones(3, dtype=np.float32), requires_grad=True),
        "bias": Tensor(np.zeros(3, dtype=np.float32), requires_grad=True),
    }
    assert grad_check(_PRIMITIVES[name], params, h=1e-3) < 1e-4


def test_dropout_zero_rate_is_identity(rng):
    x = t(rng.normal(size=(3, 3)).astype(np.float32), req=True)
    assert nm.dropout(x, 0.0, None) is x


def test_dropout_scales_kept_values(rng):
    x = t(np.ones((200, 10), dtype=np.float32), req=True)
    out = nm.dropout(x, 0.5, np.random.default_rng(0))
    kept = out.data[out.data != 0]
    np.testing.assert_allclose(kept, 2.0)
    assert 0.3 < (out.data != 0).mean() < 0.7
