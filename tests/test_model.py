"""Model contracts: embedding, encoders, mixers, injection block, heads."""

import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

import injecttst.numerics as nm
from injecttst.data import WindowBatch, mask_patches, patchify
from injecttst.errors import ConfigError, ShapeError
from injecttst.harness import VARIANT_FLAGS
import injecttst.model as model
from injecttst.model import (ModelConfig, _attention, _drop, _encoder, _ffn, _norm,
                             ci_encode, embed_patches, forecast_head, forward_forecast,
                             forward_pretrain, global_mix_cat, global_mix_pat,
                             init_params, pretrain_head, sca_inject)
from injecttst.training import OptimState, adam_step, forecast_loss, masked_mse

CFG = ModelConfig(L=24, T=4, M=3, PL=8, D=8, heads=2, ci_layers=1, mix_layers=1)


def _params(cfg=CFG, seed=0):
    return init_params(cfg, seed)


def _batch(cfg=CFG, seed=1, B=2):
    rng = np.random.default_rng(seed)
    hist = rng.normal(size=(B, cfg.L, cfg.M)).astype(np.float32)
    tgt = rng.normal(size=(B, cfg.T, cfg.M)).astype(np.float32)
    return WindowBatch(history=hist.transpose(0, 2, 1), target=tgt.transpose(0, 2, 1))


def _zero_params(params):
    for p in params.values():
        p.data = np.zeros_like(p.data)


# numpy reference pieces used by the oracles
def _np_ln(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def _np_gelu(x):
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))


def _np_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# config

def test_config_rejects_bad_width():
    with pytest.raises(ConfigError, match=r"model\.D 10 .* model\.heads 4"):
        ModelConfig(L=24, T=4, M=2, PL=8, D=10, heads=4)


@pytest.mark.parametrize("dropout", [-0.5, 1.0])
def test_config_rejects_dropout_outside_the_unit_interval(dropout):
    with pytest.raises(ConfigError, match=r"model\.dropout must be in \[0, 1\)"):
        ModelConfig(M=2, dropout=dropout)


def test_config_defaults_all_but_the_keyword_only_channel_count():
    cfg = ModelConfig(M=2)
    assert (cfg.L, cfg.T, cfg.PN) == (512, 96, 43)
    with pytest.raises(TypeError):
        ModelConfig(24, 4, 2)           # M is not positional and has no default


def test_config_rejects_unknown_mix_mode():
    with pytest.raises(ConfigError):
        ModelConfig(L=24, T=4, M=2, PL=8, D=8, heads=2, mix_mode="both")


def test_channel_identifier_allocated_only_when_enabled():
    assert "chan_embed" in _params()
    assert "chan_embed" not in _params(replace(CFG, use_channel_identifier=False))


@pytest.mark.parametrize("tag", list(VARIANT_FLAGS))
def test_every_allocated_tensor_gets_a_gradient(tag):
    # forecast and masked losses together read every tensor a variant has
    cfg = replace(CFG, **VARIANT_FLAGS[tag])
    params = _params(cfg)
    batch = _batch(cfg)
    loss = forecast_loss(forward_forecast(batch, params, cfg), batch.target)
    ps = patchify(batch.history - batch.history[:, :, -1:], cfg.PL)
    masked = mask_patches(ps, 0.5, seed=0)
    nm.backward(loss + masked_mse(forward_pretrain(masked, params, cfg), ps.patches, masked.mask))
    assert not [k for k in params if k.endswith("attn.bk")]
    assert [k for k, p in params.items() if p.grad is None] == []


def test_variants_share_their_common_tensors_bitwise():
    inits = {tag: _params(replace(CFG, **flags), seed=5) for tag, flags in VARIANT_FLAGS.items()}
    for a in inits.values():
        for b in inits.values():
            for k in a.keys() & b.keys():
                if a[k].shape == b[k].shape:
                    assert np.array_equal(a[k].data, b[k].data), k


# ---------------------------------------------------------------------------
# patch embedding (token projection + positional + channel identifier)

def test_embed_zero_everything_is_zero():
    params = _params()
    _zero_params(params)
    ps = patchify(np.zeros((2, CFG.M, CFG.L), dtype=np.float32), CFG.PL)
    out = embed_patches(ps, params, CFG)
    np.testing.assert_array_equal(out.data, 0.0)


def test_embed_ignores_identifier_when_disabled(rng):
    cfg = replace(CFG, use_channel_identifier=False)
    params = _params()
    ps = patchify(rng.normal(size=(2, cfg.L, cfg.M)).astype(np.float32).transpose(0, 2, 1), cfg.PL)
    before = embed_patches(ps, params, cfg).data.copy()
    params["chan_embed"].data = rng.normal(size=params["chan_embed"].data.shape).astype(np.float32)
    after = embed_patches(ps, params, cfg).data
    assert np.array_equal(before, after)


def test_embed_vs_loop_oracle(rng):
    params = _params()
    ps = patchify(rng.normal(size=(2, CFG.L, CFG.M)).astype(np.float32).transpose(0, 2, 1), CFG.PL)
    got = embed_patches(ps, params, CFG).data
    W = params["patch_proj"].data.astype(np.float64)
    U = params["pos_embed"].data.astype(np.float64)
    V = params["chan_embed"].data.astype(np.float64)
    for b in range(2):
        for m in range(CFG.M):
            for p in range(CFG.PN):
                want = ps.patches[b, m, p].astype(np.float64) @ W + U[p] + V[m]
                assert np.max(np.abs(got[b, m, p] - want)) < 1e-5


def test_embed_shape_mismatch():
    params = _params()
    ps = patchify(np.zeros((1, CFG.M + 1, CFG.L), dtype=np.float32), CFG.PL)
    with pytest.raises(ShapeError):
        embed_patches(ps, params, CFG)


# ---------------------------------------------------------------------------
# channel-independent encoder

def test_ci_single_channel_is_plain_encoder(rng):
    cfg = replace(CFG, M=1)
    params = _params(cfg)
    tokens = rng.normal(size=(2, 1, cfg.PN, cfg.D)).astype(np.float32)
    got = ci_encode(nm.constant(tokens), params, cfg).data
    want = _encoder(nm.constant(tokens[:, 0]), params, "ci", cfg.ci_layers, cfg, None, None).data
    assert np.array_equal(got[:, 0], want)


def test_ci_channel_isolation_bitwise(rng):
    params = _params()
    tokens = rng.normal(size=(2, CFG.M, CFG.PN, CFG.D)).astype(np.float32)
    base = ci_encode(nm.constant(tokens), params, CFG).data.copy()
    bumped = tokens.copy()
    bumped[:, 2] += rng.normal(size=bumped[:, 2].shape).astype(np.float32)
    out = ci_encode(nm.constant(bumped), params, CFG).data
    assert np.array_equal(out[:, 0], base[:, 0])
    assert np.array_equal(out[:, 1], base[:, 1])
    assert not np.array_equal(out[:, 2], base[:, 2])


def test_ci_weights_shared_across_channels(rng):
    params = _params()
    tokens = rng.normal(size=(1, CFG.M, CFG.PN, CFG.D)).astype(np.float32)
    swapped = tokens[:, [1, 0, 2]]
    out = ci_encode(nm.constant(tokens), params, CFG).data
    out_swapped = ci_encode(nm.constant(swapped), params, CFG).data
    assert np.array_equal(out[:, 0], out_swapped[:, 1])
    assert np.array_equal(out[:, 1], out_swapped[:, 0])


def _grads(params: dict, *tensors) -> dict:
    return {**{k: p.grad for k, p in params.items() if p.grad is not None},
            **{i: t.grad for i, t in enumerate(tensors)}}


def _assert_same_grads(got: dict, want: dict) -> None:
    assert got.keys() == want.keys() and len(got) > 1
    for name in got:
        np.testing.assert_array_equal(got[name], want[name])


# the paper's CI shape, and the desk shape in training mode
_CI_SHAPES = {"paper": (8, ModelConfig(L=512, T=96, M=7, D=64, heads=4, ci_layers=2)),
              "desk": (32, ModelConfig(L=48, T=8, M=2, D=32, ci_layers=1, dropout=0.1))}


@pytest.mark.parametrize("shape", list(_CI_SHAPES))
def test_ci_encode_equals_the_encoder_over_channels_folded_into_the_batch_bitwise(shape, rng):
    B, cfg = _CI_SHAPES[shape]
    tokens = rng.normal(size=(B, cfg.M, cfg.PN, cfg.D)).astype(np.float32)
    g = rng.normal(size=tokens.shape).astype(np.float32)

    def run(encode):
        params = init_params(cfg, 3)
        x = nm.Tensor(tokens, requires_grad=True)
        trace = {}
        out = encode(x, params, trace, np.random.default_rng(5) if cfg.dropout else None)
        nm.backward(nm.sum_(out * nm.constant(g)))
        return out.data, trace, _grads(params, x)

    def folded(x, params, trace, drop_rng):
        flat = nm.reshape(x, (B * cfg.M, cfg.PN, cfg.D))
        out = _encoder(flat, params, "ci", cfg.ci_layers, cfg, trace, drop_rng)
        return nm.reshape(out, x.shape)

    out, trace, grads = run(lambda x, params, trace, drop_rng:
                            ci_encode(x, params, cfg, trace, drop_rng))
    want_out, want_trace, want_grads = run(folded)
    np.testing.assert_array_equal(out, want_out)
    assert list(trace) == list(want_trace) == [f"ci.{i}.attn" for i in range(cfg.ci_layers)]
    for name, attn in trace.items():
        assert attn.shape == (B, cfg.M, cfg.heads, cfg.PN, cfg.PN)
        np.testing.assert_array_equal(attn, want_trace[name].reshape(attn.shape))
    _assert_same_grads(grads, want_grads)


# ---------------------------------------------------------------------------
# global mixing, channel-as-token

def test_cat_single_channel_attention_weight_is_one(rng):
    cfg = replace(CFG, M=1, mix_mode="cat")
    params = _params(cfg)
    trace = {}
    hist = rng.normal(size=(2, cfg.L, 1)).astype(np.float32).transpose(0, 2, 1)
    global_mix_cat(hist, params, cfg, trace)
    assert list(trace) == [f"mix.{i}.attn" for i in range(cfg.mix_layers)]
    np.testing.assert_allclose(trace["mix.0.attn"], 1.0, atol=1e-7)


def test_cat_projection_vs_dot_oracle(rng):
    # zero mix layers isolate the per-channel projection
    cfg = replace(CFG, mix_mode="cat", mix_layers=0, use_channel_identifier=False)
    params = _params(cfg)
    hist = rng.normal(size=(2, cfg.L, cfg.M)).astype(np.float32).transpose(0, 2, 1)
    got = global_mix_cat(hist, params, cfg).data
    W = params["mix_proj"].data.astype(np.float64)
    for b in range(2):
        for m in range(cfg.M):
            want = hist[b, m].astype(np.float64) @ W
            assert np.max(np.abs(got[b, m] - want)) < 1e-5


def test_cat_permutation_equivariance(rng):
    cfg = replace(CFG, mix_mode="cat")
    params = _params(cfg)
    batch = _batch(cfg)
    perm = [2, 0, 1]
    trace = {}
    pred = forward_forecast(batch, params, cfg, trace).data
    z_glb = trace["z_glb"].copy()

    params_p = _params(cfg)
    for name, p in params.items():
        params_p[name].data = p.data.copy()
    params_p["chan_embed"].data = params["chan_embed"].data[perm]
    batch_p = WindowBatch(history=batch.history[:, perm], target=batch.target[:, perm])
    trace_p = {}
    pred_p = forward_forecast(batch_p, params_p, cfg, trace_p).data
    np.testing.assert_allclose(pred_p, pred[:, perm, :], atol=1e-5)
    np.testing.assert_allclose(trace_p["z_glb"], z_glb[:, perm, :], atol=1e-5)


# ---------------------------------------------------------------------------
# global mixing, patch-as-token

def test_pat_grouping_is_channel_major(rng):
    # identity projection exposes the grouped layout directly
    cfg = ModelConfig(L=9, T=2, M=2, PL=3, D=6, heads=2,
                      ci_layers=1, mix_layers=0, mix_mode="pat")
    params = _params(cfg)
    params["mix_proj"].data = np.eye(6, dtype=np.float32)
    params["pos_embed"].data = np.zeros_like(params["pos_embed"].data)
    ps = patchify(rng.normal(size=(2, cfg.L, cfg.M)).astype(np.float32).transpose(0, 2, 1), cfg.PL)
    got = global_mix_pat(ps, params, cfg).data
    for b in range(2):
        for p in range(cfg.PN):
            want = np.concatenate([ps.patches[b, m, p] for m in range(cfg.M)])
            np.testing.assert_array_equal(got[b, p], want)


def test_pat_single_channel_grouping_is_identity_reshape(rng):
    cfg = ModelConfig(L=9, T=2, M=1, PL=3, D=3, heads=1,
                      ci_layers=1, mix_layers=0, mix_mode="pat")
    params = _params(cfg)
    params["mix_proj"].data = np.eye(3, dtype=np.float32)
    params["pos_embed"].data = np.zeros_like(params["pos_embed"].data)
    ps = patchify(rng.normal(size=(1, cfg.L, 1)).astype(np.float32).transpose(0, 2, 1), cfg.PL)
    got = global_mix_pat(ps, params, cfg).data
    np.testing.assert_array_equal(got[0], ps.patches[0, 0])


def test_pat_zero_patches_encode_positional_only(rng):
    cfg = replace(CFG, mix_mode="pat")
    params = _params(cfg)
    ps = patchify(np.zeros((2, cfg.M, cfg.L), dtype=np.float32), cfg.PL)
    got = global_mix_pat(ps, params, cfg).data
    u = np.broadcast_to(params["pos_embed"].data, (2, cfg.PN, cfg.D))
    want = _encoder(nm.constant(u.copy()), params, "mix", cfg.mix_layers, cfg, None, None).data
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# injection block

def test_sca_disabled_is_identity():
    # with injection off the trunk builds no global tokens and its output is
    # the channel-independent encoding itself
    cfg = replace(CFG, use_global_injection=False)
    trace = {}
    forward_forecast(_batch(cfg), _params(cfg), cfg, trace)
    assert "z_glb" not in trace and trace["z_out"] is trace["z_ci"]


def test_sca_single_context_token(rng):
    cfg = replace(CFG, mix_mode="cat", M=1)
    params = _params(cfg)
    trace = {}
    z_ci = nm.constant(rng.normal(size=(2, 1, cfg.PN, cfg.D)).astype(np.float32))
    z_glb = nm.constant(rng.normal(size=(2, 1, cfg.D)).astype(np.float32))
    out = sca_inject(z_ci, z_glb, params, cfg, trace).data
    np.testing.assert_allclose(trace["sca.attn"], 1.0, atol=1e-7)
    # every query attends the same single token, so all rows agree
    for p in range(1, cfg.PN):
        np.testing.assert_allclose(out[:, :, p], out[:, :, 0], atol=1e-6)


def test_sca_mix_mode_shape_mismatch(rng):
    cfg = replace(CFG, mix_mode="cat")
    params = _params(cfg)
    z_ci = nm.constant(rng.normal(size=(2, cfg.M, cfg.PN, cfg.D)).astype(np.float32))
    z_glb = nm.constant(rng.normal(size=(2, cfg.PN, cfg.D)).astype(np.float32))  # pat-shaped
    with pytest.raises(ShapeError, match="do not match mix_mode='cat'"):
        sca_inject(z_ci, z_glb, params, cfg)


@pytest.mark.parametrize("residual", [False, True])
def test_sca_equals_its_hand_written_sublayers_bitwise(residual, rng):
    cfg = replace(CFG, sca_residual=residual, dropout=0.1)
    z_ci = rng.normal(size=(3, cfg.M, cfg.PN, cfg.D)).astype(np.float32)
    z_glb = rng.normal(size=(3, cfg.PN, cfg.D)).astype(np.float32)
    g = rng.normal(size=z_ci.shape).astype(np.float32)

    def run(inject):
        params = _params(cfg, seed=2)
        x, ctx = nm.Tensor(z_ci, requires_grad=True), nm.Tensor(z_glb, requires_grad=True)
        trace = {}
        out = inject(x, ctx, params, trace, np.random.default_rng(9))
        nm.backward(nm.sum_(out * nm.constant(g)))
        return out.data, trace["sca.attn"], _grads(params, x, ctx)

    def by_hand(x, ctx, params, trace, drop_rng):
        attended = _drop(_attention(x, ctx, params, "sca.", cfg, trace), cfg, drop_rng)
        h = _norm(x + attended if residual else attended, params, "sca.norm1")
        return _norm(h + _drop(_ffn(h, params, "sca."), cfg, drop_rng), params, "sca.norm2")

    got = run(lambda x, ctx, params, trace, drop_rng:
              sca_inject(x, ctx, params, cfg, trace, drop_rng))
    want = run(by_hand)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    _assert_same_grads(got[2], want[2])


@pytest.mark.parametrize("tag", ["pat", "cat-rc"])
def test_a_graph_free_pass_frees_each_attention_output_before_its_ffn(tag, monkeypatch):
    cfg = replace(CFG, ci_layers=2, **VARIANT_FLAGS[tag])
    params = _params(cfg)
    outputs, held = {}, {}
    attention, ffn = model._attention, model._ffn

    def spy_attention(x_q, x_kv, params, prefix, cfg, trace):
        out = attention(x_q, x_kv, params, prefix, cfg, trace)
        outputs[prefix] = weakref.ref(out.data)
        return out

    def spy_ffn(x, params, prefix):
        held[prefix] = outputs[prefix]() is not None
        return ffn(x, params, prefix)

    monkeypatch.setattr(model, "_attention", spy_attention)
    monkeypatch.setattr(model, "_ffn", spy_ffn)
    with nm.frozen(params.values()):
        forward_forecast(_batch(cfg), params, cfg)
    assert held == {"ci.0.": False, "ci.1.": False, "mix.0.": False, "sca.": False}


def _sca_oracle(z_ci, z_glb, P, cfg):
    B, M, PN, D = z_ci.shape
    H, dh = cfg.heads, D // cfg.heads
    g = {k: P[k].data.astype(np.float64) for k in P}
    q_all = z_ci.astype(np.float64) @ g["sca.attn.wq"] + g["sca.attn.bq"]
    k_all = z_glb.astype(np.float64) @ g["sca.attn.wk"]
    v_all = z_glb.astype(np.float64) @ g["sca.attn.wv"] + g["sca.attn.bv"]
    out = np.zeros_like(z_ci, dtype=np.float64)
    for b in range(B):
        for i in range(M):
            head_outs = []
            for h in range(H):
                sl = slice(h * dh, (h + 1) * dh)
                q, k, v = q_all[b, i][:, sl], k_all[b][:, sl], v_all[b][:, sl]
                w = _np_softmax(q @ k.T / math.sqrt(dh))
                head_outs.append(w @ v)
            att = np.concatenate(head_outs, axis=-1) @ g["sca.attn.wo"] + g["sca.attn.bo"]
            x = z_ci[b, i].astype(np.float64) + att if cfg.sca_residual else att
            x = _np_ln(x, g["sca.norm1.g"], g["sca.norm1.b"])
            f = _np_gelu(x @ g["sca.ffn.w1"] + g["sca.ffn.b1"]) @ g["sca.ffn.w2"] + g["sca.ffn.b2"]
            out[b, i] = _np_ln(x + f, g["sca.norm2.g"], g["sca.norm2.b"])
    return out


@pytest.mark.parametrize("residual", [False, True])
def test_sca_vs_composed_primitive_oracle(residual, rng):
    cfg = replace(CFG, mix_mode="pat", sca_residual=residual)
    params = _params(cfg, seed=7)
    z_ci = rng.normal(size=(2, cfg.M, cfg.PN, cfg.D)).astype(np.float32)
    z_glb = rng.normal(size=(2, cfg.PN, cfg.D)).astype(np.float32)
    got = sca_inject(nm.constant(z_ci), nm.constant(z_glb), params, cfg).data
    want = _sca_oracle(z_ci, z_glb, params, cfg)
    assert np.max(np.abs(got - want)) < 1e-5


def test_sca_residual_passthrough_when_weights_zero(rng):
    cfg = replace(CFG, sca_residual=True)
    params = _params(cfg)
    for name in params:
        if name.startswith("sca.attn.") or name.startswith("sca.ffn."):
            params[name].data = np.zeros_like(params[name].data)
    z_ci = rng.normal(size=(2, cfg.M, cfg.PN, cfg.D)).astype(np.float32)
    z_glb = rng.normal(size=(2, cfg.PN, cfg.D)).astype(np.float32)
    out = sca_inject(nm.constant(z_ci), nm.constant(z_glb), params, cfg).data
    np.testing.assert_allclose(out, _np_ln(z_ci.astype(np.float64), 1.0, 0.0), atol=1e-4)


# ---------------------------------------------------------------------------
# heads

def test_forecast_head_zero_weights(rng):
    params = _params()
    params["forecast_head"].data = np.zeros_like(params["forecast_head"].data)
    z = nm.constant(rng.normal(size=(2, CFG.M, CFG.PN, CFG.D)).astype(np.float32))
    np.testing.assert_array_equal(forecast_head(z, params, CFG).data, 0.0)


def test_head_shapes_large_config():
    cfg = ModelConfig(L=512, T=96, M=7, PL=12, D=16, heads=2,
                      ci_layers=1, mix_layers=1)
    assert cfg.PN == 43
    params = _params(cfg)
    z = nm.constant(np.zeros((1, 7, 43, 16), dtype=np.float32))
    assert forecast_head(z, params, cfg).shape == (1, 7, 96)
    assert pretrain_head(z, params, cfg).shape == (1, 7, 43, 12)


def test_forecast_head_vs_loop_oracle(rng):
    params = _params()
    z = rng.normal(size=(2, CFG.M, CFG.PN, CFG.D)).astype(np.float32)
    got = forecast_head(nm.constant(z), params, CFG).data
    W = params["forecast_head"].data.astype(np.float64)
    for b in range(2):
        for m in range(CFG.M):
            want = z[b, m].astype(np.float64).reshape(-1) @ W
            assert np.max(np.abs(got[b, m] - want)) < 1e-5


@pytest.mark.parametrize("B,cfg", [(3, ModelConfig(L=512, T=96, M=7, D=64)),
                                   (32, ModelConfig(L=48, T=8, M=2, D=32))],
                         ids=["paper", "desk"])
def test_forecast_head_equals_stacked_product_bitwise(B, cfg, rng):
    # the head runs one 2-D product over all B*M channel rows; at these
    # shapes it gives what numpy's per-batch stacked product gives
    K = cfg.PN * cfg.D
    z = nm.Tensor(rng.normal(size=(B, cfg.M, cfg.PN, cfg.D)).astype(np.float32),
                  requires_grad=True)
    w = nm.Tensor((rng.normal(size=(K, cfg.T)) / np.sqrt(K)).astype(np.float32),
                  requires_grad=True)
    g = rng.normal(size=(B, cfg.M, cfg.T)).astype(np.float32)
    out = forecast_head(z, {"forecast_head": w}, cfg)
    nm.backward(nm.sum_(out * nm.constant(g)))
    flat = z.data.reshape(B, cfg.M, K)
    np.testing.assert_array_equal(out.data, flat @ w.data)
    np.testing.assert_array_equal(z.grad, (g @ np.swapaxes(w.data, -1, -2)).reshape(z.shape))
    np.testing.assert_array_equal(w.grad, flat.reshape(-1, K).T @ g.reshape(-1, cfg.T))


def test_pretrain_head_vs_loop_oracle(rng):
    params = _params()
    z = rng.normal(size=(2, CFG.M, CFG.PN, CFG.D)).astype(np.float32)
    got = pretrain_head(nm.constant(z), params, CFG).data
    W = params["pretrain_head"].data.astype(np.float64)
    for b in range(2):
        for m in range(CFG.M):
            for p in range(CFG.PN):
                want = z[b, m, p].astype(np.float64) @ W
                assert np.max(np.abs(got[b, m, p] - want)) < 1e-5


# ---------------------------------------------------------------------------
# full forward passes

def test_zero_weight_model_predicts_last_values():
    params = _params()
    _zero_params(params)
    batch = _batch()
    pred = forward_forecast(batch, params, CFG).data
    want = np.repeat(batch.history[:, :, -1:], CFG.T, axis=2)
    np.testing.assert_array_equal(pred, want)


def test_zero_weight_model_on_constant_history():
    params = _params()
    _zero_params(params)
    hist = np.full((2, CFG.M, CFG.L), 2.5, dtype=np.float32)
    batch = WindowBatch(history=hist, target=np.zeros((2, CFG.M, CFG.T), np.float32))
    pred = forward_forecast(batch, params, CFG).data
    np.testing.assert_array_equal(pred, 2.5)


def test_forecast_channel_isolation_without_injection(rng):
    cfg = replace(CFG, use_global_injection=False)
    params = _params(cfg)
    batch = _batch(cfg)
    base = forward_forecast(batch, params, cfg).data.copy()
    hist = batch.history.copy()
    hist[:, 2] += rng.normal(size=hist[:, 2].shape).astype(np.float32)
    bumped = WindowBatch(history=hist, target=batch.target)
    out = forward_forecast(bumped, params, cfg).data
    assert np.array_equal(out[:, 0], base[:, 0])
    assert np.array_equal(out[:, 1], base[:, 1])


def test_identifier_separates_identical_channels(rng):
    hist = np.repeat(rng.normal(size=(2, CFG.L, 1)).astype(np.float32).transpose(0, 2, 1),
                     CFG.M, axis=1)
    batch = WindowBatch(history=hist, target=np.zeros((2, CFG.M, CFG.T), np.float32))
    params = _params()
    trace = {}
    forward_forecast(batch, params, CFG, trace)
    assert not np.array_equal(trace["z_ci"][:, 0], trace["z_ci"][:, 1])

    cfg_off = replace(CFG, use_channel_identifier=False)
    trace_off = {}
    forward_forecast(batch, _params(cfg_off), cfg_off, trace_off)
    assert np.array_equal(trace_off["z_ci"][:, 0], trace_off["z_ci"][:, 1])
    assert np.array_equal(trace_off["z_ci"][:, 1], trace_off["z_ci"][:, 2])


@pytest.mark.parametrize("mix_mode", ["pat", "cat"])
def test_pretrain_output_shape(mix_mode, rng):
    cfg = replace(CFG, mix_mode=mix_mode)
    params = _params(cfg)
    hist = rng.normal(size=(2, cfg.L, cfg.M)).astype(np.float32).transpose(0, 2, 1)
    ps = patchify(hist, cfg.PL)
    masked = mask_patches(ps, 0.5, seed=0)
    rec = forward_pretrain(masked, params, cfg)
    assert rec.shape == ps.patches.shape


def test_masked_values_reach_neither_the_patches_nor_the_cat_mixer(rng, monkeypatch):
    # patches never overlap, so a masked patch's values lie in no other patch
    # and the pretraining pass cannot read its own target; PL does not divide L
    cfg = ModelConfig(L=50, T=4, M=3, PL=12, D=8, heads=2, ci_layers=1, mix_mode="cat")
    hist = rng.normal(size=(4, cfg.L, cfg.M)).astype(np.float32).transpose(0, 2, 1)
    masked = mask_patches(patchify(hist, cfg.PL), 0.5, seed=3)
    seen = []
    monkeypatch.setattr(model, "global_mix_cat",
                        lambda seq, *args: seen.append(seq.copy()) or global_mix_cat(seq, *args))
    forward_pretrain(masked, _params(cfg), cfg)
    (seq,) = seen
    for b, m, p in np.ndindex(masked.mask.shape):
        t = slice(p * cfg.PL, min((p + 1) * cfg.PL, cfg.L))
        want = 0.0 if masked.mask[b, m, p] else hist[b, m, t]
        np.testing.assert_array_equal(masked.patches[b, m, p, :t.stop - t.start], want)
        np.testing.assert_array_equal(seq[b, m, t], want)


def test_pretrain_runs_without_mask(rng):
    params = _params()
    ps = patchify(rng.normal(size=(1, CFG.L, CFG.M)).astype(np.float32).transpose(0, 2, 1), CFG.PL)
    rec = forward_pretrain(ps, params, CFG)     # nothing masked, still well-defined
    assert rec.shape == ps.patches.shape


def test_injection_contributes_after_brief_pretrain(rng):
    cfg = replace(CFG, mix_mode="pat")
    params = _params(cfg, seed=2)
    hist = rng.normal(size=(8, cfg.L, cfg.M)).astype(np.float32).transpose(0, 2, 1)
    ps = patchify(hist, cfg.PL)
    opt = OptimState(lr=1e-3)
    for step in range(30):
        masked = mask_patches(ps, 0.5, seed=step)
        loss = masked_mse(forward_pretrain(masked, params, cfg), ps.patches, masked.mask)
        adam_step(params, nm.grad_table(loss, params), opt)
    masked = mask_patches(ps, 0.5, seed=99)
    with_gi = forward_pretrain(masked, params, cfg).data
    # same trunk, but the global tokens zeroed out before injection
    z_ci = ci_encode(embed_patches(masked, params, cfg), params, cfg)
    zeros = nm.constant(np.zeros((8, cfg.PN, cfg.D), dtype=np.float32))
    without_gi = pretrain_head(sca_inject(z_ci, zeros, params, cfg), params, cfg).data
    changed = np.abs(with_gi - without_gi)[masked.mask]
    assert changed.max() > 1e-4


# ---------------------------------------------------------------------------
# trace

@pytest.mark.parametrize("pass_", ["forecast", "pretrain"])
@pytest.mark.parametrize("tag", ["pat", "cat", "no-gi"])
def test_trace_names_each_attention_map_by_its_layer(tag, pass_, monkeypatch):
    cfg = replace(CFG, ci_layers=2, mix_layers=1, **VARIANT_FLAGS[tag])
    B, M, PN, H = 2, cfg.M, cfg.PN, cfg.heads
    handed = []
    attention = nm.scaled_dot_attention

    def spy(q, k, v, heads=1, capture=None):
        out = attention(q, k, v, heads=heads, capture=capture)
        handed.append(capture)
        return out

    monkeypatch.setattr(nm, "scaled_dot_attention", spy)
    trace = {}
    batch = _batch(cfg, B=B)
    if pass_ == "forecast":
        forward_forecast(batch, _params(cfg), cfg, trace)
    else:
        ps = patchify(batch.history, cfg.PL)
        forward_pretrain(mask_patches(ps, 0.5, seed=0), _params(cfg), cfg, trace)

    shapes = {"tokens": (B, M, PN, cfg.D), "z_ci": (B, M, PN, cfg.D),
              "z_out": (B, M, PN, cfg.D),
              "ci.0.attn": (B, M, H, PN, PN), "ci.1.attn": (B, M, H, PN, PN)}
    if tag != "no-gi":
        ctx = M if tag == "cat" else PN
        shapes.update({"z_glb": (B, ctx, cfg.D), "mix.0.attn": (B, H, ctx, ctx),
                       "sca.attn": (B, M, H, PN, ctx)})
    assert set(trace) == set(shapes)
    assert {k: v.shape for k, v in trace.items()} == shapes
    assert all(v.dtype == np.float32 for v in trace.values())
    # in forward order, each map is the array the attention node captured
    maps = [v for k, v in trace.items() if k.endswith(".attn")]
    assert len(handed) == len(maps)
    for got, capture in zip(maps, handed):
        assert len(capture) == 1
        assert got.dtype == capture[0].dtype
        np.testing.assert_array_equal(got, capture[0])
