"""Float64 numpy reference formulas shared by the test modules."""

import math

import numpy as np


def np_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def np_ln(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def np_gelu(x):
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))


def sca_loop_oracle(z_ci, z_glb, params, cfg):
    """The SCA block (cross-attention, norm, FFN, norm) one channel and one
    head at a time, in float64."""
    B, M, PN, D = z_ci.shape
    H, dh = cfg.heads, D // cfg.heads
    g = {k: params[k].data.astype(np.float64) for k in params}
    q_all = z_ci.astype(np.float64) @ g["sca.attn.wq"] + g["sca.attn.bq"]
    k_all = z_glb.astype(np.float64) @ g["sca.attn.wk"]
    v_all = z_glb.astype(np.float64) @ g["sca.attn.wv"] + g["sca.attn.bv"]
    out = np.zeros_like(z_ci, dtype=np.float64)
    for b in range(B):
        for i in range(M):
            heads = []
            for h in range(H):
                sl = slice(h * dh, (h + 1) * dh)
                q, k, v = q_all[b, i][:, sl], k_all[b][:, sl], v_all[b][:, sl]
                heads.append(np_softmax(q @ k.T / math.sqrt(dh)) @ v)
            att = np.concatenate(heads, axis=-1) @ g["sca.attn.wo"] + g["sca.attn.bo"]
            x = z_ci[b, i].astype(np.float64) + att if cfg.sca_residual else att
            x = np_ln(x, g["sca.norm1.g"], g["sca.norm1.b"])
            f = (np_gelu(x @ g["sca.ffn.w1"] + g["sca.ffn.b1"]) @ g["sca.ffn.w2"]
                 + g["sca.ffn.b2"])
            out[b, i] = np_ln(x + f, g["sca.norm2.g"], g["sca.norm2.b"])
    return out
