"""Forecasting network: channel-independent patch-token backbone with a
per-channel identifier embedding, two styles of cross-channel global mixing
(whole-channel tokens vs same-position patch groups), and a cross-attention
injection block that lets each channel pull from the mixed representation.

All forward functions are pure: parameters come in as a name->Tensor dict and
activations are graph Tensors, so one reverse pass differentiates the whole
model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import numerics as nm
from .data import PatchSet, WindowBatch, patch_count, patchify, sequence_from_patches
from .errors import ConfigError, ShapeError
from .numerics import Tensor


# the lowest accepted value of each integer ModelConfig field
_MINIMUM = {"L": 1, "T": 1, "M": 1, "PL": 1, "S": 1, "D": 1, "heads": 1,
            "ci_layers": 0, "mix_layers": 0, "ffn_mult": 1}


@dataclass
class ModelConfig:
    L: int                          # history length
    T: int                          # forecast horizon
    M: int                          # channels
    PL: int = 12                    # patch length
    S: int = 12                     # patch stride
    D: int = 64                     # model width
    heads: int = 4
    ci_layers: int = 2
    mix_layers: int = 1
    mix_mode: str = "pat"           # "cat" (channel-as-token) | "pat" (patch-as-token)
    sca_residual: bool = False
    use_channel_identifier: bool = True
    use_global_injection: bool = True
    ffn_mult: int = 2
    dropout: float = 0.0

    def __post_init__(self):
        for name, low in _MINIMUM.items():
            if getattr(self, name) < low:
                raise ConfigError(f"model.{name} must be >= {low}, got {getattr(self, name)}")
        if self.D % self.heads != 0:
            raise ConfigError(f"width {self.D} not divisible by heads {self.heads}")
        if self.mix_mode not in ("cat", "pat"):
            raise ConfigError(f"mix_mode must be 'cat' or 'pat', got {self.mix_mode!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.PL > self.L:
            raise ConfigError(f"model.PL must be <= model.L, got PL={self.PL}, L={self.L}")

    @property
    def PN(self) -> int:
        return patch_count(self.L, self.PL, self.S)


@dataclass
class ForwardTrace:
    """Optional capture of intermediate activations and attention maps."""

    tokens: Optional[np.ndarray] = None
    z_ci: Optional[np.ndarray] = None
    z_glb: Optional[np.ndarray] = None
    z_out: Optional[np.ndarray] = None
    attn: list[np.ndarray] = field(default_factory=list)


def init_params(cfg: ModelConfig, seed: int, dtype=np.float32) -> dict[str, Tensor]:
    """Create every learnable tensor, uniquely named for checkpointing.

    The channel identifier is allocated even when its flag is off so that
    checkpoints stay loadable across ablation settings.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}

    def uniform(name: str, rows: int, cols: int) -> None:
        bound = 1.0 / np.sqrt(rows)
        params[name] = nm.parameter(rng.uniform(-bound, bound, (rows, cols)), name, dtype)

    def normal(name: str, shape: tuple) -> None:
        params[name] = nm.parameter(rng.normal(0.0, 0.02, shape), name, dtype)

    def vector(name: str, size: int, value: float) -> None:
        params[name] = nm.parameter(np.full(size, value), name, dtype)

    def encoder_layer(prefix: str) -> None:
        hidden = cfg.ffn_mult * cfg.D
        for k in "qkvo":
            uniform(f"{prefix}attn.w{k}", cfg.D, cfg.D)
            vector(f"{prefix}attn.b{k}", cfg.D, 0.0)
        uniform(f"{prefix}ffn.w1", cfg.D, hidden)
        vector(f"{prefix}ffn.b1", hidden, 0.0)
        uniform(f"{prefix}ffn.w2", hidden, cfg.D)
        vector(f"{prefix}ffn.b2", cfg.D, 0.0)
        for n in ("norm1", "norm2"):
            vector(f"{prefix}{n}.g", cfg.D, 1.0)
            vector(f"{prefix}{n}.b", cfg.D, 0.0)

    uniform("patch_proj", cfg.PL, cfg.D)
    normal("pos_embed", (cfg.PN, cfg.D))
    normal("chan_embed", (cfg.M, cfg.D))
    mix_rows = cfg.L if cfg.mix_mode == "cat" else cfg.M * cfg.PL
    uniform("mix_proj", mix_rows, cfg.D)
    for i in range(cfg.ci_layers):
        encoder_layer(f"ci.{i}.")
    for i in range(cfg.mix_layers):
        encoder_layer(f"mix.{i}.")
    encoder_layer("sca.")
    uniform("pretrain_head", cfg.D, cfg.PL)
    uniform("forecast_head", cfg.PN * cfg.D, cfg.T)
    return params


def params_dtype(params: dict[str, Tensor]):
    return params["patch_proj"].data.dtype


def _linear(x: Tensor, params: dict, w: str, b: str) -> Tensor:
    return nm.linear(x, params[w], params[b])


def _split_heads(x: Tensor, heads: int) -> Tensor:
    # (..., S, D) -> (..., H, S, D/H)
    *lead, s, d = x.shape
    x = nm.reshape(x, (*lead, s, heads, d // heads))
    k = len(lead)
    perm = tuple(range(k)) + (k + 1, k, k + 2)
    return nm.transpose(x, perm)


def _merge_heads(x: Tensor) -> Tensor:
    # (..., H, S, dh) -> (..., S, H*dh)
    *lead, h, s, dh = x.shape
    k = len(lead)
    perm = tuple(range(k)) + (k + 1, k, k + 2)
    return nm.reshape(nm.transpose(x, perm), (*lead, s, h * dh))


def _attention(x_q: Tensor, x_kv: Tensor, params: dict, prefix: str, cfg: ModelConfig,
               capture: Optional[list]) -> Tensor:
    """Multi-head attention of the `x_q` tokens over the `x_kv` tokens. A
    context with fewer leading axes than the queries (the global tokens in
    the injection block) gets broadcast axes after its batch axis."""
    q = _split_heads(_linear(x_q, params, f"{prefix}attn.wq", f"{prefix}attn.bq"), cfg.heads)
    k = _split_heads(_linear(x_kv, params, f"{prefix}attn.wk", f"{prefix}attn.bk"), cfg.heads)
    v = _split_heads(_linear(x_kv, params, f"{prefix}attn.wv", f"{prefix}attn.bv"), cfg.heads)
    extra = (1,) * (q.data.ndim - k.data.ndim)
    if extra:
        k = nm.reshape(k, k.shape[:1] + extra + k.shape[1:])
        v = nm.reshape(v, v.shape[:1] + extra + v.shape[1:])
    out = nm.scaled_dot_attention(q, k, v, capture=capture)
    return _linear(_merge_heads(out), params, f"{prefix}attn.wo", f"{prefix}attn.bo")


def _ffn(x: Tensor, params: dict, prefix: str) -> Tensor:
    h = nm.gelu(_linear(x, params, f"{prefix}ffn.w1", f"{prefix}ffn.b1"))
    return _linear(h, params, f"{prefix}ffn.w2", f"{prefix}ffn.b2")


def _norm(x: Tensor, params: dict, name: str) -> Tensor:
    return nm.layer_norm(x, params[f"{name}.g"], params[f"{name}.b"])


def _drop(t: Tensor, cfg: ModelConfig, rng) -> Tensor:
    # rng present = training mode; evaluation runs with dropout disabled
    return nm.dropout(t, cfg.dropout, rng) if rng is not None else t


def _encoder_layer(x: Tensor, params: dict, prefix: str, cfg: ModelConfig,
                   capture: Optional[list], rng) -> Tensor:
    x = _norm(x + _drop(_attention(x, x, params, prefix, cfg, capture), cfg, rng),
              params, f"{prefix}norm1")
    return _norm(x + _drop(_ffn(x, params, prefix), cfg, rng), params, f"{prefix}norm2")


def _encoder(x: Tensor, params: dict, group: str, layers: int, cfg: ModelConfig,
             capture: Optional[list], rng) -> Tensor:
    for i in range(layers):
        x = _encoder_layer(x, params, f"{group}.{i}.", cfg, capture, rng)
    return x


def embed_patches(ps: PatchSet, params: dict, cfg: ModelConfig) -> Tensor:
    """Project patches to model width, add positional encoding, then the
    channel identifier row (broadcast over patches) when enabled."""
    B, M, PN, PL = ps.patches.shape
    if (M, PN, PL) != (cfg.M, cfg.PN, cfg.PL):
        raise ShapeError(f"patch tensor {ps.patches.shape} inconsistent with "
                         f"config (M={cfg.M}, PN={cfg.PN}, PL={cfg.PL})")
    x = nm.constant(ps.patches, params_dtype(params))
    tokens = nm.linear(x, params["patch_proj"], params["pos_embed"])
    if cfg.use_channel_identifier:
        tokens = tokens + nm.reshape(params["chan_embed"], (cfg.M, 1, cfg.D))
    return tokens


def ci_encode(tokens: Tensor, params: dict, cfg: ModelConfig,
              trace: Optional[ForwardTrace] = None, rng=None) -> Tensor:
    """Encode each channel's patch tokens with the shared encoder; channels
    never attend to one another here."""
    B, M, PN, D = tokens.shape
    flat = nm.reshape(tokens, (B * M, PN, D))
    capture = trace.attn if trace is not None else None
    out = _encoder(flat, params, "ci", cfg.ci_layers, cfg, capture, rng)
    return nm.reshape(out, (B, M, PN, D))


def global_mix_cat(history: np.ndarray, params: dict, cfg: ModelConfig,
                   trace: Optional[ForwardTrace] = None, rng=None) -> Tensor:
    """Whole-channel tokens: one projection of each channel's full history,
    mixed by attention across the M channel tokens."""
    B, L, M = history.shape
    if (L, M) != (cfg.L, cfg.M):
        raise ShapeError(f"history {history.shape} inconsistent with config (L={cfg.L}, M={cfg.M})")
    x = nm.constant(history.transpose(0, 2, 1), params_dtype(params))   # (B, M, L)
    mixed = nm.matmul(x, params["mix_proj"])                            # (B, M, D)
    if cfg.use_channel_identifier:
        mixed = mixed + params["chan_embed"]
    capture = trace.attn if trace is not None else None
    return _encoder(mixed, params, "mix", cfg.mix_layers, cfg, capture, rng)


def global_mix_pat(ps: PatchSet, params: dict, cfg: ModelConfig,
                   trace: Optional[ForwardTrace] = None, rng=None) -> Tensor:
    """Position tokens: same-position patches of all channels are grouped
    (channel-major), projected together, and mixed across the PN positions."""
    B, M, PN, PL = ps.patches.shape
    grouped = ps.patches.transpose(0, 2, 1, 3).reshape(B, PN, M * PL)
    x = nm.constant(grouped, params_dtype(params))
    mixed = nm.linear(x, params["mix_proj"], params["pos_embed"])       # (B, PN, D)
    capture = trace.attn if trace is not None else None
    return _encoder(mixed, params, "mix", cfg.mix_layers, cfg, capture, rng)


def sca_inject(z_ci: Tensor, z_glb: Tensor, params: dict, cfg: ModelConfig,
               trace: Optional[ForwardTrace] = None, rng=None) -> Tensor:
    """Cross-attention injection: channel tokens query the global tokens.

    One cross-attention sublayer and one FFN sublayer, each followed by layer
    norm. The optional residual wraps only the cross-attention sublayer; the
    FFN keeps a fixed residual. Identity when global injection is disabled.
    """
    if not cfg.use_global_injection:
        return z_ci
    B, M, PN, D = z_ci.shape
    expected_ctx = cfg.M if cfg.mix_mode == "cat" else cfg.PN
    if z_glb.shape != (B, expected_ctx, D):
        raise ConfigError(f"global tokens {z_glb.shape} do not match mix_mode="
                          f"{cfg.mix_mode!r} (expected {(B, expected_ctx, D)})")

    capture = trace.attn if trace is not None else None
    attended = _drop(_attention(z_ci, z_glb, params, "sca.", cfg, capture), cfg, rng)
    h = _norm(z_ci + attended if cfg.sca_residual else attended, params, "sca.norm1")
    return _norm(h + _drop(_ffn(h, params, "sca."), cfg, rng), params, "sca.norm2")


def forecast_head(z_out: Tensor, params: dict, cfg: ModelConfig) -> Tensor:
    """Per channel, flatten the PN x D tokens and project to the horizon.

    All B*M channel rows go through one 2-D product: numpy's stacked product
    runs one slow GEMM per batch item for rows this short."""
    B, M, PN, D = z_out.shape
    flat = nm.reshape(z_out, (B * M, PN * D))
    return nm.reshape(nm.matmul(flat, params["forecast_head"]), (B, M, -1))  # (B, M, T)


def pretrain_head(z_out: Tensor, params: dict, cfg: ModelConfig) -> Tensor:
    """Per patch token, project back to patch values."""
    return nm.matmul(z_out, params["pretrain_head"])                    # (B, M, PN, PL)


def _trace_set(trace: Optional[ForwardTrace], **kv) -> None:
    if trace is None:
        return
    for key, val in kv.items():
        setattr(trace, key, val.data if isinstance(val, Tensor) else val)


def normalize_last_value(batch: WindowBatch, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Subtract each window's final history value per channel; returns the
    normalized (B, L, M) history and the (B, M) last values."""
    history = batch.history.astype(dtype, copy=False)
    last = batch.last_values.astype(dtype, copy=False)
    return history - last[:, None, :], last


def _trunk(ps: PatchSet, seq: Optional[np.ndarray], params: dict, cfg: ModelConfig,
           trace: Optional[ForwardTrace], rng) -> Tensor:
    """Patch embedding, channel-independent encoding, then global mixing and
    injection when enabled. `seq` is the (B, L, M) sequence behind `ps`,
    consumed only by the cat mixer; None rebuilds it from the patches."""
    tokens = embed_patches(ps, params, cfg)
    z_ci = ci_encode(tokens, params, cfg, trace, rng)
    z_out = z_ci
    if cfg.use_global_injection:
        if cfg.mix_mode == "cat":
            if seq is None:
                seq = sequence_from_patches(ps, cfg.L)
            z_glb = global_mix_cat(seq, params, cfg, trace, rng)
        else:
            z_glb = global_mix_pat(ps, params, cfg, trace, rng)
        z_out = sca_inject(z_ci, z_glb, params, cfg, trace, rng)
        _trace_set(trace, z_glb=z_glb)
    _trace_set(trace, tokens=tokens, z_ci=z_ci, z_out=z_out)
    return z_out


def forward_forecast(batch: WindowBatch, params: dict, cfg: ModelConfig,
                     trace: Optional[ForwardTrace] = None, rng=None) -> Tensor:
    """Full forecasting pass with last-value normalization.

    The final history value of each channel is subtracted before the network
    and added back to its prediction, so an all-zero network degenerates to
    the persistence forecast.
    """
    B, L, M = batch.history.shape
    if (L, M) != (cfg.L, cfg.M):
        raise ShapeError(f"batch history {batch.history.shape} inconsistent with "
                         f"config (L={cfg.L}, M={cfg.M})")
    history_n, last = normalize_last_value(batch, params_dtype(params))
    ps = patchify(history_n, cfg.PL, cfg.S)
    pred = forecast_head(_trunk(ps, history_n, params, cfg, trace, rng), params, cfg)
    return pred + nm.constant(last[:, :, None])                         # (B, M, T)


def forward_pretrain(masked: PatchSet, params: dict, cfg: ModelConfig,
                     trace: Optional[ForwardTrace] = None, rng=None) -> Tensor:
    """Reconstruction pass over a masked PatchSet (already last-value
    normalized). The global branch consumes the same masked inputs; for the
    cat mixer the masked sequence is rebuilt from the patches."""
    z_out = _trunk(masked, None, params, cfg, trace, rng)
    return pretrain_head(z_out, params, cfg)                            # (B, M, PN, PL)
