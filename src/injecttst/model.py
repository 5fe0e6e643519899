"""Forecasting network: channel-independent patch-token backbone with a
per-channel identifier embedding, two styles of cross-channel global mixing
(whole-channel tokens vs same-position patch groups), and a cross-attention
injection block that lets each channel pull from the mixed representation.

All forward functions are pure: parameters come in as a name->Tensor dict and
activations are graph Tensors, so one reverse pass differentiates the whole
model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numerics as nm
from .data import PatchSet, WindowBatch, patch_count, patchify, sequence_from_patches
from .errors import ConfigError, ShapeError
from .numerics import Tensor


# the lowest accepted value of each integer `model.*` setting
_MINIMUM = {"L": 1, "T": 1, "PL": 1, "D": 1, "heads": 1,
            "ci_layers": 0, "mix_layers": 0, "ffn_mult": 1}


@dataclass
class ModelSettings:
    """The `model.*` settings of a run; each error names its key."""
    L: int = 512                    # history length
    T: int = 96                     # forecast horizon
    PL: int = 12                    # patch length (and stride: patches never overlap)
    D: int = 64                     # model width
    heads: int = 4
    ci_layers: int = 2
    mix_layers: int = 1
    ffn_mult: int = 2
    dropout: float = 0.0

    def __post_init__(self):
        for name, low in _MINIMUM.items():
            if getattr(self, name) < low:
                raise ConfigError(f"model.{name} must be >= {low}, got {getattr(self, name)}")
        if self.D % self.heads != 0:
            raise ConfigError(f"model.D {self.D} is not divisible by model.heads {self.heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"model.dropout must be in [0, 1), got {self.dropout}")
        if self.PL > self.L:
            raise ConfigError(f"model.PL must be <= model.L, got PL={self.PL}, L={self.L}")

    @property
    def PN(self) -> int:
        return patch_count(self.L, self.PL)


@dataclass(kw_only=True)
class ModelConfig(ModelSettings):
    """The settings plus what the data and the variant fix."""
    M: int                          # channels
    mix_mode: str = "pat"           # "cat" (channel-as-token) | "pat" (patch-as-token)
    sca_residual: bool = False
    use_channel_identifier: bool = True
    use_global_injection: bool = True

    def __post_init__(self):
        super().__post_init__()
        if self.M < 1:
            raise ConfigError(f"model.M must be >= 1, got {self.M}")
        if self.mix_mode not in ("cat", "pat"):
            raise ConfigError(f"mix_mode must be 'cat' or 'pat', got {self.mix_mode!r}")


def init_params(cfg: ModelConfig, seed: int, dtype=np.float32) -> dict[str, Tensor]:
    """Create every tensor the configured forward reads, uniquely named for
    checkpointing. A switched-off module's tensors are drawn and dropped, so
    a tensor that two variants share starts with the same values in both."""
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
            if k != "k":    # softmax cancels a per-query shift of the scores
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
    unread = ((() if cfg.use_channel_identifier else ("chan_embed",))
              + (() if cfg.use_global_injection else ("mix_proj", "mix.", "sca.")))
    return {k: p for k, p in params.items() if not k.startswith(unread)}


def params_dtype(params: dict[str, Tensor]):
    return params["patch_proj"].data.dtype


def _linear(x: Tensor, params: dict, w: str, b: str) -> Tensor:
    return nm.linear(x, params[w], params[b])


def _attention(x_q: Tensor, x_kv: Tensor, params: dict, prefix: str, cfg: ModelConfig,
               trace: Optional[dict]) -> Tensor:
    """Multi-head attention of the `x_q` tokens over the `x_kv` tokens. A
    (B, Sk, D) context under (B, M, PN, D) queries (the global tokens in the
    injection block) is shared by every channel of a batch item. The weights
    are traced as `<prefix>attn`."""
    q = _linear(x_q, params, f"{prefix}attn.wq", f"{prefix}attn.bq")
    k = nm.matmul(x_kv, params[f"{prefix}attn.wk"])
    v = _linear(x_kv, params, f"{prefix}attn.wv", f"{prefix}attn.bv")
    capture = None if trace is None else []
    out = nm.scaled_dot_attention(q, k, v, heads=cfg.heads, capture=capture)
    if trace is not None:
        trace[f"{prefix}attn"] = capture[0]
    return _linear(out, params, f"{prefix}attn.wo", f"{prefix}attn.bo")


def _ffn(x: Tensor, params: dict, prefix: str) -> Tensor:
    h = nm.gelu(_linear(x, params, f"{prefix}ffn.w1", f"{prefix}ffn.b1"))
    return _linear(h, params, f"{prefix}ffn.w2", f"{prefix}ffn.b2")


def _norm(x: Tensor, params: dict, name: str) -> Tensor:
    return nm.layer_norm(x, params[f"{name}.g"], params[f"{name}.b"])


def _drop(t: Tensor, cfg: ModelConfig, rng) -> Tensor:
    # rng present = training mode; evaluation runs with dropout disabled
    return nm.dropout(t, cfg.dropout, rng) if rng is not None else t


def _layer(x: Tensor, ctx: Tensor, params: dict, prefix: str, cfg: ModelConfig,
           trace: Optional[dict], rng, residual: bool = True) -> Tensor:
    """Post-norm Transformer layer: attention of the `x` tokens over the `ctx`
    tokens, then the FFN sublayer, each followed by layer norm. `residual`
    False drops the skip around attention only; the FFN always keeps it."""
    # `h` is rebound so that a graph-free pass frees the attention output before the FFN
    h = _drop(_attention(x, ctx, params, prefix, cfg, trace), cfg, rng)
    h = _norm(x + h if residual else h, params, f"{prefix}norm1")
    return _norm(h + _drop(_ffn(h, params, prefix), cfg, rng), params, f"{prefix}norm2")


def _encoder(x: Tensor, params: dict, group: str, layers: int, cfg: ModelConfig,
             trace: Optional[dict], rng) -> Tensor:
    for i in range(layers):
        x = _layer(x, x, params, f"{group}.{i}.", cfg, trace, rng)
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
              trace: Optional[dict] = None, rng=None) -> Tensor:
    """Encode each channel's patch tokens with the shared encoder, run on the
    (B, M, PN, D) tokens as they are: channels never attend to one another,
    and each `ci.<i>.attn` map is (B, M, heads, PN, PN)."""
    return _encoder(tokens, params, "ci", cfg.ci_layers, cfg, trace, rng)


def global_mix_cat(history: np.ndarray, params: dict, cfg: ModelConfig,
                   trace: Optional[dict] = None, rng=None) -> Tensor:
    """Whole-channel tokens: one projection of each channel's full (B, M, L)
    history, mixed by attention across the M channel tokens."""
    B, M, L = history.shape
    if (L, M) != (cfg.L, cfg.M):
        raise ShapeError(f"history {history.shape} inconsistent with config (L={cfg.L}, M={cfg.M})")
    x = nm.constant(history, params_dtype(params))
    mixed = nm.matmul(x, params["mix_proj"])                            # (B, M, D)
    if cfg.use_channel_identifier:
        mixed = mixed + params["chan_embed"]
    return _encoder(mixed, params, "mix", cfg.mix_layers, cfg, trace, rng)


def global_mix_pat(ps: PatchSet, params: dict, cfg: ModelConfig,
                   trace: Optional[dict] = None, rng=None) -> Tensor:
    """Position tokens: same-position patches of all channels are grouped
    (channel-major), projected together, and mixed across the PN positions."""
    B, M, PN, PL = ps.patches.shape
    grouped = ps.patches.transpose(0, 2, 1, 3).reshape(B, PN, M * PL)
    x = nm.constant(grouped, params_dtype(params))
    mixed = nm.linear(x, params["mix_proj"], params["pos_embed"])       # (B, PN, D)
    return _encoder(mixed, params, "mix", cfg.mix_layers, cfg, trace, rng)


def sca_inject(z_ci: Tensor, z_glb: Tensor, params: dict, cfg: ModelConfig,
               trace: Optional[dict] = None, rng=None) -> Tensor:
    """Cross-attention injection: one `_layer` in which the channel tokens query
    the global tokens, shared by a batch item's M channels. `sca_residual`
    decides whether the attention sublayer keeps its skip connection."""
    B, M, PN, D = z_ci.shape
    expected_ctx = cfg.M if cfg.mix_mode == "cat" else cfg.PN
    if z_glb.shape != (B, expected_ctx, D):
        raise ShapeError(f"global tokens {z_glb.shape} do not match mix_mode="
                         f"{cfg.mix_mode!r} (expected {(B, expected_ctx, D)})")
    return _layer(z_ci, z_glb, params, "sca.", cfg, trace, rng, cfg.sca_residual)


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


def normalize_last_value(batch: WindowBatch, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Subtract each window's final history value per channel; returns the
    normalized (B, M, L) history and the (B, M) last values."""
    history = batch.history.astype(dtype, copy=False)
    return history - history[:, :, -1:], history[:, :, -1]


def _trunk(ps: PatchSet, params: dict, cfg: ModelConfig, trace: Optional[dict], rng) -> Tensor:
    """Patch embedding, channel-independent encoding, then global mixing and
    injection when enabled; the cat mixer reads the sequence behind `ps`. A
    `trace` dict receives `tokens`, `z_ci`, `z_glb` (injection only), `z_out`
    and every attention layer's weights, named by its parameter prefix."""
    tokens = embed_patches(ps, params, cfg)
    z_ci = ci_encode(tokens, params, cfg, trace, rng)
    z_out = z_ci
    if cfg.use_global_injection:
        if cfg.mix_mode == "cat":
            z_glb = global_mix_cat(sequence_from_patches(ps, cfg.L), params, cfg, trace, rng)
        else:
            z_glb = global_mix_pat(ps, params, cfg, trace, rng)
        z_out = sca_inject(z_ci, z_glb, params, cfg, trace, rng)
        if trace is not None:
            trace["z_glb"] = z_glb.data
    if trace is not None:
        trace.update(tokens=tokens.data, z_ci=z_ci.data, z_out=z_out.data)
    return z_out


def forward_forecast(batch: WindowBatch, params: dict, cfg: ModelConfig,
                     trace: Optional[dict] = None, rng=None) -> Tensor:
    """Full forecasting pass with last-value normalization.

    The final history value of each channel is subtracted before the network
    and added back to its prediction, so an all-zero network degenerates to
    the persistence forecast.
    """
    B, M, L = batch.history.shape
    if (L, M) != (cfg.L, cfg.M):
        raise ShapeError(f"batch history {batch.history.shape} inconsistent with "
                         f"config (L={cfg.L}, M={cfg.M})")
    history_n, last = normalize_last_value(batch, params_dtype(params))
    ps = patchify(history_n, cfg.PL)
    pred = forecast_head(_trunk(ps, params, cfg, trace, rng), params, cfg)
    return pred + nm.constant(last[:, :, None])                         # (B, M, T)


def forward_pretrain(masked: PatchSet, params: dict, cfg: ModelConfig,
                     trace: Optional[dict] = None, rng=None) -> Tensor:
    """Reconstruction pass over a masked PatchSet (already last-value
    normalized). The global branch consumes the same masked inputs; for the
    cat mixer reads the masked sequence as a view of the patches."""
    z_out = _trunk(masked, params, cfg, trace, rng)
    return pretrain_head(z_out, params, cfg)                            # (B, M, PN, PL)
