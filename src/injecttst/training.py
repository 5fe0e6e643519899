"""Losses, Adam optimizer, the three-stage schedule, and evaluation.

Stages: masked pretraining over the whole network, prediction-head tuning
with the trunk frozen, then full finetuning. Each stage logs per-epoch train
and validation losses and retains the best-validation parameters.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import numerics as nm
from .checkpoint import save_checkpoint
from .data import (PatchSet, SeriesTable, WindowBatch, make_windows, mask_patches,
                   patchify, split, standardize, with_history)
from .errors import ConfigError, ContractError, TrainingDiverged
from .model import (ModelConfig, forward_forecast, forward_pretrain,
                    normalize_last_value, params_dtype)
from .numerics import Tensor

STAGES = ("pretrain", "head", "finetune")
_STAGE_CODE = {name: i + 1 for i, name in enumerate(STAGES)}


# ---------------------------------------------------------------------------
# losses

def masked_mse(reconstruction: Tensor, original: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean squared error restricted to masked patch elements."""
    if reconstruction.shape != original.shape:
        raise ContractError(f"shape mismatch: {reconstruction.shape} vs {original.shape}")
    total = int(mask.sum())
    if total == 0:
        raise ContractError("masked_mse requires at least one masked patch")
    dtype = reconstruction.data.dtype
    weights = mask[..., None].astype(dtype)
    diff = reconstruction - nm.constant(original.astype(dtype, copy=False))
    masked_sq = diff * diff * nm.constant(weights)
    return nm.sum_(masked_sq) / float(total * original.shape[-1])


def forecast_loss(prediction: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error over all elements; target is (B, M, T)."""
    if prediction.shape != target.shape:
        raise ContractError(f"shape mismatch: {prediction.shape} vs {target.shape}")
    diff = prediction - nm.constant(target.astype(prediction.data.dtype, copy=False))
    return nm.mean(diff * diff)


# ---------------------------------------------------------------------------
# optimizer

_BETA1 = 0.9
_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass
class OptimState:
    """Adam's learning rate and state. The first step lays every parameter
    out in one flat array: `layout` maps each name to its shape, in order,
    and `bounds` holds each parameter's (start, stop) in it. `m` and
    `v` are the flat moments; `grad` and `work` are scratch arrays of the
    same size, reused so that no step allocates (and page-faults in) fresh
    ones."""
    lr: float
    step: int = 0
    m: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    grad: Optional[np.ndarray] = None
    work: Optional[np.ndarray] = None
    layout: dict[str, tuple] = field(default_factory=dict)
    bounds: list[tuple[int, int]] = field(default_factory=list)


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              opt: OptimState) -> None:
    """One bias-corrected Adam update over the names in `grads`.

    The update is elementwise, so it runs once over all gradients
    concatenated into one flat array, in the parameters' dtype. Each
    parameter's ``data`` is then rebound to its slice of one new flat weight
    array; nothing a caller holds is written in place. A non-finite gradient
    raises `TrainingDiverged` naming the first such parameter before any
    state changes. Every call must pass the names, shapes and dtype the
    first one did.
    """
    if opt.m is None:
        if not grads:
            raise ContractError("adam_step needs at least one gradient")
        opt.layout = {name: params[name].data.shape for name in grads}
        ends = np.cumsum([0] + [math.prod(shape) for shape in opt.layout.values()])
        opt.bounds = [(int(a), int(b)) for a, b in zip(ends[:-1], ends[1:])]
        dtype = params[next(iter(grads))].data.dtype
        opt.m, opt.v, opt.grad, opt.work = (np.zeros(int(ends[-1]), dtype) for _ in range(4))
    elif grads.keys() != opt.layout.keys():
        raise ContractError(f"adam_step got parameters {sorted(grads)}, "
                            f"its state holds {sorted(opt.layout)}")
    shapes = list(opt.layout.values())
    ps = [params[name] for name in opt.layout]
    gs = [grads[name] for name in opt.layout]
    if [p.data.shape for p in ps] != shapes or [g.shape for g in gs] != shapes:
        raise ContractError("parameter or gradient shapes differ from the first adam_step")
    try:
        g = np.concatenate(gs, axis=None, out=opt.grad, casting="no")
        w = np.concatenate([p.data for p in ps], axis=None, dtype=opt.m.dtype, casting="no")
    except TypeError:
        raise ContractError(f"adam_step needs every parameter and gradient in {opt.m.dtype}") from None
    if not np.isfinite(g).all():
        bad = next(name for name, (a, b) in zip(opt.layout, opt.bounds)
                   if not np.isfinite(g[a:b]).all())
        raise TrainingDiverged(f"non-finite gradient for parameter {bad!r}")

    opt.step += 1
    c1 = 1.0 - _BETA1 ** opt.step
    c2 = 1.0 - _BETA2 ** opt.step
    # m = b1 m + (1 - b1) g,  v = b2 v + ((1 - b2) g) g,
    # w -= lr ((m / c1) / (sqrt(v / c2) + eps)),
    # evaluated in that order, with `work` and then `g` holding the temporaries
    m, v, work = opt.m, opt.v, opt.work
    m *= _BETA1
    m += np.multiply(g, 1.0 - _BETA1, out=work)
    v *= _BETA2
    np.multiply(g, 1.0 - _BETA2, out=work)
    work *= g
    v += work
    np.divide(v, c2, out=work)
    np.sqrt(work, out=work)
    work += _ADAM_EPS
    update = np.divide(m, c1, out=g)
    update /= work
    update *= opt.lr
    w -= update                                   # w is this step's own copy
    for p, (a, b), shape in zip(ps, opt.bounds, shapes):
        p.data = w[a:b].reshape(shape)


# ---------------------------------------------------------------------------
# schedule and data plumbing

@dataclass
class StageSchedule:
    """The `train.*` settings of a run and its `run.seed`."""
    pretrain_epochs: int = 20
    head_epochs: int = 10
    finetune_epochs: int = 100
    pretrain_lr: float = 1e-4
    head_lr: float = 1e-3
    finetune_lr: float = 1e-4
    batch_size: int = 64
    mask_ratio: float = 0.5
    seed: int = 0

    def __post_init__(self):
        """Reject an out-of-range value as a config error naming its key."""
        def out_of_range(name: str, rule: str) -> ConfigError:
            key = "run.seed" if name == "seed" else f"train.{name}"
            return ConfigError(f"{key} must be {rule}, got {getattr(self, name)}")

        for name in ("pretrain_epochs", "head_epochs", "finetune_epochs", "seed"):
            if getattr(self, name) < 0:
                raise out_of_range(name, ">= 0")
        if self.batch_size < 1:
            raise out_of_range("batch_size", ">= 1")
        for name in ("pretrain_lr", "head_lr", "finetune_lr"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise out_of_range(name, "finite and > 0")
        if not 0.0 < self.mask_ratio < 1.0:
            raise out_of_range("mask_ratio", "in (0, 1)")


@dataclass
class DataSplits:
    """The train table and the validation and test tables, each of the
    latter after the last L rows of the preceding split (all of them, if
    fewer), so that targets start at its first row when that split has L."""

    train: SeriesTable
    val_ext: SeriesTable
    test_ext: SeriesTable


def prepare_data(table: SeriesTable, L: int, split_mode: str = "ratio",
                 standardize_inputs: bool = True) -> DataSplits:
    train, val, test = split(table, split_mode)
    if standardize_inputs:
        train, val, test = standardize(train, val, test)
    return DataSplits(train=train, val_ext=with_history(train, val, L),
                      test_ext=with_history(val, test, L))


# ---------------------------------------------------------------------------
# chunks

# Every pass over a batch runs the network on chunks of windows whose
# (M, PN, D) tokens take about this many bytes, so each elementwise pass
# reads arrays still in cache and a step's graph holds one chunk at a time:
# 6 windows at the paper shape (M=7, PN=43, D=64, float32)
_CHUNK_BYTES = 1 << 19


def _chunks(windows: int, cfg: ModelConfig, dtype) -> list[slice]:
    """The window slices, in order, that a pass over `windows` windows runs on."""
    size = max(1, _CHUNK_BYTES // (cfg.M * cfg.PN * cfg.D * np.dtype(dtype).itemsize))
    return [slice(i, min(i + size, windows)) for i in range(0, windows, size)]


def _windows(x, s: slice):
    """Windows `s` of a WindowBatch or a PatchSet, as views."""
    if isinstance(x, WindowBatch):
        return WindowBatch(history=x.history[s], target=x.target[s])
    return PatchSet(patches=x.patches[s], mask=x.mask[s])


def _graph_free(forward: Callable, x, chunks: list[slice]) -> Tensor:
    """`forward` of `x` with the parameters frozen, run chunk by chunk and
    concatenated."""
    return nm.constant(np.concatenate([forward(_windows(x, s)).data for s in chunks]))


# ---------------------------------------------------------------------------
# stage runner

def run_stage(stage: str, params: dict[str, Tensor], cfg: ModelConfig,
              data: DataSplits, sched: StageSchedule,
              out_dir: Optional[str] = None,
              log_sink: Optional[Callable[[dict], None]] = None) -> list[dict]:
    """Train one stage in place and leave `params` at the best-validation
    epoch. Returns the per-epoch log records.

    A step runs forward and backward chunk by chunk (`_chunks`), each
    chunk's loss weighted by its share of the batch, and then one Adam
    update on the summed gradients."""
    if stage not in STAGES:
        raise ContractError(f"unknown stage {stage!r}")
    epochs = getattr(sched, f"{stage}_epochs")
    if epochs == 0:
        return []
    lr = getattr(sched, f"{stage}_lr")
    # a stage trains exactly what its loss reaches; the rest stays off the graph
    unread = "forecast_head" if stage == "pretrain" else "pretrain_head"
    trainable = ["forecast_head"] if stage == "head" else [k for k in params if k != unread]
    fixed = [p for k, p in params.items() if k not in trainable]
    opt = OptimState(lr=lr)
    code = _STAGE_CODE[stage]
    dtype = params_dtype(params)

    def inputs(batch: WindowBatch, mask_seed) -> tuple:
        """What the network reads of a batch, and the loss of an output for
        windows `s` of it."""
        if stage != "pretrain":
            return batch, lambda output, s: forecast_loss(output, batch.target[s])
        history_n, _ = normalize_last_value(batch, dtype)
        ps = patchify(history_n, cfg.PL)
        masked = mask_patches(ps, sched.mask_ratio, mask_seed)
        return masked, lambda output, s: masked_mse(output, ps.patches[s], masked.mask[s])

    def forward(x, rng=None) -> Tensor:
        if stage != "pretrain":
            return forward_forecast(x, params, cfg, rng=rng)
        return forward_pretrain(x, params, cfg, rng=rng)

    def val_loss(batch: WindowBatch, mask_seed) -> Tensor:
        x, loss_of = inputs(batch, mask_seed)
        return loss_of(_graph_free(forward, x, _chunks(batch.size, cfg, dtype)), slice(None))

    def finite(loss: Tensor, what: str) -> float:
        value = float(loss.data)
        if not np.isfinite(value):
            raise TrainingDiverged(f"{what} diverged in stage {stage}, epoch {epoch}")
        return value

    log: list[dict] = []
    best_val = np.inf
    best_snapshot: Optional[dict[str, np.ndarray]] = None
    for epoch in range(1, epochs + 1):
        t0 = time.perf_counter()
        shuffle_rng = np.random.default_rng([sched.seed, code, epoch])
        train_rng = np.random.default_rng([sched.seed, code, epoch, 7])
        train_losses = []
        with nm.frozen(fixed):
            for b, batch in enumerate(make_windows(data.train, cfg.L, cfg.T,
                                                   sched.batch_size, shuffle_rng)):
                x, loss_of = inputs(batch, [sched.seed, code, epoch, b])
                step_loss, grads = 0.0, None
                for s in _chunks(batch.size, cfg, dtype):
                    # masked_mse too: every window holds the same number of masked
                    # patches, so a chunk's share of them is its share of windows
                    loss = loss_of(forward(_windows(x, s), train_rng), s) * (
                        (s.stop - s.start) / batch.size)
                    step_loss += finite(loss, "loss")
                    part_grads = nm.grad_table(loss, {k: params[k] for k in trainable})
                    grads = part_grads if grads is None else {
                        k: grads[k] + g for k, g in part_grads.items()}
                    if s.stop < batch.size:
                        del loss        # free this chunk's graph before the next forward
                train_losses.append(step_loss)
                adam_step(params, grads, opt)
                # free this step's graph before the next forward builds its own
                del loss, grads

        with nm.frozen(params.values()):
            val_losses = [finite(val_loss(batch, [sched.seed, 9, b]), "validation loss")
                          for b, batch in enumerate(make_windows(data.val_ext, cfg.L, cfg.T,
                                                                 sched.batch_size))]

        record = {"stage": stage, "epoch": epoch,
                  "train_loss": float(np.mean(train_losses)),
                  "val_loss": float(np.mean(val_losses)),
                  "seconds": round(time.perf_counter() - t0, 3)}
        log.append(record)
        if log_sink is not None:
            log_sink(record)
        if record["val_loss"] < best_val:
            best_val = record["val_loss"]
            # adam_step rebinds p.data and never writes into it, so holding
            # the arrays keeps this epoch's values
            best_snapshot = {k: p.data for k, p in params.items()}

    if best_snapshot is not None:
        for k, p in params.items():
            p.data = best_snapshot[k]
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_checkpoint(params, stage_checkpoint(out_dir, stage))
    return log


def stage_checkpoint(out_dir: str, stage: str) -> str:
    """The file `run_stage` writes a stage's best-validation weights to."""
    return os.path.join(out_dir, f"stage-{stage}-best.ckpt")


def train_pipeline(params: dict[str, Tensor], cfg: ModelConfig, data: DataSplits,
                   sched: StageSchedule, out_dir: Optional[str] = None) -> list[dict]:
    """Run pretrain -> head -> finetune. Given an output directory, each
    epoch's record is appended to its train_log.ndjson; the directory is
    made when the first record is written."""
    def sink(record: dict) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "train_log.ndjson"), "a") as fh:
            fh.write(json.dumps(record) + "\n")

    log: list[dict] = []
    for stage in STAGES:
        log.extend(run_stage(stage, params, cfg, data, sched, out_dir,
                             None if out_dir is None else sink))
    return log


# ---------------------------------------------------------------------------
# evaluation

@dataclass
class EvalReport:
    mse: float
    mae: float
    per_horizon_mse: list[float]
    per_channel_mse: list[float]
    n_windows: int
    seconds: float


def _score(data: DataSplits, L: int, T: int, batch_size: int,
           predict: Callable[[WindowBatch], np.ndarray]) -> EvalReport:
    """MSE/MAE of `predict`'s (B, M, T) forecasts over the ordered test
    stream, in the space of the prepared tables."""
    t0 = time.perf_counter()
    sq_sum = np.zeros((data.test_ext.channels, T))
    abs_sum = np.zeros_like(sq_sum)
    n_windows = 0
    for batch in make_windows(data.test_ext, L, T, batch_size):
        err = predict(batch).astype(np.float64) - batch.target.astype(np.float64)
        sq_sum += nm._col_sum(err ** 2, [0])
        abs_sum += nm._col_sum(np.abs(err), [0])
        n_windows += batch.size
    mse_mt = sq_sum / n_windows
    return EvalReport(
        mse=float(mse_mt.mean()), mae=float((abs_sum / n_windows).mean()),
        per_horizon_mse=[float(x) for x in mse_mt.mean(axis=0)],
        per_channel_mse=[float(x) for x in mse_mt.mean(axis=1)],
        n_windows=n_windows,
        seconds=round(time.perf_counter() - t0, 3))


def evaluate(params: dict[str, Tensor], cfg: ModelConfig, data: DataSplits,
             batch_size: int = 64) -> EvalReport:
    """MSE/MAE over the ordered test stream, on the values the splits hold
    (standardized ones unless `prepare_data` was told otherwise)."""
    def predict(batch: WindowBatch) -> np.ndarray:
        return _graph_free(lambda x: forward_forecast(x, params, cfg), batch,
                           _chunks(batch.size, cfg, params_dtype(params))).data

    with nm.frozen(params.values()):
        return _score(data, cfg.L, cfg.T, batch_size, predict)


def evaluate_persistence(data: DataSplits, L: int, T: int,
                         batch_size: int = 64) -> EvalReport:
    """Persistence baseline: the last observed value repeated over the horizon."""
    return _score(data, L, T, batch_size,
                  lambda batch: np.repeat(batch.history[:, :, -1:], T, axis=2))
