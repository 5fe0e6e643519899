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
from .data import (SeriesTable, WindowBatch, destandardize, make_windows,
                   mask_patches, patchify, split, standardize, with_history)
from .errors import ContractError, SizingError, TrainingDiverged
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

@dataclass
class OptimState:
    """Adam's settings and state. The first step lays every parameter out in
    one flat array: `layout` maps each name to its shape, in order, and
    `offsets` holds where each parameter after the first starts. `m` and `v`
    are the flat moments; `grad` and `work` are scratch arrays of the same
    size, reused so that no step allocates (and page-faults in) fresh ones."""
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    grad: Optional[np.ndarray] = None
    work: Optional[np.ndarray] = None
    layout: dict[str, tuple] = field(default_factory=dict)
    offsets: list[int] = field(default_factory=list)


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
        ends = np.cumsum([math.prod(shape) for shape in opt.layout.values()])
        opt.offsets = [int(e) for e in ends[:-1]]
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
        bad = next(name for name, part in zip(opt.layout, np.split(g, opt.offsets))
                   if not np.isfinite(part).all())
        raise TrainingDiverged(f"non-finite gradient for parameter {bad!r}")

    opt.step += 1
    c1 = 1.0 - opt.beta1 ** opt.step
    c2 = 1.0 - opt.beta2 ** opt.step
    # m = b1 m + (1 - b1) g,  v = b2 v + ((1 - b2) g) g,
    # w -= lr ((m / c1) / (sqrt(v / c2) + eps)),
    # evaluated in that order, with `work` and then `g` holding the temporaries
    m, v, work = opt.m, opt.v, opt.work
    m *= opt.beta1
    m += np.multiply(g, 1.0 - opt.beta1, out=work)
    v *= opt.beta2
    np.multiply(g, 1.0 - opt.beta2, out=work)
    work *= g
    v += work
    np.divide(v, c2, out=work)
    np.sqrt(work, out=work)
    work += opt.eps
    update = np.divide(m, c1, out=g)
    update /= work
    update *= opt.lr
    w -= update                                   # w is this step's own copy
    for p, part, shape in zip(ps, np.split(w, opt.offsets), shapes):
        p.data = part.reshape(shape)


# ---------------------------------------------------------------------------
# schedule and data plumbing

@dataclass
class StageSchedule:
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
        for field_name in ("pretrain_epochs", "head_epochs", "finetune_epochs"):
            if getattr(self, field_name) < 0:
                raise ContractError(f"{field_name} must be >= 0")


@dataclass
class DataSplits:
    """Standardized train/val/test tables; eval tables carry L-1 rows of
    context from the preceding split so early targets keep full histories."""

    train: SeriesTable
    val: SeriesTable
    test: SeriesTable
    val_ext: SeriesTable
    test_ext: SeriesTable
    mean: np.ndarray
    std: np.ndarray


def prepare_data(table: SeriesTable, L: int, split_mode: str = "ratio",
                 standardize_inputs: bool = True) -> DataSplits:
    train, val, test = split(table, split_mode)
    if standardize_inputs:
        train, val, test, mean, std = standardize(train, val, test)
    else:
        mean = np.zeros(table.channels, dtype=np.float32)
        std = np.ones(table.channels, dtype=np.float32)
    return DataSplits(train=train, val=val, test=test,
                      val_ext=with_history(train, val, L),
                      test_ext=with_history(val, test, L),
                      mean=mean, std=std)


def _target_bmt(batch: WindowBatch, dtype) -> np.ndarray:
    return batch.target.transpose(0, 2, 1).astype(dtype, copy=False)


def _pretrain_batch_loss(batch: WindowBatch, params: dict, cfg: ModelConfig,
                         ratio: float, mask_seed, rng=None) -> Tensor:
    history_n, _ = normalize_last_value(batch, params_dtype(params))
    ps = patchify(history_n, cfg.PL, cfg.S)
    masked = mask_patches(ps, ratio, mask_seed)
    reconstruction = forward_pretrain(masked, params, cfg, rng=rng)
    return masked_mse(reconstruction, ps.patches, masked.mask)


def _forecast_batch_loss(batch: WindowBatch, params: dict, cfg: ModelConfig,
                         rng=None) -> Tensor:
    prediction = forward_forecast(batch, params, cfg, rng=rng)
    return forecast_loss(prediction, _target_bmt(batch, prediction.data.dtype))


# ---------------------------------------------------------------------------
# stage runner

def run_stage(stage: str, params: dict[str, Tensor], cfg: ModelConfig,
              data: DataSplits, sched: StageSchedule,
              out_dir: Optional[str] = None,
              log_sink: Optional[Callable[[dict], None]] = None) -> list[dict]:
    """Train one stage in place and leave `params` at the best-validation
    epoch. Returns the per-epoch log records."""
    if stage not in STAGES:
        raise ContractError(f"unknown stage {stage!r}")
    epochs = getattr(sched, f"{stage}_epochs")
    if epochs == 0:
        return []
    lr = getattr(sched, f"{stage}_lr")
    trainable = ["forecast_head"] if stage == "head" else list(params)
    # the head stage's frozen trunk stays off the graph: its loss graph is
    # the head matmul and the loss ops alone
    fixed = [p for k, p in params.items() if k not in trainable]
    opt = OptimState(lr=lr)
    code = _STAGE_CODE[stage]

    def batch_loss(batch: WindowBatch, mask_seed, rng=None) -> Tensor:
        if stage == "pretrain":
            return _pretrain_batch_loss(batch, params, cfg, sched.mask_ratio, mask_seed, rng)
        return _forecast_batch_loss(batch, params, cfg, rng)

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
                                                   sched.batch_size, shuffle=True,
                                                   rng=shuffle_rng)):
                loss = batch_loss(batch, [sched.seed, code, epoch, b], train_rng)
                train_losses.append(finite(loss, "loss"))
                grads = nm.grad_table(loss, {k: params[k] for k in trainable})
                adam_step(params, grads, opt)
                # free this step's graph before the next forward builds its own
                del loss, grads

        with nm.frozen(params.values()):
            val_losses = [finite(batch_loss(batch, [sched.seed, 9, b]), "validation loss")
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
        save_checkpoint(params, os.path.join(out_dir, f"stage-{stage}-best.ckpt"))
    return log


def train_log_sink(out_dir: str) -> Callable[[dict], None]:
    """A `run_stage` log sink appending each epoch record to
    `out_dir/train_log.ndjson`."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "train_log.ndjson")

    def sink(record: dict) -> None:
        with open(log_path, "a") as fh:
            fh.write(json.dumps(record) + "\n")

    return sink


def train_pipeline(params: dict[str, Tensor], cfg: ModelConfig, data: DataSplits,
                   sched: StageSchedule, out_dir: Optional[str] = None) -> list[dict]:
    """Run pretrain -> head -> finetune, appending logs to train_log.ndjson
    when an output directory is given."""
    sink = None if out_dir is None else train_log_sink(out_dir)
    log: list[dict] = []
    for stage in STAGES:
        log.extend(run_stage(stage, params, cfg, data, sched, out_dir, sink))
    return log


# ---------------------------------------------------------------------------
# evaluation

@dataclass
class EvalReport:
    mse: float
    mae: float
    per_horizon_mse: list[float]
    per_horizon_mae: list[float]
    per_channel_mse: list[float]
    per_channel_mae: list[float]
    n_windows: int
    seconds: float

    def metrics_equal(self, other: "EvalReport") -> bool:
        return (self.mse == other.mse and self.mae == other.mae
                and self.per_horizon_mse == other.per_horizon_mse
                and self.per_channel_mse == other.per_channel_mse)


def _aggregate(pred_target_pairs, destats=None) -> EvalReport:
    t0 = time.perf_counter()
    sq_sum = None
    n_windows = 0
    for pred, target in pred_target_pairs:                    # both (B, M, T)
        if destats is not None:
            mean, std = destats
            pred = destandardize(pred, mean[:, None], std[:, None])
            target = destandardize(target, mean[:, None], std[:, None])
        err = (pred.astype(np.float64) - target.astype(np.float64))
        if sq_sum is None:
            M, T = err.shape[1], err.shape[2]
            sq_sum = np.zeros((M, T))
            abs_sum = np.zeros((M, T))
        sq_sum += (err ** 2).sum(axis=0)
        abs_sum += np.abs(err).sum(axis=0)
        n_windows += err.shape[0]
    if n_windows == 0:
        raise SizingError("evaluation stream is empty")
    mse_mt = sq_sum / n_windows
    mae_mt = abs_sum / n_windows
    return EvalReport(
        mse=float(mse_mt.mean()), mae=float(mae_mt.mean()),
        per_horizon_mse=[float(x) for x in mse_mt.mean(axis=0)],
        per_horizon_mae=[float(x) for x in mae_mt.mean(axis=0)],
        per_channel_mse=[float(x) for x in mse_mt.mean(axis=1)],
        per_channel_mae=[float(x) for x in mae_mt.mean(axis=1)],
        n_windows=n_windows,
        seconds=round(time.perf_counter() - t0, 3))


def evaluate(params: dict[str, Tensor], cfg: ModelConfig, data: DataSplits,
             batch_size: int = 64, destandardized: bool = False) -> EvalReport:
    """MSE/MAE over the ordered test stream, in standardized space by default."""
    destats = (data.mean, data.std) if destandardized else None

    def pairs():
        for batch in make_windows(data.test_ext, cfg.L, cfg.T, batch_size):
            # closed before the yield, so an abandoned generator leaves no
            # parameter frozen
            with nm.frozen(params.values()):
                pred = forward_forecast(batch, params, cfg).data
            yield pred, batch.target.transpose(0, 2, 1)

    return _aggregate(pairs(), destats)


def evaluate_persistence(data: DataSplits, L: int, T: int,
                         batch_size: int = 64, destandardized: bool = False) -> EvalReport:
    """Persistence baseline: the last observed value repeated over the horizon."""
    destats = (data.mean, data.std) if destandardized else None

    def pairs():
        for batch in make_windows(data.test_ext, L, T, batch_size):
            pred = np.repeat(batch.last_values[:, :, None], T, axis=2)
            yield pred, batch.target.transpose(0, 2, 1)

    return _aggregate(pairs(), destats)
