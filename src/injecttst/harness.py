"""Experiment configuration, the ablation/sweep runners, and result records.

Run configs serialize to a flat dotted-key text format (one `key = value`
per line, canonical field order) so serialize -> parse -> serialize is
byte-stable and the config digest is independent of key ordering.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .data import SeriesTable, load_csv
from .errors import ConfigError
from .model import ModelConfig, init_params
from .synthetic import dataset_from_spec
from .training import (STAGES, DataSplits, EvalReport, StageSchedule, evaluate,
                       evaluate_persistence, prepare_data, train_pipeline)

VARIANT_FLAGS: dict[str, dict] = {
    "pat": dict(mix_mode="pat", sca_residual=False,
                use_channel_identifier=True, use_global_injection=True),
    "cat": dict(mix_mode="cat", sca_residual=False,
                use_channel_identifier=True, use_global_injection=True),
    "pat-rc": dict(mix_mode="pat", sca_residual=True,
                   use_channel_identifier=True, use_global_injection=True),
    "cat-rc": dict(mix_mode="cat", sca_residual=True,
                   use_channel_identifier=True, use_global_injection=True),
    "no-cid": dict(mix_mode="pat", sca_residual=False,
                   use_channel_identifier=False, use_global_injection=True),
    "no-gi": dict(mix_mode="pat", sca_residual=False,
                  use_channel_identifier=True, use_global_injection=False),
}

BASELINE_VARIANT = "baseline-persistence"

PROFILES = {
    "paper": dict(pretrain_epochs=20, head_epochs=10, finetune_epochs=100),
    "desk": dict(pretrain_epochs=5, head_epochs=3, finetune_epochs=10),
}


@dataclass
class RunConfig:
    data_path: str = ""
    split_mode: str = "ratio"
    standardize: bool = True
    L: int = 512
    T: int = 96
    PL: int = 12
    S: int = 12
    D: int = 64
    heads: int = 4
    ci_layers: int = 2
    mix_layers: int = 1
    ffn_mult: int = 2
    dropout: float = 0.0
    pretrain_epochs: int = 20
    head_epochs: int = 10
    finetune_epochs: int = 100
    pretrain_lr: float = 1e-4
    head_lr: float = 1e-3
    finetune_lr: float = 1e-4
    batch_size: int = 64
    mask_ratio: float = 0.5
    variant: str = "pat"
    seed: int = 0
    out: str = "runs"
    profile: str = "paper"

    def __post_init__(self):
        """Reject out-of-range values as config errors naming their key."""
        def out_of_range(name: str, rule: str) -> ConfigError:
            return ConfigError(f"{_FIELD_KEYS[name][0]} must be {rule}, got {getattr(self, name)}")

        if self.split_mode not in ("ratio", "ett"):
            raise out_of_range("split_mode", "'ratio' or 'ett'")
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
        if self.variant != BASELINE_VARIANT:
            variant_flags(self.variant)
        # ModelConfig checks the model.* keys; one channel stands in for the data's
        ModelConfig(M=1, **_model_fields(self))


# field name -> (dotted key, parser)
_FIELD_KEYS = {
    "data_path": ("data.path", str),
    "split_mode": ("data.split", str),
    "standardize": ("data.standardize", None),
    "L": ("model.L", int),
    "T": ("model.T", int),
    "PL": ("model.PL", int),
    "S": ("model.S", int),
    "D": ("model.D", int),
    "heads": ("model.heads", int),
    "ci_layers": ("model.ci_layers", int),
    "mix_layers": ("model.mix_layers", int),
    "ffn_mult": ("model.ffn_mult", int),
    "dropout": ("model.dropout", float),
    "pretrain_epochs": ("train.pretrain_epochs", int),
    "head_epochs": ("train.head_epochs", int),
    "finetune_epochs": ("train.finetune_epochs", int),
    "pretrain_lr": ("train.pretrain_lr", float),
    "head_lr": ("train.head_lr", float),
    "finetune_lr": ("train.finetune_lr", float),
    "batch_size": ("train.batch_size", int),
    "mask_ratio": ("train.mask_ratio", float),
    "variant": ("run.variant", str),
    "seed": ("run.seed", int),
    "out": ("run.out", str),
    "profile": ("run.profile", str),
}
_KEY_FIELDS = {key: (field, conv) for field, (key, conv) in _FIELD_KEYS.items()}


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def serialize_config(rc: RunConfig) -> str:
    lines = [f"{key} = {_format_value(getattr(rc, field))}"
             for field, (key, _) in _FIELD_KEYS.items()]
    return "\n".join(lines) + "\n"


def _parse_fields(text: str) -> dict[str, object]:
    """Dotted-key text -> {RunConfig field: value}; unknown keys are rejected."""
    values: dict[str, object] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, raw = line.partition("=")
        if not sep:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw_line!r}")
        key = key.strip()
        if key not in _KEY_FIELDS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        field, conv = _KEY_FIELDS[key]
        raw = raw.strip()
        try:
            values[field] = _parse_bool(raw) if conv is None else conv(raw)
        except ValueError:
            raise ConfigError(f"config line {lineno}: bad value for {key}: {raw!r}") from None
    return values


def parse_config(text: str) -> RunConfig:
    """Parse dotted-key text; unknown keys are rejected."""
    return RunConfig(**_parse_fields(text))


def load_config(path: str, profile: Optional[str] = None,
                overrides: Optional[dict] = None) -> RunConfig:
    """Load a run config, layering profile defaults under the file's values
    and CLI overrides on top."""
    with open(path) as fh:
        values = _parse_fields(fh.read())
    chosen = profile or values.get("profile", RunConfig.profile)
    if chosen not in PROFILES:
        raise ConfigError(f"unknown profile {chosen!r}; choices: {sorted(PROFILES)}")
    flags = {k: v for k, v in (overrides or {}).items() if v is not None}
    # profile supplies schedule defaults; file values win over it, flags over both
    return RunConfig(**{**PROFILES[chosen], **values, "profile": chosen, **flags})


def config_digest(rc: RunConfig) -> str:
    return hashlib.sha256(serialize_config(rc).encode()).hexdigest()[:16]


def variant_flags(tag: str) -> dict:
    if tag not in VARIANT_FLAGS:
        raise ConfigError(f"unknown variant {tag!r}; choices: "
                          f"{sorted(VARIANT_FLAGS) + [BASELINE_VARIANT]}")
    return dict(VARIANT_FLAGS[tag])


def _model_fields(rc: RunConfig) -> dict:
    return dict(L=rc.L, T=rc.T, PL=rc.PL, S=rc.S, D=rc.D, heads=rc.heads,
                ci_layers=rc.ci_layers, mix_layers=rc.mix_layers,
                ffn_mult=rc.ffn_mult, dropout=rc.dropout)


def model_config(rc: RunConfig, M: int) -> ModelConfig:
    return ModelConfig(M=M, **_model_fields(rc), **variant_flags(rc.variant))


def schedule(rc: RunConfig) -> StageSchedule:
    return StageSchedule(pretrain_epochs=rc.pretrain_epochs,
                         head_epochs=rc.head_epochs,
                         finetune_epochs=rc.finetune_epochs,
                         pretrain_lr=rc.pretrain_lr, head_lr=rc.head_lr,
                         finetune_lr=rc.finetune_lr, batch_size=rc.batch_size,
                         mask_ratio=rc.mask_ratio, seed=rc.seed)


def load_table(rc: RunConfig) -> SeriesTable:
    if rc.data_path.startswith("synthetic:"):
        return dataset_from_spec(rc.data_path)
    return load_csv(rc.data_path)


@dataclass
class ResultRecord:
    digest: str
    variant: str
    L: int
    T: int
    seed: int
    mse: float
    mae: float
    epochs_run: int
    seconds: float
    checkpoint: str
    status: str = "ok"
    error: str = ""

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self))


def result_record(rc: RunConfig, report: Optional[EvalReport] = None,
                  log: Sequence[dict] = (), checkpoint: str = "",
                  error: str = "") -> ResultRecord:
    """The record of one run: `log` holds its training epochs, whose seconds
    count toward the wall time together with the evaluation's. A run without
    a report failed with `error`."""
    nan = float("nan")
    seconds = sum(rec["seconds"] for rec in log) + (report.seconds if report else 0.0)
    return ResultRecord(digest=config_digest(rc), variant=rc.variant, L=rc.L, T=rc.T,
                        seed=rc.seed, mse=report.mse if report else nan,
                        mae=report.mae if report else nan, epochs_run=len(log),
                        seconds=round(seconds, 3), checkpoint=checkpoint,
                        status="ok" if report else "failed", error=error)


def append_records(path: str, records: list[ResultRecord]) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "a") as fh:
        for record in records:
            fh.write(record.to_json() + "\n")


def format_table(records: list[ResultRecord]) -> str:
    header = f"{'variant':<22}{'L':>6}{'T':>6}{'seed':>6}{'mse':>10}{'mae':>10}  status"
    lines = [header, "-" * len(header)]
    for r in records:
        mse = f"{r.mse:.4f}" if np.isfinite(r.mse) else "-"
        mae = f"{r.mae:.4f}" if np.isfinite(r.mae) else "-"
        lines.append(f"{r.variant:<22}{r.L:>6}{r.T:>6}{r.seed:>6}{mse:>10}{mae:>10}  {r.status}")
    return "\n".join(lines)


def _final_checkpoint(out_dir: str, sched: StageSchedule) -> str:
    for stage in reversed(STAGES):
        if getattr(sched, f"{stage}_epochs") > 0:
            return os.path.join(out_dir, f"stage-{stage}-best.ckpt")
    return ""


def run_dir(rc: RunConfig) -> str:
    """The directory a run's checkpoints and training log go to."""
    return os.path.join(rc.out, f"{rc.variant}-T{rc.T}-s{rc.seed}-{config_digest(rc)}")


def _splits(rc: RunConfig, table: Optional[SeriesTable],
            data: Optional[DataSplits]) -> DataSplits:
    if data is not None:
        return data
    if table is None:
        table = load_table(rc)
    return prepare_data(table, rc.L, rc.split_mode, rc.standardize)


def setup_experiment(rc: RunConfig, table: Optional[SeriesTable] = None,
                     data: Optional[DataSplits] = None
                     ) -> tuple[ModelConfig, dict, DataSplits, str]:
    """Model config, freshly initialised params, data splits and run
    directory of a config. Given splits are used as they are; otherwise they
    are prepared from `table`, loaded from `rc.data_path` when absent."""
    data = _splits(rc, table, data)
    cfg = model_config(rc, data.train.channels)
    return cfg, init_params(cfg, rc.seed), data, run_dir(rc)


def run_single(rc: RunConfig, table: Optional[SeriesTable] = None,
               data: Optional[DataSplits] = None) -> tuple[ResultRecord, EvalReport]:
    """Train and evaluate one variant under one config."""
    if rc.variant == BASELINE_VARIANT:
        report = evaluate_persistence(_splits(rc, table, data), rc.L, rc.T, rc.batch_size)
        return result_record(rc, report), report

    cfg, params, data, out_dir = setup_experiment(rc, table, data)
    sched = schedule(rc)
    log = train_pipeline(params, cfg, data, sched, out_dir)
    report = evaluate(params, cfg, data, rc.batch_size)
    return result_record(rc, report, log, _final_checkpoint(out_dir, sched)), report


def _ablation_entry(rc: RunConfig, table: Optional[SeriesTable],
                    data: Optional[DataSplits]) -> ResultRecord:
    try:
        record, _ = run_single(rc, table, data)
    except Exception as exc:  # record the failure, keep the matrix running
        record = result_record(rc, error=f"{type(exc).__name__}: {exc}")
    return record


def run_ablation(variants: list[str], horizons: list[int],
                 base: RunConfig) -> list[ResultRecord]:
    """Train/evaluate every (variant, horizon) cell under the base config.

    The data splits are prepared once and shared by every cell; per-cell
    failures become failed records instead of aborting the matrix.
    """
    if not variants:
        raise ConfigError("ablation requires at least one variant")
    if len(set(variants)) != len(variants):
        raise ConfigError(f"duplicate variants in {variants}")
    if not horizons:
        raise ConfigError("ablation requires at least one horizon")
    if len(set(horizons)) != len(horizons):
        raise ConfigError(f"duplicate horizons in {horizons}")

    # every cell's config is checked before any cell runs
    cells = [replace(base, variant=tag, T=T) for T in horizons for tag in variants]
    # the splits depend on L, not on the horizon T
    data = prepare_data(load_table(base), base.L, base.split_mode, base.standardize)
    return [_ablation_entry(rc, None, data) for rc in cells]


def sweep_history(lengths: list[int], base: RunConfig) -> list[ResultRecord]:
    """One full pipeline per history length; the patch count follows L."""
    if not lengths:
        raise ConfigError("sweep requires at least one history length")
    if len(set(lengths)) != len(lengths):
        raise ConfigError(f"duplicate history lengths in {lengths}")
    for L in lengths:
        if L < base.PL:
            raise ConfigError(f"history length {L} is shorter than the patch length {base.PL}")
    table = load_table(base)
    records = []
    for L in lengths:
        rc = replace(base, L=L)
        records.append(_ablation_entry(rc, table, None))
    return records
