"""Experiment configuration, the ablation/sweep runners, and result records.

Run configs serialize to a flat dotted-key text format (one `key = value`
per line, canonical field order) so serialize -> parse -> serialize is
byte-stable and the config digest is independent of key ordering.
"""

from __future__ import annotations

import dataclasses
import math
import os
import re
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .checkpoint import apply_checkpoint, check_architecture, check_channels, read_checkpoint
from .data import SPLITS, SeriesTable, load_csv, mask_count, window_count
from .errors import ConfigError, ContractError, SizingError
from .model import ModelConfig, ModelSettings, init_params
from .synthetic import dataset_from_spec
from .training import (STAGES, DataSplits, EvalReport, StageSchedule, evaluate,
                       evaluate_persistence, prepare_data, stage_checkpoint, train_pipeline)

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
class RunConfig(ModelSettings, StageSchedule):
    """A whole run: the inherited model and schedule settings, data and output."""
    data_path: str = ""
    split_mode: str = "ratio"
    standardize: bool = True
    variant: str = "pat"
    out: str = "runs"
    profile: str = "paper"

    def __post_init__(self):
        """The inherited rules, then this class's keys and the mask-count rule."""
        ModelSettings.__post_init__(self)
        StageSchedule.__post_init__(self)
        for name, allowed in (("split_mode", SPLITS), ("profile", PROFILES)):
            if getattr(self, name) not in allowed:
                raise ConfigError(f"{_FIELD_KEYS[name][0]} must be one of {sorted(allowed)}, "
                                  f"got {getattr(self, name)}")
        if self.variant != BASELINE_VARIANT:
            variant_flags(self.variant)
        if self.pretrain_epochs > 0 and mask_count(self.mask_ratio, self.PN) == 0:
            raise ConfigError(f"train.mask_ratio {self.mask_ratio} masks no patch of the "
                              f"{self.PN} patches (model.L={self.L}, model.PL={self.PL}); pretraining "
                              f"needs at least one (train.pretrain_epochs = 0 runs without it)")


# field name -> (dotted key, parser)
_FIELD_KEYS = {
    "data_path": ("data.path", str),
    "split_mode": ("data.split", str),
    "standardize": ("data.standardize", None),
    "L": ("model.L", int),
    "T": ("model.T", int),
    "PL": ("model.PL", int),
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
    """Dotted-key text -> {RunConfig field: value}; unknown and repeated keys are rejected."""
    values: dict[str, object] = {}
    line_of: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        # a comment starts at a "#" that opens the line or follows whitespace
        line = re.sub(r"(^|\s)#.*", "", raw_line).strip()
        if not line:
            continue
        key, sep, raw = line.partition("=")
        if not sep:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw_line!r}")
        key = key.strip()
        if key not in _KEY_FIELDS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in line_of:
            raise ConfigError(f"config line {lineno}: {key} is already set on line {line_of[key]}")
        line_of[key] = lineno
        field, conv = _KEY_FIELDS[key]
        raw = raw.strip()
        try:
            values[field] = _parse_bool(raw) if conv is None else conv(raw)
        except ValueError:
            raise ConfigError(f"config line {lineno}: bad value for {key}: {raw!r}") from None
    return values


def parse_config(text: str, profile: Optional[str] = None,
                 overrides: Optional[dict] = None) -> RunConfig:
    """Parse dotted-key text, layering profile defaults under its values and
    the overrides that are not None on top; unknown keys are rejected."""
    values = _parse_fields(text)
    chosen = profile or values.get("profile", RunConfig.profile)
    flags = {k: v for k, v in (overrides or {}).items() if v is not None}
    return RunConfig(**{**PROFILES.get(chosen, {}), **values, "profile": chosen, **flags})


def load_config(path: str, profile: Optional[str] = None,
                overrides: Optional[dict] = None) -> RunConfig:
    """Read a config file and parse its text as `parse_config` does."""
    with open(path) as fh:
        return parse_config(fh.read(), profile, overrides)


def config_digest(rc: RunConfig) -> str:
    import hashlib
    return hashlib.sha256(serialize_config(rc).encode()).hexdigest()[:16]


def variant_flags(tag: str) -> dict:
    if tag == BASELINE_VARIANT:
        raise ConfigError(f"variant {tag!r} has no model; "
                          "baseline, ablate and sweep-history run it")
    if tag not in VARIANT_FLAGS:
        raise ConfigError(f"unknown variant {tag!r} in run.variant; choices: "
                          f"{sorted(VARIANT_FLAGS) + [BASELINE_VARIANT]}")
    return dict(VARIANT_FLAGS[tag])


def _inherited(rc: RunConfig, parent: type) -> dict:
    """The values `rc` holds for the fields it inherits from `parent`."""
    return {f.name: getattr(rc, f.name) for f in dataclasses.fields(parent)}


def model_config(rc: RunConfig, M: int) -> ModelConfig:
    return ModelConfig(M=M, **_inherited(rc, ModelSettings), **variant_flags(rc.variant))


def schedule(rc: RunConfig) -> StageSchedule:
    return StageSchedule(**_inherited(rc, StageSchedule))


def load_table(rc: RunConfig) -> SeriesTable:
    if not rc.data_path:
        raise ConfigError("data.path is not set: give a CSV file or a synthetic: spec")
    if rc.data_path.startswith("synthetic:"):
        return dataset_from_spec(rc.data_path)
    return load_csv(rc.data_path)


def load_splits(rc: RunConfig, table: Optional[SeriesTable] = None) -> DataSplits:
    """The splits `rc` describes, of `table` or else of the table it names."""
    return prepare_data(table or load_table(rc), rc.L, rc.split_mode, rc.standardize)


def check_streams(rc: RunConfig, data: DataSplits) -> None:
    """Refuse `rc` unless every split it reads holds a window of L + T rows:
    the test split for the persistence baseline, all three for a model."""
    names = ("test_ext",) if rc.variant == BASELINE_VARIANT else ("train", "val_ext", "test_ext")
    for name in names:
        rows = getattr(data, name).rows
        if window_count(rows, rc.L, rc.T) < 1:
            raise SizingError(f"the {name} split has {rows} rows, fewer than L + T = {rc.L + rc.T}")


@dataclass
class ResultRecord:
    """One line of `results.ndjson`: a run's config digest, cell, metrics and outcome."""
    digest: str
    variant: str
    L: int
    T: int
    seed: int
    mse: float
    mae: float
    per_horizon_mse: list[float]
    per_channel_mse: list[float]
    epochs_run: int
    seconds: float
    checkpoint: str
    status: str = "ok"
    error: str = ""

    def to_json(self) -> str:
        """One strict-JSON line: a missing or non-finite metric is null."""
        import json
        record = dataclasses.asdict(self)
        for key in ("mse", "mae"):
            record[key] = _finite_or_none(record[key])
        for key in ("per_horizon_mse", "per_channel_mse"):
            record[key] = [_finite_or_none(v) for v in record[key]]
        return json.dumps(record)


def _finite_or_none(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


def result_record(rc: RunConfig, report: Optional[EvalReport] = None,
                  log: Sequence[dict] = (), checkpoint: str = "",
                  error: str = "") -> ResultRecord:
    """The record of one run: `log` holds its training epochs, whose seconds
    count toward the wall time together with the evaluation's. A run without
    a report failed with `error`, and has no metrics."""
    nan = float("nan")
    seconds = sum(rec["seconds"] for rec in log) + (report.seconds if report else 0.0)
    return ResultRecord(digest=config_digest(rc), variant=rc.variant, L=rc.L, T=rc.T,
                        seed=rc.seed, mse=report.mse if report else nan,
                        mae=report.mae if report else nan,
                        per_horizon_mse=report.per_horizon_mse if report else [],
                        per_channel_mse=report.per_channel_mse if report else [],
                        epochs_run=len(log),
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


def run_dir(rc: RunConfig) -> str:
    """The directory a run's checkpoints and training log go to."""
    return os.path.join(rc.out, f"{rc.variant}-T{rc.T}-s{rc.seed}-{config_digest(rc)}")


def train_run(rc: RunConfig, data: Optional[DataSplits] = None,
              stages: Sequence[str] = STAGES, checkpoint: Optional[str] = None
              ) -> tuple[ModelConfig, dict, DataSplits, list[dict], str]:
    """Train `stages` of `rc`'s model on `data` (else `load_splits(rc)`) from the
    weights in `checkpoint`, if given. Returns the model config, weights, splits, epoch
    log and the checkpoint of the last stage that logged an epoch, else the given one."""
    unknown = [s for s in stages if s not in STAGES]
    if unknown:
        raise ContractError(f"unknown stages {unknown}; choices: {list(STAGES)}")
    data = data or load_splits(rc)
    check_streams(rc, data)
    cfg = model_config(rc, data.train.channels)
    params = init_params(cfg, rc.seed)
    if checkpoint is not None:
        tensors, record, channels = read_checkpoint(checkpoint)
        check_architecture(record, cfg, checkpoint)
        check_channels(channels, data.train.channel_names, checkpoint)
        apply_checkpoint(params, tensors)
    # a stage left out runs for 0 epochs: it logs nothing and writes no checkpoint
    sched = replace(schedule(rc), **{f"{s}_epochs": 0 for s in STAGES if s not in stages})
    out_dir = run_dir(rc)
    log = train_pipeline(params, cfg, data, sched, out_dir)
    final = stage_checkpoint(out_dir, log[-1]["stage"]) if log else checkpoint
    return cfg, params, data, log, final or ""


def run_single(rc: RunConfig, data: Optional[DataSplits] = None,
               stages: Sequence[str] = STAGES, checkpoint: Optional[str] = None
               ) -> tuple[ResultRecord, EvalReport]:
    """Train `rc` with `train_run` and evaluate it, or score its persistence baseline."""
    if rc.variant == BASELINE_VARIANT:
        if tuple(stages) != STAGES or checkpoint is not None:
            raise ConfigError(f"{BASELINE_VARIANT} trains no stage and loads no checkpoint")
        report = evaluate_persistence(data or load_splits(rc), rc.L, rc.T, rc.batch_size)
        return result_record(rc, report), report

    cfg, params, data, log, final = train_run(rc, data, stages, checkpoint)
    report = evaluate(params, cfg, data, rc.batch_size)
    return result_record(rc, report, log, final), report


def _check_items(items: list, command: str, item: str) -> None:
    if not items:
        raise ConfigError(f"{command} requires at least one {item}")
    if len(set(items)) != len(items):
        raise ConfigError(f"duplicate {item}s in {items}")


def _run_cells(cells: list[RunConfig], table: SeriesTable) -> list[ResultRecord]:
    """Run every cell on splits of `table`, prepared once per history length.
    Every cell's streams are checked before any cell trains; a cell that
    fails after that becomes a failed record instead of aborting the rest."""
    # the splits depend on L, not on the horizon or the variant
    splits: dict[int, DataSplits] = {}
    for rc in cells:
        if rc.L not in splits:
            splits[rc.L] = load_splits(rc, table)
        check_streams(rc, splits[rc.L])
    records = []
    for rc in cells:
        try:
            records.append(run_single(rc, splits[rc.L])[0])
        except Exception as exc:  # record the failure, keep the matrix running
            records.append(result_record(rc, error=f"{type(exc).__name__}: {exc}"))
    return records


def run_ablation(variants: list[str], horizons: list[int],
                 base: RunConfig) -> list[ResultRecord]:
    """Train/evaluate every (variant, horizon) cell under the base config;
    every cell's config is checked before the table is read."""
    _check_items(variants, "ablation", "variant")
    _check_items(horizons, "ablation", "horizon")
    cells = [replace(base, variant=tag, T=T) for T in horizons for tag in variants]
    return _run_cells(cells, load_table(base))


def sweep_history(lengths: list[int], base: RunConfig) -> list[ResultRecord]:
    """One full pipeline per history length; the patch count follows L."""
    _check_items(lengths, "sweep", "history length")
    cells = [replace(base, L=L) for L in lengths]
    return _run_cells(cells, load_table(base))
