"""Run configs, variant mapping, ablation/sweep runners, CLI behavior."""

import json
import os
import struct
import zlib
from dataclasses import fields, replace

import numpy as np
import pytest

from injecttst import harness
from injecttst.checkpoint import save_checkpoint
from injecttst.cli import main as cli_main
from injecttst.data import SPLITS, SeriesTable, split
from injecttst.errors import CheckpointError, ConfigError, ContractError, SizingError
from injecttst.harness import (BASELINE_VARIANT, VARIANT_FLAGS, RunConfig,
                               append_records, config_digest, load_config, model_config,
                               parse_config, run_ablation, run_single,
                               serialize_config, sweep_history, variant_flags)
from injecttst.model import ModelConfig, ModelSettings, init_params
from injecttst.synthetic import dataset_from_spec, lead_lag
from injecttst.training import EvalReport, StageSchedule, prepare_data
from test_data import save_csv

FAST = dict(data_path="synthetic:sines:rows=260,channels=2,seed=4",
            L=24, T=4, PL=8, D=8, heads=2, ci_layers=1, mix_layers=1,
            pretrain_epochs=0, head_epochs=1, finetune_epochs=1,
            batch_size=64, out="")


# ---------------------------------------------------------------------------
# config format

def test_config_roundtrip_byte_stable():
    rc = RunConfig(data_path="x.csv", T=192, seed=3, variant="cat-rc")
    text = serialize_config(rc)
    assert parse_config(text) == rc
    assert serialize_config(parse_config(text)) == text


_DEFAULT_TEXT = """\
data.path = 
data.split = ratio
data.standardize = true
model.L = 512
model.T = 96
model.PL = 12
model.D = 64
model.heads = 4
model.ci_layers = 2
model.mix_layers = 1
model.ffn_mult = 2
model.dropout = 0.0
train.pretrain_epochs = 20
train.head_epochs = 10
train.finetune_epochs = 100
train.pretrain_lr = 0.0001
train.head_lr = 0.001
train.finetune_lr = 0.0001
train.batch_size = 64
train.mask_ratio = 0.5
run.variant = pat
run.seed = 0
run.out = runs
run.profile = paper
"""


def test_default_config_text_and_digest_are_pinned():
    # the serialised key order, and with it every digest and run-directory
    # name, does not follow the order of RunConfig's (inherited) fields
    assert serialize_config(RunConfig()) == _DEFAULT_TEXT
    assert config_digest(RunConfig()) == "aa7eb49d02d43e49"


def test_run_config_checks_the_schedule_fields_it_inherits():
    assert isinstance(RunConfig(), StageSchedule)
    with pytest.raises(ConfigError, match="train.pretrain_epochs must be >= 0"):
        RunConfig(pretrain_epochs=-1)


def test_unknown_profile_is_a_config_error():
    # such a config would serialise to a file that load_config refuses
    with pytest.raises(ConfigError, match="run.profile"):
        RunConfig(profile="bogus")
    with pytest.raises(ConfigError, match="run.profile"):
        parse_config("run.profile = bogus\n")


def test_split_modes_are_exactly_the_keys_of_splits():
    table = SeriesTable(values=np.zeros((100, 1), np.float32), channel_names=["x"])
    for mode in SPLITS:
        split(table, mode)
        RunConfig(split_mode=mode)
    for mode in ("bogus", "ETT", ""):
        with pytest.raises(ContractError, match="unknown split mode"):
            split(table, mode)
        with pytest.raises(ConfigError, match="data.split"):
            RunConfig(split_mode=mode)


def test_config_digest_ignores_key_order():
    text = serialize_config(RunConfig(data_path="a.csv", seed=9))
    lines = [l for l in text.splitlines() if l]
    reordered = "\n".join(reversed(lines)) + "\n"
    assert config_digest(parse_config(text)) == config_digest(parse_config(reordered))


@pytest.mark.parametrize("line", ["model.depth = 4", "model.pre_norm = true",
                                  "model.share_cid = false", "model.S = 12"],
                         ids=["depth", "pre_norm", "share_cid", "S"])
def test_config_rejects_unknown_key(line):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(line + "\n")


def test_config_rejects_a_repeated_key():
    # were the last line to win, an appended line would silently change the run
    with pytest.raises(ConfigError, match="line 3: model.L is already set on line 2"):
        parse_config("data.path = x\nmodel.L = 48\nmodel.L = 96\n")


def test_cli_config_with_a_repeated_key_exits_2(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    with open(cfg_path, "a") as fh:
        fh.write("run.seed = 5\n")
    assert cli_main(["finetune", "--config", cfg_path]) == 2
    assert "ConfigError" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_config_file_reads_false_booleans(tmp_path):
    for raw in ("false", "0", "no"):
        p = tmp_path / "c.cfg"
        p.write_text(f"data.path = x.csv\ndata.standardize = {raw}\n")
        rc = load_config(str(p))
        assert rc.standardize is False
        assert "data.standardize = false\n" in serialize_config(rc)


def test_config_comments_and_blanks():
    rc = parse_config("# a comment\n\nmodel.L = 96  # trailing\nrun.seed = 2\n")
    assert rc.L == 96 and rc.seed == 2


def test_load_config_profile_layering(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("data.path = synthetic:sines:rows=100\ntrain.head_epochs = 7\n")
    rc = load_config(str(p), profile="desk")
    # profile default applies where the file is silent, file wins where set
    assert rc.pretrain_epochs == 5 and rc.finetune_epochs == 10
    assert rc.head_epochs == 7
    rc2 = load_config(str(p), profile="desk", overrides={"seed": 42, "T": None})
    assert rc2.seed == 42 and rc2.T == rc.T


def test_parse_config_layers_the_profile_as_load_config_does(tmp_path):
    text = "data.path = x.csv\nrun.profile = desk\n"
    p = tmp_path / "c.cfg"
    p.write_text(text)
    rc = parse_config(text)
    assert (rc.pretrain_epochs, rc.head_epochs, rc.finetune_epochs) == (5, 3, 10)
    assert load_config(str(p)) == rc
    flags = {"seed": 3, "T": None}
    assert load_config(str(p), "paper", flags) == parse_config(text, "paper", flags)


def test_flag_replaces_an_out_of_range_file_value(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("model.T = 0\nrun.variant = bogus\n")
    with pytest.raises(ConfigError):
        load_config(str(p))
    rc = load_config(str(p), overrides={"T": 4, "variant": "cat"})
    assert rc.T == 4 and rc.variant == "cat"


def test_mask_ratio_that_masks_no_patch_is_rejected_only_with_pretraining():
    # L=48, PL=12: 5 patches, and round(0.05 * 5) = 0
    small = dict(FAST, L=48, PL=12, mask_ratio=0.05)
    with pytest.raises(ConfigError, match=r"train\.mask_ratio .* 5 patches"):
        RunConfig(**{**small, "pretrain_epochs": 1})
    assert RunConfig(**small).pretrain_epochs == 0
    assert RunConfig(**{**small, "pretrain_epochs": 1, "mask_ratio": 0.1}).mask_ratio == 0.1


# ---------------------------------------------------------------------------
# variants

def test_variant_tags_map_to_unique_flag_assignments():
    seen = set()
    for tag, flags in VARIANT_FLAGS.items():
        key = tuple(sorted(flags.items()))
        assert key not in seen
        seen.add(key)
        assert set(flags) == {"mix_mode", "sca_residual",
                              "use_channel_identifier", "use_global_injection"}


def test_variant_flag_values():
    assert variant_flags("no-gi")["use_global_injection"] is False
    assert variant_flags("no-cid")["use_channel_identifier"] is False
    assert variant_flags("pat-rc")["sca_residual"] is True
    assert variant_flags("cat")["mix_mode"] == "cat"
    with pytest.raises(ConfigError):
        variant_flags("nope")


def test_model_config_from_run_config():
    rc = RunConfig(**FAST, variant="cat-rc")
    cfg = model_config(rc, M=2)
    assert isinstance(cfg, ModelConfig)
    assert cfg.mix_mode == "cat" and cfg.sca_residual and cfg.M == 2


# ---------------------------------------------------------------------------
# synthetic specs

def test_dataset_from_spec_parses_params():
    table = dataset_from_spec("synthetic:lead-lag:rows=50,lag=3,seed=2")
    assert table.rows == 50 and table.channels == 2


def test_dataset_from_spec_rejects_bad_input():
    with pytest.raises(ConfigError):
        dataset_from_spec("synthetic:unknown:rows=10")
    with pytest.raises(ConfigError):
        dataset_from_spec("synthetic:sines:bogus=1,rows=10")
    with pytest.raises(ConfigError):
        dataset_from_spec("synthetic:sines:seed=1")    # rows missing


# each spec is malformed in one way; none may reach a generator
_BAD_SPECS = {
    "item without =": "synthetic:sines:rows=100,channels",
    "int does not parse": "synthetic:sines:rows=abc",
    "float does not parse": "synthetic:lead-lag:rows=100,noise=loud",
    "rows negative": "synthetic:sines:rows=-5",
    "rows zero": "synthetic:lead-lag:rows=0",
    "channels zero": "synthetic:sines:rows=100,channels=0",
    "components zero": "synthetic:sines:rows=100,components=0",
    "smooth zero": "synthetic:lead-lag:rows=100,smooth=0",
    "lag zero": "synthetic:lead-lag:rows=100,lag=0",
    "seed negative": "synthetic:sines:rows=100,seed=-1",
    "noise negative": "synthetic:sines:rows=100,noise=-0.5",
    "noise infinite": "synthetic:lead-lag:rows=100,noise=inf",
    "second parameter list": "synthetic:sines:rows=50:channels=5",
    "item set twice": "synthetic:sines:rows=50,rows=80",
}


@pytest.mark.parametrize("case", sorted(_BAD_SPECS))
def test_cli_malformed_synthetic_spec_exits_2(tmp_path, capsys, case):
    cfg_path = _write_cfg(tmp_path, data_path=_BAD_SPECS[case])
    assert cli_main(["finetune", "--config", cfg_path]) == 2
    assert "ConfigError: synthetic spec" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_lead_lag_follower_tracks_driver():
    table = lead_lag(rows=300, lag=5, seed=0, noise=0.01)
    driver, follower = table.values[:, 0], table.values[:, 1]
    lagged_corr = np.corrcoef(driver[:-5], follower[5:])[0, 1]
    assert lagged_corr > 0.99


# ---------------------------------------------------------------------------
# runners

def test_run_single_emits_record(tmp_path):
    rc = RunConfig(**{**FAST, "out": str(tmp_path)}, variant="pat", seed=0)
    record, report = run_single(rc)
    assert record.status == "ok"
    assert record.variant == "pat" and record.T == 4 and record.L == 24
    assert record.mse == report.mse
    assert os.path.isfile(record.checkpoint)
    assert record.epochs_run == 2


def test_run_single_refuses_an_unknown_stage(tmp_path):
    # dropping a misspelled stage would score the initial weights as "ok"
    rc = RunConfig(**{**FAST, "out": str(tmp_path / "runs")})
    with pytest.raises(ContractError, match="'pretrian'"):
        run_single(rc, stages=("pretrian", "head"))
    assert not (tmp_path / "runs").exists()


def test_baseline_variant_needs_no_training(tmp_path):
    rc = RunConfig(**{**FAST, "out": str(tmp_path)}, variant=BASELINE_VARIANT)
    record, report = run_single(rc)
    assert record.checkpoint == "" and record.epochs_run == 0
    assert np.isfinite(record.mse)


def test_ablation_rejects_duplicates_and_unknown():
    rc = RunConfig(**FAST)
    with pytest.raises(ConfigError, match="duplicate"):
        run_ablation(["pat", "pat"], [4], rc)
    with pytest.raises(ConfigError, match="unknown variant"):
        run_ablation(["pat", "spooky"], [4], rc)
    with pytest.raises(ConfigError):
        run_ablation([], [4], rc)
    with pytest.raises(ConfigError):
        run_ablation(["pat"], [], rc)
    with pytest.raises(ConfigError, match="duplicate horizons"):
        run_ablation(["pat"], [4, 6, 4], rc)


def test_ablation_matrix_records(tmp_path):
    rc = RunConfig(**{**FAST, "out": str(tmp_path)})
    results = str(tmp_path / "results.ndjson")
    records = run_ablation(["pat", "no-gi"], [4, 5], rc)
    append_records(results, records)
    assert len(records) == 4
    assert {(r.variant, r.T) for r in records} == {("pat", 4), ("no-gi", 4),
                                                   ("pat", 5), ("no-gi", 5)}
    assert all(r.status == "ok" for r in records)
    lines = [json.loads(l) for l in open(results).read().splitlines()]
    assert len(lines) == 4 and lines[0]["digest"]


def test_single_variant_matrix_matches_direct_run(tmp_path):
    rc = RunConfig(**{**FAST, "out": str(tmp_path)})
    records = run_ablation(["pat"], [4], rc)
    direct, _ = run_single(replace(rc, variant="pat", T=4))
    assert records[0].mse == direct.mse and records[0].mae == direct.mae


def test_ablation_prepares_the_splits_once(tmp_path, monkeypatch):
    rc = RunConfig(**{**FAST, "out": str(tmp_path)})
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return prepare_data(*args, **kwargs)

    monkeypatch.setattr(harness, "prepare_data", counting)
    records = run_ablation(["pat", "no-gi"], [4, 6], rc)
    assert len(calls) == 1
    monkeypatch.undo()
    # each cell equals a run that prepares its own splits
    for r in records:
        direct, _ = run_single(replace(rc, variant=r.variant, T=r.T))
        assert (r.digest, r.mse, r.mae, r.epochs_run, r.checkpoint, r.status) == (
            direct.digest, direct.mse, direct.mae, direct.epochs_run,
            direct.checkpoint, direct.status)


def test_ablation_failure_becomes_failed_record(tmp_path):
    # history too short for one window makes that cell fail, not the matrix
    rc = RunConfig(**{**FAST, "out": str(tmp_path),
                      "data_path": "synthetic:sines:rows=40,channels=2,seed=4"})
    records = run_ablation(["pat"], [4], rc)
    assert records[0].status == "failed"
    assert "SizingError" in records[0].error


def test_sweep_history_recomputes_patch_count(tmp_path):
    rc = RunConfig(**{**FAST, "out": str(tmp_path),
                      "data_path": "synthetic:sines:rows=700,channels=2,seed=4",
                      "PL": 12})
    records = sweep_history([48, 96], rc)
    assert [r.L for r in records] == [48, 96]
    assert all(r.status == "ok" for r in records)
    assert model_config(replace(rc, L=48), 2).PN == 5
    assert model_config(replace(rc, L=96), 2).PN == 9


def test_sweep_history_validates_lengths():
    rc = RunConfig(**FAST)
    with pytest.raises(ConfigError):
        sweep_history([], rc)
    with pytest.raises(ConfigError, match="model.PL must be <= model.L"):
        sweep_history([4], rc)
    with pytest.raises(ConfigError, match="duplicate history lengths"):
        sweep_history([24, 32, 24], rc)


def test_sweep_history_checks_every_length_before_training(tmp_path):
    # 0.08 masks one of L=96's 9 patches but none of L=48's 5
    rc = RunConfig(**{**FAST, "out": str(tmp_path / "runs"), "L": 96, "PL": 12,
                      "pretrain_epochs": 1, "mask_ratio": 0.08})
    with pytest.raises(ConfigError, match="5 patches"):
        sweep_history([96, 48], rc)
    assert not (tmp_path / "runs").exists()


def test_record_reproducible_across_runs(tmp_path):
    rc = RunConfig(**{**FAST, "out": str(tmp_path)}, variant="pat", seed=5)
    a, _ = run_single(rc)
    b, _ = run_single(rc)
    assert a.mse == b.mse and a.mae == b.mae and a.digest == b.digest


def test_ablation_records_independent_of_execution_order(tmp_path):
    rc = RunConfig(**{**FAST, "out": str(tmp_path)})
    forward = {r.variant: r for r in run_ablation(["pat", "no-gi"], [4], rc)}
    reverse = {r.variant: r for r in run_ablation(["no-gi", "pat"], [4], rc)}
    for tag in ("pat", "no-gi"):
        assert forward[tag].mse == reverse[tag].mse
        assert forward[tag].mae == reverse[tag].mae


# ---------------------------------------------------------------------------
# CLI

def _write_cfg(tmp_path, **overrides):
    rc = RunConfig(**{**FAST, "out": str(tmp_path / "runs"), **overrides})
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(rc))
    return str(path)


def _set_key(cfg_path: str, key: str, value) -> None:
    """Rewrite the line of a `_write_cfg` file that sets `key`."""
    with open(cfg_path) as fh:
        lines = [f"{key} = {value}" if line.partition("=")[0].strip() == key else line
                 for line in fh.read().splitlines()]
    with open(cfg_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_cli_missing_config_exits_2(tmp_path, capsys):
    code = cli_main(["evaluate", "--config", str(tmp_path / "absent.cfg"),
                     "--checkpoint", "x.ckpt"])
    assert code == 2
    assert "absent.cfg" in capsys.readouterr().err


def test_cli_unknown_subcommand_exits_2(capsys):
    assert cli_main(["transmogrify"]) == 2


def test_cli_unknown_flag_exits_2(tmp_path, capsys):
    assert cli_main(["baseline", "--config", _write_cfg(tmp_path), "--frobnicate"]) == 2


# patches never overlap, so their stride is the patch length and no key sets
# it: a stride below it would show pretraining part of its masked values
_UNKNOWN_KEYS = {"unknown-key": "model.bogus", "patch-stride": "model.S"}


@pytest.mark.parametrize("case", ["unknown-key", "unknown-variant", "patch-stride"])
def test_cli_config_errors_exit_2(tmp_path, capsys, case):
    cfg_path = _write_cfg(tmp_path)
    if case in _UNKNOWN_KEYS:
        with open(cfg_path, "a") as fh:
            fh.write(f"{_UNKNOWN_KEYS[case]} = 1\n")
        argv = ["baseline", "--config", cfg_path]
    else:
        argv = ["pretrain", "--config", cfg_path, "--variant", "bogus"]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err
    if case in _UNKNOWN_KEYS:
        assert f"unknown key {_UNKNOWN_KEYS[case]!r}" in err


# each ordered key: its lowest accepted value, the value just below it, and
# the other settings that lowest value needs on top of FAST
_LIMITS = {
    "model.L": ("1", "0", dict(PL=1)), "model.T": ("1", "0", {}),
    "model.PL": ("1", "0", {}),
    "model.D": ("1", "0", dict(heads=1)), "model.heads": ("1", "0", {}),
    "model.ci_layers": ("0", "-1", {}), "model.mix_layers": ("0", "-1", {}),
    "model.ffn_mult": ("1", "0", {}), "model.dropout": ("0.0", "-1e-09", {}),
    "train.pretrain_epochs": ("0", "-1", {}), "train.head_epochs": ("0", "-1", {}),
    "train.finetune_epochs": ("0", "-1", {}),
    # a rate or mask ratio must be above 0: its lowest value is the least float
    "train.pretrain_lr": ("5e-324", "0.0", {}), "train.head_lr": ("5e-324", "0.0", {}),
    "train.finetune_lr": ("5e-324", "0.0", {}),
    "train.mask_ratio": ("5e-324", "0.0", dict(pretrain_epochs=0)),
    "train.batch_size": ("1", "0", {}), "run.seed": ("0", "-1", {}),
}
_CHOICES = ("data.split", "data.standardize", "run.variant", "run.profile")
_NOT_A_VALUE = ("nan", "inf", "4x")
_OUT_OF_RANGE = [("train.mask_ratio", "0"), ("train.mask_ratio", "1.5"),
                 ("train.batch_size", "0"), ("train.pretrain_epochs", "-1"),
                 ("model.heads", "0"), ("model.PL", "0"), ("train.pretrain_lr", "nan"),
                 ("train.pretrain_lr", "-1"), ("model.T", "0"), ("run.seed", "-1"),
                 ("train.batch_size", "abc"), ("data.split", "bogus"),
                 ("model.PL", "100"), ("run.profile", "bogus")]
# and for every key, each value below its lowest, NaN, an infinity and text
# that parses as no number
_OUT_OF_RANGE += [case for case in
                  [(key, v) for key, (_, below, _) in _LIMITS.items()
                   for v in (below,) + _NOT_A_VALUE]
                  + [(key, v) for key in _CHOICES for v in _NOT_A_VALUE] + [("data.path", "")]
                  if case not in _OUT_OF_RANGE]


@pytest.mark.parametrize("key,value", _OUT_OF_RANGE,
                         ids=[f"{k}={v}" for k, v in _OUT_OF_RANGE])
def test_cli_out_of_range_setting_is_a_config_error(tmp_path, capsys, key, value):
    cfg_path = _write_cfg(tmp_path, pretrain_epochs=1)
    _set_key(cfg_path, key, value)
    assert cli_main(["pretrain", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and key in err
    assert not (tmp_path / "runs").exists()


def test_the_key_table_covers_every_config_key():
    # data.path accepts any non-empty name and run.out any name at all
    covered = set(_LIMITS) | set(_CHOICES) | {"data.path", "run.out"}
    assert covered == {key for key, _ in harness._FIELD_KEYS.values()}


@pytest.mark.parametrize("key", list(_LIMITS))
def test_cli_accepts_the_lowest_value_of_every_key(tmp_path, capsys, key):
    lowest, _, needs = _LIMITS[key]
    cfg_path = _write_cfg(tmp_path, **needs)
    _set_key(cfg_path, key, lowest)
    assert cli_main(["baseline", "--config", cfg_path]) == 0, capsys.readouterr().err


_NEEDS = {"finetune": [], "evaluate": ["--checkpoint", "x.ckpt"], "baseline": [],
          "pretrain": [], "ablate": ["--variants", "pat"], "sweep-history": ["--lengths", "24"]}


@pytest.mark.parametrize("command", list(_NEEDS))
def test_cli_config_without_data_path_exits_2_naming_it(tmp_path, capsys, command):
    text = serialize_config(RunConfig(**{**FAST, "out": str(tmp_path / "runs")}))
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("".join(line for line in text.splitlines(keepends=True)
                                if not line.startswith("data.path")))
    assert cli_main([command, "--config", str(cfg_path)] + _NEEDS[command]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and "data.path" in err, err
    assert not (tmp_path / "runs").exists()


def test_each_setting_is_declared_in_one_class():
    def own(cls):
        return list(cls.__dict__["__annotations__"])

    assert own(RunConfig) == ["data_path", "split_mode", "standardize", "variant", "out",
                              "profile"]
    declared = own(RunConfig) + own(ModelSettings) + own(StageSchedule)
    assert sorted(declared) == sorted(harness._FIELD_KEYS)
    assert [len(fields(c)) for c in (RunConfig, ModelConfig, StageSchedule)] == [24, 14, 9]


def test_cli_pretrain_mask_ratio_that_masks_no_patch_exits_2(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, L=48, PL=12, pretrain_epochs=1)
    _set_key(cfg_path, "train.mask_ratio", 0.05)
    assert cli_main(["pretrain", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and "train.mask_ratio" in err and "5 patches" in err
    assert not (tmp_path / "runs").exists()


def test_cli_finetune_checks_mask_ratio_unless_pretraining_is_off(tmp_path, capsys):
    # the config describes the whole run, so finetune rejects it too
    cfg_path = _write_cfg(tmp_path, L=48, PL=12, pretrain_epochs=1, mask_ratio=0.1)
    with open(cfg_path) as fh:
        text = fh.read().replace("train.mask_ratio = 0.1", "train.mask_ratio = 0.05")
    with open(cfg_path, "w") as fh:
        fh.write(text)
    assert cli_main(["finetune", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert "train.mask_ratio" in err and "train.pretrain_epochs = 0" in err
    assert not (tmp_path / "runs").exists()
    with open(cfg_path, "w") as fh:
        fh.write(text.replace("train.pretrain_epochs = 1", "train.pretrain_epochs = 0"))
    assert cli_main(["finetune", "--config", cfg_path]) == 0


def test_cli_ablate_zero_horizon_is_a_config_error(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    assert cli_main(["ablate", "--config", cfg_path, "--variants", "pat",
                     "--horizons", "4,0"]) == 2
    assert "model.T" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


_BAD_LISTS = [("ablate", "--horizons", "4,x", "--horizons item 'x'"),
              ("sweep-history", "--lengths", "24,abc", "--lengths item 'abc'"),
              ("ablate", "--horizons", "4,4", "duplicate horizons"),
              ("sweep-history", "--lengths", "24,24", "duplicate history lengths")]


@pytest.mark.parametrize("command,flag,value,named", _BAD_LISTS,
                         ids=[f"{c}{f}={v}" for c, f, v, _ in _BAD_LISTS])
def test_cli_bad_list_flag_is_a_config_error(tmp_path, capsys, command, flag, value, named):
    argv = [command, "--config", _write_cfg(tmp_path), flag, value]
    if command == "ablate":
        argv += ["--variants", "pat"]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and named in err
    assert not (tmp_path / "runs").exists()


def test_cli_baseline_rejects_unknown_variant(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    assert cli_main(["baseline", "--config", cfg_path, "--variant", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and "'bogus'" in err
    assert not os.path.exists(os.path.join(str(tmp_path / "runs"), "results.ndjson"))


def test_cli_pretrain_and_finetune_write_one_log_line_per_epoch(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, pretrain_epochs=2, head_epochs=1, finetune_epochs=2)
    assert cli_main(["pretrain", "--config", cfg_path]) == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    printed = f"pretrain: 2 epochs, checkpoint {run_dir / 'stage-pretrain-best.ckpt'}"
    assert printed in capsys.readouterr().out
    assert (run_dir / "stage-pretrain-best.ckpt").is_file()
    log_path = run_dir / "train_log.ndjson"
    records = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert [(r["stage"], r["epoch"]) for r in records] == [("pretrain", 1), ("pretrain", 2)]
    assert cli_main(["finetune", "--config", cfg_path]) == 0
    records = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert [(r["stage"], r["epoch"]) for r in records][2:] == [
        ("head", 1), ("finetune", 1), ("finetune", 2)]
    assert all(np.isfinite(r["train_loss"]) and np.isfinite(r["val_loss"]) for r in records)


def test_cli_finetune_record_counts_training_time(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, head_epochs=2, finetune_epochs=2)
    assert cli_main(["finetune", "--config", cfg_path]) == 0
    (run_dir,) = [p for p in (tmp_path / "runs").iterdir() if p.is_dir()]
    log = [json.loads(line) for line in (run_dir / "train_log.ndjson").read_text().splitlines()]
    trained = sum(r["seconds"] for r in log if r["stage"] in ("head", "finetune"))
    results = os.path.join(str(tmp_path / "runs"), "results.ndjson")
    record = json.loads(open(results).read().splitlines()[-1])
    assert record["epochs_run"] == 4
    assert record["seconds"] >= round(trained, 3)


def _last_record(tmp_path) -> dict:
    results = os.path.join(str(tmp_path / "runs"), "results.ndjson")
    return json.loads(open(results).read().splitlines()[-1])


def test_cli_finetune_records_the_last_checkpoint_written(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, head_epochs=1, finetune_epochs=0)
    assert cli_main(["finetune", "--config", cfg_path]) == 0
    record = _last_record(tmp_path)
    assert os.path.basename(record["checkpoint"]) == "stage-head-best.ckpt"
    assert os.path.isfile(record["checkpoint"]) and record["epochs_run"] == 1


def test_cli_finetune_without_epochs_records_the_given_checkpoint(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, pretrain_epochs=1, head_epochs=0, finetune_epochs=0)
    assert cli_main(["pretrain", "--config", cfg_path]) == 0
    (run_dir,) = [p for p in (tmp_path / "runs").iterdir() if p.is_dir()]
    given = str(run_dir / "stage-pretrain-best.ckpt")
    assert cli_main(["finetune", "--config", cfg_path, "--checkpoint", given]) == 0
    record = _last_record(tmp_path)
    assert record["checkpoint"] == given and record["epochs_run"] == 0


def test_cli_baseline_and_evaluate_happy_path(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    assert cli_main(["baseline", "--config", cfg_path]) == 0
    assert cli_main(["pretrain", "--config", cfg_path]) == 0

    # train something to get a checkpoint, then evaluate it
    assert cli_main(["finetune", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    results = os.path.join(str(tmp_path / "runs"), "results.ndjson")
    lines = open(results).read().splitlines()
    assert len(lines) == 2          # baseline + finetune
    ckpt = json.loads(lines[-1])["checkpoint"]
    assert cli_main(["evaluate", "--config", cfg_path, "--checkpoint", ckpt]) == 0
    lines = open(results).read().splitlines()
    assert len(lines) == 3


def test_cli_evaluate_empty_checkpoint_fails(tmp_path, capsys):
    # an empty path names no weights: scoring fresh parameters would be a
    # silent wrong answer
    cfg_path = _write_cfg(tmp_path)
    assert cli_main(["evaluate", "--config", cfg_path, "--checkpoint", ""]) != 0
    assert not os.path.exists(os.path.join(str(tmp_path / "runs"), "results.ndjson"))


def test_cli_ablate_enumeration(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    assert cli_main(["ablate", "--config", cfg_path, "--variants", "pat,no-gi"]) == 0
    results = os.path.join(str(tmp_path / "runs"), "results.ndjson")
    records = [json.loads(l) for l in open(results).read().splitlines()]
    assert len(records) == 2
    assert {r["variant"] for r in records} == {"pat", "no-gi"}


def test_cli_sweep_history(tmp_path):
    cfg_path = _write_cfg(tmp_path,
                          data_path="synthetic:sines:rows=400,channels=2,seed=4")
    assert cli_main(["sweep-history", "--config", cfg_path, "--lengths", "24,32"]) == 0


def test_cli_flag_overrides_config(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    assert cli_main(["baseline", "--config", cfg_path, "--seed", "77",
                     "--pred-len", "5"]) == 0
    results = os.path.join(str(tmp_path / "runs"), "results.ndjson")
    record = json.loads(open(results).read().splitlines()[-1])
    assert record["seed"] == 77 and record["T"] == 5


def _strict_json(line: str) -> dict:
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(line, parse_constant=reject)


def _strict_records(tmp_path) -> list[dict]:
    results = os.path.join(str(tmp_path / "runs"), "results.ndjson")
    return [_strict_json(line) for line in open(results).read().splitlines()]


def test_cli_failed_ablation_cell_writes_strict_json(tmp_path, capsys):
    # history too short for one window: the cell fails and has no metrics
    cfg_path = _write_cfg(tmp_path, data_path="synthetic:sines:rows=40,channels=2,seed=4")
    assert cli_main(["ablate", "--config", cfg_path, "--variants", "pat"]) == 1
    assert [(r["status"], r["mse"], r["mae"], r["per_horizon_mse"], r["per_channel_mse"])
            for r in _strict_records(tmp_path)] == [("failed", None, None, [], [])]


def test_cli_records_carry_per_horizon_and_per_channel_mse(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    variants = ["pat", BASELINE_VARIANT]
    assert cli_main(["ablate", "--config", cfg_path, "--variants", ",".join(variants)]) == 0
    records = _strict_records(tmp_path)
    assert [r["variant"] for r in records] == variants
    for r in records:
        horizon, channel = r["per_horizon_mse"], r["per_channel_mse"]
        assert len(horizon) == FAST["T"] and len(channel) == 2
        assert all(isinstance(v, float) and v > 0 for v in horizon + channel)
        # both are means of the same (channel, step) grid whose mean is mse
        assert abs(np.mean(horizon) - r["mse"]) <= 1e-12 * r["mse"]
        assert abs(np.mean(channel) - r["mse"]) <= 1e-12 * r["mse"]


def test_a_non_finite_per_horizon_or_per_channel_mse_is_written_as_null():
    nan, inf = float("nan"), float("inf")
    report = EvalReport(mse=nan, mae=0.5, per_horizon_mse=[1.0, nan],
                        per_channel_mse=[inf, 2.0], n_windows=3, seconds=0.0)
    record = _strict_json(harness.result_record(RunConfig(**FAST), report).to_json())
    assert (record["mse"], record["mae"]) == (None, 0.5)
    assert record["per_horizon_mse"] == [1.0, None]
    assert record["per_channel_mse"] == [None, 2.0]


def test_sweep_history_prepares_every_length_before_any_cell_trains(tmp_path, monkeypatch):
    rc = RunConfig(**{**FAST, "out": str(tmp_path),
                      "data_path": "synthetic:sines:rows=400,channels=2,seed=4"})
    events, train_pipeline = [], harness.train_pipeline

    def preparing(*args, **kwargs):
        events.append(("prepare", args[1]))
        return prepare_data(*args, **kwargs)

    def training(*args, **kwargs):
        events.append("train")
        return train_pipeline(*args, **kwargs)

    monkeypatch.setattr(harness, "prepare_data", preparing)
    monkeypatch.setattr(harness, "train_pipeline", training)
    records = sweep_history([24, 32], rc)
    assert events == [("prepare", 24), ("prepare", 32), "train", "train"]
    monkeypatch.undo()
    # each cell equals a run that prepares its own splits
    for r in records:
        direct, _ = run_single(replace(rc, L=r.L))
        assert (r.digest, r.mse, r.mae, r.epochs_run, r.checkpoint, r.status) == (
            direct.digest, direct.mse, direct.mae, direct.epochs_run,
            direct.checkpoint, direct.status)


def test_sweep_history_table_too_short_to_split_fails_before_any_cell(tmp_path):
    rc = RunConfig(**{**FAST, "out": str(tmp_path / "runs"),
                      "data_path": "synthetic:sines:rows=9,channels=2,seed=4"})
    with pytest.raises(SizingError, match="too few rows to split"):
        sweep_history([24, 32], rc)
    assert not (tmp_path / "runs").exists()


def test_run_single_without_epochs_records_no_checkpoint(tmp_path):
    rc = RunConfig(**{**FAST, "out": str(tmp_path / "runs"), "head_epochs": 0,
                      "finetune_epochs": 0})
    record, report = run_single(rc)
    assert (record.status, record.checkpoint, record.epochs_run) == ("ok", "", 0)
    assert record.mse == report.mse
    assert not (tmp_path / "runs").exists()


def test_cli_pretrain_without_epochs_creates_no_run_directory(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, pretrain_epochs=0)
    assert cli_main(["pretrain", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "pretrain: 0 epochs, no checkpoint written" in out
    assert str(tmp_path / "runs") not in out
    assert not (tmp_path / "runs").exists()


def test_cli_evaluate_creates_no_run_directory(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    ckpt = str(tmp_path / "given.ckpt")
    save_checkpoint(init_params(model_config(RunConfig(**FAST), 2), 3), ckpt)
    assert cli_main(["evaluate", "--config", cfg_path, "--checkpoint", ckpt]) == 0
    # the results file is all it writes: no run directory, no train_log.ndjson
    assert os.listdir(str(tmp_path / "runs")) == ["results.ndjson"]
    record = _last_record(tmp_path)
    assert (record["checkpoint"], record["epochs_run"]) == (ckpt, 0)


def test_cli_csv_table_scores_as_its_synthetic_spec(tmp_path, capsys):
    spec = FAST["data_path"]
    csv_path = str(tmp_path / "table.csv")
    save_csv(dataset_from_spec(spec), csv_path)
    for data_path in (csv_path, spec):
        path = tmp_path / "run.cfg"
        path.write_text(serialize_config(RunConfig(**{**FAST, "out": str(tmp_path / "runs"),
                                                      "data_path": data_path})))
        assert cli_main(["finetune", "--config", str(path)]) == 0
    results = os.path.join(str(tmp_path / "runs"), "results.ndjson")
    on_csv, on_spec = [json.loads(line) for line in open(results).read().splitlines()]
    assert on_csv["digest"] != on_spec["digest"]
    assert (on_csv["mse"], on_csv["mae"]) == (on_spec["mse"], on_spec["mae"])


def test_cli_evaluate_rejects_a_checkpoint_of_another_horizon(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, T=16)
    ckpt = str(tmp_path / "t8.ckpt")
    save_checkpoint(init_params(model_config(RunConfig(**{**FAST, "T": 8}), 2), 3), ckpt)
    assert cli_main(["evaluate", "--config", cfg_path, "--checkpoint", ckpt]) == 1
    err = capsys.readouterr().err
    assert "CheckpointError" in err and "forecast_head" in err
    assert not (tmp_path / "runs").exists()


def test_cli_pretrain_says_which_subcommands_run_the_baseline_variant(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    assert cli_main(["pretrain", "--config", cfg_path, "--variant", BASELINE_VARIANT]) == 2
    err = capsys.readouterr().err
    assert "has no model" in err and "baseline, ablate and sweep-history" in err
    assert "unknown variant" not in err


def test_cli_evaluate_rejects_a_non_finite_checkpoint(tmp_path, capsys):
    # scoring a NaN weight would write "status": "ok" with a null mse
    cfg_path = _write_cfg(tmp_path)
    params = init_params(model_config(RunConfig(**FAST), 2), 3)
    params["patch_proj"].data = params["patch_proj"].data.copy()
    params["patch_proj"].data[0, 0] = 12345.0
    ckpt = tmp_path / "nan.ckpt"
    save_checkpoint(params, str(ckpt))
    # save_checkpoint refuses a NaN, so the marker becomes one in the saved bytes
    marker = struct.pack("<f", 12345.0)
    body = ckpt.read_bytes()[:-4]
    assert body.count(marker) == 1
    body = body.replace(marker, struct.pack("<f", np.nan))
    ckpt.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    assert cli_main(["evaluate", "--config", cfg_path, "--checkpoint", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert "CheckpointError" in err and "'patch_proj'" in err
    assert not (tmp_path / "runs").exists()


def test_cli_evaluate_rejects_a_checkpoint_of_another_variant(tmp_path, capsys):
    # no-gi and no-cid read a subset of pat's tensors: loading pat's weights
    # into them would score a different model than the one trained
    cfg_path = _write_cfg(tmp_path, variant="pat")
    assert cli_main(["finetune", "--config", cfg_path]) == 0
    ckpt = _last_record(tmp_path)["checkpoint"]
    capsys.readouterr()
    for variant in ("no-gi", "no-cid"):
        argv = ["evaluate", "--config", cfg_path, "--variant", variant, "--checkpoint", ckpt]
        assert cli_main(argv) == 1
        assert "CheckpointError" in capsys.readouterr().err
    assert len(open(os.path.join(str(tmp_path / "runs"), "results.ndjson")).readlines()) == 1


# Names and shapes do not pin down the architecture: each of these loads
# succeeds and silently scores another model until checkpoints record it
_ANOTHER_ARCHITECTURE = [({}, {"variant": "pat-rc"}), ({}, {"heads": 2}),
                         ({"PL": 24}, {"variant": "cat"})]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("settings,change", _ANOTHER_ARCHITECTURE,
                         ids=["pat-as-pat-rc", "heads-4-as-2", "pat-as-cat-L=M*PL"])
def test_a_checkpoint_of_another_architecture_is_refused(tmp_path, settings, change):
    # a desk pat run (the README demo config), trained for one head epoch
    rc = RunConfig(data_path="synthetic:lead-lag:rows=900,lag=6,seed=7", L=48, T=8, D=32,
                   ci_layers=1, batch_size=32, out=str(tmp_path), profile="desk",
                   **{**harness.PROFILES["desk"], "head_epochs": 1}, **settings)
    *_, path = harness.train_run(rc, stages=("head",))
    other = replace(rc, **change)
    if other.variant == "cat":
        # the cat mixer's projection then has the rows of the pat mixer's
        assert other.L == 2 * other.PL
    with pytest.raises(CheckpointError):
        harness.train_run(other, stages=(), checkpoint=path)


@pytest.mark.parametrize("command", ["finetune", "evaluate"])
def test_cli_baseline_variant_loads_and_trains_nothing(tmp_path, capsys, command):
    cfg_path = _write_cfg(tmp_path)
    argv = [command, "--config", cfg_path, "--variant", BASELINE_VARIANT]
    if command == "evaluate":
        argv += ["--checkpoint", str(tmp_path / "absent.ckpt")]
    assert cli_main(argv) == 2
    assert "ConfigError" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()
