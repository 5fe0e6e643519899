"""Run configs, variant mapping, ablation/sweep runners, CLI behavior."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from injecttst.cli import main as cli_main
from injecttst.errors import ConfigError
from injecttst.harness import (BASELINE_VARIANT, VARIANT_FLAGS, RunConfig,
                               append_records, config_digest, load_config, model_config,
                               parse_config, run_ablation, run_single,
                               serialize_config, sweep_history, variant_flags)
from injecttst.model import ModelConfig
from injecttst.synthetic import dataset_from_spec, lead_lag

FAST = dict(data_path="synthetic:sines:rows=260,channels=2,seed=4",
            L=24, T=4, PL=8, S=8, D=8, heads=2, ci_layers=1, mix_layers=1,
            pretrain_epochs=0, head_epochs=1, finetune_epochs=1,
            batch_size=64, out="")


# ---------------------------------------------------------------------------
# config format

def test_config_roundtrip_byte_stable():
    rc = RunConfig(data_path="x.csv", T=192, seed=3, variant="cat-rc")
    text = serialize_config(rc)
    assert parse_config(text) == rc
    assert serialize_config(parse_config(text)) == text


def test_config_digest_ignores_key_order():
    text = serialize_config(RunConfig(data_path="a.csv", seed=9))
    lines = [l for l in text.splitlines() if l]
    reordered = "\n".join(reversed(lines)) + "\n"
    assert config_digest(parse_config(text)) == config_digest(parse_config(reordered))


@pytest.mark.parametrize("line", ["model.depth = 4", "model.pre_norm = true",
                                  "model.share_cid = false"],
                         ids=["depth", "pre_norm", "share_cid"])
def test_config_rejects_unknown_key(line):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(line + "\n")


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
                      "PL": 12, "S": 12})
    records = sweep_history([48, 96], rc)
    assert [r.L for r in records] == [48, 96]
    assert all(r.status == "ok" for r in records)
    assert model_config(replace(rc, L=48), 2).PN == 5
    assert model_config(replace(rc, L=96), 2).PN == 9


def test_sweep_history_validates_lengths():
    rc = RunConfig(**FAST)
    with pytest.raises(ConfigError):
        sweep_history([], rc)
    with pytest.raises(ConfigError, match="shorter than the patch"):
        sweep_history([4], rc)


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


def test_cli_missing_config_exits_2(tmp_path, capsys):
    code = cli_main(["evaluate", "--config", str(tmp_path / "absent.cfg"),
                     "--checkpoint", "x.ckpt"])
    assert code == 2
    assert "absent.cfg" in capsys.readouterr().err


def test_cli_unknown_subcommand_exits_2(capsys):
    assert cli_main(["transmogrify"]) == 2


def test_cli_unknown_flag_exits_2(tmp_path, capsys):
    assert cli_main(["baseline", "--config", _write_cfg(tmp_path), "--frobnicate"]) == 2


@pytest.mark.parametrize("case", ["unknown-key", "unknown-variant"])
def test_cli_config_errors_exit_2(tmp_path, capsys, case):
    cfg_path = _write_cfg(tmp_path)
    if case == "unknown-key":
        with open(cfg_path, "a") as fh:
            fh.write("model.bogus = 1\n")
        argv = ["baseline", "--config", cfg_path]
    else:
        argv = ["pretrain", "--config", cfg_path, "--variant", "bogus"]
    assert cli_main(argv) == 2
    assert "ConfigError" in capsys.readouterr().err


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
