"""Batch command-line interface.

Subcommands: pretrain, finetune, evaluate, ablate, sweep-history, baseline.
Exit codes: 0 success, 1 runtime failure, 2 usage/config errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Optional

from .checkpoint import apply_checkpoint, load_checkpoint
from .errors import ConfigError
from .harness import (BASELINE_VARIANT, ResultRecord, append_record,
                      config_digest, format_table, load_config, load_table,
                      model_config, run_ablation, run_single, schedule,
                      sweep_history, variant_flags)
from .model import init_params
from .training import evaluate, prepare_data, run_stage, train_log_sink

_COMMON_FLAGS = (
    ("--config", dict(metavar="PATH", required=True, help="run config file")),
    ("--seed", dict(type=int, default=None, help="override run.seed")),
    ("--variant", dict(default=None, help="override run.variant")),
    ("--pred-len", dict(type=int, default=None, dest="pred_len",
                        help="override model.T")),
    ("--out", dict(default=None, help="override run.out directory")),
    ("--profile", dict(choices=("paper", "desk"), default=None,
                       help="schedule profile")),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="injecttst")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name)
        for flag, kwargs in _COMMON_FLAGS:
            p.add_argument(flag, **kwargs)
        return p

    command("pretrain")
    command("finetune").add_argument("--checkpoint", default=None,
                                     help="pretrained weights to start from")
    command("evaluate").add_argument("--checkpoint", required=True,
                                     help="weights to evaluate")
    ablate = command("ablate")
    ablate.add_argument("--variants", required=True, help="comma-separated variant tags")
    ablate.add_argument("--horizons", default=None, help="comma-separated prediction lengths")
    command("sweep-history").add_argument("--lengths", required=True,
                                          help="comma-separated history lengths")
    command("baseline")
    return parser


def _load(args) -> "RunConfig":
    overrides = {"seed": args.seed, "variant": args.variant,
                 "T": args.pred_len, "out": args.out}
    rc = load_config(args.config, profile=args.profile, overrides=overrides)
    if rc.variant != BASELINE_VARIANT:
        variant_flags(rc.variant)       # an unknown variant is a ConfigError
    return rc


def _results_path(rc) -> str:
    return os.path.join(rc.out, "results.ndjson")


def _run(args) -> int:
    if not os.path.isfile(args.config):
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return 2
    rc = _load(args)

    if args.command == "pretrain":
        table = load_table(rc)
        data = prepare_data(table, rc.L, rc.split_mode, rc.standardize)
        cfg = model_config(rc, table.channels)
        params = init_params(cfg, rc.seed)
        out_dir = os.path.join(rc.out, f"{rc.variant}-T{rc.T}-s{rc.seed}-{config_digest(rc)}")
        log = run_stage("pretrain", params, cfg, data, schedule(rc), out_dir,
                        train_log_sink(out_dir))
        print(f"pretrain: {len(log)} epochs, checkpoint in {out_dir}")
        return 0

    if args.command == "finetune":
        table = load_table(rc)
        data = prepare_data(table, rc.L, rc.split_mode, rc.standardize)
        cfg = model_config(rc, table.channels)
        params = init_params(cfg, rc.seed)
        if args.checkpoint:
            apply_checkpoint(params, load_checkpoint(args.checkpoint))
        out_dir = os.path.join(rc.out, f"{rc.variant}-T{rc.T}-s{rc.seed}-{config_digest(rc)}")
        sched = schedule(rc)
        sink = train_log_sink(out_dir)
        for stage in ("head", "finetune"):
            run_stage(stage, params, cfg, data, sched, out_dir, sink)
        report = evaluate(params, cfg, data, rc.batch_size)
        record = ResultRecord(digest=config_digest(rc), variant=rc.variant,
                              L=rc.L, T=rc.T, seed=rc.seed, mse=report.mse,
                              mae=report.mae,
                              epochs_run=rc.head_epochs + rc.finetune_epochs,
                              seconds=report.seconds,
                              checkpoint=os.path.join(out_dir, "stage-finetune-best.ckpt"))
        append_record(_results_path(rc), record)
        print(format_table([record]))
        return 0

    if args.command == "evaluate":
        table = load_table(rc)
        data = prepare_data(table, rc.L, rc.split_mode, rc.standardize)
        cfg = model_config(rc, table.channels)
        params = init_params(cfg, rc.seed)
        apply_checkpoint(params, load_checkpoint(args.checkpoint))
        report = evaluate(params, cfg, data, rc.batch_size)
        record = ResultRecord(digest=config_digest(rc), variant=rc.variant,
                              L=rc.L, T=rc.T, seed=rc.seed, mse=report.mse,
                              mae=report.mae, epochs_run=0,
                              seconds=report.seconds, checkpoint=args.checkpoint)
        append_record(_results_path(rc), record)
        print(format_table([record]))
        return 0

    if args.command == "ablate":
        variants = [v.strip() for v in args.variants.split(",") if v.strip()]
        horizons = ([int(h) for h in args.horizons.split(",")]
                    if args.horizons else [rc.T])
        records = run_ablation(variants, horizons, rc, _results_path(rc))
        print(format_table(records))
        return 0 if all(r.status == "ok" for r in records) else 1

    if args.command == "sweep-history":
        lengths = [int(x) for x in args.lengths.split(",") if x.strip()]
        records = sweep_history(lengths, rc, _results_path(rc))
        print(format_table(records))
        return 0 if all(r.status == "ok" for r in records) else 1

    if args.command == "baseline":
        record, _ = run_single(replace(rc, variant=BASELINE_VARIANT))
        append_record(_results_path(rc), record)
        print(format_table([record]))
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
