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

from .errors import ConfigError
from .harness import (BASELINE_VARIANT, PROFILES, append_records, format_table,
                      load_config, run_ablation, run_single, sweep_history, train_run)

_COMMON_FLAGS = (
    ("--config", dict(metavar="PATH", required=True, help="run config file")),
    ("--seed", dict(type=int, default=None, help="override run.seed")),
    ("--variant", dict(default=None, help="override run.variant")),
    ("--pred-len", dict(type=int, default=None, dest="pred_len",
                        help="override model.T")),
    ("--out", dict(default=None, help="override run.out directory")),
    ("--profile", dict(choices=tuple(PROFILES), default=None,
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


def _int_list(text: str, flag: str) -> list[int]:
    """The comma-separated integers of a list flag; blank items are skipped."""
    values = []
    for item in (part.strip() for part in text.split(",")):
        if not item:
            continue
        try:
            values.append(int(item))
        except ValueError:
            raise ConfigError(f"{flag} item {item!r} is not an integer") from None
    return values


def _report(rc, records: list) -> int:
    """Append the records to `<out>/results.ndjson` and print their table;
    the exit code is 1 when any of them failed."""
    append_records(os.path.join(rc.out, "results.ndjson"), records)
    print(format_table(records))
    return 0 if all(r.status == "ok" for r in records) else 1


def _run(args) -> int:
    if not os.path.isfile(args.config):
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return 2
    rc = load_config(args.config, profile=args.profile,
                     overrides={"seed": args.seed, "variant": args.variant,
                                "T": args.pred_len, "out": args.out})

    if args.command == "pretrain":
        *_, log, saved = train_run(rc, stages=("pretrain",))
        saved = f"checkpoint {saved}" if saved else "no checkpoint written"
        print(f"pretrain: {len(log)} epochs, {saved}")
        return 0

    if args.command in ("finetune", "evaluate"):
        stages = ("head", "finetune") if args.command == "finetune" else ()
        record, _ = run_single(rc, stages=stages, checkpoint=args.checkpoint)
        return _report(rc, [record])

    if args.command == "ablate":
        variants = [v.strip() for v in args.variants.split(",") if v.strip()]
        horizons = _int_list(args.horizons, "--horizons") if args.horizons else [rc.T]
        return _report(rc, run_ablation(variants, horizons, rc))

    if args.command == "sweep-history":
        lengths = _int_list(args.lengths, "--lengths")
        return _report(rc, sweep_history(lengths, rc))

    if args.command == "baseline":
        record, _ = run_single(replace(rc, variant=BASELINE_VARIANT))
        return _report(rc, [record])

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
