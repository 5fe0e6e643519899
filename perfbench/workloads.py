"""The benchmark's workloads: set-up, one measured repetition, and checks.

Each workload drives `injecttst` only through public functions. Its inputs
come from the `synthetic` generators, seeded by the benchmark's seed; the
model initialisation uses the same seed. A repetition times itself around
the calls a user would wait for, on the clock it is given, and leaves checks
to the caller.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace

from injecttst import checkpoint, data, harness, model, synthetic, training


@dataclass
class Checks:
    """Correctness checks; each one counts as an attempted operation."""

    results: list = field(default_factory=list)         # (name, ok, detail)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> list:
        return [r for r in self.results if not r[1]]


@dataclass
class RepResult:
    start: float                    # the rep's clock as the timed calls begin
    wall_s: float                   # the calls a user waits for, nothing else
    test_mse: float                 # seeded fingerprint
    persistence_mse: float          # persistence baseline on the same test stream
    operations: int                 # cells or runs attempted in this repetition
    operations_failed: int
    report: dict = field(default_factory=dict)   # workload-specific figures
    calibrated_s: float = math.nan  # wall_s at the clock's reference speed


def _finite(x: float) -> bool:
    return isinstance(x, float) and math.isfinite(x)


class DeskAblation:
    """The README demo config (lead-lag, M=2, L=48, T=8, D=32, one ci layer,
    B=32, desk profile) through the `ablate` flow over every variant."""

    name = "desk-ablation"
    reference = "small"             # the clock's reference loop (clock.py)
    variants = ["pat", "cat", "pat-rc", "cat-rc", "no-cid", "no-gi",
                harness.BASELINE_VARIANT]
    uses = {"model.embed_patches", "model.ci_encode", "model.global_mix_cat",
            "model.global_mix_pat", "model.sca_inject", "model.forecast_head",
            "model.pretrain_head", "model.forward_forecast", "model.forward_pretrain",
            "training.run_stage", "training.train_pipeline", "training.evaluate",
            "training.evaluate_persistence", "training.adam_step",
            "training.prepare_data", "numerics.backward", "numerics.softmax",
            "data.make_windows", "data.patchify", "data.mask_patches",
            "checkpoint.save_checkpoint", "harness.run_ablation", "harness.run_single",
            "synthetic.dataset_from_spec"}
    never_uses = {"checkpoint.load_checkpoint", "checkpoint.apply_checkpoint"}

    def setup(self, seed: int, workdir: str, checks: Checks) -> dict:
        base = harness.RunConfig(
            data_path=f"synthetic:lead-lag:rows=900,lag=6,seed={seed}",
            L=48, T=8, D=32, ci_layers=1, batch_size=32, seed=seed,
            out=workdir, profile="desk", **harness.PROFILES["desk"])
        return {"base": base, "L": base.L, "T": base.T, "batch": base.batch_size}

    def splits(self, state: dict) -> training.DataSplits:
        """The splits `run_ablation` prepares, built again for the window-count
        check: the ablate flow itself loads its data inside the repetition."""
        base = state["base"]
        return training.prepare_data(harness.load_table(base), base.L, base.split_mode,
                                     base.standardize)

    def rep(self, state: dict, checks: Checks, rep_dir: str,
            now=time.perf_counter) -> RepResult:
        base = replace(state["base"], out=rep_dir)
        t0 = now()
        records = harness.run_ablation(self.variants, [base.T], base)
        wall = now() - t0

        by_variant = {r.variant: r for r in records}
        failed = [r for r in records if r.status != "ok"]
        for r in failed:
            checks.check(f"cell {r.variant} ran", False, r.error)
        persistence = by_variant[harness.BASELINE_VARIANT].mse
        trained = [r for r in records if r.variant != harness.BASELINE_VARIANT]
        for r in records:
            checks.check(f"cell {r.variant} mse finite", _finite(r.mse), repr(r.mse))
        for r in trained:
            checks.check(f"cell {r.variant} beats persistence", r.mse < persistence,
                         f"{r.mse!r} vs persistence {persistence!r}")
        test_mse = sum(r.mse for r in trained) / len(trained)
        report = {f"mse.{r.variant}": r.mse for r in records}
        report["injection_mse_ratio"] = by_variant["pat"].mse / by_variant["no-gi"].mse
        return RepResult(start=t0, wall_s=wall, test_mse=test_mse,
                         persistence_mse=persistence, operations=len(records),
                         operations_failed=len(failed), report=report)


def _paper_config(mix_mode: str) -> model.ModelConfig:
    return model.ModelConfig(L=512, T=96, M=7, D=64, heads=4, ci_layers=2,
                             **harness.variant_flags(mix_mode))


class PaperTrain:
    """Paper shape (L=512, T=96, M=7, D=64, 4 heads, 2 ci layers, B=64, `pat`,
    ETT split): one epoch per stage of the three-stage pipeline, then
    `evaluate`. 1800 rows give 8 train and 5 validation batches per stage
    and 113 test windows: enough training to beat persistence on every seed
    tried, two repetitions within the run length."""

    name = "paper-train"
    reference = "large"
    rows = 1800
    uses = {"model.embed_patches", "model.ci_encode", "model.global_mix_pat",
            "model.sca_inject", "model.forecast_head", "model.pretrain_head",
            "model.forward_forecast", "model.forward_pretrain", "model.init_params",
            "training.run_stage", "training.evaluate", "training.adam_step",
            "training.prepare_data", "numerics.backward", "data.make_windows",
            "data.patchify", "data.mask_patches", "checkpoint.save_checkpoint",
            "synthetic.sine_mixture"}
    never_uses = {"model.global_mix_cat", "training.train_pipeline",
                  "checkpoint.load_checkpoint", "harness.run_ablation",
                  "harness.run_single"}

    def setup(self, seed: int, workdir: str, checks: Checks) -> dict:
        table = synthetic.sine_mixture(self.rows, channels=7, seed=seed)
        cfg = _paper_config("pat")
        splits = training.prepare_data(table, cfg.L, "ett")
        sched = training.StageSchedule(pretrain_epochs=1, head_epochs=1,
                                       finetune_epochs=1, batch_size=64, seed=seed)
        persistence = training.evaluate_persistence(splits, cfg.L, cfg.T, sched.batch_size)
        return {"cfg": cfg, "splits": splits, "sched": sched, "seed": seed,
                "persistence": persistence.mse, "L": cfg.L, "T": cfg.T,
                "batch": sched.batch_size}

    def splits(self, state: dict) -> training.DataSplits:
        return state["splits"]

    def rep(self, state: dict, checks: Checks, rep_dir: str,
            now=time.perf_counter) -> RepResult:
        cfg, splits, sched = state["cfg"], state["splits"], state["sched"]
        t0 = now()
        params = model.init_params(cfg, state["seed"])
        for stage in training.STAGES:
            training.run_stage(stage, params, cfg, splits, sched, rep_dir)
        t1 = now()
        report = training.evaluate(params, cfg, splits, sched.batch_size)
        t2 = now()

        _check_eval(report, state, checks)
        checks.check("pipeline beats persistence", report.mse < state["persistence"],
                     f"{report.mse!r} vs persistence {state['persistence']!r}")
        return RepResult(start=t0, wall_s=t2 - t0, test_mse=report.mse,
                         persistence_mse=state["persistence"], operations=1,
                         operations_failed=0,
                         report={"train_s": t1 - t0, "eval_s": t2 - t1,
                                 "eval_windows_per_s": report.n_windows / (t2 - t1)})


class PaperEval:
    """Seeded paper-shape `cat` weights saved and reloaded in set-up, then
    forward-only `evaluate` over a 393-window test stream (2500 rows)."""

    name = "paper-eval"
    reference = "large"
    rows = 2500
    uses = {"model.embed_patches", "model.ci_encode", "model.global_mix_cat",
            "model.sca_inject", "model.forecast_head", "model.forward_forecast",
            "model.init_params", "training.evaluate", "training.prepare_data",
            "data.make_windows", "data.patchify", "checkpoint.save_checkpoint",
            "checkpoint.load_checkpoint", "checkpoint.apply_checkpoint",
            "synthetic.sine_mixture"}
    never_uses = {"model.global_mix_pat", "model.pretrain_head", "model.forward_pretrain",
                  "training.run_stage", "training.adam_step", "numerics.backward",
                  "numerics.grad_table", "data.mask_patches", "harness.run_ablation",
                  "harness.run_single"}

    def setup(self, seed: int, workdir: str, checks: Checks) -> dict:
        table = synthetic.sine_mixture(self.rows, channels=7, seed=seed)
        cfg = _paper_config("cat")
        splits = training.prepare_data(table, cfg.L, "ett")
        saved = model.init_params(cfg, seed)
        path = os.path.join(workdir, "paper-cat.ckpt")
        checkpoint.save_checkpoint(saved, path)
        params = model.init_params(cfg, seed + 1)
        checkpoint.apply_checkpoint(params, checkpoint.load_checkpoint(path))
        same = all(params[k].data.dtype == saved[k].data.dtype
                   and params[k].data.tobytes() == saved[k].data.tobytes() for k in saved)
        checks.check("checkpoint round trip is bitwise", same, path)
        persistence = training.evaluate_persistence(splits, cfg.L, cfg.T, 64)
        return {"cfg": cfg, "splits": splits, "params": params,
                "persistence": persistence.mse, "L": cfg.L, "T": cfg.T, "batch": 64}

    def splits(self, state: dict) -> training.DataSplits:
        return state["splits"]

    def rep(self, state: dict, checks: Checks, rep_dir: str,
            now=time.perf_counter) -> RepResult:
        t0 = now()
        report = training.evaluate(state["params"], state["cfg"], state["splits"],
                                   state["batch"])
        wall = now() - t0
        _check_eval(report, state, checks)
        return RepResult(start=t0, wall_s=wall, test_mse=report.mse,
                         persistence_mse=state["persistence"], operations=1,
                         operations_failed=0,
                         report={"eval_windows_per_s": report.n_windows / wall})


def _check_eval(report: training.EvalReport, state: dict, checks: Checks) -> None:
    test = state["splits"].test_ext
    expected = data.window_count(test.rows, state["L"], state["T"])
    checks.check("evaluate window count", report.n_windows == expected,
                 f"{report.n_windows} evaluated, window_count says {expected}")
    checks.check("test mse finite", _finite(report.mse), repr(report.mse))


def check_window_counts(splits: training.DataSplits, state: dict, checks: Checks) -> None:
    """Every split yields exactly `data.window_count` windows."""
    for label in ("train", "val_ext", "test_ext"):
        table = getattr(splits, label)
        n = sum(b.size for b in data.make_windows(table, state["L"], state["T"],
                                                  state["batch"]))
        expected = data.window_count(table.rows, state["L"], state["T"])
        checks.check(f"{label} window count", n == expected,
                     f"{n} yielded, window_count says {expected}")


WORKLOADS = {w.name: w for w in (DeskAblation(), PaperTrain(), PaperEval())}
