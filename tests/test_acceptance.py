"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Criteria 7-9 train small models and take a few
minutes of CPU in total; everything is seeded and deterministic.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np

import injecttst.numerics as nm
from injecttst.checkpoint import apply_checkpoint, load_checkpoint
from injecttst.data import WindowBatch, make_windows, mask_patches, patchify
from injecttst.harness import RunConfig, model_config, run_ablation
from injecttst.model import (ModelConfig, embed_patches,
                             forward_forecast, forward_pretrain,
                             global_mix_cat, global_mix_pat, init_params,
                             sca_inject)
from injecttst.synthetic import sine_mixture
from injecttst.training import (EvalReport, evaluate, evaluate_persistence,
                                forecast_loss, masked_mse, prepare_data, run_stage)

from gradcheck import grad_check

TINY = ModelConfig(L=24, T=4, M=3, PL=8, D=8, heads=2, ci_layers=1, mix_layers=1)

LEADLAG_DATA = "synthetic:lead-lag:rows=900,lag=6,seed=7,noise=0.05,smooth=6"
PIPELINE_DATA = "synthetic:sines:rows=2000,channels=3,seed=11"


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _tiny_batch(cfg=TINY, seed=1, B=2):
    rng = np.random.default_rng(seed)
    hist = rng.normal(size=(B, cfg.L, cfg.M)).astype(np.float32)
    tgt = rng.normal(size=(B, cfg.T, cfg.M)).astype(np.float32)
    return WindowBatch(history=hist.transpose(0, 2, 1), target=tgt.transpose(0, 2, 1))


# ---------------------------------------------------------------------------

def test_criterion_1_full_model_gradients():
    t0 = time.perf_counter()
    params = init_params(TINY, seed=3)
    batch = _tiny_batch()

    def loss_fn(p):
        total = forecast_loss(forward_forecast(batch, p, TINY), batch.target)
        dtype = p["patch_proj"].data.dtype
        hist_n = batch.history.astype(dtype) - batch.history[:, :, -1:].astype(dtype)
        ps = patchify(hist_n, TINY.PL)
        masked = mask_patches(ps, 0.5, seed=42)
        rec = forward_pretrain(masked, p, TINY)
        return total + masked_mse(rec, ps.patches, masked.mask)

    err = grad_check(loss_fn, params, h=1e-3, max_coords=16, seed=0)
    elapsed = time.perf_counter() - t0
    _report(1, "full-model gradients vs 64-bit central differences",
            err < 1e-4 and elapsed < 60.0,
            f"max rel err {err:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------

def _max_abs(a, b):
    return float(np.max(np.abs(np.asarray(a, dtype=np.float64) - b)))


def _np_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _np_ln(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def _np_gelu(x):
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))


def _sca_loop_oracle(z_ci, z_glb, params, cfg):
    B, M, PN, D = z_ci.shape
    H, dh = cfg.heads, D // cfg.heads
    g = {k: params[k].data.astype(np.float64) for k in params}
    q_all = z_ci.astype(np.float64) @ g["sca.attn.wq"] + g["sca.attn.bq"]
    k_all = z_glb.astype(np.float64) @ g["sca.attn.wk"]
    v_all = z_glb.astype(np.float64) @ g["sca.attn.wv"] + g["sca.attn.bv"]
    out = np.zeros_like(z_ci, dtype=np.float64)
    for b in range(B):
        for i in range(M):
            heads = []
            for h in range(H):
                sl = slice(h * dh, (h + 1) * dh)
                q, k, v = q_all[b, i][:, sl], k_all[b][:, sl], v_all[b][:, sl]
                heads.append(_np_softmax(q @ k.T / math.sqrt(dh)) @ v)
            att = np.concatenate(heads, axis=-1) @ g["sca.attn.wo"] + g["sca.attn.bo"]
            x = z_ci[b, i].astype(np.float64) + att if cfg.sca_residual else att
            x = _np_ln(x, g["sca.norm1.g"], g["sca.norm1.b"])
            f = (_np_gelu(x @ g["sca.ffn.w1"] + g["sca.ffn.b1"]) @ g["sca.ffn.w2"]
                 + g["sca.ffn.b2"])
            out[b, i] = _np_ln(x + f, g["sca.norm2.g"], g["sca.norm2.b"])
    return out


def test_criterion_2_equation_oracles():
    t0 = time.perf_counter()
    worst = dict.fromkeys(
        ["token projection", "identifier addition", "channel-token mixing",
         "patch-group mixing", "injection block"], 0.0)
    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        M = int(rng.integers(2, 5))
        cfg = ModelConfig(L=24, T=4, M=M, PL=8, D=8, heads=2,
                          ci_layers=1, mix_layers=0,
                          sca_residual=bool(trial % 2))
        params = init_params(cfg, seed=trial)
        hist = rng.normal(size=(2, cfg.L, M)).astype(np.float32).transpose(0, 2, 1)
        ps = patchify(hist, cfg.PL)
        W = params["patch_proj"].data.astype(np.float64)
        U = params["pos_embed"].data.astype(np.float64)
        V = params["chan_embed"].data.astype(np.float64)

        # token projection: patches W + positional encoding
        cfg_nocid = replace(cfg, use_channel_identifier=False)
        got = embed_patches(ps, params, cfg_nocid).data
        for b in range(2):
            for m in range(M):
                for p in range(cfg.PN):
                    want = ps.patches[b, m, p].astype(np.float64) @ W + U[p]
                    worst["token projection"] = max(worst["token projection"],
                                                    _max_abs(got[b, m, p], want))

        # identifier addition on top of the projection
        got = embed_patches(ps, params, cfg).data
        for b in range(2):
            for m in range(M):
                for p in range(cfg.PN):
                    want = ps.patches[b, m, p].astype(np.float64) @ W + U[p] + V[m]
                    worst["identifier addition"] = max(worst["identifier addition"],
                                                       _max_abs(got[b, m, p], want))

        # whole-channel projection (mixing encoder disabled isolates it)
        cfg_cat = replace(cfg, mix_mode="cat", use_channel_identifier=False)
        params_cat = init_params(cfg_cat, seed=trial)
        got = global_mix_cat(hist, params_cat, cfg_cat).data
        Wm = params_cat["mix_proj"].data.astype(np.float64)
        for b in range(2):
            for m in range(M):
                worst["channel-token mixing"] = max(
                    worst["channel-token mixing"],
                    _max_abs(got[b, m], hist[b, m].astype(np.float64) @ Wm))

        # same-position grouping projection
        got = global_mix_pat(ps, params, cfg).data
        Wg = params["mix_proj"].data.astype(np.float64)
        for b in range(2):
            for p in range(cfg.PN):
                grouped = np.concatenate([ps.patches[b, m, p] for m in range(M)])
                want = grouped.astype(np.float64) @ Wg + U[p]
                worst["patch-group mixing"] = max(worst["patch-group mixing"],
                                                  _max_abs(got[b, p], want))

        # full injection block vs composed loop oracle
        z_ci = rng.normal(size=(2, M, cfg.PN, cfg.D)).astype(np.float32)
        z_glb = rng.normal(size=(2, cfg.PN, cfg.D)).astype(np.float32)
        got = sca_inject(nm.constant(z_ci), nm.constant(z_glb), params, cfg).data
        worst["injection block"] = max(worst["injection block"],
                                       _max_abs(got, _sca_loop_oracle(z_ci, z_glb, params, cfg)))

    elapsed = time.perf_counter() - t0
    ok = all(v < 1e-5 for v in worst.values()) and elapsed < 30.0
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items()) + f", {elapsed:.1f}s"
    _report(2, "equation-level loop-oracle equivalence", ok, detail)


# ---------------------------------------------------------------------------

def test_criterion_3_channel_isolation():
    cfg = replace(TINY, use_global_injection=False)
    params = init_params(cfg, seed=0)
    batch = _tiny_batch(cfg)
    base = forward_forecast(batch, params, cfg).data[:, 0, :].copy()
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(100):
        hist = batch.history.copy()
        noise = rng.normal(scale=3.0, size=(2, cfg.L, cfg.M - 1)).astype(np.float32)
        hist[:, 1:] += noise.transpose(0, 2, 1)
        perturbed = WindowBatch(history=hist, target=batch.target)
        pred = forward_forecast(perturbed, params, cfg).data[:, 0, :]
        if not np.array_equal(pred, base):
            ok = False
            break
    _report(3, "off-target perturbations leave target channel bitwise fixed", ok,
            "100 perturbations")


# ---------------------------------------------------------------------------

def test_criterion_4_patching_formula():
    from injecttst.data import patch_count
    expected = {48: 5, 96: 9, 192: 17, 336: 29, 512: 43, 720: 61}
    ok = patch_count(512, 12) == 43
    for L, want in expected.items():
        ok = ok and patch_count(L, 12) == want
        history = np.zeros((1, 1, L), dtype=np.float32)
        ok = ok and patchify(history, 12).PN == want
    _report(4, "patch-count formula across history lengths", ok,
            str(sorted(expected.values())))


# ---------------------------------------------------------------------------

def test_criterion_5_masked_loss_locality():
    rng = np.random.default_rng(0)
    ps = patchify(rng.normal(size=(3, 48, 4)).astype(np.float32).transpose(0, 2, 1), 12)
    masked = mask_patches(ps, 0.5, seed=5)
    corrupted = ps.patches.copy()
    corrupted[~masked.mask] += rng.normal(scale=10.0,
                                          size=corrupted[~masked.mask].shape).astype(np.float32)
    loss = float(masked_mse(nm.constant(corrupted), ps.patches, masked.mask).data)
    _report(5, "masked loss ignores unmasked corruption exactly", loss == 0.0,
            f"loss {loss}")


# ---------------------------------------------------------------------------

def _metrics_equal(a: EvalReport, b: EvalReport) -> bool:
    return (a.mse == b.mse and a.mae == b.mae and a.per_horizon_mse == b.per_horizon_mse
            and a.per_channel_mse == b.per_channel_mse)


def test_criterion_6_normalization_identity():
    table = sine_mixture(rows=300, channels=3, seed=2)
    cfg = ModelConfig(L=24, T=6, M=3, PL=8, D=8, heads=2,
                      ci_layers=1, mix_layers=1)
    data = prepare_data(table, cfg.L)
    params = init_params(cfg, seed=0)
    for p in params.values():
        p.data = np.zeros_like(p.data)
    model_report = evaluate(params, cfg, data)
    persistence_report = evaluate_persistence(data, cfg.L, cfg.T)
    ok = _metrics_equal(model_report, persistence_report)
    _report(6, "all-zero-weight model equals persistence baseline exactly", ok,
            f"mse {model_report.mse:.6f}")


# ---------------------------------------------------------------------------

def test_criterion_7_mechanism_efficacy(tmp_path):
    t0 = time.perf_counter()
    base = RunConfig(data_path=LEADLAG_DATA, L=48, T=8, PL=12, D=32,
                     heads=4, ci_layers=1, mix_layers=1,
                     pretrain_epochs=3, head_epochs=2, finetune_epochs=40,
                     finetune_lr=1e-3, batch_size=32, out=str(tmp_path))
    ratios = []
    for seed in (0, 1, 2):
        records = run_ablation(["pat", "no-gi"], [8], replace(base, seed=seed))
        by_variant = {r.variant: r for r in records}
        assert all(r.status == "ok" for r in records)
        ratios.append(by_variant["pat"].mse / by_variant["no-gi"].mse)
    elapsed = time.perf_counter() - t0
    median = float(np.median(ratios))
    ok = median <= 0.8 and elapsed < 600.0
    _report(7, "global injection beats its ablation by >= 20% on lead-lag data",
            ok, f"median mse ratio {median:.3f}, "
                f"per-seed {[f'{r:.3f}' for r in ratios]}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------

def test_criterion_8_three_stage_pipeline(tmp_path):
    t0 = time.perf_counter()
    rc = RunConfig(data_path=PIPELINE_DATA, L=48, T=8, PL=12, D=32,
                   heads=4, ci_layers=1, mix_layers=1, profile="desk",
                   pretrain_epochs=5, head_epochs=3, finetune_epochs=10,
                   batch_size=64, seed=0, out=str(tmp_path))
    from injecttst.harness import load_table, schedule
    table = load_table(rc)
    data = prepare_data(table, rc.L, rc.split_mode, rc.standardize)
    cfg = model_config(rc, table.channels)
    sched = schedule(rc)
    out = str(tmp_path / "pipeline")

    params = init_params(cfg, rc.seed)
    run_stage("pretrain", params, cfg, data, sched, out)
    trunk = {k: p.data.copy() for k, p in params.items() if k != "forecast_head"}
    run_stage("head", params, cfg, data, sched, out)
    frozen = all(np.array_equal(params[k].data, v) for k, v in trunk.items())
    run_stage("finetune", params, cfg, data, sched, out)
    report = evaluate(params, cfg, data)
    elapsed = time.perf_counter() - t0

    # the saved best checkpoint reproduces the metrics bitwise
    reloaded = init_params(cfg, 999)
    apply_checkpoint(reloaded, load_checkpoint(os.path.join(out, "stage-finetune-best.ckpt")))
    report_ckpt = evaluate(reloaded, cfg, data)

    # a full restart under the same seed reproduces them too
    params2 = init_params(cfg, rc.seed)
    for stage in ("pretrain", "head", "finetune"):
        run_stage(stage, params2, cfg, data, sched)
    report_restart = evaluate(params2, cfg, data)

    bitwise = (report.mse == report_ckpt.mse == report_restart.mse
               and report.mae == report_ckpt.mae == report_restart.mae
               and report.per_horizon_mse == report_ckpt.per_horizon_mse
               == report_restart.per_horizon_mse)
    ok = frozen and bitwise and elapsed < 900.0
    _report(8, "three-stage pipeline: frozen head stage, bitwise-reproducible metrics",
            ok, f"mse {report.mse:.4f}, frozen={frozen}, bitwise={bitwise}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------

def test_criterion_9_ablation_matrix(tmp_path):
    variants = ["pat", "cat", "pat-rc", "cat-rc", "no-cid", "no-gi"]
    horizons = [4, 8]
    base = RunConfig(data_path="synthetic:sines:rows=300,channels=3,seed=4",
                     L=24, T=4, PL=8, D=16, heads=2,
                     ci_layers=1, mix_layers=1,
                     pretrain_epochs=1, head_epochs=1, finetune_epochs=1,
                     batch_size=64, seed=0, out=str(tmp_path))
    records = run_ablation(variants, horizons, base)
    cells = {(r.variant, r.T) for r in records}
    complete = (len(records) == len(variants) * len(horizons)
                and all(r.status == "ok" for r in records)
                and cells == {(v, T) for v in variants for T in horizons})

    # every variant's attention rows must sum to one
    from injecttst.harness import load_table
    table = load_table(base)
    data = prepare_data(table, base.L, base.split_mode, base.standardize)
    batch = next(make_windows(data.test_ext, base.L, 4, batch_size=8))
    attn_ok = True
    worst = 0.0
    for record in records:
        if record.T != 4:
            continue
        cfg = model_config(replace(base, variant=record.variant, T=record.T),
                           table.channels)
        params = init_params(cfg, base.seed)
        apply_checkpoint(params, load_checkpoint(record.checkpoint))
        trace = {}
        forward_forecast(batch, params, cfg, trace)
        maps = [a for name, a in trace.items() if name.endswith(".attn")]
        assert maps, record.variant
        for attn in maps:
            dev = float(np.max(np.abs(attn.sum(axis=-1) - 1.0)))
            worst = max(worst, dev)
            attn_ok = attn_ok and dev <= 1e-6
    _report(9, "ablation matrix completes with normalized attention everywhere",
            complete and attn_ok,
            f"{len(records)} records, max row-sum deviation {worst:.1e}")
