"""Losses, optimizer, stage runner, evaluation."""

import contextlib
import gc
from dataclasses import replace

import numpy as np
import pytest

import injecttst.numerics as nm
from injecttst import training
from injecttst.data import SeriesTable, make_windows, mask_patches, patchify
from injecttst.errors import ContractError, SizingError, TrainingDiverged
from injecttst.model import ModelConfig, forward_forecast, init_params
from injecttst.synthetic import sine_mixture
from injecttst.training import (OptimState, StageSchedule, adam_step, evaluate,
                                evaluate_persistence, forecast_loss, masked_mse,
                                prepare_data, run_stage, train_pipeline, _aggregate)

TINY = ModelConfig(L=24, T=4, M=2, PL=8, S=8, D=16, heads=2, ci_layers=1, mix_layers=1)


def _splits(rows=260, channels=2, seed=3, L=24):
    return prepare_data(sine_mixture(rows=rows, channels=channels, seed=seed), L)


# ---------------------------------------------------------------------------
# losses

def test_masked_mse_exact_recovery(rng):
    ps = patchify(rng.normal(size=(2, 24, 2)).astype(np.float32), 8, 8)
    masked = mask_patches(ps, 0.5, seed=0)
    loss = masked_mse(nm.constant(ps.patches), ps.patches, masked.mask)
    assert float(loss.data) == 0.0


def test_masked_mse_ignores_unmasked_positions(rng):
    ps = patchify(rng.normal(size=(2, 24, 2)).astype(np.float32), 8, 8)
    masked = mask_patches(ps, 0.5, seed=0)
    corrupted = ps.patches.copy()
    corrupted[~masked.mask] += 100.0          # wrong only where unmasked
    loss = masked_mse(nm.constant(corrupted), ps.patches, masked.mask)
    assert float(loss.data) == 0.0


def test_masked_mse_vs_loop_oracle(rng):
    ps = patchify(rng.normal(size=(2, 24, 3)).astype(np.float32), 8, 8)
    masked = mask_patches(ps, 0.5, seed=1)
    rec = rng.normal(size=ps.patches.shape).astype(np.float32)
    got = float(masked_mse(nm.constant(rec), ps.patches, masked.mask).data)
    total, count = 0.0, 0
    B, M, PN, PL = ps.patches.shape
    for b in range(B):
        for m in range(M):
            for p in range(PN):
                if masked.mask[b, m, p]:
                    for i in range(PL):
                        total += (float(rec[b, m, p, i]) - float(ps.patches[b, m, p, i])) ** 2
                        count += 1
    assert abs(got - total / count) < 1e-6


def test_masked_mse_empty_mask_rejected(rng):
    ps = patchify(rng.normal(size=(1, 24, 1)).astype(np.float32), 8, 8)
    with pytest.raises(ContractError):
        masked_mse(nm.constant(ps.patches), ps.patches, ps.mask)


def test_forecast_loss_basics(rng):
    target = rng.normal(size=(2, 3, 4)).astype(np.float32)
    assert float(forecast_loss(nm.constant(target), target).data) == 0.0
    off = forecast_loss(nm.constant(target + 1.0), target)
    assert abs(float(off.data) - 1.0) < 1e-6


def test_forecast_loss_vs_loop_oracle(rng):
    target = rng.normal(size=(2, 3, 4)).astype(np.float32)
    pred = rng.normal(size=(2, 3, 4)).astype(np.float32)
    got = float(forecast_loss(nm.constant(pred), target).data)
    want = sum((float(a) - float(b)) ** 2 for a, b in
               zip(pred.reshape(-1), target.reshape(-1))) / pred.size
    assert abs(got - want) < 1e-6


# ---------------------------------------------------------------------------
# optimizer

def test_adam_zero_gradient_no_update(rng):
    p = nm.parameter(rng.normal(size=(3, 3)), "p")
    before = p.data.copy()
    adam_step({"p": p}, {"p": np.zeros_like(p.data)}, OptimState(lr=0.1))
    assert np.array_equal(p.data, before)


def test_adam_first_step_magnitude(rng):
    p = nm.parameter(rng.normal(size=(5,)), "p")
    g = rng.normal(size=(5,)).astype(np.float32) * 2.0
    before = p.data.copy()
    adam_step({"p": p}, {"p": g}, OptimState(lr=0.01))
    delta = p.data - before
    np.testing.assert_allclose(delta, -0.01 * np.sign(g), rtol=1e-4)


def test_adam_deterministic(rng):
    g_seq = [rng.normal(size=(4,)).astype(np.float32) for _ in range(10)]

    def run():
        p = nm.parameter(np.ones(4), "p")
        opt = OptimState(lr=0.05)
        for g in g_seq:
            adam_step({"p": p}, {"p": g}, opt)
        return p.data

    assert np.array_equal(run(), run())


def test_adam_rejects_nan_gradient():
    p = nm.parameter(np.ones(2), "weights")
    bad = np.array([np.nan, 0.0], dtype=np.float32)
    with pytest.raises(TrainingDiverged, match="weights"):
        adam_step({"weights": p}, {"weights": bad}, OptimState(lr=0.1))


def _adam_reference(params, grads, state):
    """The per-tensor Adam update, one parameter at a time, as the reference
    for the flat update; `state` holds step and per-name moments."""
    state["step"] += 1
    c1 = 1.0 - 0.9 ** state["step"]
    c2 = 1.0 - 0.999 ** state["step"]
    for name, g in grads.items():
        p = params[name]
        m = state["m"].setdefault(name, np.zeros_like(p.data))
        v = state["v"].setdefault(name, np.zeros_like(p.data))
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * g * g
        update = (m / c1) / (np.sqrt(v / c2) + 1e-8)
        p.data = p.data - np.asarray(state["lr"], dtype=p.data.dtype) * update.astype(p.data.dtype)


_ADAM_SHAPES = {"w": (3, 4), "b": (4,), "k": (2, 3, 2), "s": ()}


def _adam_params(dtype, seed=0):
    rng = np.random.default_rng(seed)
    return {name: nm.parameter(rng.normal(size=shape), name, dtype)
            for name, shape in _ADAM_SHAPES.items()}


def _adam_grads(rng, dtype):
    return {name: (rng.normal(size=shape) * 10.0 ** rng.integers(-3, 2)).astype(dtype)
            for name, shape in _ADAM_SHAPES.items()}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_adam_equals_per_tensor_loop_bitwise(dtype):
    rng = np.random.default_rng(5)
    flat, loop = _adam_params(dtype), _adam_params(dtype)
    opt = OptimState(lr=3e-3)
    state = {"lr": 3e-3, "step": 0, "m": {}, "v": {}}
    for _ in range(4):
        grads = _adam_grads(rng, dtype)
        held = {name: p.data for name, p in flat.items()}
        before = {name: a.copy() for name, a in held.items()}
        adam_step(flat, grads, opt)
        _adam_reference(loop, grads, state)
        for name in _ADAM_SHAPES:
            assert flat[name].data.dtype == dtype and flat[name].data.shape == _ADAM_SHAPES[name]
            np.testing.assert_array_equal(flat[name].data, loop[name].data)
            # rebound, not written in place: an array held from before keeps its values
            np.testing.assert_array_equal(held[name], before[name])
        for moment in ("m", "v"):
            reference = np.concatenate([state[moment][n].ravel() for n in _ADAM_SHAPES])
            np.testing.assert_array_equal(getattr(opt, moment), reference)
    assert opt.step == state["step"] == 4


def test_adam_non_finite_gradient_changes_nothing():
    rng = np.random.default_rng(6)
    params = _adam_params(np.float32)
    opt = OptimState(lr=1e-2)
    adam_step(params, _adam_grads(rng, np.float32), opt)
    before = {name: p.data.copy() for name, p in params.items()}
    m, v = opt.m.copy(), opt.v.copy()
    grads = _adam_grads(rng, np.float32)
    grads["b"][1] = np.nan
    grads["k"][0, 0, 0] = np.inf
    with pytest.raises(TrainingDiverged, match="'b'"):
        adam_step(params, grads, opt)
    assert opt.step == 1
    np.testing.assert_array_equal(opt.m, m)
    np.testing.assert_array_equal(opt.v, v)
    for name, p in params.items():
        np.testing.assert_array_equal(p.data, before[name])


@pytest.mark.parametrize("change", ["names", "shape", "dtype"])
def test_adam_rejects_a_different_layout_on_a_later_step(change):
    rng = np.random.default_rng(7)
    params = _adam_params(np.float32)
    opt = OptimState(lr=1e-2)
    adam_step(params, _adam_grads(rng, np.float32), opt)
    grads = _adam_grads(rng, np.float32)
    # each change keeps the total size, so flat moments would silently misalign
    if change == "names":
        params["t"] = params.pop("s")
        grads["t"] = grads.pop("s")
    elif change == "shape":
        params["w"] = nm.parameter(params["w"].data.reshape(4, 3), "w")
        grads["w"] = grads["w"].reshape(4, 3)
    else:
        params["w"] = nm.parameter(params["w"].data, "w", np.float64)
        grads["w"] = grads["w"].astype(np.float64)
    with pytest.raises(ContractError):
        adam_step(params, grads, opt)
    assert opt.step == 1


# ---------------------------------------------------------------------------
# stage runner

def test_head_stage_freezes_trunk():
    data = _splits()
    params = init_params(TINY, seed=0)
    trunk_before = {k: p.data.copy() for k, p in params.items() if k != "forecast_head"}
    head_before = params["forecast_head"].data.copy()
    sched = StageSchedule(head_epochs=2, batch_size=32, seed=0)
    log = run_stage("head", params, TINY, data, sched)
    assert len(log) == 2
    for k, v in trunk_before.items():
        assert np.array_equal(params[k].data, v), k
    assert not np.array_equal(params["forecast_head"].data, head_before)


def _reachable_params(loss, params):
    names = {id(p): k for k, p in params.items()}
    seen, stack, found = {id(loss)}, [loss], set()
    while stack:
        node = stack.pop()
        if id(node) in names:
            found.add(names[id(node)])
        for p in node.parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return found


def test_head_stage_graph_reaches_only_the_head(monkeypatch):
    data = _splits()
    params = init_params(TINY, seed=0)
    reached = []
    grad_table = nm.grad_table

    def spy(loss, wanted):
        reached.append(_reachable_params(loss, params))
        return grad_table(loss, wanted)

    monkeypatch.setattr(nm, "grad_table", spy)
    run_stage("head", params, TINY, data, StageSchedule(head_epochs=1, batch_size=32, seed=0))
    assert reached and all(r == {"forecast_head"} for r in reached)
    assert all(p.requires_grad for p in params.values())


def test_frozen_head_stage_matches_full_graph(monkeypatch):
    data = _splits()
    sched = StageSchedule(head_epochs=2, batch_size=32, seed=0)

    def run():
        params = init_params(TINY, seed=0)
        log = run_stage("head", params, TINY, data, sched)
        report = evaluate(params, TINY, data)
        return (params["forecast_head"].data.tobytes(),
                [(r["train_loss"], r["val_loss"]) for r in log], report.mse)

    frozen_run = run()
    monkeypatch.setattr(nm, "frozen", contextlib.nullcontext)
    assert run() == frozen_run


@pytest.mark.parametrize("stage", ["pretrain", "head", "finetune"])
def test_nan_validation_loss_raises(monkeypatch, stage):
    monkeypatch.setattr(nm, "_debug_checks", False)     # let the NaN reach the loss
    data = _splits()
    values = data.val_ext.values.copy()
    values[-1 - TINY.T, 0] = np.nan                      # last history row of the last window
    data = replace(data, val_ext=replace(data.val_ext, values=values))
    params = init_params(TINY, seed=0)
    sched = StageSchedule(pretrain_epochs=2, head_epochs=2, finetune_epochs=2,
                          batch_size=32, seed=0)
    with pytest.raises(TrainingDiverged, match=f"stage {stage}, epoch 1"):
        run_stage(stage, params, TINY, data, sched)
    assert all(p.requires_grad for p in params.values())


def _live_graph_nodes() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects()
               if isinstance(obj, nm.Tensor) and obj.op != "leaf")


@pytest.mark.parametrize("stage", ["pretrain", "head", "finetune"])
def test_run_stage_frees_each_step_graph(monkeypatch, stage):
    counts = []

    def counting(original):
        def wrapper(*args, **kwargs):
            counts.append(_live_graph_nodes())
            return original(*args, **kwargs)
        return wrapper

    for name in ("_pretrain_batch_loss", "_forecast_batch_loss"):
        monkeypatch.setattr(training, name, counting(getattr(training, name)))
    params = init_params(TINY, seed=0)
    sched = StageSchedule(pretrain_epochs=2, head_epochs=2, finetune_epochs=2,
                          batch_size=32, seed=0)
    run_stage(stage, params, TINY, _splits(), sched)
    # training and validation batches of both epochs: no graph of an earlier
    # step survives into the next batch's forward
    assert len(counts) > 4 and counts[1:] == [0] * (len(counts) - 1)


def test_pretrain_loss_decreases_on_sine_data():
    data = _splits(rows=200)
    params = init_params(TINY, seed=0)
    sched = StageSchedule(pretrain_epochs=20, pretrain_lr=1e-3, batch_size=32, seed=0)
    log = run_stage("pretrain", params, TINY, data, sched)
    losses = [r["train_loss"] for r in log]
    assert min(losses) < losses[0]


def test_zero_epoch_stage_is_noop():
    data = _splits()
    params = init_params(TINY, seed=0)
    before = {k: p.data.copy() for k, p in params.items()}
    sched = StageSchedule(pretrain_epochs=0, head_epochs=0, finetune_epochs=0)
    for stage in ("pretrain", "head", "finetune"):
        assert run_stage(stage, params, TINY, data, sched) == []
    for k, v in before.items():
        assert np.array_equal(params[k].data, v)


def test_run_stage_leaves_the_best_epochs_parameters():
    params = init_params(TINY, seed=0)
    seen = []

    def sink(record):
        seen.append((record["val_loss"], {k: p.data.copy() for k, p in params.items()}))

    # a learning rate this high makes the validation loss rise again after epoch 3
    sched = StageSchedule(finetune_epochs=4, finetune_lr=0.1, batch_size=64)
    run_stage("finetune", params, TINY, _splits(), sched, log_sink=sink)
    losses = [loss for loss, _ in seen]
    best = losses.index(min(losses))
    assert best < len(seen) - 1
    for k, p in params.items():
        np.testing.assert_array_equal(p.data, seen[best][1][k])
    assert not np.array_equal(params["forecast_head"].data, seen[-1][1]["forecast_head"])


def test_pipeline_writes_checkpoints_and_log(tmp_path):
    data = _splits()
    params = init_params(TINY, seed=0)
    sched = StageSchedule(pretrain_epochs=1, head_epochs=1, finetune_epochs=1,
                          batch_size=64, seed=0)
    out = str(tmp_path / "run")
    log = train_pipeline(params, TINY, data, sched, out)
    assert [r["stage"] for r in log] == ["pretrain", "head", "finetune"]
    import os, json
    for stage in ("pretrain", "head", "finetune"):
        assert os.path.isfile(os.path.join(out, f"stage-{stage}-best.ckpt"))
    lines = open(os.path.join(out, "train_log.ndjson")).read().splitlines()
    assert len(lines) == 3
    rec = json.loads(lines[0])
    assert set(rec) == {"stage", "epoch", "train_loss", "val_loss", "seconds"}


def test_pipeline_deterministic_reports():
    data = _splits()
    sched = StageSchedule(pretrain_epochs=1, head_epochs=1, finetune_epochs=2,
                          batch_size=64, seed=0)

    def run():
        params = init_params(TINY, seed=0)
        train_pipeline(params, TINY, data, sched)
        return evaluate(params, TINY, data)

    a, b = run(), run()
    assert a.mse == b.mse and a.mae == b.mae
    assert a.per_horizon_mse == b.per_horizon_mse


def test_overfit_capacity_tiny_model():
    # 64 fixed windows, loss below 1e-3 within 500 steps
    table = sine_mixture(rows=64 + TINY.L + TINY.T - 1, channels=2, seed=3, noise=0.0)
    params = init_params(TINY, seed=0)
    batch = next(make_windows(table, TINY.L, TINY.T, batch_size=64))
    assert batch.size == 64
    target = batch.target.transpose(0, 2, 1)
    opt = OptimState(lr=3e-3)
    reached = False
    for _ in range(500):
        loss = forecast_loss(forward_forecast(batch, params, TINY), target)
        if float(loss.data) < 1e-3:
            reached = True
            break
        adam_step(params, nm.grad_table(loss, params), opt)
    assert reached


# ---------------------------------------------------------------------------
# evaluation

def test_perfect_predictions_score_zero(rng):
    target = rng.normal(size=(5, 2, 4))
    report = _aggregate([(target, target)])
    assert report.mse == 0.0 and report.mae == 0.0


def test_persistence_on_constant_series():
    values = np.full((80, 2), 1.5, dtype=np.float32)
    table = SeriesTable([str(i) for i in range(80)], values, ["a", "b"])
    data = prepare_data(table, L=8, standardize_inputs=False)
    report = evaluate_persistence(data, L=8, T=4)
    assert report.mse == 0.0 and report.mae == 0.0


def test_persistence_on_unit_ramp_closed_form():
    values = np.arange(100, dtype=np.float32)[:, None]
    table = SeriesTable([str(i) for i in range(100)], values, ["a"])
    data = prepare_data(table, L=8, standardize_inputs=False)
    report = evaluate_persistence(data, L=8, T=4)
    # squared errors per window are 1, 4, 9, 16 -> mse 7.5; abs errors -> mae 2.5
    assert abs(report.mse - 7.5) < 1e-6
    assert abs(report.mae - 2.5) < 1e-6
    np.testing.assert_allclose(report.per_horizon_mse, [1.0, 4.0, 9.0, 16.0], atol=1e-6)


def test_evaluate_empty_stream_rejected():
    values = np.arange(400, dtype=np.float32)[:, None]
    table = SeriesTable([str(i) for i in range(400)], values, ["a"])
    data = prepare_data(table, L=8, standardize_inputs=False)
    with pytest.raises(SizingError):
        evaluate_persistence(data, L=300, T=200)


def test_evaluate_aggregates_are_elementwise_means(rng):
    pairs = [(rng.normal(size=(3, 2, 4)), rng.normal(size=(3, 2, 4))) for _ in range(4)]
    report = _aggregate(pairs)
    err = np.concatenate([(p - t) for p, t in pairs], axis=0)
    assert abs(report.mse - float((err ** 2).mean())) < 1e-12
    assert abs(report.mae - float(np.abs(err).mean())) < 1e-12
    assert abs(np.mean(report.per_horizon_mse) - report.mse) < 1e-12
    assert abs(np.mean(report.per_channel_mse) - report.mse) < 1e-12


def test_evaluate_destandardized_flag(rng):
    table = sine_mixture(rows=300, channels=2, seed=5)
    data = prepare_data(table, L=24)
    params = init_params(TINY, seed=0)
    std_report = evaluate(params, TINY, data)
    de_report = evaluate(params, TINY, data, destandardized=True)
    assert std_report.mse != de_report.mse
    assert all(p.requires_grad for p in params.values())


def test_dropout_training_runs_and_is_seeded():
    data = _splits()
    cfg = replace(TINY, dropout=0.2)
    sched = StageSchedule(pretrain_epochs=0, head_epochs=0, finetune_epochs=1,
                          batch_size=64, seed=0)

    def run():
        params = init_params(cfg, seed=0)
        run_stage("finetune", params, cfg, data, sched)
        return evaluate(params, cfg, data)

    a, b = run(), run()
    assert a.mse == b.mse                      # dropout masks come from the seed
    # evaluation has no dropout: repeated eval of fixed params is bitwise stable
    params = init_params(cfg, seed=1)
    assert evaluate(params, cfg, data).mse == evaluate(params, cfg, data).mse


def test_schedule_rejects_negative_epochs():
    with pytest.raises(ContractError):
        StageSchedule(pretrain_epochs=-1)
