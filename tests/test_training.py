"""Losses, optimizer, stage runner, evaluation."""

import contextlib
import gc
from dataclasses import replace

import numpy as np
import pytest

import injecttst.numerics as nm
from injecttst import training
from injecttst.data import SeriesTable, make_windows, mask_patches, patchify
from injecttst.errors import ConfigError, ContractError, SizingError, TrainingDiverged
from injecttst.harness import variant_flags
from injecttst.model import ModelConfig, forward_forecast, init_params
from injecttst.synthetic import sine_mixture
from injecttst.training import (OptimState, StageSchedule, adam_step, evaluate,
                                evaluate_persistence, forecast_loss, masked_mse,
                                prepare_data, run_stage, train_pipeline, _score)

TINY = ModelConfig(L=24, T=4, M=2, PL=8, D=16, heads=2, ci_layers=1, mix_layers=1)


def _splits(rows=260, channels=2, seed=3, L=24):
    return prepare_data(sine_mixture(rows=rows, channels=channels, seed=seed), L)


# ---------------------------------------------------------------------------
# losses

def test_masked_mse_exact_recovery(rng):
    ps = patchify(rng.normal(size=(2, 24, 2)).astype(np.float32).transpose(0, 2, 1), 8)
    masked = mask_patches(ps, 0.5, seed=0)
    loss = masked_mse(nm.constant(ps.patches), ps.patches, masked.mask)
    assert float(loss.data) == 0.0


def test_masked_mse_ignores_unmasked_positions(rng):
    ps = patchify(rng.normal(size=(2, 24, 2)).astype(np.float32).transpose(0, 2, 1), 8)
    masked = mask_patches(ps, 0.5, seed=0)
    corrupted = ps.patches.copy()
    corrupted[~masked.mask] += 100.0          # wrong only where unmasked
    loss = masked_mse(nm.constant(corrupted), ps.patches, masked.mask)
    assert float(loss.data) == 0.0


def test_masked_mse_vs_loop_oracle(rng):
    ps = patchify(rng.normal(size=(2, 24, 3)).astype(np.float32).transpose(0, 2, 1), 8)
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
    ps = patchify(rng.normal(size=(1, 24, 1)).astype(np.float32).transpose(0, 2, 1), 8)
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


@pytest.mark.parametrize("stage", training.STAGES)
def test_stage_trains_exactly_what_its_loss_reaches(monkeypatch, stage):
    data = _splits()
    params = init_params(TINY, seed=0)
    calls = []
    grad_table = nm.grad_table

    def spy(loss, wanted):
        calls.append((set(wanted), _reachable_params(loss, params)))
        return grad_table(loss, wanted)

    monkeypatch.setattr(nm, "grad_table", spy)
    sched = StageSchedule(pretrain_epochs=1, head_epochs=1, finetune_epochs=1,
                          batch_size=32, seed=0)
    run_stage(stage, params, TINY, data, sched)
    assert calls and all(wanted == reached for wanted, reached in calls)
    if stage == "head":
        assert calls[0][0] == {"forecast_head"}
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

    for name in ("forward_pretrain", "forward_forecast"):
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
    opt = OptimState(lr=3e-3)
    reached = False
    for _ in range(500):
        loss = forecast_loss(forward_forecast(batch, params, TINY), batch.target)
        if float(loss.data) < 1e-3:
            reached = True
            break
        adam_step(params, nm.grad_table(loss, params), opt)
    assert reached


# ---------------------------------------------------------------------------
# evaluation

def test_perfect_predictions_score_zero(rng):
    table = SeriesTable(rng.normal(size=(60, 2)).astype(np.float32), ["a", "b"])
    data = prepare_data(table, L=8, standardize_inputs=False)
    report = _score(data, 8, 4, 5, lambda batch: batch.target)
    assert report.mse == 0.0 and report.mae == 0.0


def test_persistence_on_constant_series():
    values = np.full((80, 2), 1.5, dtype=np.float32)
    table = SeriesTable(values, ["a", "b"])
    data = prepare_data(table, L=8, standardize_inputs=False)
    report = evaluate_persistence(data, L=8, T=4)
    assert report.mse == 0.0 and report.mae == 0.0


def test_persistence_on_unit_ramp_closed_form():
    values = np.arange(100, dtype=np.float32)[:, None]
    table = SeriesTable(values, ["a"])
    data = prepare_data(table, L=8, standardize_inputs=False)
    report = evaluate_persistence(data, L=8, T=4)
    # squared errors per window are 1, 4, 9, 16 -> mse 7.5; abs errors -> mae 2.5
    assert abs(report.mse - 7.5) < 1e-6
    assert abs(report.mae - 2.5) < 1e-6
    np.testing.assert_allclose(report.per_horizon_mse, [1.0, 4.0, 9.0, 16.0], atol=1e-6)


def test_evaluate_empty_stream_rejected():
    values = np.arange(400, dtype=np.float32)[:, None]
    table = SeriesTable(values, ["a"])
    data = prepare_data(table, L=8, standardize_inputs=False)
    with pytest.raises(SizingError):
        evaluate_persistence(data, L=300, T=200)


def test_evaluate_aggregates_are_elementwise_means(rng):
    # 7 test windows in batches of 3, 3 and 1, each forecast drawn at random
    table = SeriesTable(rng.normal(size=(60, 2)).astype(np.float32), ["a", "b"])
    data = prepare_data(table, L=8, standardize_inputs=False)
    errs = []

    def predict(batch):
        pred = rng.normal(size=batch.target.shape)
        errs.append(pred - batch.target)
        return pred

    report = _score(data, 8, 4, 3, predict)
    err = np.concatenate(errs, axis=0)
    assert len(errs) == 3 and report.n_windows == err.shape[0] == 7
    assert abs(report.mse - float((err ** 2).mean())) < 1e-12
    assert abs(report.mae - float(np.abs(err).mean())) < 1e-12
    assert abs(np.mean(report.per_horizon_mse) - report.mse) < 1e-12
    assert abs(np.mean(report.per_channel_mse) - report.mse) < 1e-12


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
    # evaluate freezes the parameters only while it runs
    assert all(p.requires_grad for p in params.values())


def test_schedule_rejects_negative_epochs():
    with pytest.raises(ConfigError, match="train.pretrain_epochs"):
        StageSchedule(pretrain_epochs=-1)


_BAD_SCHEDULES = [("finetune_lr", -1e-2, "train.finetune_lr"),
                  ("head_lr", float("nan"), "train.head_lr"),
                  ("pretrain_lr", float("inf"), "train.pretrain_lr"),
                  ("batch_size", 0, "train.batch_size"), ("mask_ratio", 7.0, "train.mask_ratio"),
                  ("mask_ratio", 0.0, "train.mask_ratio"), ("seed", -1, "run.seed")]


@pytest.mark.parametrize("field,value,key", _BAD_SCHEDULES,
                         ids=[f"{f}={v}" for f, v, _ in _BAD_SCHEDULES])
def test_schedule_built_in_code_refuses_what_the_cli_refuses(field, value, key):
    with pytest.raises(ConfigError, match=f"^{key} must be"):
        StageSchedule(**{field: value})


# ---------------------------------------------------------------------------
# chunks

def _window_bytes(cfg, dtype=np.float32) -> int:
    return cfg.M * cfg.PN * cfg.D * np.dtype(dtype).itemsize


def _chunk_windows(monkeypatch, cfg, windows, dtype=np.float32):
    """Make every pass run on chunks of `windows` windows of `cfg`'s shape."""
    monkeypatch.setattr(training, "_CHUNK_BYTES", windows * _window_bytes(cfg, dtype))


_PAPER = ModelConfig(L=512, T=96, M=7, D=64, heads=4, ci_layers=2)
# (config, batch sizes) of the shapes the suite and the benchmark train at
_ONE_CHUNK = [
    # desk-ablation (the README demo config) and acceptance criterion 7
    (ModelConfig(L=48, T=8, M=2, PL=12, D=32, heads=4, ci_layers=1), (32, 64)),
    # acceptance criterion 8
    (ModelConfig(L=48, T=8, M=3, PL=12, D=32, heads=4, ci_layers=1), (64,)),
    # the fingerprint's ablation matrix and its CLI flow
    (ModelConfig(L=24, T=4, M=3, PL=8, D=16, heads=2, ci_layers=1), (64,)),
    (ModelConfig(L=24, T=4, M=2, PL=8, D=16, heads=2, ci_layers=1), (32, 64)),
]


def test_chunk_plan_is_one_chunk_at_desk_shapes_and_ragged_at_the_paper_shape():
    for cfg, batch_sizes in _ONE_CHUNK:
        for n in batch_sizes:
            assert training._chunks(n, cfg, np.float32) == [slice(0, n)], (cfg, n)
    sizes = [s.stop - s.start for s in training._chunks(64, _PAPER, np.float32)]
    assert sizes == [6] * 10 + [4]
    # paper-eval's last batch (393 windows = 6 * 64 + 9); float64 halves a chunk
    assert training._chunks(9, _PAPER, np.float32) == [slice(0, 6), slice(6, 9)]
    assert len(training._chunks(64, _PAPER, np.float64)) == 22


def _whole_batch_evaluate(params, cfg, data, batch_size):
    """`evaluate` with one forward per batch: the reference for chunked passes."""
    with nm.frozen(params.values()):
        return _score(data, cfg.L, cfg.T, batch_size,
                      lambda b: forward_forecast(b, params, cfg).data)


def _scores(report):
    return (report.mse, report.mae, report.per_horizon_mse, report.per_channel_mse,
            report.n_windows)


# with chunks of 3 windows: 1, chunk - 1, chunk, chunk + 1, and 3 + 3 + 1
_BATCH_SIZES = [1, 2, 3, 4, 7]


@pytest.mark.parametrize("batch_size", _BATCH_SIZES)
@pytest.mark.parametrize("variant", ["pat", "cat", "no-gi"])
def test_chunked_evaluate_is_bitwise_the_whole_batch(monkeypatch, variant, batch_size):
    cfg = replace(TINY, **variant_flags(variant))
    data = _splits()
    params = init_params(cfg, seed=0)
    want = _whole_batch_evaluate(params, cfg, data, batch_size)
    _chunk_windows(monkeypatch, cfg, 3)
    assert _scores(evaluate(params, cfg, data, batch_size)) == _scores(want)


def _recorded_epoch(monkeypatch, stage, data, sched, dtype=np.float32, chunk=None):
    """One epoch of `stage` with Adam replaced by a recorder, so the weights
    never move and every step's gradients compare across runs; with `chunk`,
    passes run on chunks of that many windows, else on whole batches."""
    monkeypatch.setattr(training, "_CHUNK_BYTES", 1 << 62)
    if chunk is not None:
        _chunk_windows(monkeypatch, TINY, chunk, dtype)
    steps = []
    monkeypatch.setattr(training, "adam_step", lambda params, grads, opt: steps.append(
        {k: g.copy() for k, g in grads.items()}))
    (record,) = run_stage(stage, init_params(TINY, seed=0, dtype=dtype), TINY, data,
                          replace(sched, **{f"{stage}_epochs": 1}))
    return steps, record


@pytest.mark.parametrize("batch_size", _BATCH_SIZES)
@pytest.mark.parametrize("stage", training.STAGES)
def test_chunked_validation_is_bitwise_the_whole_batch(monkeypatch, stage, batch_size):
    data = _splits(rows=160)
    sched = StageSchedule(batch_size=batch_size, seed=0)
    _, whole = _recorded_epoch(monkeypatch, stage, data, sched)
    _, chunked = _recorded_epoch(monkeypatch, stage, data, sched, chunk=3)
    assert chunked["val_loss"] == whole["val_loss"]
    assert chunked["train_loss"] == pytest.approx(whole["train_loss"], rel=1e-6, abs=0.0)


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("stage", training.STAGES)
def test_chunked_step_sums_the_whole_batch_gradient(monkeypatch, stage, dtype, tol):
    # batches of 7 run as chunks of 3, 3 and 1 windows: when pretraining,
    # chunks of a batch hold different masked-patch counts, so a chunk's
    # loss must be normalised by the batch's count, not its own
    data = _splits(rows=160)
    sched = StageSchedule(batch_size=7, mask_ratio=0.5, seed=0)
    whole_steps, whole = _recorded_epoch(monkeypatch, stage, data, sched, dtype)
    steps, chunked = _recorded_epoch(monkeypatch, stage, data, sched, dtype, chunk=3)
    assert len(steps) == len(whole_steps) > 10
    for got, want in zip(steps, whole_steps):
        assert got.keys() == want.keys()
        for name, g in want.items():
            assert got[name].dtype == g.dtype
            assert np.max(np.abs(got[name] - g)) <= tol * np.max(np.abs(g)), name
    assert chunked["train_loss"] == pytest.approx(whole["train_loss"], rel=tol / 10, abs=0.0)


def _input_batch_sizes(loss) -> set:
    """The leading sizes of the batch data in `loss`'s graph: its constant
    leaves of three or more axes (weights have at most two)."""
    seen, stack, sizes = {id(loss)}, [loss], set()
    while stack:
        node = stack.pop()
        if not node.parents and not node.requires_grad and node.data.ndim >= 3:
            sizes.add(node.data.shape[0])
        for p in node.parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return sizes


@pytest.mark.parametrize("stage", training.STAGES)
def test_each_backward_of_a_chunked_step_sees_one_chunk(monkeypatch, stage):
    sizes = []
    grad_table = nm.grad_table

    def spy(loss, wanted):
        sizes.append(_input_batch_sizes(loss))
        return grad_table(loss, wanted)

    monkeypatch.setattr(nm, "grad_table", spy)
    _chunk_windows(monkeypatch, TINY, 3)
    data = _splits(rows=160)
    params = init_params(TINY, seed=0)
    run_stage(stage, params, TINY, data, StageSchedule(batch_size=7, seed=0,
                                                       **{f"{stage}_epochs": 1}))
    windows = data.train.rows - TINY.L - TINY.T + 1                  # 85: 12 x 7 + 1
    assert len(sizes) == (windows // 7) * 3 + 1
    assert set().union(*sizes) == {3, 1}


@pytest.mark.parametrize("stage", training.STAGES)
def test_chunked_step_frees_each_chunk_graph(monkeypatch, stage):
    counts = []

    def counting(original):
        def wrapper(*args, **kwargs):
            counts.append(_live_graph_nodes())
            return original(*args, **kwargs)
        return wrapper

    for name in ("forward_pretrain", "forward_forecast"):
        monkeypatch.setattr(training, name, counting(getattr(training, name)))
    _chunk_windows(monkeypatch, TINY, 3)
    sched = StageSchedule(pretrain_epochs=1, head_epochs=1, finetune_epochs=1,
                          batch_size=7, seed=0)
    run_stage(stage, init_params(TINY, seed=0), TINY, _splits(rows=160), sched)
    # every chunk's forward, in training and validation, finds no graph alive
    assert len(counts) > 30 and counts[1:] == [0] * (len(counts) - 1)


def test_chunked_dropout_is_seeded(monkeypatch):
    # masks are drawn chunk by chunk, in chunk order: the same seed gives
    # the same run
    cfg = replace(TINY, dropout=0.2)
    _chunk_windows(monkeypatch, cfg, 3)
    data = _splits(rows=160)
    sched = StageSchedule(pretrain_epochs=1, head_epochs=1, finetune_epochs=1,
                          batch_size=8, seed=0)

    def run():
        params = init_params(cfg, seed=0)
        log = train_pipeline(params, cfg, data, sched)
        return ([(r["train_loss"], r["val_loss"]) for r in log],
                {k: p.data.tobytes() for k, p in params.items()})

    assert run() == run()


@pytest.mark.parametrize("mix_mode", ["pat", "cat"])
def test_chunks_straddling_the_softmax_guard_evaluate_within_roundoff(monkeypatch, mix_mode):
    # The softmax guard decides per call, so per chunk: a batch whose first
    # windows take the shifted branch scores its other chunks on the
    # unshifted one, where the whole batch shifts every row
    cfg = replace(TINY, mix_mode=mix_mode)
    data = _splits()
    values = data.test_ext.values.copy()
    values[:30] *= 30.0
    data = replace(data, test_ext=replace(data.test_ext, values=values))
    params = init_params(cfg, seed=0)
    want = _whole_batch_evaluate(params, cfg, data, 64)

    inside = []
    softmax = nm.softmax

    def spy(x):
        xd = x.data if isinstance(x, nm.Tensor) else np.asarray(x)
        inside.append(bool(-nm._EXP_SAFE <= xd.min() and xd.max() <= nm._EXP_SAFE))
        return softmax(x)

    monkeypatch.setattr(nm, "softmax", spy)
    _chunk_windows(monkeypatch, cfg, 3)
    got = evaluate(params, cfg, data, 64)
    assert True in inside and False in inside
    # measured: 1.3e-9 (pat) and 1.9e-9 (cat) relative on the mse
    assert got.n_windows == want.n_windows
    for g, w in zip([got.mse, got.mae, *got.per_horizon_mse, *got.per_channel_mse],
                    [want.mse, want.mae, *want.per_horizon_mse, *want.per_channel_mse]):
        assert g == pytest.approx(w, rel=1e-7, abs=0.0)
