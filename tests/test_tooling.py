"""Guards for the tooling that drives the package from outside `src/`."""

import argparse
import ast
import importlib
import importlib.util
import os
import re
import shlex
import sys

import numpy as np
import pytest

from injecttst import cli, harness, model, training
from injecttst import numerics as nm
from injecttst.data import WindowBatch

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("tracer")


def test_every_traced_name_is_a_package_callable():
    # the traced benchmark wraps these by name; a rename must fail here too
    tracer = _load_tracer()
    missing = []
    for module_name, functions in tracer.TRACED.items():
        module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        missing += [f"{module_name}.{fn}" for fn in functions
                    if not callable(getattr(module, fn, None))]
    assert tracer.TRACED and not missing, missing


@pytest.mark.parametrize("tag", list(harness.VARIANT_FLAGS))
def test_one_training_step_calls_every_numerics_layer_a_workload_uses(tag, rng):
    # `--trace 1` fails a workload whose `uses` layer shows no calls; a fused
    # node that stops calling one of them must fail here too
    uses = {name for w in _load("workloads").WORKLOADS.values() for name in w.uses
            if name.startswith("numerics.")}
    cfg = model.ModelConfig(L=24, T=4, M=3, PL=8, D=8, heads=2, ci_layers=1,
                            mix_layers=1, **harness.VARIANT_FLAGS[tag])
    params = model.init_params(cfg, 0)
    hist = rng.normal(size=(2, cfg.L, cfg.M)).astype(np.float32)
    batch = WindowBatch(history=hist, target=rng.normal(size=(2, cfg.T, cfg.M)).astype(np.float32))
    tracer = _load_tracer().Tracer("test")
    tracer.install()
    try:
        pred = model.forward_forecast(batch, params, cfg)
        loss = training.forecast_loss(pred, batch.target.transpose(0, 2, 1))
        training.adam_step(params, nm.grad_table(loss, params), training.OptimState(lr=1e-3))
    finally:
        tracer.uninstall()
    counts = {name: tracer.calls_of(name) for name in sorted(uses)}
    assert uses and all(n > 0 for n in counts.values()), counts


def test_every_workload_sets_up_and_counts_its_windows(tmp_path):
    # the benchmark's set-up and window-count checks run against this tree,
    # so a signature change they depend on fails here and not only in a run
    workloads = _load("workloads")
    for workload in workloads.WORKLOADS.values():
        checks = workloads.Checks()
        state = workload.setup(0, str(tmp_path), checks)
        workloads.check_window_counts(workload.splits(state), state, checks)
        assert checks.results and not checks.failed, (workload.name, checks.failed)


def test_every_python_file_parses_at_the_python_floor():
    # pyproject's requires-python is >= 3.10; syntax newer than that (say,
    # `except*`) would only fail on a 3.10 interpreter
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    paths = [os.path.join(d, name) for top in ("src", "tests", "perfbench")
             for d, _, names in os.walk(os.path.join(root, top))
             for name in names if name.endswith(".py")]
    assert len(paths) > 20
    for path in paths:
        with open(path) as fh:
            ast.parse(fh.read(), filename=path, feature_version=(3, 10))


def _readme_blocks() -> list[str]:
    with open(README) as fh:
        return re.findall(r"^```[a-z]*\n(.*?)^```", fh.read(), re.M | re.S)


def test_readme_example_config_is_a_valid_run_config():
    (text,) = [b for b in _readme_blocks() if b.startswith("data.path = ")]
    rc = harness.parse_config(text)
    table = harness.load_table(rc)
    harness.model_config(rc, table.channels)


def test_every_readme_subcommand_line_parses():
    # the usage lines, with `[...]` optional parts included
    lines = [line.split("#", 1)[0].replace("[", "").replace("]", "")
             for block in _readme_blocks() for line in block.splitlines()
             if line.startswith("injecttst ")]
    parser = cli._build_parser()
    listed = set()
    for line in lines:
        argv = shlex.split(line)[1:]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README usage line does not parse: {line.strip()!r}")
        listed.add(argv[0])
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert listed == set(sub.choices)


def test_tiny_desk_ablation_calls_every_layer_its_traced_run_requires(tmp_path):
    # `--trace 1` fails desk-ablation when a `uses` layer shows no calls or a
    # `never_uses` one shows some; a run path that stops going through
    # `run_single` or `train_pipeline` must fail here too
    desk = _load("workloads").WORKLOADS["desk-ablation"]
    base = harness.RunConfig(data_path="synthetic:lead-lag:rows=300,lag=6,seed=0",
                             L=24, T=4, PL=8, D=8, heads=2, ci_layers=1,
                             pretrain_epochs=1, head_epochs=1, finetune_epochs=1,
                             batch_size=32, out=str(tmp_path))
    tracer = _load_tracer().Tracer("test")
    tracer.install()
    try:
        records = harness.run_ablation(desk.variants, [base.T], base)
    finally:
        tracer.uninstall()
    assert [r.status for r in records] == ["ok"] * 7
    assert tracer.usage_problems(desk.uses, desk.never_uses) == []


def _src_lines_matching(pattern: re.Pattern) -> list[str]:
    """`file:line: text` for each line of `src/injecttst/*.py` whose code,
    the part before any `#`, matches `pattern`."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "injecttst")
    found = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            found += [f"{name}:{i}: {line.strip()}" for i, line in enumerate(fh, 1)
                      if pattern.search(line.split("#", 1)[0])]
    return found


def test_rows_are_reduced_only_through_the_numerics_helper():
    # `numerics._row_sum` is the one row reduction of softmax and layer_norm:
    # numpy's sum/mean is slow over rows of 5-64 values, and a second path
    # could sum a row in another order (the shifted softmax's row max is fine)
    last_axis = re.compile(r"\.(?:sum|mean)\((?:axis=)?-1\b|np\.(?:sum|mean)\([^)]*axis=-1\b")
    found = _src_lines_matching(last_axis)
    assert hasattr(nm, "_row_sum") and not found, found


# a sum over axis 0, over a tuple that starts at 0, or over axes held in a name
_LEADING_AXES_SUM = re.compile(r"(?:\.sum\(|np\.sum\([^)]*,\s*)axis=(?:0\b|\(0\b|[A-Za-z_])")


def test_leading_axes_are_reduced_only_through_the_numerics_helper():
    # `numerics._col_sum` is the one sum over leading axes (bias, gain and
    # embedding gradients, the evaluation's per-window sums): numpy's `sum`
    # takes up to twice as long there. The forms it replaced must match.
    for line in ("g = g.sum(axis=tuple(range(extra)))", "g = g.sum(axis=axes, keepdims=True)",
                 "dgain = tmp.sum(axis=reduce_axes)", "sq_sum += (err ** 2).sum(axis=0)",
                 "np.sum(g, axis=(0, 1))"):
        assert _LEADING_AXES_SUM.search(line), line
    found = _src_lines_matching(_LEADING_AXES_SUM)
    assert hasattr(nm, "_col_sum") and not found, found
