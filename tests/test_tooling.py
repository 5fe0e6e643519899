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
    hist = rng.normal(size=(2, cfg.L, cfg.M)).astype(np.float32).transpose(0, 2, 1)
    tgt = rng.normal(size=(2, cfg.T, cfg.M)).astype(np.float32).transpose(0, 2, 1)
    batch = WindowBatch(history=hist, target=tgt)
    tracer = _load_tracer().Tracer("test")
    tracer.install()
    try:
        pred = model.forward_forecast(batch, params, cfg)
        loss = training.forecast_loss(pred, batch.target)
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


# The functions allowed numpy sums and means over an axis, with how many
# each holds and why; everything else reduces an axis through
# `numerics._row_sum` (the last axis) or `numerics._col_sum` (leading axes)
_AXIS_REDUCTIONS_ALLOWED = {
    "data.standardize": (1, "the train split's per-channel mean, once per run"),
    "synthetic.sine_mixture": (1, "the sum over each row's sine components, once per table"),
    "training._score": (2, "the horizon and channel means of the (M, T) error table, "
                           "once per evaluation"),
}


def _axis_reductions(source: str, module: str) -> list[tuple[str, int]]:
    """(qualified name of the enclosing function, line) of each `.sum`/`.mean`
    method call and `np.sum`/`np.mean` call in `source` given an axis. A call
    on an imported module's name is a function call: its axis is the second
    positional argument; a method's is the first."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
               if isinstance(node, ast.Import) or node.module is None}
    modules |= {"np", "numpy"}
    found = []

    def visit(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                  and child.func.attr in ("sum", "mean")):
                owner = child.func.value
                positional = 2 if isinstance(owner, ast.Name) and owner.id in modules else 1
                if (len(child.args) >= positional
                        or any(k.arg == "axis" for k in child.keywords)):
                    found.append((scope, child.lineno))
            visit(child, inner)

    visit(tree, module)
    return found


def test_axes_are_reduced_only_through_the_numerics_helpers():
    # `numerics._row_sum` is the one row reduction of softmax and layer_norm,
    # and `numerics._col_sum` the one sum over leading axes (bias, gain and
    # embedding gradients, the evaluation's per-window sums): numpy's sum and
    # mean are slow over rows of 5-64 values and over leading axes, and a
    # second path could sum in another order
    for line in ("g = g.sum(axis=tuple(range(extra)))", "g = g.sum(axis=axes, keepdims=True)",
                 "dgain = tmp.sum(axis=reduce_axes)", "sq_sum += (err ** 2).sum(axis=0)",
                 "np.sum(g, axis=(0, 1))", "s = x.sum(axis=-1)", "s = x.mean(-1)",
                 "s = np.mean(x, -1)", "s = (a * np.sin(t)).sum(axis=1)", "s = x.sum(2)"):
        assert _axis_reductions(f"def f():\n    {line}\n", "m") == [("m.f", 2)], line
    for line in ("s = x.sum()", "s = np.mean(x)", "s = nm.mean(x)", "s = sum(x, 0)"):
        assert _axis_reductions(f"from . import numerics as nm\n{line}\n", "m") == [], line
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "injecttst")
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                found += _axis_reductions(fh.read(), name[:-3])
    assert hasattr(nm, "_row_sum") and hasattr(nm, "_col_sum")
    assert [f for f in found if f[0] not in _AXIS_REDUCTIONS_ALLOWED] == []
    # a further reduction in an allowed function fails too, and an entry whose
    # function no longer reduces an axis is taken off the list
    counts = {scope: sum(f[0] == scope for f in found) for scope in _AXIS_REDUCTIONS_ALLOWED}
    assert counts == {scope: n for scope, (n, _) in _AXIS_REDUCTIONS_ALLOWED.items()}, found
