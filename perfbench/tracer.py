"""Span tracer for the traced run: wraps public functions of each module.

Wrappers replace every module-level binding of a function in the package:
`training` and `harness` import `forward_forecast`, `patchify`,
`train_pipeline` and `evaluate` by name, so patching only the defining
module would miss their calls. A function that no longer exists raises at
install time rather than reporting 0 ms.

Each span records (name, start, end, parent, run id) in memory; `save`
writes them out at the end. A span's duration leaves out the tracer's own
graph walk before each backward; its self time is that duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from array import array

import numpy as np

PACKAGE = "injecttst"

TRACED = {
    "numerics": ("add", "sub", "mul", "matmul", "reshape", "transpose", "sum_", "mean",
                 "softmax", "layer_norm", "gelu", "dropout", "scaled_dot_attention",
                 "backward", "grad_table"),
    "data": ("split", "standardize", "with_history", "make_windows", "patchify",
             "sequence_from_patches", "mask_patches"),
    "model": ("init_params", "embed_patches", "ci_encode", "global_mix_cat",
              "global_mix_pat", "sca_inject", "forecast_head", "pretrain_head",
              "forward_forecast", "forward_pretrain"),
    "training": ("masked_mse", "forecast_loss", "adam_step", "prepare_data", "run_stage",
                 "train_pipeline", "evaluate", "evaluate_persistence"),
    "checkpoint": ("save_checkpoint", "load_checkpoint", "apply_checkpoint"),
    "harness": ("load_table", "model_config", "schedule", "run_single", "run_ablation"),
    "synthetic": ("sine_mixture", "lead_lag", "dataset_from_spec"),
}

OPS = ("matmul", "add", "mul", "softmax", "layer_norm", "gelu", "reshape", "transpose")
MODEL_FNS = ("embed_patches", "ci_encode", "global_mix_cat", "global_mix_pat", "sca_inject",
             "forecast_head", "pretrain_head", "forward_forecast", "forward_pretrain")

_now = time.perf_counter_ns


def _graph_size(loss) -> tuple[int, int]:
    """Interior nodes reachable from `loss` and the bytes their outputs hold."""
    seen = {id(loss)}
    stack = [loss]
    nodes = nbytes = 0
    while stack:
        node = stack.pop()
        if node.parents:
            nodes += 1
            nbytes += node.data.nbytes
        for p in node.parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return nodes, nbytes


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.phase = 0
        self.names: list[str] = []
        self._module_of: list[str] = []
        self._span_name = array("i")
        self._span_start = array("q")
        self._span_end = array("q")
        self._span_parent = array("i")
        self._span_phase = array("i")
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        # time the tracer spends on its own work inside spans (the graph walk
        # before each backward); span durations and train steps leave it out
        self.excluded_ns = 0
        self._excluded_at_open: list[int] = []
        self.calls: list[int] = []
        self.incl_ns: list[int] = []
        self.self_ns: list[int] = []
        self.module_top_ns: dict[str, int] = {m: 0 for m in TRACED}
        self._patched: list[tuple] = []
        # workload-level figures gathered by hooks
        self.backward_ns: list[int] = []
        self.graph_nodes: list[int] = []
        self.graph_bytes: list[int] = []
        self.step_ns: list[int] = []
        self.train_windows = 0
        self.eval_windows = 0
        self.val_ns = 0
        self.stage_ns = {stage: 0 for stage in ("pretrain", "head", "finetune")}
        self.windows = 0
        self.window_iterations = 0
        self.window_mismatches: list[str] = []
        self.checkpoint_bytes = 0
        self.cells_failed = 0
        self._stage_depth = 0
        # (start_ns, dur_ns, windows, in_stage, excluded_ns at start)
        self._pending_forward = None

    # -- spans ---------------------------------------------------------------

    def _intern(self, name: str) -> int:
        self.names.append(name)
        self._module_of.append(name.split(".", 1)[0])
        self.calls.append(0)
        self.incl_ns.append(0)
        self.self_ns.append(0)
        return len(self.names) - 1

    def _open(self, nid: int) -> int:
        idx = len(self._span_name)
        self._span_name.append(nid)
        self._span_parent.append(self._stack[-1] if self._stack else -1)
        self._span_phase.append(self.phase)
        self._span_end.append(0)
        self._stack.append(idx)
        self._child_ns.append(0)
        self._excluded_at_open.append(self.excluded_ns)
        self._span_start.append(_now())
        return idx

    def _close(self, nid: int) -> int:
        end = _now()
        idx = self._stack.pop()
        dur = end - self._span_start[idx] - (self.excluded_ns - self._excluded_at_open.pop())
        self._span_end[idx] = end
        self.calls[nid] += 1
        self.incl_ns[nid] += dur
        self.self_ns[nid] += dur - self._child_ns.pop()
        if self._child_ns:
            self._child_ns[-1] += dur
        module = self._module_of[nid]
        parent = self._span_parent[idx]
        if parent < 0 or self._module_of[self._span_name[parent]] != module:
            self.module_top_ns[module] += dur
        return dur

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self._intern(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, nid)
        pre = getattr(self, "_pre_" + name.replace(".", "_"), None)
        post = getattr(self, "_post_" + name.replace(".", "_"), None)
        if pre is None and post is None:
            def traced(*args, **kwargs):
                self._open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(nid)
        else:
            def traced(*args, **kwargs):
                if pre is not None:
                    pre(args, kwargs)
                idx = self._open(nid)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    dur = self._close(nid)
                    if post is not None:
                        post(args, kwargs, result, self._span_start[idx], dur)
        return functools.update_wrapper(traced, fn)

    def _wrap_generator(self, fn, nid: int):
        """Time each batch a generator yields; check the window count
        (`make_windows` is the only traced generator)."""
        window_count = importlib.import_module(f"{PACKAGE}.data").window_count

        def traced(table, L, T, *args, **kwargs):
            it = fn(table, L, T, *args, **kwargs)
            yielded = 0
            while True:
                self._open(nid)
                try:
                    batch = next(it)
                except StopIteration:
                    break
                finally:
                    self._close(nid)
                yielded += batch.size
                yield batch
            self.windows += yielded
            self.window_iterations += 1
            expected = window_count(table.rows, L, T)
            if yielded != expected:
                self.window_mismatches.append(f"{yielded} yielded for rows={table.rows}, "
                                              f"L={L}, T={T}; window_count says {expected}")
        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        package = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module_name, functions in TRACED.items():
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrapper = self._wrap(original, f"{module_name}.{fn_name}")
                for m in package:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    # -- hooks: pre(args, kwargs); post(args, kwargs, result, start_ns, dur_ns) --

    def _pre_numerics_backward(self, args, kwargs):
        # before the span opens, so backward_ms excludes the walk; the
        # enclosing spans and the train step exclude it through excluded_ns
        t0 = _now()
        nodes, nbytes = _graph_size(args[0] if args else kwargs["loss"])
        self.graph_nodes.append(nodes)
        self.graph_bytes.append(nbytes)
        self.excluded_ns += _now() - t0

    def _post_numerics_backward(self, args, kwargs, result, start, dur):
        self.backward_ns.append(dur)

    def _forward_done(self, args, kwargs, result, start, dur):
        # A forward that Adam consumes is a train step; one inside run_stage
        # that the next forward or the stage's end finds pending is validation.
        self._flush_validation()
        first = args[0]
        windows = first.history.shape[0] if hasattr(first, "history") else first.patches.shape[0]
        self._pending_forward = (start, dur, windows, self._stage_depth > 0,
                                 self.excluded_ns)

    _post_model_forward_forecast = _forward_done
    _post_model_forward_pretrain = _forward_done

    def _flush_validation(self):
        pending = self._pending_forward
        if pending is not None and pending[3]:
            self.val_ns += pending[1]
        self._pending_forward = None

    def _post_training_adam_step(self, args, kwargs, result, start, dur):
        pending = self._pending_forward
        if pending is not None:
            # Adam runs no backward, so start + dur is its end; the graph
            # walks since the forward began are taken out
            self.step_ns.append(start + dur - pending[0] - (self.excluded_ns - pending[4]))
            self.train_windows += pending[2]
        self._pending_forward = None

    def _pre_training_run_stage(self, args, kwargs):
        self._stage_depth += 1

    def _post_training_run_stage(self, args, kwargs, result, start, dur):
        self._stage_depth -= 1
        self._flush_validation()
        self.stage_ns[args[0] if args else kwargs["stage"]] += dur

    def _post_training_evaluate(self, args, kwargs, result, start, dur):
        if result is not None:
            self.eval_windows += result.n_windows

    def _post_checkpoint_save_checkpoint(self, args, kwargs, result, start, dur):
        self.checkpoint_bytes += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])

    def _post_harness_run_ablation(self, args, kwargs, result, start, dur):
        if result is not None:
            self.cells_failed += sum(r.status != "ok" for r in result)

    # -- results -------------------------------------------------------------

    def calls_of(self, name: str) -> int:
        return self.calls[self.names.index(name)]

    def usage_problems(self, uses: set, never_uses: set) -> list[str]:
        """Layers a workload must use but shows no calls for, and the reverse."""
        problems = [f"{n}: no calls" for n in sorted(uses) if self.calls_of(n) == 0]
        problems += [f"{n}: {self.calls_of(n)} calls, expected none"
                     for n in sorted(never_uses) if self.calls_of(n) > 0]
        return problems

    def metrics(self) -> dict[str, float]:
        def total_ms(name):
            return self.incl_ns[self.names.index(name)] / 1e6

        def median(xs):
            return statistics.median(xs) if xs else 0.0

        def p90(xs):
            return float(np.percentile(xs, 90)) if xs else 0.0

        m: dict[str, float] = {}
        m["numerics.backward_ms"] = median(self.backward_ns) / 1e6
        m["numerics.nodes_per_step"] = median(self.graph_nodes)
        m["numerics.graph_mb_per_step"] = median(self.graph_bytes) / 1e6
        for op in OPS:
            m[f"numerics.op_calls.{op}"] = self.calls_of(f"numerics.{op}")
            m[f"numerics.fwd_ms.{op}"] = total_ms(f"numerics.{op}")
        for fn in MODEL_FNS:
            m[f"model.{fn}.fwd_ms"] = total_ms(f"model.{fn}")
        m["training.step_ms.p50"] = median(self.step_ns) / 1e6
        m["training.step_ms.p90"] = p90(self.step_ns) / 1e6
        m["training.adam_ms"] = total_ms("training.adam_step")
        for stage, ns in self.stage_ns.items():
            m[f"training.stage_s.{stage}"] = ns / 1e9
        m["training.val_s"] = self.val_ns / 1e9
        m["training.evaluate_s"] = total_ms("training.evaluate") / 1e3
        step_s = sum(self.step_ns) / 1e9
        m["training.train_windows_per_s"] = self.train_windows / step_s if step_s else 0.0
        eval_s = m["training.evaluate_s"]
        m["training.eval_windows_per_s"] = self.eval_windows / eval_s if eval_s else 0.0
        m["data.make_windows_ms"] = total_ms("data.make_windows")
        m["data.patchify_ms"] = total_ms("data.patchify")
        m["data.mask_patches_ms"] = total_ms("data.mask_patches")
        m["data.windows"] = self.windows
        m["checkpoint.save_ms"] = total_ms("checkpoint.save_checkpoint")
        m["checkpoint.load_ms"] = total_ms("checkpoint.load_checkpoint")
        m["checkpoint.bytes"] = self.checkpoint_bytes
        m["synthetic.generate_ms"] = self.module_top_ns["synthetic"] / 1e6
        m["harness.prepare_data_ms"] = total_ms("training.prepare_data")
        m["harness.cells"] = self.calls_of("harness.run_single")
        m["harness.cells_failed"] = self.cells_failed
        for module in TRACED:
            m[f"{module}.self_ms"] = sum(
                ns for ns, mod in zip(self.self_ns, self._module_of) if mod == module) / 1e6
        m["trace.spans"] = len(self._span_name)
        return m

    def save(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), run_id=np.array(self.run_id),
            name=np.frombuffer(self._span_name, dtype=np.int32),
            start_ns=np.frombuffer(self._span_start, dtype=np.int64),
            end_ns=np.frombuffer(self._span_end, dtype=np.int64),
            parent=np.frombuffer(self._span_parent, dtype=np.int32),
            phase=np.frombuffer(self._span_phase, dtype=np.int32))
