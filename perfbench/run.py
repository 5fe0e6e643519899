"""injecttst benchmark: one workload, one seed, untraced or traced.

    python3 perfbench/run.py --workload desk-ablation --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The untraced run (--trace 0) repeats the
workload for about --seconds, times set-up in fresh interpreters between the
repetitions, and reports every end-to-end metric of BENCHMARK.json: wall_s
is the median repetition and setup_s the median set-up, both in seconds at
a reference CPU speed (clock.py).
The traced run (--trace 1) runs the workload once untraced and once with every
public function of each module wrapped, and reports every per-layer metric.
Both check the outputs; the last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Spans and a result record with
provenance are written under `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

# One BLAS thread, set before numpy loads and inherited by the set-up probes.
# On a 2-vCPU KVM guest with OpenBLAS 0.3.31 the default second thread made
# paper-shape repetitions no faster (27-29 s for paper-train either way), and
# paper-eval's wall_s spread over 5 seeds was 0.22 with it against 0.10 without.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checkout  # noqa: E402

SETUP_SAMPLES = 15                  # fresh-interpreter set-ups per untraced run


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- provenance ---------------------------------------------------------------

def _blas_threads():
    """OpenBLAS's own thread count, read from the loaded library."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(checkout.ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout.ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((checkout.SRC / "injecttst").rglob("*.py")):
        h.update(str(path.relative_to(checkout.SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "git_commit": _git_commit(),
            "src_sha256": _source_digest()}


# -- runs ---------------------------------------------------------------------

def _time_setup(name: str, seed: int, workdir: str) -> float:
    """Set-up time from process start to ready, in a fresh interpreter."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(__file__), "setup_probe.py"),
         name, str(seed), tempfile.mkdtemp(dir=workdir)],
        capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


def _bitwise_same(a: float, b: float) -> bool:
    return float(a).hex() == float(b).hex()


def _repeat(w, state, checks, workdir: str, seconds: float, between=None, clock=None):
    """Repeat the workload, at least once, while the next repetition is
    expected to end within half a repetition of `seconds`. `between(share,
    last)` runs before each repetition and after the last one, with the share
    of `seconds` used so far. With a `clock`, repetitions time themselves on
    `clock.now` and each result's `calibrated_s` holds its time at the
    clock's reference speed."""
    results, crashed = [], 0
    start = time.monotonic()
    while True:
        if between is not None:
            between((time.monotonic() - start) / seconds, False)
        rep_dir = os.path.join(workdir, f"rep{len(results)}")
        gc.collect()
        if clock is not None:
            clock.begin()
        try:
            r = w.rep(state, checks, rep_dir, now=time.perf_counter if clock is None
                      else clock.now)
        except Exception:
            traceback.print_exc()
            crashed += 1
            break
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)
        if clock is not None:
            r.calibrated_s = clock.end(r.start, r.wall_s)
        results.append(r)
        typical = statistics.median(r.wall_s for r in results)
        if time.monotonic() - start + typical / 2 >= seconds:
            break
    if between is not None:
        between(1.0, True)
    return results, crashed


def untraced(w, args, workdir, checks):
    from clock import Clock, calibrated, reference
    from workloads import check_window_counts

    reference(w.reference)                                  # warm-up: BLAS start-up
    _time_setup(w.name, args.seed, workdir)                 # warm-up: fills the bytecode cache
    state = w.setup(args.seed, workdir, checks)
    check_window_counts(w.splits(state), state, checks)
    # set-up samples are spread over the run, between the repetitions, and
    # each is taken between two starts of an empty interpreter (clock.py)
    setup_raw, setup_samples = [], []

    def sample_setups(share, last):
        want = SETUP_SAMPLES if last else max(len(setup_samples) + 1,
                                               math.ceil(SETUP_SAMPLES * share))
        while len(setup_samples) < want:
            before = reference("interpreter")
            raw = _time_setup(w.name, args.seed, workdir)
            setup_raw.append(raw)
            setup_samples.append(calibrated(raw, before, reference("interpreter"),
                                            "interpreter"))

    clock = Clock(w.reference)
    clock.install()
    try:
        results, crashed = _repeat(w, state, checks, workdir, args.seconds, sample_setups,
                                   clock=clock)
    finally:
        clock.uninstall()
    if not results:
        return None, {}, crashed, {}
    first = results[0]
    checks.check("repetitions give a bitwise-equal test mse",
                 all(_bitwise_same(r.test_mse, first.test_mse) for r in results),
                 " ".join(repr(r.test_mse) for r in results))
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(r.calibrated_s for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {"repetitions": len(results),
              "wall_s.calibrated": [r.calibrated_s for r in results],
              "wall_s.raw": [r.wall_s for r in results],
              "wall_s.raw_median": statistics.median(r.wall_s for r in results),
              "setup_s.calibrated": setup_samples, "setup_s.raw": setup_raw,
              "test_mse": first.test_mse,
              "persistence_mse": first.persistence_mse,
              "mse_vs_persistence": first.test_mse / first.persistence_mse}
    for key in first.report:
        report[key] = statistics.median(r.report[key] for r in results)
    return results, metrics, crashed, report


def traced(w, args, workdir, checks, run_id):
    from tracer import Tracer

    # untraced reference first, for half the time: warm, like the traced repetition
    plain, crashed = _repeat(w, w.setup(args.seed, workdir, checks), checks, workdir,
                             args.seconds / 2)
    if not plain:
        return None, {}, crashed, {}
    tracer = Tracer(run_id)
    tracer.install()
    try:
        traced_dir = os.path.join(workdir, "traced")
        os.makedirs(traced_dir)
        tracer.phase = 1
        state = w.setup(args.seed, traced_dir, checks)
        tracer.phase = 2
        result = w.rep(state, checks, os.path.join(traced_dir, "rep"))
    finally:
        tracer.uninstall()
    checks.check("traced test mse is bitwise equal to untraced",
                 _bitwise_same(result.test_mse, plain[0].test_mse),
                 f"{result.test_mse!r} vs {plain[0].test_mse!r}")
    problems = tracer.usage_problems(w.uses, w.never_uses)
    checks.check("trace call counts match the layers the workload uses", not problems,
                 "; ".join(problems))
    checks.check("every traced window stream yields window_count windows",
                 tracer.window_iterations > 0 and not tracer.window_mismatches,
                 "; ".join(tracer.window_mismatches) or f"{tracer.window_iterations} streams")
    metrics = tracer.metrics()
    untraced_wall = statistics.median(r.wall_s for r in plain)
    metrics["trace.overhead_ratio"] = result.wall_s / untraced_wall
    tracer.save(str(checkout.OUT / f"spans-{w.name}.npz"))
    report = {"test_mse": result.test_mse, "wall_s.untraced": untraced_wall,
              "wall_s.traced": result.wall_s,
              "trace.graph_walk_s": tracer.excluded_ns / 1e9}
    return plain + [result], metrics, crashed, report


def main(argv=None) -> int:
    args = _parse_args(argv)
    checkout.use_checkout_sources()
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choices: {sorted(wl.WORKLOADS)}\n")
        return 2
    w = wl.WORKLOADS[args.workload]
    os.environ["INJECTTST_THREADS"] = "1"           # ablation cells stay in this process
    run_id = f"{w.name}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    workdir = checkout.OUT / f"work-{run_id}"
    workdir.mkdir(parents=True)
    checks = wl.Checks()
    try:
        if args.trace:
            results, metrics, crashed, report = traced(w, args, str(workdir), checks, run_id)
        else:
            results, metrics, crashed, report = untraced(w, args, str(workdir), checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if results is None:
        sys.stderr.write("perfbench: no repetition completed\n")
        return 1

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        sys.stderr.write(f"perfbench: metrics {sorted(metrics)} do not match "
                         f"BENCHMARK.json {sorted(m['name'] for m in wanted)}\n")
        return 1

    attempted = sum(r.operations for r in results) + crashed + len(checks.results)
    failed = sum(r.operations_failed for r in results) + crashed + len(checks.failed)
    record = {"provenance": provenance(args), "report": report,
              "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks.results],
              "correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}

    for name, ok, detail in checks.results:
        if not ok:
            print(f"CHECK FAILED: {name}: {detail}")
    print(f"checks: {len(checks.results) - len(checks.failed)}/{len(checks.results)} passed; "
          f"failed_frac = {failed / attempted!r}")
    for key, value in report.items():
        print(f"{key} = {value!r}")
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print("provenance: " + json.dumps(record["provenance"]))
    out = checkout.OUT / f"result-{w.name}-s{args.seed}-t{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
