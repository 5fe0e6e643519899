"""Seeded fingerprint: a fixed tiny flow must write the same checkpoints and
score the same metrics as when the pins below were taken.

The flow is acceptance criterion 9's six-variant matrix at one epoch per
stage, then the CLI's pretrain -> finetune --checkpoint -> evaluate. Its
shapes are tiny, so one pretraining step at the paper shape is pinned too.
Float32 bits depend on numpy, the BLAS kernel and the CPU, so the pins hold
for the host named in `HOST`; the paper step's also depend on the BLAS
thread count, so it is pinned per count. On that host checkpoints and
gradients must match by sha256 and metrics and losses by `repr`; elsewhere,
or at a thread count with no pin, only the metrics and losses are compared,
at `REL_TOL`.

A change that moves values updates the pins in the same commit; print the
new ones with `PYTHONPATH=src python tests/test_fingerprint.py`, and the
paper step's one-thread pin with `OPENBLAS_NUM_THREADS=1` set as well.
"""

import glob
import hashlib
import json
import math
import os
import platform
import warnings

import numpy as np

from injecttst.cli import main
from injecttst.data import make_windows, mask_patches, patchify
from injecttst.harness import RunConfig, run_ablation
from injecttst.model import ModelConfig, forward_pretrain, init_params, normalize_last_value
from injecttst.numerics import grad_table
from injecttst.synthetic import sine_mixture
from injecttst.training import masked_mse

# the host the exact pins were taken on (`host_key()`)
HOST = "numpy 2.4.6, scipy-openblas 0.3.31.188.0, x86_64 Intel(R) Xeon(R) Processor"

# sha256 of every checkpoint the flow writes, by path under the work directory
CHECKPOINTS = {
    "cli/cat-rc-T4-s0-97f45c0681eba634/stage-finetune-best.ckpt": "18b1a541e823a65d3f50756348a46300753f2c519ed034b63ad7357d519cad6b",
    "cli/cat-rc-T4-s0-97f45c0681eba634/stage-head-best.ckpt": "34fcedd7ecc329630af812d1e76dd116effcdeb2aa69bea483bd3c1d8ab045bd",
    "cli/cat-rc-T4-s0-97f45c0681eba634/stage-pretrain-best.ckpt": "d5d02183465a4edaaf7d77f863b0a5a3d9da5c6c28c307247884f16aa606f959",
    "matrix/cat-T4-s0-abebad2efd18db31/stage-finetune-best.ckpt": "ee578aaa476336ad7850c805ccb24314266cdeadcae128d0fd76fdcf8ffc059e",
    "matrix/cat-T4-s0-abebad2efd18db31/stage-head-best.ckpt": "a926e5ed605a8b22656f197e33956aa14fe8b2dc00483cfdd8ca45d323b2afcc",
    "matrix/cat-T4-s0-abebad2efd18db31/stage-pretrain-best.ckpt": "01b83e3198824018557b01b91629325cdb2c628114a43877daed60de993e82af",
    "matrix/cat-T8-s0-63df846dc0d89bcb/stage-finetune-best.ckpt": "f3a3ee5d08268cb38f94ddd754d644f0595b7069114ae06eac80daf7e4dae0f3",
    "matrix/cat-T8-s0-63df846dc0d89bcb/stage-head-best.ckpt": "c20adcf93b253faf6305879f42b13d16d1a7751e9d2c9157781d2e66eb3c45fb",
    "matrix/cat-T8-s0-63df846dc0d89bcb/stage-pretrain-best.ckpt": "42706e8db453c99edb2de65bbe554fc49ad23fe3831acd85d03a906c45ad6232",
    "matrix/cat-rc-T4-s0-44da2b4011d6ded9/stage-finetune-best.ckpt": "2f0da85b6a2f70b49d1a3221d70996c6734a25499f484ce9b2278c60e9ddc78b",
    "matrix/cat-rc-T4-s0-44da2b4011d6ded9/stage-head-best.ckpt": "3cfe28d9492ec6b27f2ccb8ca8d4f261bbe96f7b29503725f889e84b1bb6a856",
    "matrix/cat-rc-T4-s0-44da2b4011d6ded9/stage-pretrain-best.ckpt": "589f3f91114ee682ec2f0aba17056a56c3b4f491017dcd8da030a59e492d770c",
    "matrix/cat-rc-T8-s0-f082ff598431d047/stage-finetune-best.ckpt": "7e74d00282cf8f3c20a15f6f9a79487dcac6c25c36df4a287fde4e7c6f3bfee4",
    "matrix/cat-rc-T8-s0-f082ff598431d047/stage-head-best.ckpt": "4c6a0ceafb1e0f10fb6a72f030cf31408736dbf7cbf65cf22fe597a3b2e2fc2f",
    "matrix/cat-rc-T8-s0-f082ff598431d047/stage-pretrain-best.ckpt": "f01df0a4364096d2d9b8d47f29e98c5fa5a35960812cbc46039ab7322a304c58",
    "matrix/no-cid-T4-s0-4e4d3bc8bbeb7e0f/stage-finetune-best.ckpt": "4ce8d7f6a94a87f38d41a65a64fb1a0414e184acbf1a653d40d42f5b7ad5e239",
    "matrix/no-cid-T4-s0-4e4d3bc8bbeb7e0f/stage-head-best.ckpt": "eb4f855e0e2e67d4c03e92aed0c42940f9dbecd23b8e8bb0f2d7522abe28f042",
    "matrix/no-cid-T4-s0-4e4d3bc8bbeb7e0f/stage-pretrain-best.ckpt": "6792838236e6069cfc84b917b2587a55a0f37c05547ab92a9f220714273659e3",
    "matrix/no-cid-T8-s0-cdc3d7d3bf136b7c/stage-finetune-best.ckpt": "2dbb5803d795f2b1d4d52081a30e32bfe682034bc6098106d85b45ff4d19d20e",
    "matrix/no-cid-T8-s0-cdc3d7d3bf136b7c/stage-head-best.ckpt": "86e7de22805e74f02f23bc741ebfb8d2593c7dcfc079805584445077a6291dcb",
    "matrix/no-cid-T8-s0-cdc3d7d3bf136b7c/stage-pretrain-best.ckpt": "e42803c9587876d2d478399ccbc300ea436971e95ef529f06735e74ade9358c3",
    "matrix/no-gi-T4-s0-dedcee6d0581812a/stage-finetune-best.ckpt": "081343b7acb640f0a188aff76c5658e529b712318c0d78ce718c603180803953",
    "matrix/no-gi-T4-s0-dedcee6d0581812a/stage-head-best.ckpt": "d725a9e4b039f7f548c9915bd2e8cf10b49b825cc4b989e0fdbc6a9b3028ea10",
    "matrix/no-gi-T4-s0-dedcee6d0581812a/stage-pretrain-best.ckpt": "2271a21652d879d4739dc6d573add705162a01f3d198e61671b35603c110d193",
    "matrix/no-gi-T8-s0-60861e9ecaa81678/stage-finetune-best.ckpt": "655c6cf5a4cd8e72b9a2e249a68b3250271c126021dc3f969d633ac7d69ee4c8",
    "matrix/no-gi-T8-s0-60861e9ecaa81678/stage-head-best.ckpt": "4d9dafc6427db9b5d91f9f8775b2015e74f710c2578fc3f36f3d2e30b1d2f201",
    "matrix/no-gi-T8-s0-60861e9ecaa81678/stage-pretrain-best.ckpt": "8dfdd1bcfe79fe15a260e821476d9d492e6f5afa4bbbdbddf23379bad1bde162",
    "matrix/pat-T4-s0-02e3c5378b3d8c88/stage-finetune-best.ckpt": "f26d46ba852c1c59e64ef2ddb94d61c36162d2d368530ca9b7c955156f014e40",
    "matrix/pat-T4-s0-02e3c5378b3d8c88/stage-head-best.ckpt": "f1242e4e52e6848bb1a40a669bf9b494f85c47793324baca22ce24c547fece43",
    "matrix/pat-T4-s0-02e3c5378b3d8c88/stage-pretrain-best.ckpt": "1c73253a2a865ab7d1f4aa94983d12e77442be4cb98226bbc6caae2e7bc2d9d8",
    "matrix/pat-T8-s0-48bc6cef9bba5af4/stage-finetune-best.ckpt": "38550f1d89aa526da2f64dedff10fe8d1b8e31b85d8c0cd4b8bda9df3961a52b",
    "matrix/pat-T8-s0-48bc6cef9bba5af4/stage-head-best.ckpt": "55de9b03ad3323266e16d03d2bffa82460984b791db82811c93b040b2736f320",
    "matrix/pat-T8-s0-48bc6cef9bba5af4/stage-pretrain-best.ckpt": "cdb4d398baa322e9177bd24f2c965050b65e114bad1d103a6c5d8eb66a51ccbe",
    "matrix/pat-rc-T4-s0-b71aeb470c05d1f3/stage-finetune-best.ckpt": "41cf7c9de2ad55f14d73e189927b23e212e516ac5a823b047277df982b6d0392",
    "matrix/pat-rc-T4-s0-b71aeb470c05d1f3/stage-head-best.ckpt": "9325e2b6aaf613548566e2518acefda419979f1d4add0b82ce6e0c8170e0b51b",
    "matrix/pat-rc-T4-s0-b71aeb470c05d1f3/stage-pretrain-best.ckpt": "db02e6ef6cdc40ccd1ca780a3304d8a3ce5724ddd59ebd0a2fdb020da2125a5c",
    "matrix/pat-rc-T8-s0-896e116f442cb22e/stage-finetune-best.ckpt": "44d736059d7e61749fc3d240a1b8c53c24b9c8f2358edf4f5ea283f08e8fe19e",
    "matrix/pat-rc-T8-s0-896e116f442cb22e/stage-head-best.ckpt": "20e993da2fbc2fd396b0e67e13246b1d91eddb33a24f8bfd4f76f718cf15a2aa",
    "matrix/pat-rc-T8-s0-896e116f442cb22e/stage-pretrain-best.ckpt": "7edddf02794e1b5ed4574d582ab4ad1ea6104e688c1ad0b424ef6a34107d089d",
}

# (repr(mse), repr(mae)) of every record the flow writes
METRICS = {
    "pat-T4": ("0.4473988344954625", "0.5010389306722755"),
    "cat-T4": ("0.330364877456955", "0.4629754173529896"),
    "pat-rc-T4": ("0.5852298512866595", "0.6481960588822425"),
    "cat-rc-T4": ("0.5772651623312564", "0.6458965762721222"),
    "no-cid-T4": ("0.4501737898123164", "0.5049468446502529"),
    "no-gi-T4": ("0.6631557287188723", "0.6563352277095305"),
    "pat-T8": ("0.718988049887573", "0.6752089266478576"),
    "cat-T8": ("0.6840216538520992", "0.6517747575131614"),
    "pat-rc-T8": ("0.577993875607927", "0.5941688378400802"),
    "cat-rc-T8": ("0.5723408774737416", "0.5834914558313044"),
    "no-cid-T8": ("0.7108454768564005", "0.6719932280830108"),
    "no-gi-T8": ("0.5889193909289289", "0.601258521235501"),
    "cli-finetune": ("0.6556507002864871", "0.6452233423218499"),
    "cli-evaluate": ("0.6556507002864871", "0.6452233423218499"),
}

# (repr(loss), sha256 of the gradients) of `paper_step`, by BLAS thread
# count (`blas_threads()`): OpenBLAS splits a product's sums by thread
PAPER_STEP = {
    1: ("3.557384729385376", "37ef58cc118d87c3e6f815b19ef092c3c7a3ec580df1b7730196689fabf04071"),
    2: ("3.557384729385376", "c30dafdf941c2dfe800aa7a6add1ce68f5e3d0939a9910e474b53aaafd74167b"),
}

# Off the pinned host: the largest relative change of a test metric that any
# value-moving change so far has made (the attention key-bias removal), so a
# change of that size or less can pass there, but not on the pinned host.
REL_TOL = 1.3e-7

_CLI_CONFIG = """\
data.path = synthetic:lead-lag:rows=300,lag=3,seed=5
model.L = 24
model.T = 4
model.PL = 8
model.D = 16
model.heads = 2
model.ci_layers = 1
train.pretrain_epochs = 1
train.head_epochs = 1
train.finetune_epochs = 1
train.batch_size = 32
run.variant = cat-rc
run.out = cli
"""


def host_key() -> str:
    """numpy version, BLAS name and version, and the machine: its
    architecture and CPU model, since the BLAS picks its kernels by CPU."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):   # numpy before 1.25 has no dict form
        blas_name = "unknown BLAS"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor()
    return f"numpy {np.__version__}, {blas_name}, {platform.machine()} {cpu}"


def blas_threads() -> int:
    """The BLAS thread count this process runs with: `OPENBLAS_NUM_THREADS`,
    else `OMP_NUM_THREADS`, else the CPU count."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(name):
            return int(os.environ[name])
    return os.cpu_count() or 1


def run_flow() -> tuple[dict, dict]:
    """Run the flow in the current directory; return its checkpoint hashes
    and its records' metrics."""
    base = RunConfig(data_path="synthetic:sines:rows=300,channels=3,seed=4",
                     L=24, T=4, PL=8, D=16, heads=2, ci_layers=1, mix_layers=1,
                     pretrain_epochs=1, head_epochs=1, finetune_epochs=1,
                     batch_size=64, seed=0, out="matrix")
    records = run_ablation(["pat", "cat", "pat-rc", "cat-rc", "no-cid", "no-gi"],
                           [4, 8], base)
    metrics = {f"{r.variant}-T{r.T}": (repr(r.mse), repr(r.mae)) for r in records}

    with open("run.cfg", "w") as fh:
        fh.write(_CLI_CONFIG)
    assert main(["pretrain", "--config", "run.cfg"]) == 0
    (pretrained,) = glob.glob("cli/*/stage-pretrain-best.ckpt")
    assert main(["finetune", "--config", "run.cfg", "--checkpoint", pretrained]) == 0
    with open("cli/results.ndjson") as fh:
        finetuned = json.loads(fh.readline())["checkpoint"]
    assert main(["evaluate", "--config", "run.cfg", "--checkpoint", finetuned]) == 0
    with open("cli/results.ndjson") as fh:
        for name, line in zip(("finetune", "evaluate"), fh):
            record = json.loads(line)
            metrics[f"cli-{name}"] = (repr(record["mse"]), repr(record["mae"]))

    hashes = {}
    for path in sorted(glob.glob("**/*.ckpt", recursive=True)):
        with open(path, "rb") as fh:
            hashes[path] = hashlib.sha256(fh.read()).hexdigest()
    return hashes, metrics


def paper_step() -> tuple[str, str]:
    """One seeded `pat` pretraining step on the first 6-window chunk (the
    training chunk at this shape) of a 7-channel sine mixture, at the paper
    shape (L=512, M=7, D=64): its loss's `repr` and the sha256 of its
    gradients, in name order."""
    cfg = ModelConfig(L=512, T=96, M=7, D=64, mix_mode="pat")
    batch = next(make_windows(sine_mixture(1800, 7), cfg.L, cfg.T, 6))
    history_n, _ = normalize_last_value(batch, np.float32)
    ps = patchify(history_n, cfg.PL)
    masked = mask_patches(ps, 0.5, seed=0)
    params = init_params(cfg, seed=0)
    loss = masked_mse(forward_pretrain(masked, params, cfg), ps.patches, masked.mask)
    grads = grad_table(loss, params)
    digest = hashlib.sha256()
    for name in sorted(grads):
        digest.update(grads[name].tobytes())
    return repr(float(loss.data)), digest.hexdigest()


def _off_host(unchecked: str, compared: str) -> None:
    warnings.warn(f"host {host_key()!r} is not the pinned {HOST!r}: {unchecked} not "
                  f"checked, {compared} compared at {REL_TOL:g}")


def test_a_paper_shape_pretrain_step_matches_its_pin():
    loss, digest = paper_step()
    threads = blas_threads()
    if host_key() == HOST and threads in PAPER_STEP:
        assert (loss, digest) == PAPER_STEP[threads]
        return
    if host_key() == HOST:
        warnings.warn(f"no pin for {threads} BLAS threads: gradients not checked, "
                      f"loss compared at {REL_TOL:g}")
    else:
        _off_host("gradients", "loss")
    pinned = PAPER_STEP.get(threads, PAPER_STEP[1])[0]
    assert math.isclose(float(loss), float(pinned), rel_tol=REL_TOL, abs_tol=0.0)


def test_seeded_flow_matches_its_pins(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    hashes, metrics = run_flow()
    assert metrics.keys() == METRICS.keys()
    if host_key() == HOST:
        assert metrics == METRICS
        assert hashes == CHECKPOINTS
        return
    _off_host("checkpoints and exact metrics", "metrics")
    assert hashes.keys() == CHECKPOINTS.keys()
    off = {label: (got, METRICS[label]) for label, got in metrics.items()
           if not all(math.isclose(float(g), float(p), rel_tol=REL_TOL, abs_tol=0.0)
                      for g, p in zip(got, METRICS[label]))}
    assert not off, off


if __name__ == "__main__":
    import contextlib
    import sys
    import tempfile

    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(sys.stderr):
        os.chdir(work)
        hashes, metrics = run_flow()
    print(f'HOST = "{host_key()}"\n\nCHECKPOINTS = {{')
    for path, sha in hashes.items():
        print(f'    "{path}": "{sha}",')
    print("}\n\nMETRICS = {")
    for label, (mse, mae) in metrics.items():
        print(f'    "{label}": ("{mse}", "{mae}"),')
    loss, digest = paper_step()
    print(f'}}\n\nPAPER_STEP[{blas_threads()}] = ("{loss}", "{digest}")')
