"""Seeded fingerprint: a fixed tiny flow must write the same checkpoints and
score the same metrics as when the pins below were taken.

The flow is acceptance criterion 9's six-variant matrix at one epoch per
stage, then the CLI's pretrain -> finetune --checkpoint -> evaluate. Its
shapes are tiny, so one pretraining step at the paper shape is pinned too.
Float32 bits depend on numpy, the BLAS kernel and the CPU, so the pins hold
for the host named in `HOST`. On that host checkpoints and gradients must
match by sha256 and metrics and losses by `repr`; elsewhere only the metrics
and losses are compared, at `REL_TOL`.

A change that moves values updates the pins in the same commit; print the
new ones with `PYTHONPATH=src python tests/test_fingerprint.py`.
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
    "cli/cat-rc-T4-s0-97f45c0681eba634/stage-finetune-best.ckpt": "080df591974226a83ba3be766885ceb5ec8df699de29532da2e49895f1a92a6f",
    "cli/cat-rc-T4-s0-97f45c0681eba634/stage-head-best.ckpt": "2395cd52ab5bd20510fa0e9b4d31714a1344aa747905394514088fb1fe94c418",
    "cli/cat-rc-T4-s0-97f45c0681eba634/stage-pretrain-best.ckpt": "38a62d4a798d4f48c4517ec771ba24afa6200df86cb66e911d67c9f092138d3e",
    "matrix/cat-T4-s0-abebad2efd18db31/stage-finetune-best.ckpt": "47e47c076c7524fdf84bd1376a9ba02ae200f51d406fa5d3c2fb03280c2640ae",
    "matrix/cat-T4-s0-abebad2efd18db31/stage-head-best.ckpt": "1393d86fb092b001eccee13f117d81ab7bc21c4762864f79bd5f5891ce39ba57",
    "matrix/cat-T4-s0-abebad2efd18db31/stage-pretrain-best.ckpt": "8788f229cd5d40866efb201255471d787250527b3e77d231456bfafe8fd4e034",
    "matrix/cat-T8-s0-63df846dc0d89bcb/stage-finetune-best.ckpt": "3ec4bdd700e2113b4628ad168816a556b07e1c1818d69ec9a17d89c860f2b0b6",
    "matrix/cat-T8-s0-63df846dc0d89bcb/stage-head-best.ckpt": "e61bc6ca751fdfeb54ba43f8119c19b4bff9e5e868f034b5c50e1b71a2d19858",
    "matrix/cat-T8-s0-63df846dc0d89bcb/stage-pretrain-best.ckpt": "7c90fb211bb196a54358276c43073a90b7555cc92fc5de8b7ff2b401c273328c",
    "matrix/cat-rc-T4-s0-44da2b4011d6ded9/stage-finetune-best.ckpt": "f52425c9ba33352caa06df77f82e5d67845a6f1d43162cfdc692c9ef05e67698",
    "matrix/cat-rc-T4-s0-44da2b4011d6ded9/stage-head-best.ckpt": "c6657a6ee9e0099cd543a9f40c937b1c164325cd6b405cf2a1d190882a7d57a1",
    "matrix/cat-rc-T4-s0-44da2b4011d6ded9/stage-pretrain-best.ckpt": "aa5356cf0a108bb37ae1ceabee70c0fcf59e43f547137574668b1d61675a476a",
    "matrix/cat-rc-T8-s0-f082ff598431d047/stage-finetune-best.ckpt": "631365bd0dfc364320a0787d17d2776199a3e7ac4f73f68514fd188d767f584c",
    "matrix/cat-rc-T8-s0-f082ff598431d047/stage-head-best.ckpt": "fc58e0ec44c0702b15e207ff06b521b3546eda4cdab4e6523fe3700c3295896c",
    "matrix/cat-rc-T8-s0-f082ff598431d047/stage-pretrain-best.ckpt": "fba31de5fb44da6f0f5cba9748cbc193b4c999d6a90a5047bf3d74bcbc4d2942",
    "matrix/no-cid-T4-s0-4e4d3bc8bbeb7e0f/stage-finetune-best.ckpt": "8353b571d259e54280bff1fecc6ae9581471b522e7c14aec36771f2ce24f5d75",
    "matrix/no-cid-T4-s0-4e4d3bc8bbeb7e0f/stage-head-best.ckpt": "49d99d17018d636f2a94965dbf299d0c2b633d8739c2ad91908f1eb50c5695be",
    "matrix/no-cid-T4-s0-4e4d3bc8bbeb7e0f/stage-pretrain-best.ckpt": "2317be4454528625c2d8fe82dd994475cdfcd76344a0f2161c6f615793bcea6d",
    "matrix/no-cid-T8-s0-cdc3d7d3bf136b7c/stage-finetune-best.ckpt": "574b917904f12d68b914854a9e66759c7cb5b2ae7f5b8d8f6b80087f337a5920",
    "matrix/no-cid-T8-s0-cdc3d7d3bf136b7c/stage-head-best.ckpt": "f2362d27d61f79fab35eb9fd832548bc19d37b35e0a1c04f0080e0845a1f19e0",
    "matrix/no-cid-T8-s0-cdc3d7d3bf136b7c/stage-pretrain-best.ckpt": "e104369d2e724635c4d6005a6a559d8501f0b36f985f41c1d92aa4506653c247",
    "matrix/no-gi-T4-s0-dedcee6d0581812a/stage-finetune-best.ckpt": "33a9bc83833faa7ee5b8752f1e0a555ac79f5366385d2ae74dd49725595efa6b",
    "matrix/no-gi-T4-s0-dedcee6d0581812a/stage-head-best.ckpt": "018a4240dfd43d80c37cc97236b30cb1cda377e19cf6ef19d67cbf047f985624",
    "matrix/no-gi-T4-s0-dedcee6d0581812a/stage-pretrain-best.ckpt": "d6f17c7d61b3016142b2225c619a4d372fe701c0c1e9593a6901f8603b69eacf",
    "matrix/no-gi-T8-s0-60861e9ecaa81678/stage-finetune-best.ckpt": "91f013152174bc097d62ccbca907b12a646ffccdd7db099360eafa28fdea61be",
    "matrix/no-gi-T8-s0-60861e9ecaa81678/stage-head-best.ckpt": "04250a6245016ca6a9907d9f335134598c75990f769b080200e409db13ee1456",
    "matrix/no-gi-T8-s0-60861e9ecaa81678/stage-pretrain-best.ckpt": "4804e41cbc917f573e423e5b85a846b9340703ef15130c721525b57fe883ed27",
    "matrix/pat-T4-s0-02e3c5378b3d8c88/stage-finetune-best.ckpt": "b654b88fbc0b6f949f1c52a6979ae6d70b8fc527c8a50d5b5e48ad5fb1819f95",
    "matrix/pat-T4-s0-02e3c5378b3d8c88/stage-head-best.ckpt": "810cd2973aa40510a48c40b7ad235e91e4ff3d45f0b79001d4d41bd85faffadd",
    "matrix/pat-T4-s0-02e3c5378b3d8c88/stage-pretrain-best.ckpt": "d28c56713404cd90dc2bb06d808ec9a0626931d74fbf7170d24b2dbde556821b",
    "matrix/pat-T8-s0-48bc6cef9bba5af4/stage-finetune-best.ckpt": "39f90d1d1f19c445557d6825ec9fa65e9a04b4326b8e52dc0a55ba3f5a7c35c7",
    "matrix/pat-T8-s0-48bc6cef9bba5af4/stage-head-best.ckpt": "db05d967b586e70c92907b0c287e68bafa2ee8d2c7897e66949eaa399aea001a",
    "matrix/pat-T8-s0-48bc6cef9bba5af4/stage-pretrain-best.ckpt": "7a3956b39eac4a15834048ae1871a320f097b725c63c6a7e7f3f35c624d322af",
    "matrix/pat-rc-T4-s0-b71aeb470c05d1f3/stage-finetune-best.ckpt": "5219db4ba552898368cd1c3ebd095631f68c976c5aafa9d4f69d5070af088714",
    "matrix/pat-rc-T4-s0-b71aeb470c05d1f3/stage-head-best.ckpt": "ad10b07d0ea098f01eb4e0490f0c5d602cc84000557e87382f69d33a5bd7b468",
    "matrix/pat-rc-T4-s0-b71aeb470c05d1f3/stage-pretrain-best.ckpt": "3fbd1b239fe30c935864ca920d72b0f6d2bcdb8abdf0ac134a67146db74305ba",
    "matrix/pat-rc-T8-s0-896e116f442cb22e/stage-finetune-best.ckpt": "1c526623d6b39bbd5603719cfc69c3b812040f8486ba907c7324a320509c8933",
    "matrix/pat-rc-T8-s0-896e116f442cb22e/stage-head-best.ckpt": "20e8698ef86fd6829649ab79376622c36cd00f6e8181132ecaf98e9796a82860",
    "matrix/pat-rc-T8-s0-896e116f442cb22e/stage-pretrain-best.ckpt": "c68ca6d99e5cbbb9c771ef5245906751d58c140d18401995c69ff845f2e14020",
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

# (repr(loss), sha256 of the gradients) of `paper_step`
PAPER_STEP = ("3.557384729385376", "c30dafdf941c2dfe800aa7a6add1ce68f5e3d0939a9910e474b53aaafd74167b")

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
    if host_key() == HOST:
        assert (loss, digest) == PAPER_STEP
        return
    _off_host("gradients", "loss")
    assert math.isclose(float(loss), float(PAPER_STEP[0]), rel_tol=REL_TOL, abs_tol=0.0)


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
    print(f'}}\n\nPAPER_STEP = ("{loss}", "{digest}")')
