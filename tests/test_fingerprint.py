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
    "cli/cat-rc-T4-s0-97f45c0681eba634/stage-finetune-best.ckpt": "485da1c498be06ef1c152766d7bf25e084587bb9e1acaf6e012982236608eae2",
    "cli/cat-rc-T4-s0-97f45c0681eba634/stage-head-best.ckpt": "d0886406bdc605896b8c4daa94a60e0404a70b6e2746f833f056829323eef500",
    "cli/cat-rc-T4-s0-97f45c0681eba634/stage-pretrain-best.ckpt": "dc361fb8c0d96f9af5ee6bbc5b576441d1d352ae8a8423b9f4e2b13427e00cd2",
    "matrix/cat-T4-s0-abebad2efd18db31/stage-finetune-best.ckpt": "431e25f6582e4c049c6357c9dccbfc2910d4eb99b16c65c31433eb4606e81c9c",
    "matrix/cat-T4-s0-abebad2efd18db31/stage-head-best.ckpt": "2972f729d960b0e88202aeee92d31c114290ab84eb45b0a7542e131508bc9885",
    "matrix/cat-T4-s0-abebad2efd18db31/stage-pretrain-best.ckpt": "64399beb5bd18d8da845b1576277c88d74dcecff57843942e6d0fa261761196d",
    "matrix/cat-T8-s0-63df846dc0d89bcb/stage-finetune-best.ckpt": "6978fc75be7718521c0d46f6a32593a0e24113c7fad34cda704ecad2a944f7bd",
    "matrix/cat-T8-s0-63df846dc0d89bcb/stage-head-best.ckpt": "0cef103ddfc916ee964688a9278b0e68a59b0f7bbf171c7b15c7df87c6c0dbbd",
    "matrix/cat-T8-s0-63df846dc0d89bcb/stage-pretrain-best.ckpt": "0a964eb60fc6a864599fdb17eed7c3eae2e1d2831a2419a0cd806cd88296e4d6",
    "matrix/cat-rc-T4-s0-44da2b4011d6ded9/stage-finetune-best.ckpt": "35cbbc637b8b2c4c4370e672d4a4eac03d0869af6a60ee64a685634ec03b704c",
    "matrix/cat-rc-T4-s0-44da2b4011d6ded9/stage-head-best.ckpt": "a90300759f56395c2cc95010a03f679cc309c6390937bcd5193651a0bdfeebe5",
    "matrix/cat-rc-T4-s0-44da2b4011d6ded9/stage-pretrain-best.ckpt": "28aa7d21afdd5c1ea92e14a143d795d4b0e9166a0ad6ae40e7deb616b4816a44",
    "matrix/cat-rc-T8-s0-f082ff598431d047/stage-finetune-best.ckpt": "a5577dd6a0015667b0edf774847ca20fb0e55f24bdc252cd4e95d0681df835b2",
    "matrix/cat-rc-T8-s0-f082ff598431d047/stage-head-best.ckpt": "4d6e00c6c3ae901231d51fe09d1e802212a3c6e71d5ea6aea7317e2c1565dfbf",
    "matrix/cat-rc-T8-s0-f082ff598431d047/stage-pretrain-best.ckpt": "3a468d69035feac979e189e94fea69621f304174d598c1c7eb9145239e069641",
    "matrix/no-cid-T4-s0-4e4d3bc8bbeb7e0f/stage-finetune-best.ckpt": "0bce2f9a5997f5d392707ef8180205df48e9a4fceb8497cb3705e6c40838c95a",
    "matrix/no-cid-T4-s0-4e4d3bc8bbeb7e0f/stage-head-best.ckpt": "4c9ebe10b709295f517789879155b0b353e32182a5083e76b796e88eb766e27b",
    "matrix/no-cid-T4-s0-4e4d3bc8bbeb7e0f/stage-pretrain-best.ckpt": "97cf441ea48ec1eab00db934ac7fa6d8c63c59caa7e5c6729687db54151af7c9",
    "matrix/no-cid-T8-s0-cdc3d7d3bf136b7c/stage-finetune-best.ckpt": "b5b43e1829e4655126a03f227b4a92faf8cde0627435a6074fe28ab31ee1f00a",
    "matrix/no-cid-T8-s0-cdc3d7d3bf136b7c/stage-head-best.ckpt": "0a441d68bee4073221d7809bb0c0f724638cbfc884aa32f773f3e5a48d451971",
    "matrix/no-cid-T8-s0-cdc3d7d3bf136b7c/stage-pretrain-best.ckpt": "f52d487523d93adf0643c0a11029aad1d707e8d77ae9ef2a037469a9e879d2d4",
    "matrix/no-gi-T4-s0-dedcee6d0581812a/stage-finetune-best.ckpt": "85cca080837f825cd4c6eac703f4832692f1c7376dc3c37834a7a4e2aaf5c417",
    "matrix/no-gi-T4-s0-dedcee6d0581812a/stage-head-best.ckpt": "b37767c8eb9735dda16aebbe9982ea91de7324c54c962c28bdda2bd082082a61",
    "matrix/no-gi-T4-s0-dedcee6d0581812a/stage-pretrain-best.ckpt": "bc67173880c1f4142727f949aacc59b09b3875eb154ff270556b6cdbb14ec80a",
    "matrix/no-gi-T8-s0-60861e9ecaa81678/stage-finetune-best.ckpt": "8b63da3ef9f7feef7e438cccc927797a3dbfa91ef53cb8407d0fc1cac1aee011",
    "matrix/no-gi-T8-s0-60861e9ecaa81678/stage-head-best.ckpt": "54306229dae02b764f9dd220b8f984b732708c23431247265b69f85a7a33778d",
    "matrix/no-gi-T8-s0-60861e9ecaa81678/stage-pretrain-best.ckpt": "933d9a5c4c5c7e8bd72e1b6b8c76992121117017e6aa073f8264293739a85103",
    "matrix/pat-T4-s0-02e3c5378b3d8c88/stage-finetune-best.ckpt": "730ff9e194988b1208dba12da4ff6af5fd2a300002a3d948380402018725d558",
    "matrix/pat-T4-s0-02e3c5378b3d8c88/stage-head-best.ckpt": "86e73431f08eceab954b9c0274ac23d43fcd0a679b1868a02f6a128f3ee8f1d0",
    "matrix/pat-T4-s0-02e3c5378b3d8c88/stage-pretrain-best.ckpt": "cf90763e5b75b136de961c2347890ce8c95abbfa02aa474cbbb77d1f5101cbc4",
    "matrix/pat-T8-s0-48bc6cef9bba5af4/stage-finetune-best.ckpt": "bf20f2d9dbb1af99a8f1662a2bb155c2761c9c161f2d6ea453e45a57847fc51b",
    "matrix/pat-T8-s0-48bc6cef9bba5af4/stage-head-best.ckpt": "7bde7fc2d098457418a26989e33a810a2611828f4904a0a259f91218168ff088",
    "matrix/pat-T8-s0-48bc6cef9bba5af4/stage-pretrain-best.ckpt": "46b9805c912c7b077e44a39a3238af9e8647cf3267d3a46479ef61ade1c8cf8c",
    "matrix/pat-rc-T4-s0-b71aeb470c05d1f3/stage-finetune-best.ckpt": "357bd85c83914d09be4c9b39a76d3cd51e79921f68adef949c0639ce76801833",
    "matrix/pat-rc-T4-s0-b71aeb470c05d1f3/stage-head-best.ckpt": "2cae213862875d56fe769aacbb83a0e13e845de0a0208b34ad8bc2db79f60f96",
    "matrix/pat-rc-T4-s0-b71aeb470c05d1f3/stage-pretrain-best.ckpt": "81d021f2a33b22bb831ff3946a7ebace81ddfad4c7b23ca73e36fd777b1c8ab0",
    "matrix/pat-rc-T8-s0-896e116f442cb22e/stage-finetune-best.ckpt": "10ea6880e74303737544253f906ca8a5d8871d606394554ba84b2b3ecac28e5b",
    "matrix/pat-rc-T8-s0-896e116f442cb22e/stage-head-best.ckpt": "28c90d16ba16eb90427afe59163d803b2593c19ad7c210a754d4fab06b521d0c",
    "matrix/pat-rc-T8-s0-896e116f442cb22e/stage-pretrain-best.ckpt": "638719d265babaac68e1e288cc1357d30a563327259a0f9d1a4391ca0482e8a6",
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
