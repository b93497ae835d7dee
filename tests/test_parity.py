"""Bit-for-bit parity of training outputs against checked-in SHA-256 goldens.

Each case runs a small leave-one-subject-out experiment and hashes what a run
directory holds: ``results.csv``, and for the first fold its checkpoint bytes,
its ``selections.jsonl`` and its per-epoch stats. A change that moves one bit
of any of them fails here. The tiny case stops after stage 2; the four-stage
case runs the full backbone, max pools included.

BLAS kernels may sum in a different order on another CPU, so the goldens are
keyed by the OpenBLAS core name; on a core with no goldens the test skips and
names the core. On any CPU with AVX2 and FMA, the cases also rerun in a child
process with OpenBLAS forced onto its ``Haswell`` kernels, so the parity check
never skips there. A change that alters the bits on purpose must regenerate the
goldens (run this module with ``CTSS_PRINT_GOLDENS=1`` and ``-s``) and say why.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import ctss
import ctss.coteaching
from ctss.blas import openblas_core
from ctss.coteaching import CoteachConfig, write_selection_log
from ctss.data import GeneratorConfig, generate_cohort
from ctss.evaluate import run_loso, write_results_csv
from ctss.models import ModelConfig, save_checkpoint
from test_coteaching import blas_thread_count

# one set per case and method: forcing network g onto the helper thread must not move a bit
GOLDENS = {
    "SkylakeX": {
        "tiny": {
            "coteach": {
                "results.csv": "474d0e9c4a6cb64871c73102c374abc93ba3fe13ae97b711fad3b499796b444a",
                "checkpoint.bin": "569652d09e503db284e74f521d5d8769adf9046bec85ac920f2fb47687d1c5c4",
                "selections.jsonl": "cf29a7546618cc46087613bdbf805e6290421a468e68943318df88cd12f4718d",
                "epochs.json": "151d6e69407164e7dc1fd016bc7ac87463c1cd0a1bf31d5919fc87f0f471b043",
            },
            "baseline": {
                "results.csv": "85c73e2d66ff90ad97ccd55a709e692dd1ec51b54b84ffb2636b1e79faee3028",
                "checkpoint.bin": "e5f7d82d55ef807e029ff4083f38f0187ee5f3e05521bb15ada0e9bac8c7f5fc",
                "selections.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",  # empty
                "epochs.json": "26806e6f5241bb9116cb254532d5714dde040f35face321223616edabb4bfcf3",
            },
        },
        "four_stage": {
            "coteach": {
                "results.csv": "08672d0932889a2ab76d7ca2f5fd14d9aae4db2c9be97680844f3c1e0ab49f72",
                "checkpoint.bin": "020254eec97f8c261d660519608607f7daf08f2137edcbb6c6944746ec3c03b6",
                "selections.jsonl": "a38ed6a19c160f14845e57153bd85e8b1a60580c5bb403737b4120095034727a",
                "epochs.json": "19e6b3e4baa8389117b6ff773ad1292bd0de5f1e8957a588fd00b80372935054",
            },
            "baseline": {
                "results.csv": "acfa8095b02bdda5a156c86511ac30af9465c3e11427f64c78f81ec01da98a32",
                "checkpoint.bin": "768552a04ed52a7ede175240cd71bc497d8d063acc74ef138c1f09c059f72157",
                "selections.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",  # empty
                "epochs.json": "221028249adf439a6690ca979f7f5fa0d21783e41eebe2ecd1f8eaad271befe2",
            },
        },
    },
    "Haswell": {
        "four_stage": {
            # the same results.csv and epoch stats as SkylakeX, but other last bits in the weights
            "coteach": {
                "results.csv": "08672d0932889a2ab76d7ca2f5fd14d9aae4db2c9be97680844f3c1e0ab49f72",
                "checkpoint.bin": "98654211a5e6a58bf1d915b8317a8967dcdf775f2d853235d05059054c97991f",
                "selections.jsonl": "c4ef57c6dea8249453f98918890544b180f3b60f2af3af888dfa5e9d32f5cb5d",
                "epochs.json": "19e6b3e4baa8389117b6ff773ad1292bd0de5f1e8957a588fd00b80372935054",
            },
            "baseline": {
                "results.csv": "acfa8095b02bdda5a156c86511ac30af9465c3e11427f64c78f81ec01da98a32",
                "checkpoint.bin": "7172e4f14b7ed615b41795b04019511cbc9444e3bfc282b3fe35085eba7ff00e",
                "selections.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",  # empty
                "epochs.json": "221028249adf439a6690ca979f7f5fa0d21783e41eebe2ecd1f8eaad271befe2",
            },
        },
    },
}
# Haswell's AVX2 kernels give the SkylakeX bits for the tiny runs, serial and helper alike
GOLDENS["Haswell"]["tiny"] = GOLDENS["SkylakeX"]["tiny"]


# n_timesteps and n_blocks per case: "tiny" stops after stage 2; "four_stage" is c03's backbone,
# whose stages 3 and 4 each end in a 4/4 max pool
CASES = {"tiny": (64, 2), "four_stage": (512, 4)}


def run_digests(tmp_path, case: str, method: str) -> dict[str, str]:
    """SHA-256 of a small LOSO run's results.csv and of its first fold's outputs."""
    # tiny: fold 0's best checkpoint is from the last epoch, and co-teaching drops a subject from epoch 1 on
    n_timesteps, n_blocks = CASES[case]
    gen = GeneratorConfig(n_subjects=4, n_imagery_classes=2, trials_per_class=8, n_electrodes=2,
                          n_timesteps=n_timesteps, snr=3.0, subject_shift_scale=0.3, noisy_subject_ids=(1,), seed=3)
    model_config = ModelConfig(n_electrodes=2, n_timesteps=n_timesteps, n_classes=3, width_base=2,
                               n_blocks=n_blocks, seed=0)
    run = run_loso(generate_cohort(gen), method, model_config, CoteachConfig(t_max=3, b=2, t_k=1, tau=0.5),
                   gen, master_seed=7)
    fold = run.folds[0]
    write_results_csv(run, tmp_path / "results.csv")
    save_checkpoint(fold.checkpoint.model, tmp_path / "checkpoint.bin")
    write_selection_log(fold.selection_records, tmp_path / "selections.jsonl")
    (tmp_path / "epochs.json").write_text(
        json.dumps([dataclasses.asdict(s) for s in fold.epoch_stats], sort_keys=True), encoding="utf-8")
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("results.csv", "checkpoint.bin", "selections.jsonl", "epochs.json")}


def check_goldens(tmp_path, monkeypatch, case: str, method: str, mode: str) -> None:
    core = openblas_core()
    threads = set()
    if mode == "helper":
        if blas_thread_count() == 1:
            pytest.skip("OpenBLAS runs one thread, so co-teaching starts no helper thread")
        # every batch is over the threshold, so the coteach pair trains on two threads
        monkeypatch.setattr(ctss.coteaching, "_THREAD_MIN_VALUES", 0)
        update = ctss.coteaching._masked_update

        def spy(*args):
            # names, not idents: each fold starts a new helper, which may or may not reuse an old ident
            threads.add(threading.current_thread().name)
            return update(*args)

        monkeypatch.setattr(ctss.coteaching, "_masked_update", spy)
    got = run_digests(tmp_path, case, method)
    if os.environ.get("CTSS_PRINT_GOLDENS"):
        print(f"\n{core!r}: {case!r} {method!r} ({mode}): {json.dumps(got, indent=4)}")
    if core not in GOLDENS:
        pytest.skip(f"no parity goldens for OpenBLAS core {core!r}")
    assert got == GOLDENS[core][case][method]
    if mode == "helper":  # the baseline has no network g, so it stays on one thread
        assert threads == ({"MainThread", "ctss-g_0"} if method == "coteach" else {"MainThread"})


@pytest.mark.parametrize("method", ["coteach", "baseline"])
@pytest.mark.parametrize("mode", ["serial", "helper"])
def test_outputs_match_goldens(tmp_path, monkeypatch, method, mode):
    check_goldens(tmp_path, monkeypatch, "tiny", method, mode)


@pytest.mark.parametrize("method", ["coteach", "baseline"])
@pytest.mark.parametrize("mode", ["serial", "helper"])
def test_four_stage_outputs_match_goldens(tmp_path, monkeypatch, method, mode):
    check_goldens(tmp_path, monkeypatch, "four_stage", method, mode)


def cpu_flags() -> set[str]:
    """The CPU feature flags /proc/cpuinfo lists; empty where it cannot be read."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return {flag for line in fh if line.startswith("flags") for flag in line.split(":", 1)[1].split()}
    except OSError:
        return set()


@pytest.mark.skipif(not {"avx2", "fma"} <= cpu_flags(),
                    reason="/proc/cpuinfo lists no avx2 or no fma, which OpenBLAS's Haswell kernels need")
def test_outputs_match_goldens_on_the_forced_haswell_core():
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join(filter(None, [str(Path(ctss.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH")])))
    env.pop("CTSS_PRINT_GOLDENS", None)
    core = subprocess.run([sys.executable, "-c", "import numpy, ctss.blas; print(ctss.blas.openblas_core())"],
                          env=env, capture_output=True, text=True, check=True).stdout.strip()
    if core == "None":
        pytest.skip("numpy's BLAS is not an OpenBLAS whose core can be asked")
    assert core == "Haswell"
    # all eight cases above, serial and helper, in a process whose BLAS runs the Haswell kernels;
    # the four helper cases skip where OpenBLAS runs one thread, as they do here
    summary = "4 passed, 4 skipped" if blas_thread_count() == 1 else "8 passed"
    child = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rs", "-p", "no:cacheprovider",
                            f"{__file__}::test_outputs_match_goldens",
                            f"{__file__}::test_four_stage_outputs_match_goldens"],
                           env=env, capture_output=True, text=True, cwd=Path(__file__).parents[1])
    assert child.returncode == 0 and summary in child.stdout, child.stdout
