"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the repository root."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
import spans
from outputs import digest_dir
from workloads import WORKLOADS, Context, Ledger, Unit

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def test_names_units_and_directions_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]] + E2E + PER_LAYER
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(set(E2E + PER_LAYER)) == len(E2E + PER_LAYER)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower"), m
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25, m
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_declared_metric_is_emitted(workload):
    """Metric assembly is shared by all workloads; a layer a workload does not use reads 0."""
    ledger = Ledger()
    ledger.check("ok", True)
    ctx = Context(root=ROOT, work=ROOT, seed=0, ledger=ledger, store=None,
                  setup_s=[0.4, 0.5], samples_per_unit=100)
    units = [Unit(0.0, 2.0, {}, bacc=0.8, gap=0.5), Unit(2.0, 5.0, {}, bacc=0.8, gap=0.5)]
    assert sorted(run.end_to_end(ctx, units)) == sorted(E2E)
    harness = {name: 1.0 for name in spans.HARNESS}
    assert sorted(spans.layer_metrics(spans.Tracer(), [(0.0, 5.0)], harness)) == sorted(PER_LAYER)


def test_fold_fullsize_emits_every_declared_metric_in_both_modes():
    for trace, names in ((0, E2E), (1, PER_LAYER)):
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fold-fullsize",
                               "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert sorted(result["metrics"]) == sorted(names)


def test_digest_ignores_only_the_wall_time(tmp_path):
    (tmp_path / "fold_000").mkdir()
    (tmp_path / "fold_000" / "checkpoint.bin").write_bytes(b"\x00\x01")
    manifest = {"command": "run", "master_seed": 1, "wall_time_seconds": 1.25}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    base = digest_dir(tmp_path)

    (tmp_path / "manifest.json").write_text(json.dumps(dict(manifest, wall_time_seconds=9.5)),
                                            encoding="utf-8")
    assert digest_dir(tmp_path) == base

    (tmp_path / "manifest.json").write_text(json.dumps(dict(manifest, master_seed=2)), encoding="utf-8")
    assert digest_dir(tmp_path) != base
    (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert digest_dir(tmp_path) == base

    (tmp_path / "fold_000" / "checkpoint.bin").write_bytes(b"\x00\x02")
    assert digest_dir(tmp_path) != base
    (tmp_path / "fold_000" / "checkpoint.bin").write_bytes(b"\x00\x01")
    (tmp_path / "extra.txt").write_text("", encoding="utf-8")
    assert digest_dir(tmp_path) != base


@pytest.mark.parametrize("base, change, better, bound, verdict", [
    ([10.0, 10.1, 9.9, 10.0], [10.0, 10.05, 9.95, 10.0], "lower", 0.1, "unchanged"),
    ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "lower", 0.1, "regressed"),
    ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "higher", 0.1, "improved"),
    ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "higher", 0.1, "regressed"),
    ([10.0, 15.0, 5.0, 10.0], [10.5, 16.0, 5.5, 10.5], "lower", 0.1, "unresolved"),
    ([10.0, 11.0, 9.0, 10.0], [5.0, 5.1, 4.9, 5.0], "lower", 0.05, "improved"),
    ([10.0, 10.1], [30.0, 30.2], "lower", None, "-"),
])
def test_compare_classification(base, change, better, bound, verdict):
    assert compare.classify(base, change, better, bound) == verdict


def test_compare_files_flags_regressions_only_on_request(tmp_path, capsys):
    def write(path, values, digest):
        with open(path, "w", encoding="utf-8") as fh:
            for seed, v in enumerate(values):
                fh.write(json.dumps({"workload": "loso-small", "seed": 1, "metrics": {"run_s": v},
                                     "digests": {"loso-coteach": digest if seed else "x"}}) + "\n")

    write(tmp_path / "a.jsonl", [10.0, 10.1, 9.9], "x")
    write(tmp_path / "b.jsonl", [13.0, 13.1, 12.9], "y")
    assert compare.compare_files(tmp_path / "a.jsonl", tmp_path / "b.jsonl", SPEC, False) == 0
    assert compare.compare_files(tmp_path / "a.jsonl", tmp_path / "b.jsonl", SPEC, True) == 1
    out = capsys.readouterr().out
    assert "regressed" in out and "determinism mismatch in change" in out
    assert "determinism mismatch in base" not in out


def test_tail_percentile_keeps_ten_samples_beyond():
    assert spans.tail_percentile(900) == 98
    assert spans.tail_percentile(2000) == 99
    assert spans.tail_percentile(30) == 66
    assert spans.tail_percentile(10) == 50
    values = list(range(1, 101))
    assert spans.percentile(values, 90) == 90 and spans.percentile(values, 50) == 50


def test_tracer_times_primitives_and_restores_every_name():
    run.import_ctss()
    import numpy as np

    import ctss.models
    import ctss.tensor
    from ctss.tensor import Tape, Tensor

    before = {mod: dict(vars(mod)) for mod in (ctss.tensor, ctss.models)}
    record, forward = Tape.record, ctss.models.Model.forward
    tracer = spans.Tracer()
    tracer.install()
    try:
        x = Tensor(np.ones((2, 3, 16)))
        k, b = Tensor(np.full((4, 3, 3), 0.1)), Tensor(np.zeros(4))
        tape = Tape()
        out = ctss.tensor.conv1d(x, k, b, 1, 1, tape=tape)
        tape.backward(np.ones_like(out.data), output=out)
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    assert names == ["tensor.conv1d", "tensor.backward", "tensor.conv1d.bwd"]
    assert tracer.spans[2][3] == 1  # the closure runs inside Tape.backward
    assert Tape.record is record and ctss.models.Model.forward is forward
    for mod, namespace in before.items():
        assert all(vars(mod)[name] is value for name, value in namespace.items())
