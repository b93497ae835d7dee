"""End-to-end command-line behavior: exit codes, files, determinism, report."""

import configparser
import dataclasses
import gc
import hashlib
import io
import json
import os
import pickle
import re
import signal
import subprocess
import sys
from collections.abc import Callable
from pathlib import Path

import numpy as np
import pytest

import ctss.evaluate
from ctss.blas import openblas_core
from ctss.cli import main, usable_cpus
from ctss.config import ExperimentConfig, load_config
from ctss.coteaching import read_selection_log
from ctss.data import GeneratorConfig, SubjectDataset, generate_cohort, load_raw, save_raw
from ctss.errors import NumericError
from test_data import add_empty_subject

README = Path(__file__).resolve().parents[1] / "README.md"

TOY_CONFIG = """
[generator]
n_subjects = 3
n_imagery_classes = 2
trials_per_class = 4
n_electrodes = 2
n_timesteps = 32
snr = 1.0
subject_shift_scale = 0.3
noisy_subject_ids = 1
seed = 5

[model]
width_base = 2
n_blocks = 1

[coteach]
t_max = 2
b = 2
lr = 0.01

[run]
method = coteach
master_seed = 9
"""


@pytest.fixture()
def toy_config(tmp_path):
    path = tmp_path / "experiment.ini"
    path.write_text(TOY_CONFIG)
    return path


class TestGenerate:
    def test_roundtrip(self, toy_config, tmp_path):
        out = tmp_path / "cohort.ctss"
        assert main(["generate", "--config", str(toy_config), "--out", str(out)]) == 0
        cohort = load_raw(out)
        assert len(cohort) == 3
        assert cohort[1].is_noisy

    def test_same_seed_same_bytes(self, toy_config, tmp_path):
        a, b = tmp_path / "a.ctss", tmp_path / "b.ctss"
        assert main(["generate", "--config", str(toy_config), "--out", str(a)]) == 0
        assert main(["generate", "--config", str(toy_config), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_bytes(self, toy_config, tmp_path):
        a, b = tmp_path / "a.ctss", tmp_path / "b.ctss"
        main(["generate", "--config", str(toy_config), "--out", str(a)])
        main(["generate", "--config", str(toy_config), "--out", str(b), "--seed", "6"])
        assert a.read_bytes() != b.read_bytes()

    def test_defaults_without_config(self, tmp_path):
        out = tmp_path / "default.ctss"
        assert main(["generate", "--out", str(out)]) == 0
        assert len(load_raw(out)) == 10


class TestConfigValidation:
    def test_invalid_tau_exits_2_naming_field(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[coteach]\ntau = 1.5\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        assert "tau" in capsys.readouterr().err

    @pytest.mark.parametrize("content, named", [
        (b"[coteach]\nmystery = 3\n", "mystery"),
        (b"tau = 0.1\n", "no section headers"),
        (b"[coteach]\ntau = 0.1\ntau = 0.2\n", "option 'tau'"),
        (b"[coteach]\ntau = 0.1\n[coteach]\nb = 2\n", "section 'coteach'"),
        (b"[run]\ncohort_file = runs/50%\n", "'%'"),
        (b"[run]\ncohort_file = \xff\xfe\n", "utf-8"),
        (b"[generator]\nnoise_mode = rest\n", "generator.noise_mode"),
        (b"[coteach]\nm_max = 3\n", "coteach.m_max"),
        (b"[coteach]\nmin_lr = 0.001\n", "coteach.min_lr"),
        (b"[coteach]\noptimizer = sgd\n", "coteach.optimizer"),
        (b"[coteach]\nseed = 5\n", "coteach.seed"),  # run_fold seeds every fold itself
        # the command line alone sets these two; the toy config keeps a run that accepted them short
        (TOY_CONFIG.encode() + b"out_dir = runs/latest\n", "run.out_dir"),
        (TOY_CONFIG.encode() + b"parallel_folds = 2\n", "run.parallel_folds"),
        # configparser would add [DEFAULT]'s keys to every section, or ignore them where there is none
        (b"[DEFAULT]\nfoo = 1\n", "[DEFAULT]"),
        (b"[DEFAULT]\nseed = 3\n[generator]\nn_subjects = 2\n", "[DEFAULT]"),
    ], ids=["unknown-key", "no-section", "duplicate-option", "duplicate-section",
            "bare-percent", "non-utf8", "noise_mode", "m_max", "min_lr", "optimizer", "coteach-seed",
            "out_dir", "parallel_folds", "default-section-alone", "default-section"])
    def test_unknown_key_exits_2(self, tmp_path, capsys, content, named):
        path = tmp_path / "bad.ini"
        path.write_bytes(content)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("named, value", [
        ("coteach.lr", "inf"),
        ("coteach.lr", "nan"),
        ("generator.subject_shift_scale", "nan"),
        ("generator.subject_shift_scale", "inf"),
        ("generator.snr", "1e-320"),  # finite, but its reciprocal, the noise sigma, is not
    ])
    def test_non_finite_value_exits_2_naming_key(self, tmp_path, capsys, monkeypatch, named, value):
        path = tmp_path / "bad.ini"
        key = named.split(".")[1]
        path.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", TOY_CONFIG, flags=re.M))
        started = spy_folds(monkeypatch, tmp_path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert named in err and len(err.splitlines()) == 1
        assert started() == {}

    def test_infinite_snr_is_accepted(self, tmp_path):  # a noise-free cohort
        path = tmp_path / "clean.ini"
        path.write_text("[generator]\nsnr = inf\n")
        assert load_config(path).generator.snr == float("inf")

    @pytest.mark.parametrize("command, content", [
        ("generate", "[generator]\nn_timesteps = 100000000000000000\n"),
        ("run", TOY_CONFIG.replace("width_base = 2", "width_base = 10000000000000000")),
    ], ids=["generate-n_timesteps", "run-width_base"])
    def test_out_of_memory_size_exits_2(self, tmp_path, capsys, command, content):
        # each first array is larger than any 64-bit address space, so numpy refuses it whatever the machine
        path = tmp_path / "huge.ini"
        path.write_text(content)
        out = tmp_path / ("cohort.ctss" if command == "generate" else "r")
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Unable to allocate" in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "r")]) == 2

    def test_readme_example_loads(self, tmp_path):
        text = README.read_text(encoding="utf-8")
        path = tmp_path / "readme.ini"
        path.write_text(text[text.index("```ini\n") + len("```ini\n"):text.index("\n```", text.index("```ini"))])
        cfg = load_config(path)
        # it shows every key but cohort_file, each at its default but for the noisy subjects
        assert cfg == dataclasses.replace(ExperimentConfig(), generator=GeneratorConfig(noisy_subject_ids=(3, 7)))
        parser = configparser.ConfigParser()
        parser.read(path, encoding="utf-8")
        listed = {(section, key) for section in parser.sections() for key in parser.options(section)}
        every = {(section, key) for section, keys in cfg.to_dict().items() for key in keys}
        assert listed == every - {("run", "cohort_file")}

    def test_every_key_parses_as_the_type_of_its_default(self, tmp_path, capsys):
        path = tmp_path / "every.ini"
        path.write_text("[generator]\nn_subjects = 12\nn_imagery_classes = 3\ntrials_per_class = 5\n"
                        "n_electrodes = 6\nn_timesteps = 96\nsnr = 3\nsubject_shift_scale = 0.25\n"
                        "noisy_subject_ids = 7, 3\nseed = 11\n"
                        "[model]\nwidth_base = 3\nn_blocks = 2\n"
                        "[coteach]\ntau = 0.3\nt_k = 4\nt_max = 6\nb = 2\nlr = 1\n"
                        "[run]\nmethod = baseline\nmaster_seed = 8\nval_ratio = 0.8\ncohort_file =  c.ctss \n")
        echo = load_config(path).to_dict()
        assert echo == {
            "generator": {"n_subjects": 12, "n_imagery_classes": 3, "trials_per_class": 5, "n_electrodes": 6,
                          "n_timesteps": 96, "snr": 3.0, "subject_shift_scale": 0.25,
                          "noisy_subject_ids": (3, 7), "seed": 11},
            "model": {"width_base": 3, "n_blocks": 2},
            "coteach": {"tau": 0.3, "t_k": 4, "t_max": 6, "b": 2, "lr": 1.0},
            "run": {"method": "baseline", "master_seed": 8, "val_ratio": 0.8, "cohort_file": "c.ctss"},
        }
        defaults = ExperimentConfig().to_dict()
        for section, values in echo.items():
            assert list(values) == list(defaults[section])  # exactly the 20 keys, in order
            for key, value in values.items():
                assert type(value) is type(defaults[section][key]) and value != defaults[section][key], key
        assert sum(map(len, echo.values())) == 20
        path.write_text("[model]\nwidth_base = 2.5\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "model.width_base" in err and len(err.splitlines()) == 1


def echo_as_ini(echo: dict) -> str:
    """A config echo written back as an INI file."""
    lines = []
    for section, values in echo.items():
        lines.append(f"[{section}]")
        for key, value in values.items():
            lines.append(f"{key} = {', '.join(map(str, value)) if isinstance(value, list) else value}")
    return "\n".join(lines) + "\n"


def spy_folds(monkeypatch, tmp_path) -> Callable[[], dict[int, int]]:
    """Marks every fold that starts with a file, so that folds in worker processes count too.

    Returns a function that maps each started fold's target subject to the process that ran it.
    Fold workers are forked (``ctss.evaluate._POOL_CONTEXT``), so they run this patched ``run_fold``.
    """
    marks = tmp_path / "started"
    marks.mkdir()
    run_fold = ctss.evaluate.run_fold

    def spy(cohort, target, *args):
        (marks / str(target)).write_text(str(os.getpid()))
        return run_fold(cohort, target, *args)

    monkeypatch.setattr(ctss.evaluate, "run_fold", spy)
    return lambda: {int(p.name): int(p.read_text()) for p in marks.iterdir()}


def assert_same_run(a: Path, b: Path) -> None:
    """Two run directories hold the same files with the same bytes, the manifest's wall time aside."""
    written = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert written == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    for name in written:
        if name.name == "manifest.json":
            manifests = [json.loads((run / name).read_text()) for run in (a, b)]
            for manifest in manifests:
                del manifest["wall_time_seconds"]
            assert manifests[0] == manifests[1]
        else:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestRun:
    def test_baseline_writes_one_csv_row_per_fold(self, toy_config, tmp_path):
        out = tmp_path / "run_baseline"
        assert main(["run", "--config", str(toy_config), "--out", str(out),
                     "--method", "baseline"]) == 0
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3
        assert all("baseline" in line for line in lines[1:])
        assert not list(out.glob("fold_*/selections.jsonl"))

    def test_coteach_writes_parseable_selection_logs(self, toy_config, tmp_path):
        out = tmp_path / "run_coteach"
        assert main(["run", "--config", str(toy_config), "--out", str(out)]) == 0
        logs = sorted(out.glob("fold_*/selections.jsonl"))
        assert len(logs) == 3
        records = read_selection_log(logs[0])
        assert records
        assert {rec.net for rec in records} == {"f", "g"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 9
        assert (out / "fold_000" / "checkpoint.bin").exists()

    def test_manifest_names_the_blas_core(self, toy_config, tmp_path):
        out = tmp_path / "r"
        assert main(["run", "--config", str(toy_config), "--out", str(out), "--method", "baseline"]) == 0
        assert json.loads((out / "manifest.json").read_text())["blas_core"] == openblas_core()

    def test_manifest_names_the_cohort_file_by_its_digest(self, toy_config, tmp_path):
        cohort_path = tmp_path / "cohort.ctss"
        assert main(["generate", "--config", str(toy_config), "--out", str(cohort_path)]) == 0
        cfg = tmp_path / "withfile.ini"
        cfg.write_text(TOY_CONFIG + f"cohort_file = {cohort_path}\n")
        out = tmp_path / "r"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--method", "baseline"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["cohort_sha256"] == hashlib.sha256(cohort_path.read_bytes()).hexdigest()

    def test_run_opens_the_cohort_file_once(self, toy_config, tmp_path):
        # the digest is of the bytes the run parsed, so a file swapped after the load cannot lend it its digest
        cohort_path = tmp_path / "cohort.ctss"
        assert main(["generate", "--config", str(toy_config), "--out", str(cohort_path)]) == 0
        cfg = tmp_path / "withfile.ini"
        cfg.write_text(TOY_CONFIG + f"cohort_file = {cohort_path}\n")
        args = ["run", "--config", str(cfg), "--out", str(tmp_path / "r"), "--method", "baseline",
                "--parallel-folds", "1"]
        # an audit hook sees every open, whichever of open, io.open or os.open makes it
        code = ("import sys\nopens = []\n"
                "sys.addaudithook(lambda event, a: opens.append(str(a[0])) if event == 'open' else None)\n"
                f"from ctss.cli import main\nstatus = main({args!r})\n"
                f"print(status, opens.count({str(cohort_path)!r}))")
        src = str(Path(ctss.evaluate.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 1"

    def test_manifest_digest_is_null_for_a_cohort_generated_in_memory(self, toy_config, tmp_path):
        out = tmp_path / "r"
        assert main(["run", "--config", str(toy_config), "--out", str(out), "--method", "baseline"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "cohort_sha256" in manifest and manifest["cohort_sha256"] is None

    def test_rerun_reproduces_results_and_logs_bytewise(self, toy_config, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["run", "--config", str(toy_config), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(toy_config), "--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        for log1 in sorted(out1.glob("fold_*/selections.jsonl")):
            log2 = out2 / log1.relative_to(out1)
            assert log1.read_bytes() == log2.read_bytes()

    def test_run_from_cohort_file_without_mutating_it(self, toy_config, tmp_path):
        cohort_path = tmp_path / "cohort.ctss"
        main(["generate", "--config", str(toy_config), "--out", str(cohort_path)])
        before = cohort_path.read_bytes()
        cfg = tmp_path / "withfile.ini"
        cfg.write_text(TOY_CONFIG + f"cohort_file = {cohort_path}\n")
        out = tmp_path / "run_file"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "results.csv").exists()
        assert cohort_path.read_bytes() == before
        assert cfg.read_bytes() == (TOY_CONFIG + f"cohort_file = {cohort_path}\n").encode()

    @pytest.mark.parametrize("key, value", [("n_electrodes", 3), ("n_timesteps", 40)])
    def test_cohort_shape_mismatch_exits_2_naming_both_shapes(self, toy_config, tmp_path, capsys,
                                                              key, value):
        cohort_path = tmp_path / "cohort.ctss"
        assert main(["generate", "--config", str(toy_config), "--out", str(cohort_path)]) == 0
        cfg = tmp_path / "mismatch.ini"
        cfg.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", TOY_CONFIG, flags=re.M)
                       + f"cohort_file = {cohort_path}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "[2, 32]" in err
        assert str([value, 32] if key == "n_electrodes" else [2, value]) in err

    @pytest.mark.parametrize("fault", ["non-finite", "no-trials", "repeated-id"])
    def test_cohort_file_fault_exits_4_before_training(self, toy_config, tmp_path, capsys, monkeypatch, fault):
        cohort = generate_cohort(load_config(toy_config).generator)
        if fault == "non-finite":
            cohort[0].trials[3, 1, 7] = np.nan
        if fault == "repeated-id":
            cohort[1].subject_id = 0
        cohort_path = tmp_path / "cohort.ctss"
        save_raw(cohort[1:] if fault == "no-trials" else cohort, cohort_path)
        if fault == "no-trials":
            add_empty_subject(cohort_path, 0)
        cfg = tmp_path / "faulty.ini"
        cfg.write_text(TOY_CONFIG + f"cohort_file = {cohort_path}\n")
        started = spy_folds(monkeypatch, tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 4
        err = capsys.readouterr().err
        assert str(cohort_path) in err and "subject 0" in err and len(err.splitlines()) == 1
        assert started() == {}

    @pytest.mark.parametrize("n_imagery_classes, only_class_0, found", [
        (1, False, [0, 1]),  # a label the config does not know
        (3, False, [0, 1]),  # a configured class no trial carries
        (2, True, [0]),  # subject 0 holds class 0 only
    ], ids=["fewer-classes", "more-classes", "subject-missing-a-class"])
    def test_cohort_labels_not_the_configured_classes_exit_2_before_training(
            self, toy_config, tmp_path, capsys, monkeypatch, n_imagery_classes, only_class_0, found):
        cohort = generate_cohort(load_config(toy_config).generator)
        if only_class_0:
            cohort[0].labels[:] = 0
        cohort_path = tmp_path / "cohort.ctss"
        save_raw(cohort, cohort_path)
        cfg = tmp_path / "classes.ini"
        cfg.write_text(re.sub(r"^n_imagery_classes = .*$", f"n_imagery_classes = {n_imagery_classes}",
                              TOY_CONFIG, flags=re.M) + f"cohort_file = {cohort_path}\n")
        trained = tmp_path / "trained"  # one file per process that trains, fold workers included
        trained.mkdir()
        train = ctss.evaluate.train_coteaching

        def spy(*args, **kwargs):
            (trained / str(os.getpid())).touch()
            return train(*args, **kwargs)

        monkeypatch.setattr(ctss.evaluate, "train_coteaching", spy)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "subject 0" in err and f"labels {found}" in err and len(err.splitlines()) == 1
        assert f"generator.n_imagery_classes = {n_imagery_classes}" in err
        assert not any(trained.iterdir())

    def test_failed_run_leaves_no_out_dir(self, toy_config, tmp_path, capsys):
        cfg = tmp_path / "missing.ini"
        cfg.write_text(TOY_CONFIG + f"cohort_file = {tmp_path / 'absent.ctss'}\n")
        out = tmp_path / "r"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 4
        assert "absent.ctss" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dangling, below", [
        pytest.param(False, "", id=""),
        pytest.param(False, "run", id="run"),
        pytest.param(True, "", id="dangling-link"),
        pytest.param(True, "run", id="dangling-link-run"),
    ])
    def test_out_at_or_under_a_file_exits_4_before_training(self, toy_config, tmp_path, capsys, monkeypatch,
                                                           dangling, below):
        file = tmp_path / "cohort.ctss"
        if dangling:  # a link to a path that does not exist
            file.symlink_to(tmp_path / "nowhere" / "target")
        else:
            file.write_bytes(b"not a directory")
        out = file / below if below else file
        started = spy_folds(monkeypatch, tmp_path)
        assert main(["run", "--config", str(toy_config), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert str(file) in err and len(err.strip().splitlines()) == 1
        assert started() == {}
        if dangling:
            assert file.is_symlink() and not (tmp_path / "nowhere").exists()
        else:
            assert file.read_bytes() == b"not a directory"

    def test_out_with_another_cohorts_fold_exits_2_before_training(self, toy_config, tmp_path, capsys,
                                                                   monkeypatch):
        out = tmp_path / "r"
        assert main(["run", "--config", str(toy_config), "--out", str(out)]) == 0
        results = (out / "results.csv").read_bytes()
        assert main(["run", "--config", str(toy_config), "--out", str(out)]) == 0  # same cohort: fine
        assert (out / "results.csv").read_bytes() == results
        capsys.readouterr()

        cfg = tmp_path / "two.ini"
        cfg.write_text(TOY_CONFIG.replace("n_subjects = 3", "n_subjects = 2"))
        started = spy_folds(monkeypatch, tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out / "fold_002") in err and len(err.strip().splitlines()) == 1
        assert started() == {}
        assert (out / "results.csv").read_bytes() == results  # nothing rewritten or deleted
        assert (out / "fold_002" / "checkpoint.bin").exists()

    def test_out_holding_no_run_exits_2_before_training(self, toy_config, tmp_path, capsys, monkeypatch):
        out = tmp_path / "notes"
        out.mkdir()
        (out / "keep.txt").write_text("mine")
        started = spy_folds(monkeypatch, tmp_path)
        assert main(["run", "--config", str(toy_config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out) in err and "manifest.json" in err and len(err.strip().splitlines()) == 1
        assert started() == {}
        assert [p.name for p in out.iterdir()] == ["keep.txt"]
        assert (out / "keep.txt").read_text() == "mine"

    def test_empty_out_dir_is_written(self, toy_config, tmp_path):
        out = tmp_path / "empty"
        out.mkdir()
        assert main(["run", "--config", str(toy_config), "--out", str(out)]) == 0
        assert (out / "manifest.json").is_file()

    def test_rerun_replaces_the_earlier_run_whole(self, toy_config, tmp_path):
        out = tmp_path / "r"
        assert main(["run", "--config", str(toy_config), "--out", str(out)]) == 0
        before = {p.relative_to(out) for p in out.rglob("*")}
        (out / "fold_000" / "stray.txt").write_text("left behind")
        (out / "notes.txt").write_text("left behind")
        (out / "extra").mkdir()
        assert main(["run", "--config", str(toy_config), "--out", str(out)]) == 0
        assert {p.relative_to(out) for p in out.rglob("*")} == before

    def test_baseline_over_a_coteach_run_leaves_no_selection_logs(self, toy_config, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["run", "--config", str(toy_config), "--out", str(out), "--method", "coteach"]) == 0
        assert len(list(out.glob("fold_*/selections.jsonl"))) == 3
        assert main(["run", "--config", str(toy_config), "--out", str(out), "--method", "baseline"]) == 0
        assert not list(out.glob("fold_*/selections.jsonl"))
        assert len(list(out.glob("fold_*/checkpoint.bin"))) == 3
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        assert "baseline" in capsys.readouterr().out

    def test_parallel_folds_flag_matches_sequential(self, toy_config, tmp_path):
        # also on four stages, whose stages 3 and 4 each end in a 4/4 max pool
        deep = tmp_path / "deep.ini"
        deep.write_text(TOY_CONFIG.replace("n_timesteps = 32", "n_timesteps = 512")
                        .replace("n_blocks = 1", "n_blocks = 4"))
        for config in (toy_config, deep):
            seq, par = tmp_path / config.stem / "seq", tmp_path / config.stem / "par"
            assert main(["run", "--config", str(config), "--out", str(seq), "--parallel-folds", "1"]) == 0
            assert main(["run", "--config", str(config), "--out", str(par), "--parallel-folds", "2"]) == 0
            assert_same_run(seq, par)

    @pytest.mark.parametrize("method", ["coteach", "baseline"])
    def test_default_workers_write_the_bytes_of_a_serial_run(self, toy_config, tmp_path, method):
        serial, default = tmp_path / "serial", tmp_path / "default"
        assert main(["run", "--config", str(toy_config), "--out", str(serial), "--method", method,
                     "--parallel-folds", "1"]) == 0
        assert main(["run", "--config", str(toy_config), "--out", str(default), "--method", method]) == 0
        assert_same_run(serial, default)

    def test_fold_spy_sees_the_folds_of_default_workers(self, toy_config, tmp_path, monkeypatch):
        # the "before training" checks above lean on it: by default, folds train in worker processes
        started = spy_folds(monkeypatch, tmp_path)
        assert main(["run", "--config", str(toy_config), "--out", str(tmp_path / "r")]) == 0
        pids = started()
        assert sorted(pids) == [0, 1, 2]
        assert (os.getpid() in pids.values()) == (usable_cpus() == 1)

    def test_fold_tasks_carry_the_target_and_settings_not_the_cohort(self, toy_config, tmp_path, monkeypatch):
        held, sizes = [], []

        class CohortSpotter(pickle.Pickler):
            def persistent_id(self, obj):  # sees every object the task pickles, at any depth
                if isinstance(obj, SubjectDataset):
                    held.append(obj.subject_id)
                return None  # pickled as usual

        class RecordingPool(ctss.evaluate.ProcessPoolExecutor):
            def map(self, fn, tasks, **kwargs):
                tasks = list(tasks)
                for task in tasks:
                    buf = io.BytesIO()
                    CohortSpotter(buf).dump(task)
                    sizes.append(len(buf.getvalue()))
                return super().map(fn, tasks, **kwargs)

        monkeypatch.setattr(ctss.evaluate, "ProcessPoolExecutor", RecordingPool)
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        assert main(["run", "--config", str(toy_config), "--out", str(pooled), "--parallel-folds", "2"]) == 0
        assert held == [] and len(sizes) == 3 and max(sizes) < 2048, sizes
        assert main(["run", "--config", str(toy_config), "--out", str(serial), "--parallel-folds", "1"]) == 0
        assert_same_run(serial, pooled)

    def test_dead_fold_worker_exits_2_naming_unfinished_folds(self, toy_config, tmp_path, capsys, monkeypatch):
        run_fold, parent = ctss.evaluate.run_fold, os.getpid()

        def fold(cohort, target, *args):
            if target == 1 and os.getpid() != parent:  # as the out-of-memory killer would
                os.kill(os.getpid(), signal.SIGKILL)
            return run_fold(cohort, target, *args)

        monkeypatch.setattr(ctss.evaluate, "run_fold", fold)
        out = tmp_path / "r"
        assert main(["run", "--config", str(toy_config), "--out", str(out), "--parallel-folds", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a fold worker process died") and len(err.splitlines()) == 1
        assert 1 in json.loads(re.search(r"subjects (\[[\d, ]*\])", err).group(1))
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_parallel_folds_below_1_exits_2_before_training(self, toy_config, tmp_path, capsys, monkeypatch,
                                                            workers):
        started = spy_folds(monkeypatch, tmp_path)
        out = tmp_path / "r"
        assert main(["run", "--config", str(toy_config), "--out", str(out), "--parallel-folds", workers]) == 2
        err = capsys.readouterr().err
        assert "--parallel-folds" in err and len(err.strip().splitlines()) == 1
        assert started() == {}
        assert not out.exists()

    def test_run_requires_out(self, toy_config, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(toy_config)])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err

    def test_config_echo_shows_the_overridden_method_and_seed(self, toy_config, tmp_path):
        out = tmp_path / "r"
        assert main(["run", "--config", str(toy_config), "--out", str(out), "--method", "baseline",
                     "--seed", "4", "--parallel-folds", "2"]) == 0
        for name in ("summary.json", "manifest.json"):
            echo = json.loads((out / name).read_text())["config"]["run"]
            assert (echo["method"], echo["master_seed"]) == ("baseline", 4), name
            assert "out_dir" not in echo and "parallel_folds" not in echo, name  # neither changes a result

    def test_config_echo_loads_back_as_the_config_that_ran(self, toy_config, tmp_path):
        out = tmp_path / "r"
        assert main(["run", "--config", str(toy_config), "--out", str(out), "--method", "baseline",
                     "--seed", "4"]) == 0
        echo = json.loads((out / "summary.json").read_text())["config"]
        assert json.loads((out / "manifest.json").read_text())["config"] == echo
        path = tmp_path / "echo.ini"
        path.write_text(echo_as_ini(echo))
        cfg = load_config(toy_config)
        assert load_config(path) == dataclasses.replace(
            cfg, run=dataclasses.replace(cfg.run, method="baseline", master_seed=4))


def tree_bytes(root: Path) -> dict[str, bytes | None]:
    """Every entry under ``root``, a file as its bytes and a directory as None."""
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


class TestStreamedRun:
    """Folds go to a staging directory inside ``--out`` as they are collected; the run is swapped in last."""

    def test_each_fold_is_on_disk_before_the_next_one_trains(self, toy_config, tmp_path, monkeypatch):
        out = tmp_path / "r"
        staging = out / f".partial-{os.getpid()}"
        staged = {}
        run_fold = ctss.evaluate.run_fold

        def spy(cohort, target, *args):
            staged[target] = tree_bytes(staging) if staging.is_dir() else {}
            return run_fold(cohort, target, *args)

        monkeypatch.setattr(ctss.evaluate, "run_fold", spy)
        assert main(["run", "--config", str(toy_config), "--out", str(out), "--parallel-folds", "1"]) == 0
        final = tree_bytes(out)
        for target in (0, 1, 2):
            expected = {}
            for done in range(target):  # every earlier fold, whole, and nothing else
                name = f"fold_{done:03d}"
                expected.update({key: final[key] for key in final if key.split("/")[0] == name})
            assert staged[target] == expected, target
        assert staged[2]["fold_001/checkpoint.bin"] and staged[2]["fold_001/selections.jsonl"]
        assert not staging.exists()

    def test_the_ctss_process_holds_no_earlier_fold_while_one_trains(self, toy_config, tmp_path, monkeypatch):
        def alive() -> int:
            return sum(isinstance(obj, ctss.evaluate.FoldOutput) for obj in gc.get_objects())

        gc.collect()
        before, counts = alive(), []
        run_fold = ctss.evaluate.run_fold

        def spy(*args):
            counts.append(alive() - before)
            return run_fold(*args)

        monkeypatch.setattr(ctss.evaluate, "run_fold", spy)
        assert main(["run", "--config", str(toy_config), "--out", str(tmp_path / "r"), "--parallel-folds", "1"]) == 0
        assert len(counts) == 3 and max(counts) <= 1, counts

    @pytest.mark.parametrize("earlier", [False, True], ids=["fresh-out", "earlier-run"])
    @pytest.mark.parametrize("fault, workers, status", [
        ("fold-raises", "1", 3),
        ("fold-raises", "2", 3),
        ("worker-dies", "2", 2),
        ("write-fails", "1", 4),
        ("ctrl-c", "1", None),
    ])
    def test_failed_run_leaves_out_as_it_was(self, toy_config, tmp_path, capsys, monkeypatch, earlier, fault,
                                             workers, status):
        out = tmp_path / "r"
        if earlier:
            assert main(["run", "--config", str(toy_config), "--out", str(out), "--method", "baseline"]) == 0
        before = tree_bytes(out) if earlier else None
        run_fold, save, parent = ctss.evaluate.run_fold, ctss.evaluate.save_checkpoint, os.getpid()

        def fold(cohort, target, *args):
            if target == 1 and fault == "worker-dies" and os.getpid() != parent:  # as the out-of-memory killer would
                os.kill(os.getpid(), signal.SIGKILL)
            if target == 1 and fault == "fold-raises":
                raise NumericError("loss is nan")
            if target == 2 and fault == "ctrl-c":
                raise KeyboardInterrupt
            return run_fold(cohort, target, *args)

        def failing_save(model, path):
            if Path(path).parent.name == "fold_001":
                raise OSError(28, "No space left on device")
            return save(model, path)

        monkeypatch.setattr(ctss.evaluate, "run_fold", fold)
        if fault == "write-fails":
            monkeypatch.setattr(ctss.evaluate, "save_checkpoint", failing_save)
        argv = ["run", "--config", str(toy_config), "--out", str(out), "--parallel-folds", workers]
        if status is None:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert main(argv) == status
            assert len(capsys.readouterr().err.splitlines()) == 1
        if earlier:
            assert tree_bytes(out) == before
        else:
            assert not out.exists()

    @pytest.mark.parametrize("earlier", [False, True], ids=["no-run", "earlier-run"])
    def test_a_killed_runs_staging_directory_neither_blocks_nor_survives_a_run(self, toy_config, tmp_path, earlier):
        out = tmp_path / "r"
        if earlier:
            assert main(["run", "--config", str(toy_config), "--out", str(out), "--method", "baseline"]) == 0
        leftover = out / ".partial-4194304" / "fold_000"  # no process holds this id: above Linux's pid_max
        leftover.mkdir(parents=True)
        (leftover / "checkpoint.bin").write_bytes(b"half written")
        assert main(["run", "--config", str(toy_config), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "fold_000", "fold_001", "fold_002", "manifest.json", "results.csv", "summary.json"]
        fresh = tmp_path / "fresh"
        assert main(["run", "--config", str(toy_config), "--out", str(fresh)]) == 0
        assert_same_run(out, fresh)


class TestReport:
    def test_report_layout(self, toy_config, tmp_path, capsys):
        out = tmp_path / "run"
        main(["run", "--config", str(toy_config), "--out", str(out)])
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        header = next(line for line in text.splitlines() if "Avg." in line)
        assert "Std." in header
        for sid in ("0", "1", "2"):
            assert sid in header.split()

    def test_report_avg_matches_csv_mean(self, toy_config, tmp_path, capsys):
        out = tmp_path / "run"
        main(["run", "--config", str(toy_config), "--out", str(out)])
        capsys.readouterr()
        main(["report", str(out)])
        text = capsys.readouterr().out
        row = next(line for line in text.splitlines() if line.lstrip().startswith("coteach"))
        reported_avg = float(row.split()[-2])
        import csv
        with open(out / "results.csv") as fh:
            accs = [float(r["balanced_accuracy"]) for r in csv.DictReader(fh)]
        assert reported_avg == pytest.approx(100 * sum(accs) / len(accs), abs=0.005)

    @pytest.mark.parametrize("summary", [
        None,
        b"{",
        b"\xff\xfe",
        b"[]",
        b"{}",
        json.dumps({"method": "coteach", "folds": [{"balanced_accuracy": 0.5}],
                    "mean_balanced_accuracy": 0.5, "std_balanced_accuracy": 0.0}).encode(),
        json.dumps({"method": "coteach", "folds": [{"target_subject": 0, "balanced_accuracy": 0.5}],
                    "mean_balanced_accuracy": 0.5, "std_balanced_accuracy": 0.0,
                    "selection_frequencies": [1, 2, 30]}).encode(),
        json.dumps({"method": "coteach", "folds": [{"target_subject": True, "balanced_accuracy": 0.5},
                                                   {"target_subject": False, "balanced_accuracy": 0.5}],
                    "mean_balanced_accuracy": 0.5, "std_balanced_accuracy": 0.0}).encode(),
    ], ids=["no-summary", "invalid-json", "non-utf8", "list", "no-folds", "fold-without-target",
            "frequencies-list", "bool-target"])
    def test_empty_run_dir_exits_4(self, tmp_path, capsys, summary):
        if summary is not None:
            (tmp_path / "summary.json").write_bytes(summary)
        assert main(["report", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert str(tmp_path) in err
        assert len(err.splitlines()) == 1

    def test_report_file_output(self, toy_config, tmp_path, capsys):
        out = tmp_path / "run"
        main(["run", "--config", str(toy_config), "--out", str(out)])
        capsys.readouterr()
        report_path = tmp_path / "report.txt"
        main(["report", str(out), "--out", str(report_path)])
        assert report_path.read_text() == capsys.readouterr().out


def loaded_in_fresh_interpreter(code: str, module: str = "numpy") -> tuple[set[str], bool]:
    """The ctss modules a new interpreter has loaded after running ``code``, and whether ``module`` is among them."""
    src = str(Path(ctss.evaluate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = code + ("\nimport json, sys\nprint(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == "
                    f"'ctss'), {module!r} in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    modules, module_loaded = json.loads(proc.stdout.splitlines()[-1])
    return set(modules), module_loaded


class TestImports:
    """Each command loads only the modules it runs: the INI schema and the report need no numpy."""

    def test_cli_loads_only_the_config_and_errors(self):
        assert loaded_in_fresh_interpreter("import ctss.cli") == ({"ctss", "ctss.cli", "ctss.config", "ctss.errors"},
                                                                   False)

    def test_report_runs_without_numpy(self, toy_config, tmp_path):
        out = tmp_path / "run"
        assert main(["run", "--config", str(toy_config), "--out", str(out), "--method", "baseline"]) == 0
        modules, numpy_loaded = loaded_in_fresh_interpreter(
            f"from ctss.cli import main\nassert main(['report', {str(out)!r}]) == 0")
        assert not numpy_loaded, modules

    def test_generate_loads_no_training_module(self, toy_config, tmp_path):
        out = tmp_path / "cohort.ctss"
        modules, _ = loaded_in_fresh_interpreter(
            f"from ctss.cli import main\nassert main(['generate', '--config', {str(toy_config)!r}, "
            f"'--out', {str(out)!r}]) == 0")
        assert out.exists()
        training = {"ctss.coteaching", "ctss.models", "ctss.tensor", "ctss.metrics", "ctss.optim", "ctss.evaluate"}
        assert not modules & training

    def test_a_fold_loads_no_masked_arrays(self):
        # np.unique's first call imports numpy.ma, which every process that augments or splits would pay
        modules, ma_loaded = loaded_in_fresh_interpreter(
            "from ctss.config import CoteachConfig, GeneratorConfig, ModelConfig\n"
            "from ctss.data import generate_cohort\nfrom ctss.evaluate import run_fold\n"
            "gen = GeneratorConfig(n_subjects=3, n_imagery_classes=2, trials_per_class=4, n_electrodes=2, "
            "n_timesteps=32)\n"
            "run_fold(generate_cohort(gen), 1, 'coteach', ModelConfig(n_electrodes=2, n_timesteps=32, n_classes=3, "
            "width_base=2, n_blocks=1), CoteachConfig(t_max=1, b=2), gen, master_seed=9)", module="numpy.ma")
        assert "ctss.evaluate" in modules and not ma_loaded
