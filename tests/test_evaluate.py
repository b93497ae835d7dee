"""Metrics, baseline training, LOSO harness, and selection-frequency reports."""

import logging
import threading

import numpy as np
import pytest

import ctss.coteaching
import ctss.evaluate
from ctss.blas import openblas_core, single_blas_thread
from ctss.coteaching import (
    CoteachConfig,
    SelectionRecord,
    default_m_max,
    read_selection_log,
    train_coteaching,
    write_selection_log,
)
from ctss.data import GeneratorConfig, SubjectDataset, augment_rest_class, generate_cohort, train_val_split
from ctss.errors import ValidationError
from ctss.evaluate import (
    final_epoch_window,
    run_fold,
    run_loso,
    selection_frequency_report,
    train_baseline,
    write_results_csv,
    write_summary_json,
)
from ctss.metrics import balanced_accuracy, confusion_matrix
from ctss.models import Model, ModelConfig
from test_coteaching import blas_thread_count


def toy_generator(n_subjects=3, trials_per_class=6, seed=0, noisy=()):
    return GeneratorConfig(n_subjects=n_subjects, n_imagery_classes=2,
                           trials_per_class=trials_per_class, n_electrodes=2,
                           n_timesteps=32, snr=1.0, subject_shift_scale=0.3,
                           noisy_subject_ids=noisy, seed=seed)


def toy_model_config():
    return ModelConfig(n_electrodes=2, n_timesteps=32, n_classes=3,
                       width_base=2, n_blocks=1, seed=0)


class TestBalancedAccuracy:
    def test_perfect_diagonal(self):
        cm = np.diag([5, 9, 2])
        assert balanced_accuracy(cm) == 1.0

    def test_two_class_recalls(self):
        cm = np.array([[5, 5], [0, 10]])
        assert balanced_accuracy(cm) == pytest.approx(0.75, abs=1e-15)

    def test_uniform_random_predictions_approach_chance(self):
        rng = np.random.default_rng(0)
        n, c = 120_000, 4
        y_true = rng.integers(0, c, size=n)
        y_pred = rng.integers(0, c, size=n)
        cm = confusion_matrix(y_true, y_pred, c)
        # recall of each class is Binomial(n_c, 1/c)/n_c; bound at 3 sigma
        sigma = np.sqrt((1 / c) * (1 - 1 / c) / (n / c)) / np.sqrt(c)
        assert abs(balanced_accuracy(cm) - 1 / c) < 3 * sigma

    def test_empty_class_row_names_class(self):
        cm = np.array([[3, 0], [0, 0]])
        with pytest.raises(ValidationError, match="class 1"):
            balanced_accuracy(cm)

    def test_invariant_under_relabeling(self):
        rng = np.random.default_rng(1)
        cm = rng.integers(1, 30, size=(5, 5))
        perm = rng.permutation(5)
        permuted = cm[np.ix_(perm, perm)]
        assert balanced_accuracy(permuted) == pytest.approx(balanced_accuracy(cm), abs=1e-15)

    def test_equals_plain_accuracy_on_balanced_sets(self):
        rng = np.random.default_rng(2)
        per_class = 500
        y_true = np.repeat(np.arange(4), per_class)
        y_pred = rng.integers(0, 4, size=y_true.size)
        cm = confusion_matrix(y_true, y_pred, 4)
        plain = float(np.mean(y_true == y_pred))
        assert abs(balanced_accuracy(cm) - plain) < 1e-12

    @pytest.mark.parametrize("n", [1, 7, 500])
    def test_confusion_matrix_matches_scattered_counts(self, n):
        # class 3 never occurs, on either side
        rng = np.random.default_rng(n)
        y_true = rng.choice([0, 1, 2, 4], size=n)
        y_pred = rng.choice([0, 1, 2, 4], size=n)
        expected = np.zeros((5, 5), dtype=np.int64)
        np.add.at(expected, (y_true, y_pred), 1)
        cm = confusion_matrix(y_true, y_pred, 5)
        assert cm.dtype == np.int64
        np.testing.assert_array_equal(cm, expected)


class TestTrainBaseline:
    def test_matches_coteaching_f_at_full_retention(self):
        cohort = [augment_rest_class(ds, toy_generator(seed=4))
                  for ds in generate_cohort(toy_generator(seed=4))]
        train, val = train_val_split(cohort, 0.8, seed=0)
        cc = CoteachConfig(tau=0.0, t_max=2, seed=41)  # tau=0 pins R(T)=1
        trajectories = {"coteach": [], "baseline": []}
        train_coteaching(train, val, toy_model_config(), cc,
                         epoch_callback=lambda t, models:
                         trajectories["coteach"].append([p.data.copy() for p in models["f"].parameters()]))
        train_baseline(train, val, toy_model_config(), cc,
                       epoch_callback=lambda t, models:
                       trajectories["baseline"].append([p.data.copy() for p in models["baseline"].parameters()]))
        for snap_c, snap_b in zip(trajectories["coteach"], trajectories["baseline"]):
            for p, q in zip(snap_c, snap_b):
                np.testing.assert_array_equal(p, q)

    def test_single_network_loop(self, monkeypatch):
        gen = toy_generator(seed=8)
        cohort = [augment_rest_class(ds, gen) for ds in generate_cohort(gen)]
        train, val = train_val_split(cohort, 0.8, seed=2)
        cc = CoteachConfig(t_max=2, b=2, seed=47)
        taped, seen = [], []
        original = Model.forward

        def counting_forward(self, x, tape=None, *rest):
            if tape is not None:
                taped.append(x.shape[0])
            return original(self, x, tape, *rest)

        monkeypatch.setattr(Model, "forward", counting_forward)
        result = train_baseline(train, val, toy_model_config(), cc,
                                epoch_callback=lambda t, models: seen.append(sorted(models)))
        # one taped full-batch forward per iteration, no selections, one network named "baseline"
        assert taped == [cc.b * len(train)] * (cc.t_max * default_m_max(train, cc.b))
        assert result.logs.selection_records == []
        assert seen == [["baseline"]] * cc.t_max

    def test_loss_decreases_on_separable_data(self):
        gen = toy_generator(n_subjects=3, trials_per_class=8, seed=6)
        cohort = [augment_rest_class(ds, gen) for ds in generate_cohort(gen)]
        train, val = train_val_split(cohort, 0.8, seed=1)
        cc = CoteachConfig(t_max=5, seed=43)
        from ctss.models import build_mini_resnet1d, per_sample_losses
        from ctss.tensor import Tensor

        probe = Tensor(np.concatenate([ds.trials for ds in train]))
        probe_labels = np.concatenate([ds.labels for ds in train])
        result = train_baseline(train, val, toy_model_config(), cc)
        trained_losses = per_sample_losses(result.checkpoint.model, probe, probe_labels)
        fresh = build_mini_resnet1d(toy_model_config())
        start_losses = per_sample_losses(fresh, probe, probe_labels)
        assert trained_losses.mean() < start_losses.mean()

    def test_deterministic(self):
        gen = toy_generator(seed=8)
        cohort = [augment_rest_class(ds, gen) for ds in generate_cohort(gen)]
        train, val = train_val_split(cohort, 0.8, seed=2)
        cc = CoteachConfig(t_max=2, seed=47)
        a = train_baseline(train, val, toy_model_config(), cc)
        b = train_baseline(train, val, toy_model_config(), cc)
        for p, q in zip(a.checkpoint.model.parameters(), b.checkpoint.model.parameters()):
            np.testing.assert_array_equal(p.data, q.data)


class TestRunLoso:
    def test_fold_count_and_sources(self):
        gen = toy_generator(n_subjects=3, seed=10)
        cohort = generate_cohort(gen)
        run = run_loso(cohort, "baseline", toy_model_config(),
                       CoteachConfig(t_max=1, seed=0), gen, master_seed=1)
        assert len(run.summary.folds) == 3
        assert sorted(f.target_subject for f in run.summary.folds) == [0, 1, 2]

    def test_two_subject_cohort(self):
        gen = toy_generator(n_subjects=2, seed=12)
        cohort = generate_cohort(gen)
        run = run_loso(cohort, "baseline", toy_model_config(),
                       CoteachConfig(t_max=1, seed=0), gen, master_seed=1)
        assert len(run.summary.folds) == 2

    def test_mean_std_recomputable(self):
        gen = toy_generator(n_subjects=3, seed=14)
        cohort = generate_cohort(gen)
        run = run_loso(cohort, "coteach", toy_model_config(),
                       CoteachConfig(t_max=2, seed=0), gen, master_seed=2)
        accs = np.array([f.balanced_accuracy for f in run.summary.folds])
        assert abs(run.summary.mean_balanced_accuracy - accs.mean()) < 1e-12
        assert abs(run.summary.std_balanced_accuracy - accs.std()) < 1e-12

    def test_fold_reproducible_in_isolation(self):
        gen = toy_generator(n_subjects=3, seed=16)
        cohort = generate_cohort(gen)
        cc = CoteachConfig(t_max=2, seed=0)
        run = run_loso(cohort, "coteach", toy_model_config(), cc, gen, master_seed=3)
        redo = run_fold(cohort, 1, "coteach", toy_model_config(), cc, gen, master_seed=3)
        original = next(f for f in run.folds if f.record.target_subject == 1)
        assert redo.record == original.record
        for p, q in zip(redo.checkpoint.model.parameters(),
                        original.checkpoint.model.parameters()):
            np.testing.assert_array_equal(p.data, q.data)

    def test_parallel_folds_match_sequential(self):
        gen = toy_generator(n_subjects=3, seed=18)
        cohort = generate_cohort(gen)
        cc = CoteachConfig(t_max=1, seed=0)
        seq = run_loso(cohort, "baseline", toy_model_config(), cc, gen, master_seed=4)
        par = run_loso(cohort, "baseline", toy_model_config(), cc, gen, master_seed=4,
                       parallel_folds=2)
        assert seq.summary.folds == par.summary.folds

    @pytest.mark.parametrize("parallel_folds", [1, 2])
    def test_each_finished_fold_is_logged_at_info(self, caplog, parallel_folds):
        gen = toy_generator(n_subjects=3, seed=18)
        with caplog.at_level(logging.INFO, logger="ctss"):
            run = run_loso(generate_cohort(gen), "coteach", toy_model_config(), CoteachConfig(t_max=1, seed=0),
                           gen, master_seed=4, parallel_folds=parallel_folds)
        records = [r for r in caplog.records if r.name.startswith("ctss") and r.getMessage().startswith("fold ")]
        assert [r.levelno for r in records] == [logging.INFO] * 3
        assert [r.getMessage() for r in records] == [
            f"fold {k}/3: subject {f.target_subject}, coteach, balanced accuracy {f.balanced_accuracy:.4f}, "
            f"best epoch {f.best_epoch}" for k, f in enumerate(run.summary.folds, 1)]
        assert [f.target_subject for f in run.summary.folds] == [0, 1, 2]

    @pytest.mark.parametrize("parallel_folds", [0, -3])
    def test_parallel_folds_below_1_raises(self, parallel_folds):
        gen = toy_generator(n_subjects=3, seed=18)
        with pytest.raises(ValidationError, match="parallel-folds"):
            run_loso(generate_cohort(gen), "baseline", toy_model_config(), CoteachConfig(t_max=1, seed=0),
                     gen, master_seed=4, parallel_folds=parallel_folds)

    @pytest.mark.parametrize("parallel_folds, workers", [(2, 2), (3, 3), (5000, 3)])
    def test_fold_workers_capped_at_fold_count(self, monkeypatch, parallel_folds, workers):
        started = []

        class SerialPool:
            """Records max_workers and runs the initializer and each task in this process, so no worker is started."""

            def __init__(self, max_workers, mp_context, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return (fn(task) for task in tasks)

        monkeypatch.setattr(ctss.evaluate, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(ctss.evaluate, "_worker_cohort", None)  # undoes the initializer's set at teardown
        gen = toy_generator(n_subjects=3, seed=18)
        run = run_loso(generate_cohort(gen), "baseline", toy_model_config(), CoteachConfig(t_max=1, seed=0),
                       gen, master_seed=4, parallel_folds=parallel_folds)
        assert started == [workers]
        assert len(run.summary.folds) == 3

    def test_every_fold_comes_through_pool_map_in_target_order(self, monkeypatch):
        """A pool subclass that wraps ``map``, as a tracer measuring tasks and results does, sees every fold."""
        seen = []

        class RecordingPool(ctss.evaluate.ProcessPoolExecutor):
            def map(self, fn, tasks, **kwargs):
                tasks = list(tasks)
                seen.append([task[0] for task in tasks])
                for out in super().map(fn, tasks, **kwargs):
                    seen.append(out.record)
                    yield out

        monkeypatch.setattr(ctss.evaluate, "ProcessPoolExecutor", RecordingPool)
        gen = toy_generator(n_subjects=3, seed=18)
        run = run_loso(generate_cohort(gen), "baseline", toy_model_config(), CoteachConfig(t_max=1, seed=0),
                       gen, master_seed=4, parallel_folds=2)
        assert seen == [[0, 1, 2], *run.summary.folds]
        assert [f.target_subject for f in run.summary.folds] == [0, 1, 2]

    def test_fold_workers_run_one_blas_thread(self, monkeypatch, tmp_path):
        if openblas_core() is None:
            pytest.skip("no OpenBLAS thread control in this process")
        if blas_thread_count() == 1:
            pytest.skip("OpenBLAS runs one thread already, so a worker's pin would not show")
        fold = ctss.evaluate.run_fold

        def spy(cohort, target, *args):
            with single_blas_thread() as count:  # yields the count it found on entry
                (tmp_path / str(target)).write_text(str(count))
            return fold(cohort, target, *args)

        monkeypatch.setattr(ctss.evaluate, "run_fold", spy)
        gen = toy_generator(n_subjects=3, seed=18)
        run_loso(generate_cohort(gen), "baseline", toy_model_config(), CoteachConfig(t_max=1, seed=0),
                 gen, master_seed=4, parallel_folds=2)
        assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {"0": "1", "1": "1", "2": "1"}

    def test_fold_workers_train_coteaching_on_one_thread(self, monkeypatch, tmp_path):
        if blas_thread_count() in (None, 1):
            pytest.skip("OpenBLAS cannot give up a thread here, so no process starts co-teaching's helper")
        monkeypatch.setattr(ctss.coteaching, "_THREAD_MIN_VALUES", 0)
        update = ctss.coteaching._masked_update

        def spy(*args):  # one file per thread that updates a network, in whichever process
            (tmp_path / threading.current_thread().name).touch()
            return update(*args)

        monkeypatch.setattr(ctss.coteaching, "_masked_update", spy)
        gen = toy_generator(n_subjects=3, seed=18)
        cohort = generate_cohort(gen)
        for workers, threads in ((1, {"MainThread", "ctss-g_0"}), (2, {"MainThread"})):
            for mark in tmp_path.iterdir():
                mark.unlink()
            run_loso(cohort, "coteach", toy_model_config(), CoteachConfig(t_max=1, seed=0), gen,
                     master_seed=4, parallel_folds=workers)
            assert {p.name for p in tmp_path.iterdir()} == threads

    def test_result_files(self, tmp_path):
        gen = toy_generator(n_subjects=3, seed=20)
        cohort = generate_cohort(gen)
        run = run_loso(cohort, "coteach", toy_model_config(),
                       CoteachConfig(t_max=2, seed=0), gen, master_seed=5)
        write_results_csv(run, tmp_path / "results.csv")
        write_summary_json(run, tmp_path / "summary.json")
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert lines[0] == "run_id,method,target_subject,balanced_accuracy,best_epoch,seed"
        assert len(lines) == 4
        import json
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n_folds"] == 3
        assert summary["method"] == "coteach"


class TestRunFold:
    @staticmethod
    def spy_on_fold(monkeypatch) -> list[tuple]:
        events = []
        augment, train = ctss.evaluate.augment_rest_class, ctss.evaluate.train_coteaching

        def augment_spy(ds, config):
            events.append(("augment", ds.subject_id))
            return augment(ds, config)

        def train_spy(*args, **kwargs):
            events.append(("train",))
            return train(*args, **kwargs)

        monkeypatch.setattr(ctss.evaluate, "augment_rest_class", augment_spy)
        monkeypatch.setattr(ctss.evaluate, "train_coteaching", train_spy)
        return events

    def test_target_is_augmented_after_training(self, monkeypatch):
        gen = toy_generator(n_subjects=3, seed=20)
        events = self.spy_on_fold(monkeypatch)
        run_fold(generate_cohort(gen), 1, "coteach", toy_model_config(), CoteachConfig(t_max=1, seed=0), gen,
                 master_seed=5)
        assert events == [("augment", 0), ("augment", 2), ("train",), ("augment", 1)]

    @pytest.mark.parametrize("bad", ["labels", "shape"])
    def test_bad_target_is_refused_before_anything_is_augmented(self, monkeypatch, bad):
        gen = toy_generator(n_subjects=3, seed=20)
        cohort = generate_cohort(gen)
        target = cohort[1]
        cohort[1] = SubjectDataset(subject_id=1, is_noisy=target.is_noisy,
                                   trials=target.trials if bad == "labels" else target.trials[:, :, 1:],
                                   labels=target.labels if bad == "shape" else np.zeros_like(target.labels))
        events = self.spy_on_fold(monkeypatch)
        with pytest.raises(ValidationError, match="subject 1 has"):
            run_fold(cohort, 1, "coteach", toy_model_config(), CoteachConfig(t_max=1, seed=0), gen, master_seed=5)
        assert events == []


class TestSelectionFrequencyReport:
    @staticmethod
    def record(epoch, it, net, selected, ids=(0, 1, 2)):
        return SelectionRecord(epoch=epoch, iteration=it, net=net,
                               loss_sums=[0.0] * len(ids), selected=list(selected),
                               remember_rate=1.0, subject_ids=tuple(ids))

    def test_full_retention_gives_all_ones(self):
        records = [self.record(e, i, net, [0, 1, 2])
                   for e in (1, 2) for i in (1, 2) for net in ("f", "g")]
        report = selection_frequency_report(records, (1, 2))
        assert all(row == {"f": 1.0, "g": 1.0, "pooled": 1.0} for row in report.values())

    def test_pooled_is_mean_of_networks(self):
        records = [self.record(1, 1, "f", [0]), self.record(1, 1, "g", [0, 1])]
        report = selection_frequency_report(records, (1, 1))
        assert report[0] == {"f": 1.0, "g": 1.0, "pooled": 1.0}
        assert report[1] == {"f": 0.0, "g": 1.0, "pooled": 0.5}
        assert report[2] == {"f": 0.0, "g": 0.0, "pooled": 0.0}

    def test_window_filters_epochs(self):
        records = [self.record(1, 1, "f", [0]), self.record(2, 1, "f", [1]),
                   self.record(1, 1, "g", [0]), self.record(2, 1, "g", [1])]
        report = selection_frequency_report(records, (2, 2))
        assert report[0]["pooled"] == 0.0
        assert report[1]["pooled"] == 1.0

    def test_window_out_of_range(self):
        records = [self.record(1, 1, "f", [0])]
        with pytest.raises(ValidationError):
            selection_frequency_report(records, (1, 5))
        with pytest.raises(ValidationError):
            selection_frequency_report([], (1, 1))

    def test_records_read_back_from_a_log_are_refused(self, tmp_path):
        """The JSONL log drops the batch universe, so a subject no network picked could not be reported."""
        records = [self.record(1, 1, "f", [0, 1]), self.record(1, 1, "g", [0, 1])]
        assert selection_frequency_report(records, (1, 1))[2] == {"f": 0.0, "g": 0.0, "pooled": 0.0}
        write_selection_log(records, tmp_path / "selections.jsonl")
        with pytest.raises(ValidationError, match="batch universe"):
            selection_frequency_report(read_selection_log(tmp_path / "selections.jsonl"), (1, 1))

    def test_final_window(self):
        assert final_epoch_window(30) == (23, 30)
        assert final_epoch_window(4) == (4, 4)
        assert final_epoch_window(1) == (1, 1)
