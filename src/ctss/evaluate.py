"""Leave-one-subject-out experiment driver, plain-training baseline, reports, and the run writer.

Every fold derives its own seed from (master seed, target subject), so folds
are independent, reproducible, and safe to run in parallel. The baseline runs
the co-teaching loop with one network, its own peer at a remember rate pinned
at 1, so it matches co-teaching's network f at tau = 0 by construction.
"""

from __future__ import annotations

import csv
import json
import logging
import multiprocessing
import os
import re
import shutil
import sys
import time
from collections.abc import Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .blas import openblas_core, single_blas_thread
from .config import CoteachConfig, GeneratorConfig, ModelConfig
from .coteaching import (
    Checkpoint,
    EpochStats,
    SelectionRecord,
    TrainResult,
    train_coteaching,
    write_selection_log,
)
from .data import augment_rest_class, check_augmentable, loso_split, train_val_split
from .errors import DataFormatError, ValidationError, WorkerError
from .metrics import evaluate_balanced_accuracy
from .models import save_checkpoint
from .seeding import derive_seed

log = logging.getLogger(__name__)

# Fold workers fork where that is safe, on Linux, whatever the Python default:
# they start from this process's imports, and every worker starts up front.
_POOL_CONTEXT = multiprocessing.get_context("fork" if sys.platform == "linux" else None)


def train_baseline(train, val, model_config: ModelConfig, config: CoteachConfig,
                   epoch_callback=None) -> TrainResult:
    """Single-network training: the co-teaching loop with network f alone at R = 1."""
    return train_coteaching(train, val, model_config, config, epoch_callback, method="baseline")


@dataclass
class FoldRecord:
    target_subject: int
    method: str
    balanced_accuracy: float
    best_epoch: int
    seed: int


@dataclass
class FoldOutput:
    record: FoldRecord
    checkpoint: Checkpoint
    selection_records: list[SelectionRecord]
    epoch_stats: list[EpochStats]


@dataclass
class RunSummary:
    method: str
    master_seed: int
    folds: list[FoldRecord]
    mean_balanced_accuracy: float
    std_balanced_accuracy: float
    selection_frequencies: dict[int, float] = field(default_factory=dict)
    config_echo: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """The fields, with ``config_echo`` as ``config``, ``n_folds`` added and subject ids as strings."""
        out = asdict(self)
        out["config"] = out.pop("config_echo")
        out["n_folds"] = len(self.folds)
        out["selection_frequencies"] = {str(k): v for k, v in sorted(self.selection_frequencies.items())}
        return out


@dataclass
class LosoRun:
    summary: RunSummary
    folds: list[FoldOutput]


def run_fold(cohort, target_subject_id: int, method: str, model_config: ModelConfig,
             train_config: CoteachConfig, generator_config: GeneratorConfig,
             master_seed: int, val_ratio: float = 0.9) -> FoldOutput:
    """Train on everyone but the target, then score on the augmented target."""
    fold_seed = derive_seed(master_seed, "fold", target_subject_id)
    source, test = loso_split(cohort, target_subject_id)
    check_augmentable(test, generator_config)  # refused before training, augmented only after it
    # train and val are rows over each source's own trials and its rest block: no trial is copied
    train, val = train_val_split([augment_rest_class(ds, generator_config) for ds in source], val_ratio,
                                 derive_seed(fold_seed, "split"))

    result = train_coteaching(train, val, model_config, replace(train_config, seed=fold_seed),
                              method=method)

    test_acc = evaluate_balanced_accuracy(result.checkpoint.model, augment_rest_class(test, generator_config),
                                          model_config.n_classes)
    record = FoldRecord(target_subject=target_subject_id, method=method,
                        balanced_accuracy=test_acc, best_epoch=result.checkpoint.epoch,
                        seed=fold_seed)
    return FoldOutput(record=record, checkpoint=result.checkpoint,
                      selection_records=result.logs.selection_records,
                      epoch_stats=result.logs.epoch_stats)


_worker_cohort: list | None = None  # a fold worker's cohort, set once by _init_fold_worker


def _init_fold_worker(cohort) -> None:
    """Give a fold worker the cohort once: inherited without a pickle under ``fork``, else pickled once."""
    global _worker_cohort
    _worker_cohort = cohort


def _fold_task(task) -> FoldOutput:
    """One fold in a worker process, on one BLAS thread and so without co-teaching's helper thread.

    ``task`` is :func:`run_fold`'s arguments after the cohort, which the worker already holds. The
    workers already fill the cores; see ``coteaching._network_g_helper``.
    """
    with single_blas_thread():
        return run_fold(_worker_cohort, *task)


def loso_folds(cohort, method: str, model_config: ModelConfig, train_config: CoteachConfig,
               generator_config: GeneratorConfig, master_seed: int, val_ratio: float = 0.9,
               parallel_folds: int = 1) -> Iterator[FoldOutput]:
    """One fold per cohort subject, each yielded in target order as it is collected.

    The arguments are checked here, before any fold trains; the folds train as the iterator is read.
    """
    if len(cohort) < 2:
        raise ValidationError("leave-one-subject-out requires at least 2 subjects")
    if parallel_folds < 1:
        raise ValidationError(f"--parallel-folds must be >= 1, got {parallel_folds}")
    # the cohort goes to each worker once, not with every task
    tasks = [(ds.subject_id, method, model_config, train_config, generator_config, master_seed, val_ratio)
             for ds in cohort]
    return _collect_folds(cohort, tasks, parallel_folds)


def _collect_folds(cohort, tasks: list[tuple], parallel_folds: int) -> Iterator[FoldOutput]:
    with ExitStack() as stack:
        if parallel_folds > 1:
            # forked workers inherit the pin, so none of them restarts OpenBLAS's thread pool to set it
            stack.enter_context(single_blas_thread())
            # forked workers all start up front, so never more than folds
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=min(parallel_folds, len(tasks)), mp_context=_POOL_CONTEXT,
                initializer=_init_fold_worker, initargs=(cohort,)))
            folds = pool.map(_fold_task, tasks)
        else:
            folds = (run_fold(cohort, *task) for task in tasks)
        collected = 0
        try:
            for out in folds:
                collected += 1
                log.info("fold %d/%d: subject %d, %s, balanced accuracy %.4f, best epoch %d", collected,
                         len(tasks), out.record.target_subject, out.record.method,
                         out.record.balanced_accuracy, out.record.best_epoch)
                yield out
                del out  # not held while the next fold trains
        except BrokenProcessPool:
            raise WorkerError(f"a fold worker process died (killed by a signal, or out of memory) with the "
                              f"folds of subjects {[task[0] for task in tasks[collected:]]} not collected; "
                              "fewer --parallel-folds hold fewer folds in memory at once") from None
        finally:
            folds.close()  # cancels the folds not started, so leaving the pool waits only for running ones


def summarize(method: str, master_seed: int, records: list[FoldRecord], reports: list[dict],
              config_echo: dict | None = None) -> RunSummary:
    """The run's summary from its fold records and each co-teaching fold's :func:`selection_frequency_report`."""
    accs = np.array([rec.balanced_accuracy for rec in records])
    per_subject: dict[int, list[float]] = {}
    for report in reports:
        for sid, row in report.items():
            per_subject.setdefault(sid, []).append(row["pooled"])
    return RunSummary(
        method=method,
        master_seed=master_seed,
        folds=records,
        mean_balanced_accuracy=float(accs.mean()),
        std_balanced_accuracy=float(accs.std()),  # population std, ddof=0
        selection_frequencies={sid: float(np.mean(vals)) for sid, vals in per_subject.items()},
        config_echo=config_echo or {},
    )


def run_loso(cohort, method: str, model_config: ModelConfig, train_config: CoteachConfig,
             generator_config: GeneratorConfig, master_seed: int, val_ratio: float = 0.9,
             parallel_folds: int = 1, config_echo: dict | None = None) -> LosoRun:
    """Every fold of :func:`loso_folds`, held in memory, and their summary."""
    outputs = list(loso_folds(cohort, method, model_config, train_config, generator_config, master_seed,
                              val_ratio, parallel_folds))
    window = final_epoch_window(train_config.t_max)
    reports = [selection_frequency_report(out.selection_records, window)
               for out in outputs if out.selection_records]  # the baseline selects nothing
    return LosoRun(summary=summarize(method, master_seed, [out.record for out in outputs], reports, config_echo),
                   folds=outputs)


def final_epoch_window(t_max: int) -> tuple[int, int]:
    """Inclusive epoch range covering the trailing quarter of a run."""
    start = int(t_max * 0.75) + 1
    return min(start, t_max), t_max


def selection_frequency_report(records, window: tuple[int, int]) -> dict[int, dict[str, float]]:
    """Per-subject fraction of iterations selected inside the epoch window.

    Returns {subject_id: {"f": .., "g": .., "pooled": ..}} where pooled is
    the mean of the two networks' frequencies.
    """
    if not records:
        raise ValidationError("selection log is empty")
    lo, hi = window
    epochs = [rec.epoch for rec in records]
    if lo > hi or lo < min(epochs) or hi > max(epochs):
        raise ValidationError(
            f"window [{lo}, {hi}] outside logged epochs [{min(epochs)}, {max(epochs)}]"
        )
    if not all(rec.subject_ids for rec in records):  # as read back from a log, which holds no batch universe
        raise ValidationError("selection records carry no batch universe (empty subject_ids), so the "
                              "subjects no network selected are unknown")
    subject_ids = sorted({sid for rec in records for sid in rec.subject_ids})

    counts = {net: 0 for net in ("f", "g")}
    hits = {net: {sid: 0 for sid in subject_ids} for net in ("f", "g")}
    for rec in records:
        if not lo <= rec.epoch <= hi or rec.net not in counts:
            continue
        counts[rec.net] += 1
        for sid in rec.selected:
            hits[rec.net][sid] += 1

    report: dict[int, dict[str, float]] = {}
    for sid in subject_ids:
        row = {}
        for net in ("f", "g"):
            row[net] = hits[net][sid] / counts[net] if counts[net] else 0.0
        row["pooled"] = (row["f"] + row["g"]) / 2.0
        report[sid] = row
    return report


# ---------------------------------------------------------------------------
# the run directory: results.csv, summary.json, fold_NNN/checkpoint.bin,
# fold_NNN/selections.jsonl (coteach only), and manifest.json, written last;
# folds are staged in .partial-<pid> inside it as they are collected

RESULTS_FIELDS = ("run_id", "method", "target_subject", "balanced_accuracy", "best_epoch", "seed")
_STAGING_NAME = re.compile(r"\.partial-\d+")


def write_results_csv(summary: RunSummary, path) -> None:
    run_id = f"{summary.method}-seed{summary.master_seed}"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULTS_FIELDS)
        for rec in summary.folds:
            writer.writerow([run_id, rec.method, rec.target_subject,
                             repr(rec.balanced_accuracy), rec.best_epoch, rec.seed])


def _write_json(obj: dict, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_summary_json(summary: RunSummary, path) -> None:
    _write_json(summary.to_json_dict(), path)


def _run_entries(out_dir: Path) -> list[Path]:
    """What ``out_dir`` holds bar staging directories, this run's or one a killed run left."""
    return [p for p in out_dir.iterdir() if not _STAGING_NAME.fullmatch(p.name)]


def check_out_dir(out_dir: Path, subject_ids) -> None:
    """Refuse an output path under a file, a directory holding anything but a run, or another cohort's run."""
    # a dangling link exists too: mkdir cannot create a directory in its place
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists() or p.is_symlink())
    if not existing.is_dir():
        raise DataFormatError(f"output path {out_dir}: {existing} exists and is not a directory")
    entries = _run_entries(out_dir) if existing == out_dir else []
    if not entries:
        return
    if not (out_dir / "manifest.json").is_file():
        raise ValidationError(f"{out_dir} is not empty and holds no run (no manifest.json); "
                              "choose another --out or empty it")
    stale = sorted(p for p in entries
                   if p.is_dir() and re.fullmatch(r"fold_\d{3,}", p.name) and int(p.name[5:]) not in subject_ids)
    if stale:
        raise ValidationError(f"{stale[0]} holds a fold of a subject this cohort does not have; "
                              "choose another --out or remove the old run")


def _remove(entry: Path) -> None:
    if entry.is_dir() and not entry.is_symlink():
        shutil.rmtree(entry)
    else:
        entry.unlink()


def _swap_in(staging: Path, out_dir: Path) -> None:
    """Replace every entry of ``out_dir`` by the staged ones; a directory holding a manifest holds a whole run."""
    for entry in sorted(out_dir.iterdir(), key=lambda p: p.name != "manifest.json"):  # the manifest first
        if entry.name != staging.name:
            _remove(entry)
    for entry in sorted(staging.iterdir(), key=lambda p: p.name == "manifest.json"):  # the manifest last
        entry.rename(out_dir / entry.name)
    staging.rmdir()


def write_run(folds: Iterable[FoldOutput], out_dir, method: str, master_seed: int, t_max: int,
              config_echo: dict, started: float, cohort_sha256: str | None) -> RunSummary:
    """Write each fold as it is collected, then replace the run ``out_dir`` holds, if any, with this one.

    The folds go to ``out_dir/.partial-<pid>``, on ``out_dir``'s own file system so that renames
    can move them, and only their records and selection reports stay in memory. The summaries and
    the manifest are staged last. Then every entry of ``out_dir`` is removed, the old run's and
    other staging directories alike (the directory itself stays, be it the working directory or a
    link), and the staged entries are renamed in. On any error, Ctrl-C included, the staging
    directory is removed, and so is ``out_dir`` if this call created it, so an earlier run stays as
    it was. ``started`` is the ``time.time()`` the run began at; returns the run's summary.
    """
    out_dir = Path(out_dir)
    created = not (out_dir.exists() or out_dir.is_symlink())
    staging = out_dir / f".partial-{os.getpid()}"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        shutil.rmtree(staging, ignore_errors=True)  # left by a killed run whose process id this one reuses
        staging.mkdir()
        window = final_epoch_window(t_max)
        records, reports = [], []
        for fold in folds:
            fold_dir = staging / f"fold_{fold.record.target_subject:03d}"
            fold_dir.mkdir()
            save_checkpoint(fold.checkpoint.model, fold_dir / "checkpoint.bin")
            if fold.selection_records:  # the baseline selects nothing
                write_selection_log(fold.selection_records, fold_dir / "selections.jsonl")
                reports.append(selection_frequency_report(fold.selection_records, window))
            records.append(fold.record)
            del fold  # not held while the next fold trains
        summary = summarize(method, master_seed, records, reports, config_echo)
        write_results_csv(summary, staging / "results.csv")
        write_summary_json(summary, staging / "summary.json")
        _write_json({"blas_core": openblas_core(), "cohort_sha256": cohort_sha256, "command": "run",
                     "config": summary.config_echo, "method": method, "master_seed": master_seed,
                     "version": __version__, "wall_time_seconds": time.time() - started},
                    staging / "manifest.json")
        check_out_dir(out_dir, {rec.target_subject for rec in records})
        _swap_in(staging, out_dir)
    except BaseException:
        shutil.rmtree(out_dir if created else staging, ignore_errors=True)
        raise
    return summary
