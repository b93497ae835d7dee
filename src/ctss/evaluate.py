"""Leave-one-subject-out experiment driver, plain-training baseline, and reports.

Every fold derives its own seed from (master seed, target subject), so folds
are independent, reproducible, and safe to run in parallel. The baseline runs
the co-teaching loop with one network, its own peer at a remember rate pinned
at 1, so it matches co-teaching's network f at tau = 0 by construction.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .coteaching import (
    Checkpoint,
    CoteachConfig,
    EpochStats,
    SelectionRecord,
    TrainResult,
    train_coteaching,
)
from .data import GeneratorConfig, augment_rest_class, loso_split, train_val_split
from .errors import ValidationError
from .metrics import evaluate_balanced_accuracy
from .models import ModelConfig
from .seeding import derive_seed


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
        return {
            "method": self.method,
            "master_seed": self.master_seed,
            "n_folds": len(self.folds),
            "mean_balanced_accuracy": self.mean_balanced_accuracy,
            "std_balanced_accuracy": self.std_balanced_accuracy,
            "folds": [asdict(f) for f in self.folds],
            "selection_frequencies": {str(k): v for k, v in sorted(self.selection_frequencies.items())},
            "config": self.config_echo,
        }


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
    source = [augment_rest_class(ds, generator_config) for ds in source]
    test = augment_rest_class(test, generator_config)
    train, val = train_val_split(source, val_ratio, derive_seed(fold_seed, "split"))

    result = train_coteaching(train, val, model_config, replace(train_config, seed=fold_seed),
                              method=method)

    test_acc = evaluate_balanced_accuracy(result.checkpoint.model, test, model_config.n_classes)
    record = FoldRecord(target_subject=target_subject_id, method=method,
                        balanced_accuracy=test_acc, best_epoch=result.checkpoint.epoch,
                        seed=fold_seed)
    return FoldOutput(record=record, checkpoint=result.checkpoint,
                      selection_records=result.logs.selection_records,
                      epoch_stats=result.logs.epoch_stats)


def _fold_task(args) -> FoldOutput:
    return run_fold(*args)


def run_loso(cohort, method: str, model_config: ModelConfig, train_config: CoteachConfig,
             generator_config: GeneratorConfig, master_seed: int, val_ratio: float = 0.9,
             parallel_folds: int = 1, config_echo: dict | None = None) -> LosoRun:
    """One fold per cohort subject; aggregates mean/std over fold balanced accuracies."""
    if len(cohort) < 2:
        raise ValidationError("leave-one-subject-out requires at least 2 subjects")
    targets = [ds.subject_id for ds in cohort]
    tasks = [(cohort, sid, method, model_config, train_config, generator_config,
              master_seed, val_ratio) for sid in targets]
    if parallel_folds > 1:
        # the fork start method launches every worker up front, so never more than folds
        with ProcessPoolExecutor(max_workers=min(parallel_folds, len(tasks))) as pool:
            outputs = list(pool.map(_fold_task, tasks))
    else:
        outputs = [run_fold(*task) for task in tasks]

    accs = np.array([o.record.balanced_accuracy for o in outputs])
    freqs: dict[int, float] = {}
    if method == "coteach":
        per_subject: dict[int, list[float]] = {}
        window = final_epoch_window(train_config.t_max)
        for out in outputs:
            report = selection_frequency_report(out.selection_records, window)
            for sid, row in report.items():
                per_subject.setdefault(sid, []).append(row["pooled"])
        freqs = {sid: float(np.mean(vals)) for sid, vals in per_subject.items()}

    summary = RunSummary(
        method=method,
        master_seed=master_seed,
        folds=[o.record for o in outputs],
        mean_balanced_accuracy=float(accs.mean()),
        std_balanced_accuracy=float(accs.std()),  # population std, ddof=0
        selection_frequencies=freqs,
        config_echo=config_echo or {},
    )
    return LosoRun(summary=summary, folds=outputs)


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
    universe: set[int] = set()
    for rec in records:
        universe.update(rec.subject_ids if rec.subject_ids else rec.selected)
    subject_ids = sorted(universe)

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
# result files

RESULTS_FIELDS = ("run_id", "method", "target_subject", "balanced_accuracy", "best_epoch", "seed")


def write_results_csv(run: LosoRun, path) -> None:
    run_id = f"{run.summary.method}-seed{run.summary.master_seed}"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULTS_FIELDS)
        for rec in run.summary.folds:
            writer.writerow([run_id, rec.method, rec.target_subject,
                             repr(rec.balanced_accuracy), rec.best_epoch, rec.seed])


def write_summary_json(run: LosoRun, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(run.summary.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
