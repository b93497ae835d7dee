"""Confusion matrices, balanced accuracy, and batched prediction helpers."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .models import Model
from .tensor import Tensor

_PREDICT_CHUNK = 256  # trials per untaped forward, so evaluation never holds a whole split's activations


def confusion_matrix(y_true, y_pred, n_classes: int) -> np.ndarray:
    """Count matrix with rows = true class, columns = predicted class."""
    t = np.asarray(y_true, dtype=np.int64)
    p = np.asarray(y_pred, dtype=np.int64)
    if t.shape != p.shape or t.ndim != 1:
        raise ValidationError(f"label vectors must match, got shapes {t.shape} and {p.shape}")
    if t.size == 0:
        raise ValidationError("confusion_matrix requires at least one sample")
    for name, v in (("true", t), ("predicted", p)):
        if v.min() < 0 or v.max() >= n_classes:
            raise ValidationError(f"{name} labels outside [0, {n_classes})")
    counts = np.bincount(t * n_classes + p, minlength=n_classes * n_classes)
    return counts.reshape(n_classes, n_classes).astype(np.int64, copy=False)


def balanced_accuracy(cm: np.ndarray) -> float:
    """Mean over classes of per-class recall (diagonal over row sum)."""
    cm = np.asarray(cm)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ValidationError(f"confusion matrix must be square, got shape {cm.shape}")
    row_sums = cm.sum(axis=1)
    empty = np.flatnonzero(row_sums == 0)
    if empty.size:
        raise ValidationError(f"class {int(empty[0])} has no samples; balanced accuracy undefined")
    recalls = np.diag(cm) / row_sums
    return float(recalls.mean())


def predict_classes(model: Model, trials) -> np.ndarray:
    """Argmax class per trial of ``trials``, a sequence of [E, T] trials, evaluated without gradient
    tracking. Each chunk of trials is gathered into one array only for its own forward."""
    n = len(trials)
    out = np.empty(n, dtype=np.int64)
    for start in range(0, n, _PREDICT_CHUNK):
        logits = model.forward(Tensor(np.array(trials[start:start + _PREDICT_CHUNK])), tape=None)
        out[start:start + _PREDICT_CHUNK] = np.argmax(logits.data, axis=1)
    return out


def evaluate_balanced_accuracy(model: Model, datasets, n_classes: int) -> float:
    """Balanced accuracy over the pooled trials of one or more datasets."""
    ds_list = datasets if isinstance(datasets, list) else [datasets]
    if not ds_list:
        raise ValidationError("evaluation requires at least one dataset")
    labels = np.concatenate([ds.labels for ds in ds_list])
    preds = predict_classes(model, [trial for ds in ds_list for trial in ds.trial_views()])
    return balanced_accuracy(confusion_matrix(labels, preds, n_classes))
