"""Adam with bias correction and a single-cycle cosine learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError, ValidationError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second moments, one vector each, and the step counter for one parameter vector."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def adam_step(p: np.ndarray, g: np.ndarray, state: AdamState, lr: float) -> None:
    """One in-place Adam update of the parameter vector ``p`` (a model's ``flat``) by its gradient ``g``.

    m <- b1 m + (1-b1) g, v <- b2 v + (1-b2) g^2, then the bias-corrected
    step p <- p - lr * m_hat / (sqrt(v_hat) + eps).
    """
    if g.shape != p.shape or state.m.shape != p.shape or state.v.shape != p.shape:
        raise DimensionError(f"misaligned optimizer inputs: param shape {p.shape}, grad shape {g.shape}, "
                             f"moment shapes {state.m.shape} and {state.v.shape}")
    state.step += 1
    t = state.step
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    m, v = state.m, state.v
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * (g * g)
    p -= lr * (m / c1) / (np.sqrt(v / c2) + EPS)
    if not np.isfinite(p).all():
        raise NumericError("adam_step produced non-finite parameters")


def sgd_step(p: np.ndarray, g: np.ndarray, lr: float) -> None:
    """Plain gradient step p <- p - lr * g (used for closed-form update checks)."""
    if g.shape != p.shape:
        raise DimensionError(f"misaligned optimizer inputs: param shape {p.shape}, grad shape {g.shape}")
    p -= lr * g
    if not np.isfinite(p).all():
        raise NumericError("sgd_step produced non-finite parameters")


def cosine_lr(t: int, base_lr: float, total_epochs: int) -> float:
    """Single-cycle cosine annealing from base_lr at epoch index t=0 to 0 at t=total_epochs."""
    if total_epochs < 1:
        raise ValidationError(f"total_epochs must be >= 1, got {total_epochs}")
    if t < 0 or t > total_epochs:
        raise ValidationError(f"epoch index {t} outside [0, {total_epochs}]")
    return base_lr * (1.0 + math.cos(math.pi * t / total_epochs)) / 2.0
