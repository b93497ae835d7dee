"""Adam with bias correction and a single-cycle cosine learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError, ValidationError


@dataclass
class AdamState:
    """First/second moments, one vector each, and the step counter for one parameter vector."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


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
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    m, v = state.m, state.v
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * (g * g)
    p -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    if not np.isfinite(p).all():
        raise NumericError("adam_step produced non-finite parameters")


def sgd_step(p: np.ndarray, g: np.ndarray, lr: float) -> None:
    """Plain gradient step p <- p - lr * g (used for closed-form update checks)."""
    if g.shape != p.shape:
        raise DimensionError(f"misaligned optimizer inputs: param shape {p.shape}, grad shape {g.shape}")
    p -= lr * g
    if not np.isfinite(p).all():
        raise NumericError("sgd_step produced non-finite parameters")


@dataclass(frozen=True)
class CosineSchedule:
    """Single-cycle cosine annealing from base_lr at t=0 to min_lr at t=total_epochs."""

    base_lr: float = 0.01
    min_lr: float = 0.0
    total_epochs: int = 1

    def __post_init__(self):
        if self.total_epochs < 1:
            raise ValidationError(f"total_epochs must be >= 1, got {self.total_epochs}")
        if self.base_lr < self.min_lr:
            raise ValidationError(f"base_lr {self.base_lr} must be >= min_lr {self.min_lr}")


def cosine_lr(t: int, sched: CosineSchedule) -> float:
    """Learning rate at integer epoch index t in [0, total_epochs]."""
    if t < 0 or t > sched.total_epochs:
        raise ValidationError(f"epoch index {t} outside [0, {sched.total_epochs}]")
    span = sched.base_lr - sched.min_lr
    return sched.min_lr + span * (1.0 + math.cos(math.pi * t / sched.total_epochs)) / 2.0
