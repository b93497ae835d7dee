"""Adam with bias correction and a single-cycle cosine learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError, ValidationError
from .tensor import Tensor, split_views


@dataclass
class AdamState:
    """First/second moments, one vector each, and the step counter for one parameter list.

    ``m`` and ``v`` hold per-tensor views of ``m_flat`` and ``v_flat``, in
    parameter order.
    """

    m_flat: np.ndarray
    v_flat: np.ndarray
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: list[Tensor]) -> "AdamState":
        shapes = [p.shape for p in params]
        m_flat = np.zeros(sum(p.size for p in params))
        v_flat = np.zeros_like(m_flat)
        return cls(m_flat, v_flat, split_views(m_flat, shapes), split_views(v_flat, shapes))


def adam_step(params: list[Tensor], grads: list[np.ndarray], state: AdamState, lr: float) -> None:
    """One in-place Adam update over ``params``, in one pass over all their values.

    m <- b1 m + (1-b1) g, v <- b2 v + (1-b2) g^2, then the bias-corrected
    step p <- p - lr * m_hat / (sqrt(v_hat) + eps). ``params`` is a model's
    :meth:`~ctss.models.Model.parameters` or a single tensor.
    """
    p, g = _vectors(params, grads, state.m)
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    m, v = state.m_flat, state.v_flat
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * (g * g)
    p -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    if not np.isfinite(p).all():
        raise NumericError("adam_step produced non-finite parameters")


def sgd_step(params: list[Tensor], grads: list[np.ndarray], lr: float) -> None:
    """Plain gradient step p <- p - lr * g (used for closed-form update checks)."""
    p, g = _vectors(params, grads)
    p -= lr * g
    if not np.isfinite(p).all():
        raise NumericError("sgd_step produced non-finite parameters")


def _vectors(params: list[Tensor], grads: list[np.ndarray], moments=None) -> tuple[np.ndarray, np.ndarray]:
    """The vector ``params`` view, in order, and their gradients joined into one vector.

    The tensors must be all of one model's parameters, views of its ``flat``
    end to end, or a single tensor, whose contiguous data is a vector as it is.
    """
    shapes = [p.data.shape for p in params]
    grad_shapes = [g.shape for g in grads]
    moment_shapes = shapes if moments is None else [m.shape for m in moments]
    if grad_shapes != shapes or moment_shapes != shapes:
        raise DimensionError(f"misaligned optimizer inputs: param shapes {shapes}, grad shapes {grad_shapes}, "
                             f"moment shapes {moment_shapes}")
    g = np.concatenate(grads, axis=None)
    if len(params) == 1:
        return params[0].data.reshape(-1), g
    flat = params[0].data.base
    if flat is None or flat.size != g.size or not all([p.data.base is flat for p in params]):
        raise DimensionError("optimizer parameters must be a single tensor or all of one model's parameters")
    return flat, g


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
