"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every primitive takes and returns :class:`Tensor` objects. Passing a
:class:`Tape` records a backward closure; backward replays the closures in
exact reverse order of the forward calls and accumulates gradients keyed by
tensor identity. All arithmetic is float64 on CPU, so identical inputs
produce bitwise-identical outputs.

Sequence inputs are channel-major batches ``[B, C, L]``; the sequence
primitives take no other rank, so a single trial is a batch of one.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterable, Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DimensionError, NumericError, StateError, ValidationError


class Tensor:
    """A dense n-dimensional float64 array (row-major)."""

    def __init__(self, data, check_finite: bool = True):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if check_finite:
            _ensure_finite(arr, "tensor construction")
        self.data = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={tuple(self.shape)})"


def _ensure_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values produced by {op}")


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Gradients are accumulated in buffers owned by the tape, keyed by the
    tensors that took part in the recorded forward pass (by identity; the
    key holds a strong reference, so a freed tensor's id can never alias a
    new one). A tape is single-use: after :meth:`backward` it refuses
    further recording.

    :meth:`backward` frees memory as it goes: each entry is dropped once it
    has been replayed, releasing its closure and the arrays it captured,
    and so is the gradient buffer of each recorded output. After backward,
    only gradients of tensors that are not recorded outputs (inputs and
    parameters) can be read through :meth:`grad`.

    ``backward(..., wrt=tensors)`` limits the work to the gradients the
    caller reads, like the ``inputs=`` argument of torch's backward: a leaf
    tensor outside ``wrt`` gets no gradient. A closure may ask
    :meth:`wants` and skip the arithmetic for an input nobody reads; conv1d
    does, so a model's first conv builds no gradient for the data batch.

    Gradients are read-only. They are stored without copying and summed out
    of place, so one array may serve as the gradient of several tensors
    (``add`` hands its output gradient to both inputs, ``reshape`` a view of
    it), and a gradient may alias the caller's seed array.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, Callable[[np.ndarray], Iterable[tuple[Tensor, np.ndarray]]]]] = []
        self._grads: dict[Tensor, np.ndarray] = {}
        self._finished = False
        self._wrt: Optional[frozenset[Tensor]] = None
        self._pending: set[Tensor] = set()

    def record(self, out: Tensor, backward_fn) -> None:
        if self._finished:
            raise StateError("tape already consumed by backward; use a fresh tape")
        self._entries.append((out, backward_fn))

    def wants(self, t: Tensor) -> bool:
        """Whether the running backward needs a gradient for ``t``.

        Always true without ``wrt``; with it, true for the tensors in ``wrt``
        and for the outputs of entries not yet replayed.
        """
        return self._wrt is None or t in self._wrt or t in self._pending

    def _accumulate(self, t: Tensor, g: np.ndarray) -> None:
        if not self.wants(t):
            return
        buf = self._grads.get(t)
        # never in place: ``g`` may also be another tensor's gradient
        self._grads[t] = g if buf is None else buf + g

    def backward(self, output_grad, output: Optional[Tensor] = None,
                 wrt: Optional[Iterable[Tensor]] = None) -> None:
        """Replay recorded primitives in reverse, seeding ``output`` with ``output_grad``.

        ``output`` defaults to the most recently recorded result. When
        ``wrt`` is given, leaf tensors outside it receive no gradient.
        """
        if self._finished:
            raise StateError("backward already ran on this tape")
        if not self._entries:
            raise StateError("backward called on a tape with no recorded forward pass")
        out = self._entries[-1][0] if output is None else output
        seed = np.asarray(output_grad.data if isinstance(output_grad, Tensor) else output_grad, dtype=np.float64)
        if seed.shape != out.data.shape:
            raise DimensionError(
                f"output grad shape {seed.shape} does not match output shape {out.data.shape}"
            )
        self._finished = True
        if wrt is not None:
            self._wrt = frozenset(wrt)
            self._pending = {node for node, _ in self._entries}
        self._accumulate(out, seed)
        while self._entries:
            node, fn = self._entries.pop()
            self._pending.discard(node)
            g = self._grads.pop(node, None)
            if g is None:
                continue  # branch not on the path to the seeded output
            for t, gt in fn(g):
                self._accumulate(t, gt)

    def grad(self, t: Tensor) -> Optional[np.ndarray]:
        """Accumulated gradient for ``t``, or None if it never received one."""
        return self._grads.get(t)


# ---------------------------------------------------------------------------
# shape helpers


def split_views(flat: np.ndarray, shapes: Iterable[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive views of the vector ``flat``, one per shape, in order."""
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[offset:offset + size].reshape(shape))
        offset += size
    return views


def conv_output_length(length: int, kernel: int, stride: int, padding: int) -> int:
    return (length + 2 * padding - kernel) // stride + 1


def _sliding_windows(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Read-only view [B, C, L_out, K] of every stride-spaced window."""
    b, c, length = x.shape
    n_out = (length - kernel) // stride + 1
    sb, sc, sl = x.strides
    return as_strided(x, shape=(b, c, n_out, kernel), strides=(sb, sc, sl * stride, sl), writeable=False)


@lru_cache(maxsize=64)
def _tap_windows(k: int, stride: int, padding: int, length: int, n_out: int) -> tuple[tuple[int, int, int], ...]:
    """(lo, hi, start) for each tap j < k: windows lo..hi-1 (none when lo == hi) are those whose
    tap j reads x rather than padding, and window lo's tap j reads x at position start."""
    taps = []
    for j in range(k):
        lo = max(0, -((j - padding) // stride))
        hi = max(lo, min(n_out, (padding + length - 1 - j) // stride + 1))
        taps.append((lo, hi, lo * stride + j - padding))
    return tuple(taps)


# ---------------------------------------------------------------------------
# primitives


def conv1d(
    x: Tensor,
    kernels: Tensor,
    bias: Tensor,
    stride: int = 1,
    padding: int = 0,
    tape: Optional[Tape] = None,
) -> Tensor:
    """Strided cross-correlation along the last axis.

    ``x`` is [B, C_in, L]; ``kernels`` is [C_out, C_in, K]; ``bias`` is
    [C_out]. Output length is floor((L + 2p - K)/s) + 1.
    """
    if x.ndim != 3:
        raise DimensionError(f"conv1d expects a [B, C, L] input, got shape {tuple(x.shape)}")
    if kernels.ndim != 3:
        raise DimensionError(f"conv1d kernels must be [C_out, C_in, K], got shape {tuple(kernels.shape)}")
    c_out, c_in, k = kernels.shape
    if bias.shape != (c_out,):
        raise DimensionError(f"conv1d bias must have shape [{c_out}], got {tuple(bias.shape)}")
    if stride < 1 or padding < 0:
        raise ValidationError(f"conv1d needs stride >= 1 and padding >= 0, got {stride}, {padding}")
    b, c, length = x.shape
    if c != c_in:
        raise DimensionError(f"conv1d input has {c} channels but kernels expect {c_in}")
    padded_len = length + 2 * padding
    if k > padded_len:
        raise DimensionError(f"conv1d kernel size {k} exceeds padded input length {padded_len}")
    n_out = conv_output_length(length, k, stride, padding)
    if n_out < 1:
        raise DimensionError(f"conv1d output length {n_out} < 1 for L={length}, K={k}, s={stride}, p={padding}")

    # windows as columns, cols[c, j, b, l] = x[b, c, l * stride + j - padding] (0 in the padding):
    # one copy per tap j, running along L, with no padded copy of x. The matmul reads them
    # transposed, as [B*L_out, C_in*K] rows, because kflat @ cols sums in another order for some
    # small shapes
    taps = _tap_windows(k, stride, padding, length, n_out)
    cols = np.empty((c, k, b, n_out), dtype=np.float64)
    xt = x.data.transpose(1, 0, 2)
    for j, (lo, hi, start) in enumerate(taps):
        if lo:
            cols[:, j, :, :lo] = 0.0
        if hi < n_out:
            cols[:, j, :, hi:] = 0.0
        cols[:, j, :, lo:hi] = xt[:, :, start:start + stride * (hi - lo):stride]
    cols = cols.reshape(c * k, b * n_out)
    kflat = kernels.data.reshape(c_out, c * k)
    # transpose the [B*L_out, C_out] product and add the bias in one pass
    out = np.empty((b, c_out, n_out), dtype=np.float64)
    np.add((cols.T @ kflat.T).reshape(b, n_out, c_out).transpose(0, 2, 1), bias.data[None, :, None], out=out)
    _ensure_finite(out, "conv1d")
    result = Tensor(out, check_finite=False)

    if tape is not None:

        def back(gout: np.ndarray):
            gbias = gout.sum(axis=(0, 2))
            # gflat stays the reduction operand: the product in the other orientation sums in another order
            gflat = np.ascontiguousarray(gout.transpose(0, 2, 1)).reshape(b * n_out, c_out)
            gker = (gflat.T @ cols.T).reshape(c_out, c, k)
            if not tape.wants(x):
                return [(kernels, gker), (bias, gbias)]
            # spread[b, c, j, l] is tap j's share of input position l * stride + j - padding
            spread = np.matmul(kflat.T, gout).reshape(b, c, k, n_out)
            gx = np.zeros((b, c, length), dtype=np.float64)
            for j, (lo, hi, start) in enumerate(taps):  # in order, so overlapping windows always sum alike
                if lo < hi:
                    gx[:, :, start:start + stride * (hi - lo):stride] += spread[:, :, j, lo:hi]
            return [(x, gx), (kernels, gker), (bias, gbias)]

        tape.record(result, back)
    return result


def elu(x: Tensor, alpha: float = 1.0, tape: Optional[Tape] = None) -> Tensor:
    """Elementwise x if x > 0 else alpha * (exp(x) - 1), for 0 <= alpha <= 1."""
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"elu needs 0 <= alpha <= 1, got {alpha}")
    xd = x.data
    # no mask, whose branches cost several times more on activations' random signs: the
    # negative branch of x clipped to <= 0 is 0 for x > 0 and >= x otherwise, so the maximum
    # gives the masked form's bits (x's own zero at x = +-0, as long as minimum and maximum
    # return the same operand on ties); expm1 never sees x > 0, so it cannot overflow
    out = np.minimum(xd, 0.0)
    np.expm1(out, out=out)
    if alpha != 1.0:
        out *= alpha
    np.maximum(out, xd, out=out)
    _ensure_finite(out, "elu")
    result = Tensor(out, check_finite=False)
    if tape is not None:

        def back(gout: np.ndarray):
            # derivative built here, not at forward time, so the tape holds one array less:
            # 1 for x > 0, else out + alpha <= alpha. The minimum caps the x > 0 entries at 1;
            # x + alpha >= 1 there only when alpha == 1, so otherwise (x > 0) lifts them first
            gx = out + alpha
            if alpha != 1.0:
                np.maximum(gx, xd > 0.0, out=gx)
            np.minimum(gx, 1.0, out=gx)
            gx *= gout
            return [(x, gx)]

        tape.record(result, back)
    return result


def maxpool1d(x: Tensor, k: int, stride: int, tape: Optional[Tape] = None) -> Tensor:
    """Windowed maximum along the last axis; gradient flows to the first argmax."""
    if x.ndim != 3:
        raise DimensionError(f"maxpool1d expects a [B, C, L] input, got shape {tuple(x.shape)}")
    if k < 1 or stride < 1:
        raise ValidationError(f"maxpool1d needs k >= 1 and stride >= 1, got {k}, {stride}")
    b, c, length = x.shape
    if k > length:
        raise DimensionError(f"maxpool1d window {k} exceeds input length {length}")
    windows = _sliding_windows(x.data, k, stride)
    out = windows.max(axis=3)
    _ensure_finite(out, "maxpool1d")
    result = Tensor(out, check_finite=False)

    if tape is not None:
        argmax = windows.argmax(axis=3)  # first maximal index on ties
        n_out = out.shape[2]

        def back(gout: np.ndarray):
            gx = np.zeros((b, c, length), dtype=np.float64)
            bi = np.arange(b)[:, None, None]
            ci = np.arange(c)[None, :, None]
            pos = np.arange(n_out)[None, None, :] * stride + argmax
            np.add.at(gx, (bi, ci, pos), gout)
            return [(x, gx)]

        tape.record(result, back)
    return result


def adaptive_avg_pool1d(x: Tensor, out_len: int, tape: Optional[Tape] = None) -> Tensor:
    """Mean over contiguous bins covering the last axis; out_len=1 is the global mean."""
    if x.ndim != 3:
        raise DimensionError(f"adaptive_avg_pool1d expects a [B, C, L] input, got shape {tuple(x.shape)}")
    if out_len < 1:
        raise ValidationError(f"adaptive_avg_pool1d needs out_len >= 1, got {out_len}")
    b, c, length = x.shape
    if out_len > length:
        raise DimensionError(f"adaptive_avg_pool1d out_len {out_len} exceeds input length {length}")
    bounds = [((i * length) // out_len, -((-(i + 1) * length) // out_len)) for i in range(out_len)]
    out = np.empty((b, c, out_len), dtype=np.float64)
    for i, (lo, hi) in enumerate(bounds):
        out[:, :, i] = x.data[:, :, lo:hi].mean(axis=2)
    _ensure_finite(out, "adaptive_avg_pool1d")
    result = Tensor(out, check_finite=False)

    if tape is not None:

        def back(gout: np.ndarray):
            gx = np.zeros((b, c, length), dtype=np.float64)
            for i, (lo, hi) in enumerate(bounds):
                gx[:, :, lo:hi] += gout[:, :, i:i + 1] / (hi - lo)
            return [(x, gx)]

        tape.record(result, back)
    return result


def linear(x: Tensor, weight: Tensor, bias: Tensor, tape: Optional[Tape] = None) -> Tensor:
    """Affine map of row vectors: [B, F] x [O, F]^T + [O]."""
    if x.ndim != 2 or weight.ndim != 2:
        raise DimensionError(
            f"linear expects x [B, F] and weight [O, F], got {tuple(x.shape)} and {tuple(weight.shape)}"
        )
    o, f = weight.shape
    if x.shape[1] != f:
        raise DimensionError(f"linear input has {x.shape[1]} features but weight expects {f}")
    if bias.shape != (o,):
        raise DimensionError(f"linear bias must have shape [{o}], got {tuple(bias.shape)}")
    out = x.data @ weight.data.T + bias.data
    _ensure_finite(out, "linear")
    result = Tensor(out, check_finite=False)

    if tape is not None:
        xd, wd = x.data, weight.data

        def back(gout: np.ndarray):
            return [(x, gout @ wd), (weight, gout.T @ xd), (bias, gout.sum(axis=0))]

        tape.record(result, back)
    return result


def add(a: Tensor, b: Tensor, tape: Optional[Tape] = None) -> Tensor:
    """Elementwise sum of two same-shape tensors (no broadcasting)."""
    if a.shape != b.shape:
        raise DimensionError(f"add requires matching shapes, got {tuple(a.shape)} and {tuple(b.shape)}")
    out = a.data + b.data
    _ensure_finite(out, "add")
    result = Tensor(out, check_finite=False)
    if tape is not None:

        def back(gout: np.ndarray):
            return [(a, gout), (b, gout)]

        tape.record(result, back)
    return result


def reshape(x: Tensor, shape: tuple[int, ...], tape: Optional[Tape] = None) -> Tensor:
    new_shape = tuple(shape)
    try:
        out = x.data.reshape(new_shape)
    except ValueError as exc:
        raise DimensionError(f"cannot reshape {tuple(x.shape)} to {new_shape}: {exc}") from None
    result = Tensor(out, check_finite=False)
    if tape is not None:
        old_shape = x.data.shape

        def back(gout: np.ndarray):
            return [(x, gout.reshape(old_shape))]

        tape.record(result, back)
    return result


def softmax_cross_entropy(logits: Tensor, labels) -> tuple[Tensor, Tensor]:
    """Per-sample cross-entropy losses and their logit gradients.

    Returns ``(losses [B], grad [B, C])`` with no reduction; ``grad[i]`` is
    softmax(logits[i]) minus the one-hot label row. Log-sum-exp uses a
    max shift for stability.
    """
    if logits.ndim != 2:
        raise DimensionError(f"softmax_cross_entropy expects logits [B, C], got {tuple(logits.shape)}")
    z = logits.data
    n, c = z.shape
    lab = np.asarray(labels)
    if lab.shape != (n,):
        raise ValidationError(f"labels must be a length-{n} vector, got shape {tuple(lab.shape)}")
    if not np.issubdtype(lab.dtype, np.integer):
        raise ValidationError(f"labels must be integers, got dtype {lab.dtype}")
    if lab.min(initial=0) < 0 or lab.max(initial=0) >= c:
        raise ValidationError(f"labels must lie in [0, {c}), got range [{lab.min()}, {lab.max()}]")

    shift = z.max(axis=1, keepdims=True)
    ez = np.exp(z - shift)
    denom = ez.sum(axis=1, keepdims=True)
    logp = (z - shift) - np.log(denom)
    rows = np.arange(n)
    losses = -logp[rows, lab]
    grad = ez / denom
    grad[rows, lab] -= 1.0
    _ensure_finite(losses, "softmax_cross_entropy")
    _ensure_finite(grad, "softmax_cross_entropy")
    return Tensor(losses, check_finite=False), Tensor(grad, check_finite=False)
