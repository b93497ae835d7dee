"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every primitive takes and returns :class:`Tensor` objects. Passing a
:class:`Tape` records a backward closure; backward replays the closures in
exact reverse order of the forward calls and accumulates gradients keyed by
each tensor's data-free :attr:`Tensor.key`. A closure keeps only the arrays
its backward reads, so a recorded forward holds no array that nothing will
read again. All arithmetic is float64 on CPU, so identical inputs produce
bitwise-identical outputs.

Sequence inputs are channel-major batches ``[B, C, L]``; the sequence
primitives take no other rank, so a single trial is a batch of one.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import DimensionError, NumericError, StateError, ValidationError


class Tensor:
    """A dense n-dimensional float64 array (row-major).

    ``key`` is the tensor's handle on a tape: an object of its own that holds
    no data, so a tape can name a tensor's gradient without keeping its array
    alive. A copy or an unpickled tensor gets a new key. Construction checks
    nothing: the readers (``SubjectDataset``, ``load_checkpoint``), each computing
    primitive and the optimizers refuse a non-finite value where it first appears.
    """

    def __init__(self, data):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.key = object()

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
    :attr:`Tensor.key` of the tensors that took part in the recorded forward
    pass. Entries and closures hold keys, never tensors, so a tensor that only
    names a gradient (a conv output before its ELU, a block output) is freed
    as soon as the forward is done with it; a key is never reused, so it
    cannot alias a newer tensor. A tape is single-use: after :meth:`backward`
    it refuses further recording.

    :meth:`backward` frees memory as it goes: each entry is dropped once it
    has been replayed, releasing its closure and the arrays it captured,
    and so is the gradient buffer of each recorded output. After backward,
    only gradients of tensors that are not recorded outputs (inputs and
    parameters) can be read through :meth:`grad`.

    Which gradients are built: without ``wrt``, every one on the path to the
    seeded output; with ``backward(..., wrt=tensors)``, like the ``inputs=``
    argument of torch's backward, only those of the tensors in ``wrt`` and
    of the recorded outputs. A closure may ask :meth:`wants` with an input's
    key and skip the arithmetic for a gradient that is not built; conv1d
    does, so a model's first conv builds no gradient for the data batch.

    Gradients are read-only. They are stored without copying and summed out
    of place, so one array may serve as the gradient of several tensors
    (``add`` hands its output gradient to both inputs, ``reshape`` a view of
    it), and a gradient may alias the caller's seed array.
    """

    def __init__(self):
        # (output key, closure); a closure maps the output's gradient to (key, gradient) pairs
        self._entries: list[tuple[object, Callable[[np.ndarray], Iterable[tuple[object, np.ndarray]]]]] = []
        self._grads: dict[object, np.ndarray] = {}
        self._finished = False
        self._wanted: Optional[frozenset[object]] = None  # None: every gradient

    def record(self, out: Tensor, backward_fn) -> None:
        if self._finished:
            raise StateError("tape already consumed by backward; use a fresh tape")
        self._entries.append((out.key, backward_fn))

    def wants(self, key) -> bool:
        """Whether the running backward builds a gradient for the tensor whose key is ``key``."""
        return self._wanted is None or key in self._wanted

    def _accumulate(self, key, g: np.ndarray) -> None:
        if not self.wants(key):
            return
        buf = self._grads.get(key)
        # never in place: ``g`` may also be another tensor's gradient
        self._grads[key] = g if buf is None else buf + g

    def backward(self, output_grad, output: Tensor, wrt: Optional[Iterable[Tensor]] = None) -> None:
        """Replay recorded primitives in reverse, seeding ``output`` with the array ``output_grad``.

        When ``wrt`` is given, leaf tensors outside it receive no gradient.
        """
        if self._finished:
            raise StateError("backward already ran on this tape")
        if not self._entries:
            raise StateError("backward called on a tape with no recorded forward pass")
        seed = np.asarray(output_grad, dtype=np.float64)
        if seed.shape != output.shape:
            raise DimensionError(
                f"output grad shape {seed.shape} does not match output shape {output.shape}"
            )
        self._finished = True
        if wrt is not None:
            # an entry's inputs are recorded before it, so no closure names an output already replayed
            self._wanted = frozenset(t.key for t in wrt).union(key for key, _ in self._entries)
        self._accumulate(output.key, seed)
        while self._entries:
            key, fn = self._entries.pop()
            g = self._grads.pop(key, None)
            if g is None:
                continue  # branch not on the path to the seeded output
            for k, gk in fn(g):
                self._accumulate(k, gk)

    def grad(self, t: Tensor) -> Optional[np.ndarray]:
        """Accumulated gradient for ``t``, or None if it never received one."""
        return self._grads.get(t.key)


# ---------------------------------------------------------------------------
# shape helpers


def conv_output_length(length: int, kernel: int, stride: int, padding: int) -> int:
    return (length + 2 * padding - kernel) // stride + 1


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


def conv_windows(x: Tensor, k: int, stride: int, padding: int) -> np.ndarray:
    """conv1d's read-only window columns of ``x`` [B, C, L] for a k-tap kernel: [C*K, B*L_out].

    ``cols[c*K + j, b*L_out + l] = x[b, c, l * stride + j - padding]``, 0 in the
    padding. Every conv1d of this geometry over ``x`` can read the same array.
    """
    b, c, length = x.shape
    n_out = conv_output_length(length, k, stride, padding)
    # one copy per tap j, running along L, with no padded copy of x
    cols = np.empty((c, k, b, n_out), dtype=np.float64)
    xt = x.data.transpose(1, 0, 2)
    for j, (lo, hi, start) in enumerate(_tap_windows(k, stride, padding, length, n_out)):
        if lo:
            cols[:, j, :, :lo] = 0.0
        if hi < n_out:
            cols[:, j, :, hi:] = 0.0
        cols[:, j, :, lo:hi] = xt[:, :, start:start + stride * (hi - lo):stride]
    cols = cols.reshape(c * k, b * n_out)
    cols.flags.writeable = False
    return cols


def _scatter_taps(spread: np.ndarray, gx: np.ndarray, stride: int, padding: int) -> None:
    """Add into ``gx`` [B, C, length] the input gradient of a window op whose tap j of window l
    read position ``l * stride + j - padding``, from each tap's share ``spread`` [B, C, K, L_out]."""
    k, n_out = spread.shape[2:]
    # in tap order, so overlapping windows always sum alike
    for j, (lo, hi, start) in enumerate(_tap_windows(k, stride, padding, gx.shape[2], n_out)):
        if lo < hi:
            gx[:, :, start:start + stride * (hi - lo):stride] += spread[:, :, j, lo:hi]


KGRAD_BLOCK = 256  # window columns per kernel-gradient product
SPREAD_VALUES = 2 ** 15  # input-gradient spread values built at once, in whole samples (at least one)
# A taped conv1d keeps the windows it built only below this many values; at or above, it keeps its
# input (K/stride times smaller, and often an ELU output the tape holds anyway) and backward builds
# the windows again for the kernel gradient, their one reader. Below, rebuilding would save at most
# 512 KiB per conv for one more copy per backward, at sizes whose time goes to Python dispatch.
KEPT_WINDOW_VALUES = 2 ** 16


def _blocked_kernel_grad(gflat: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``gflat.T @ cols.T`` [C_out, C*K], summed over consecutive KGRAD_BLOCK-column blocks
    added in block order; under KGRAD_BLOCK columns it is that single product."""
    (n, c_out), ck = gflat.shape, cols.shape[0]
    nb, edge = n // KGRAD_BLOCK, n - n % KGRAD_BLOCK
    if not nb:
        return gflat.T @ cols.T
    # one batched product over the whole blocks, each read as the single product reads its columns
    parts = np.matmul(gflat[:edge].reshape(nb, KGRAD_BLOCK, c_out).transpose(0, 2, 1),
                      cols[:, :edge].reshape(ck, nb, KGRAD_BLOCK).transpose(1, 2, 0))
    # a running sum: the loop's order, unlike a pairwise sum(axis=0); a copy, so the running sums are freed
    gker = np.add.accumulate(parts)[-1].copy()
    if edge < n:
        gker += gflat[edge:].T @ cols[:, edge:].T
    return gker


# ---------------------------------------------------------------------------
# primitives


def conv1d(
    x: Tensor,
    kernels: Tensor,
    bias: Tensor,
    stride: int = 1,
    padding: int = 0,
    tape: Optional[Tape] = None,
    windows: Optional[np.ndarray] = None,
) -> Tensor:
    """Strided cross-correlation along the last axis.

    ``x`` is [B, C_in, L]; ``kernels`` is [C_out, C_in, K]; ``bias`` is
    [C_out]. Output length is floor((L + 2p - K)/s) + 1. ``windows`` is
    :func:`conv_windows` of ``x`` for this geometry, when the caller already
    built it for another conv over the same input. A taped call keeps the
    windows for its kernel gradient, unless it built them itself and they
    hold KEPT_WINDOW_VALUES values or more: then it keeps ``x``'s array and
    backward builds them again.
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

    cols = conv_windows(x, k, stride, padding) if windows is None else windows
    if cols.shape != (c * k, b * n_out):
        raise DimensionError(f"conv1d windows must have shape {(c * k, b * n_out)}, got {cols.shape}")
    kflat = kernels.data.reshape(c_out, c * k)
    # one [C_out, C_in*K] @ [C_in*K, L_out] product per sample, written straight into [B, C_out, L_out]
    out = np.matmul(kflat, cols.reshape(c * k, b, n_out).transpose(1, 0, 2))
    out += bias.data[:, None]
    _ensure_finite(out, "conv1d")
    result = Tensor(out)

    if tape is not None:
        xk, kk, bk = x.key, kernels.key, bias.key
        # windows a caller passed in stay on the tape: other convs (the other network's stem) read them too
        rebuild = windows is None and cols.size >= KEPT_WINDOW_VALUES
        kept = x.data if rebuild else cols

        def back(gout: np.ndarray):
            gbias = gout.sum(axis=(0, 2))
            # gflat stays the reduction operand: the product in the other orientation sums in another order.
            # It and rebuilt windows are unnamed, so both are freed before the input gradient is built.
            gker = _blocked_kernel_grad(np.ascontiguousarray(gout.transpose(0, 2, 1)).reshape(b * n_out, c_out),
                                        conv_windows(Tensor(kept), k, stride, padding) if rebuild else kept
                                        ).reshape(c_out, c, k)
            if not tape.wants(xk):
                return [(kk, gker), (bk, gbias)]
            gx = np.zeros((b, c, length), dtype=np.float64)
            per = max(1, SPREAD_VALUES // (c * k * n_out))
            # a few samples' [C_in*K, L_out] products at a time, each the product a whole-batch matmul
            # builds; unnamed, so each chunk's spread is freed before the next is built
            for s in range(0, b, per):
                _scatter_taps(np.matmul(kflat.T, gout[s:s + per]).reshape(-1, c, k, n_out), gx[s:s + per],
                              stride, padding)
            return [(xk, gx), (kk, gker), (bk, gbias)]

        tape.record(result, back)
    return result


def elu(x: Tensor, tape: Optional[Tape] = None) -> Tensor:
    """Elementwise x if x > 0 else exp(x) - 1."""
    xd = x.data
    # no mask, whose branches cost several times more on activations' random signs: the
    # negative branch of x clipped to <= 0 is 0 for x > 0 and >= x otherwise, so the maximum
    # gives the masked form's bits (x's own zero at x = +-0, as long as minimum and maximum
    # return the same operand on ties); expm1 never sees x > 0, so it cannot overflow
    out = np.minimum(xd, 0.0)
    np.expm1(out, out=out)
    np.maximum(out, xd, out=out)
    _ensure_finite(out, "elu")
    result = Tensor(out)
    if tape is not None:
        xk = x.key

        def back(gout: np.ndarray):
            # derivative built here, not at forward time, so the tape holds one array less:
            # out + 1 is at most 1 for x <= 0, and x + 1 > 1 otherwise, which the minimum caps at 1
            gx = out + 1.0
            np.minimum(gx, 1.0, out=gx)
            gx *= gout
            return [(xk, gx)]

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
    n_out = conv_output_length(length, k, stride, 0)
    windows = conv_windows(x, k, stride, 0).reshape(c, k, b, n_out).transpose(2, 0, 1, 3)  # [B, C, K, L_out]
    out = windows.max(axis=2)
    _ensure_finite(out, "maxpool1d")
    result = Tensor(out)

    if tape is not None:
        first = windows.argmax(axis=2)[:, :, None]  # first maximal tap on ties
        xk = x.key

        def back(gout: np.ndarray):
            spread = np.where(np.arange(k)[:, None] == first, gout[:, :, None], 0.0)
            gx = np.zeros((b, c, length), dtype=np.float64)
            _scatter_taps(spread, gx, stride, 0)
            return [(xk, gx)]

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
    result = Tensor(out)

    if tape is not None:
        xk = x.key

        def back(gout: np.ndarray):
            gx = np.zeros((b, c, length), dtype=np.float64)
            for i, (lo, hi) in enumerate(bounds):
                gx[:, :, lo:hi] += gout[:, :, i:i + 1] / (hi - lo)
            return [(xk, gx)]

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
    result = Tensor(out)

    if tape is not None:
        xd, wd = x.data, weight.data
        xk, wk, bk = x.key, weight.key, bias.key

        def back(gout: np.ndarray):
            return [(xk, gout @ wd), (wk, gout.T @ xd), (bk, gout.sum(axis=0))]

        tape.record(result, back)
    return result


def add(a: Tensor, b: Tensor, tape: Optional[Tape] = None) -> Tensor:
    """Elementwise sum of two same-shape tensors (no broadcasting)."""
    if a.shape != b.shape:
        raise DimensionError(f"add requires matching shapes, got {tuple(a.shape)} and {tuple(b.shape)}")
    out = a.data + b.data
    _ensure_finite(out, "add")
    result = Tensor(out)
    if tape is not None:
        ak, bk = a.key, b.key

        def back(gout: np.ndarray):
            return [(ak, gout), (bk, gout)]

        tape.record(result, back)
    return result


def reshape(x: Tensor, shape: tuple[int, ...], tape: Optional[Tape] = None) -> Tensor:
    new_shape = tuple(shape)
    try:
        out = x.data.reshape(new_shape)
    except ValueError as exc:
        raise DimensionError(f"cannot reshape {tuple(x.shape)} to {new_shape}: {exc}") from None
    result = Tensor(out)
    if tape is not None:
        old_shape, xk = x.data.shape, x.key

        def back(gout: np.ndarray):
            return [(xk, gout.reshape(old_shape))]

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
    # finite losses mean a finite shift and log(denom) with denom in [1, C], so grad lies in [-1, 1]
    _ensure_finite(losses, "softmax_cross_entropy")
    return Tensor(losses), Tensor(grad)
