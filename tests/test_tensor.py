"""Tensor primitives: forward values, gradients, shapes, and failure modes."""

import contextlib
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from ctss.blas import single_blas_thread
from ctss.errors import DimensionError, NumericError, StateError, ValidationError
from ctss.tensor import (
    KEPT_WINDOW_VALUES,
    SPREAD_VALUES,
    Tape,
    Tensor,
    adaptive_avg_pool1d,
    add,
    conv1d,
    conv_output_length,
    conv_windows,
    elu,
    linear,
    maxpool1d,
    reshape,
    softmax_cross_entropy,
)
from gradcheck import probe_gradients, random_tensor
from test_coteaching import closure_arrays


# (x shape, C_out, K, stride, padding): a grid of small cases, each at B=3 and at
# B=1 (batched=False: a single trial, as a batch of one), one whose taps 0-2 only
# ever see padding, three B*L_out column counts at the kernel gradient's block edges,
# a one-channel 1x1 conv whose 32 blocks a pairwise sum over blocks would add in another
# order, the conv layers of a full-size fold (B=72, E=4, T=750, width 8), whose matmuls
# are large enough for other BLAS kernels, two whose batch of 37 leaves a short last
# chunk of samples in the input gradient (7 per chunk at stride 1, 14 at stride 2), and
# two one sample apart whose taped windows (65,280 and 65,664 values) sit on either side
# of KEPT_WINDOW_VALUES: the first keeps them, the second rebuilds them in backward
CONV_ORACLE_CASES = [
    pytest.param((3 if batched else 1, 4, 19), 5, k, s, p, id=f"{k}-{s}-{p}-{batched}-19")
    for k in (1, 3, 7) for s in (1, 2) for p in (0, 1, 3) for batched in (True, False)
] + [
    pytest.param((3, 4, 2), 5, 7, 1, 3, id="7-1-3-True-2"),
    pytest.param((3, 4, 80), 5, 3, 1, 1, id="cols-240-tail-only"),
    pytest.param((4, 4, 128), 5, 3, 1, 1, id="cols-512-no-tail"),
    pytest.param((5, 4, 100), 5, 3, 1, 1, id="cols-500-block-splits-a-row"),
    pytest.param((16, 1, 512), 1, 1, 1, 0, id="one-by-one-32-blocks"),
    pytest.param((72, 4, 750), 8, 7, 2, 3, id="fullsize-stem"),
    pytest.param((72, 8, 375), 8, 3, 2, 1, id="fullsize-block-stride2"),
    pytest.param((72, 8, 188), 8, 3, 1, 1, id="fullsize-block"),
    pytest.param((72, 8, 375), 8, 1, 2, 0, id="fullsize-shortcut"),
    pytest.param((37, 8, 188), 8, 3, 1, 1, id="chunk-tail-stride1"),
    pytest.param((37, 8, 188), 8, 3, 2, 1, id="chunk-tail-stride2"),
    pytest.param((16, 8, 340), 8, 3, 2, 1, id="windows-kept"),
    pytest.param((16, 8, 341), 8, 3, 2, 1, id="windows-rebuilt"),
]


class TestConv1d:
    def test_identity_kernel(self):
        x = Tensor(np.ones((1, 1, 5)))
        out = conv1d(x, Tensor(np.ones((1, 1, 1))), Tensor(np.zeros(1)))
        np.testing.assert_array_equal(out.data, np.ones((1, 1, 5)))

    def test_hand_convolution(self):
        x = Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
        out = conv1d(x, Tensor(np.ones((1, 1, 2))), Tensor(np.zeros(1)))
        np.testing.assert_allclose(out.data, [[[3.0, 5.0, 7.0]]])

    def test_full_scale_shape(self):
        rng = np.random.default_rng(0)
        x = random_tensor(rng, (1, 60, 750))
        k = Tensor(rng.normal(size=(32, 60, 7)) * 0.05)
        out = conv1d(x, k, Tensor(np.zeros(32)), stride=2, padding=3)
        assert out.shape == (1, 32, 375)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(1)
        xb = random_tensor(rng, (3, 2, 10))
        k = random_tensor(rng, (4, 2, 3))
        b = random_tensor(rng, (4,))
        batched = conv1d(xb, k, b, stride=2, padding=1)
        for i in range(3):
            single = conv1d(Tensor(xb.data[i:i + 1]), k, b, stride=2, padding=1)
            np.testing.assert_array_equal(batched.data[i:i + 1], single.data)

    def test_kernel_larger_than_input(self):
        x = Tensor(np.ones((1, 1, 4)))
        with pytest.raises(DimensionError):
            conv1d(x, Tensor(np.ones((1, 1, 9))), Tensor(np.zeros(1)))

    def test_channel_mismatch(self):
        x = Tensor(np.ones((1, 2, 8)))
        with pytest.raises(DimensionError):
            conv1d(x, Tensor(np.ones((1, 3, 3))), Tensor(np.zeros(1)))

    def test_shape_formula_fuzz(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            length = int(rng.integers(4, 40))
            k = int(rng.integers(1, 8))
            stride = int(rng.integers(1, 4))
            padding = int(rng.integers(0, 4))
            if k > length + 2 * padding:
                continue
            n_out = conv_output_length(length, k, stride, padding)
            if n_out < 1:
                continue
            x = random_tensor(rng, (1, 2, length))
            out = conv1d(x, random_tensor(rng, (3, 2, k)), random_tensor(rng, (3,)),
                         stride=stride, padding=padding)
            assert out.shape == (1, 3, n_out)

    def test_gradients(self):
        rng = np.random.default_rng(11)
        x = random_tensor(rng, (2, 3, 12))
        k = random_tensor(rng, (4, 3, 5))
        b = random_tensor(rng, (4,))

        def value():
            return float(conv1d(x, k, b, stride=2, padding=2).data.sum())

        tape = Tape()
        out = conv1d(x, k, b, stride=2, padding=2, tape=tape)
        tape.backward(np.ones_like(out.data), output=out)
        grads = [tape.grad(t) for t in (x, k, b)]
        assert probe_gradients(value, [x, k, b], grads, rng, n_probes=30) < 1e-4

    @pytest.mark.parametrize("x_shape, c_out, k, stride, padding", CONV_ORACLE_CASES)
    def test_forward_bitwise_matches_im2col_oracle(self, x_shape, c_out, k, stride, padding):
        x, kernels, bias, rng = _conv_case(x_shape, c_out, k, stride, padding)
        for pinned in (False, True):
            with single_blas_thread() if pinned else contextlib.nullcontext():
                out = conv1d(x, kernels, bias, stride=stride, padding=padding)
            np.testing.assert_array_equal(out.data, _conv1d_forward_oracle(x.data, kernels.data, bias.data,
                                                                           stride, padding))

    @pytest.mark.parametrize("x_shape, c_out, k, stride, padding", CONV_ORACLE_CASES)
    def test_backward_bitwise_matches_per_tap_oracle(self, x_shape, c_out, k, stride, padding):
        x, kernels, bias, rng = _conv_case(x_shape, c_out, k, stride, padding)
        gout = None
        for pinned in (False, True):
            with single_blas_thread() if pinned else contextlib.nullcontext():
                tape = Tape()
                out = conv1d(x, kernels, bias, stride=stride, padding=padding, tape=tape)
                gout = rng.normal(size=out.shape) if gout is None else gout
                tape.backward(gout, output=out)
            expected = _conv1d_backward_oracle(x.data, kernels.data, gout, stride, padding)
            for got, want in zip((tape.grad(x), tape.grad(kernels), tape.grad(bias)), expected):
                np.testing.assert_array_equal(got, want)

    def test_kernel_gradient_under_one_block_is_the_single_product(self):
        # B*L_out = 240 window columns: the tail alone, which is the unblocked gflat.T @ cols.T
        x, kernels, bias, rng = _conv_case((3, 4, 80), 5, 3, 1, 1)
        tape = Tape()
        out = conv1d(x, kernels, bias, stride=1, padding=1, tape=tape)
        gout = rng.normal(size=out.shape)
        tape.backward(gout, output=out)
        cols = conv_windows(x, 3, 1, 1)
        gflat = np.ascontiguousarray(gout.transpose(0, 2, 1)).reshape(240, 5)
        np.testing.assert_array_equal(tape.grad(kernels), (gflat.T @ cols.T).reshape(5, 4, 3))

    def test_forward_allocates_only_its_output(self):
        # a full-size block conv on prebuilt windows builds no [B*L_out, C_out] product beside its output
        rng = np.random.default_rng(3)
        x = random_tensor(rng, (72, 8, 188))
        kernels, bias = random_tensor(rng, (8, 8, 3)), random_tensor(rng, (8,))
        cols = conv_windows(x, 3, 1, 1)
        tracemalloc.start()
        try:
            out = conv1d(x, kernels, bias, stride=1, padding=1, windows=cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.data.nbytes, peak / out.data.nbytes

    def test_backward_builds_the_input_gradient_a_chunk_of_samples_at_a_time(self):
        # a full-size stride-2 block conv: 7 samples' [C_in*K, L_out] spread at a time, not all 72 (2.6 MB),
        # after the rebuilt windows and gflat, which only the kernel gradient reads, are freed
        x, kernels, bias, rng = _conv_case((72, 8, 375), 8, 3, 2, 1)
        tape = Tape()
        out = conv1d(x, kernels, bias, stride=2, padding=1, tape=tape)
        gout = rng.normal(size=out.shape)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tape.backward(gout, output=out)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        gx, gflat, cols = x.data.nbytes, gout.nbytes, 8 * 3 * 72 * 188 * 8
        chunk = (SPREAD_VALUES // (8 * 3 * 188)) * 8 * 3 * 188 * 8
        bound = max(gflat + cols, gx + chunk)
        # the slack covers the kernel gradient's block products and running sums, numpy's iteration
        # buffers in the scatter (3 x 8192 values) and the small arrays
        assert peak <= bound + 2 ** 18, (peak, bound)

    @pytest.mark.parametrize("length, kept", [(340, "windows"), (341, "input")])
    def test_taped_conv_keeps_windows_below_kept_window_values_and_its_input_from_there(self, length, kept):
        x, kernels, bias, _ = _conv_case((16, 8, length), 8, 3, 2, 1)
        cols = conv_windows(x, 3, 2, 1)  # [C_in*K, B*L_out]: 65,280 values at L 340, 65,664 at 341
        assert (cols.size >= KEPT_WINDOW_VALUES) == (kept == "input")
        tape = Tape()
        conv1d(x, kernels, bias, stride=2, padding=1, tape=tape)
        arrays = [a for a in closure_arrays(tape._entries[0][1]).values()
                  if not np.shares_memory(a, kernels.data)]
        if kept == "input":
            assert [a is x.data for a in arrays] == [True]
        else:
            assert [a.shape for a in arrays] == [cols.shape]
            np.testing.assert_array_equal(arrays[0], cols)

    @pytest.mark.parametrize("x_shape", [(72, 4, 32), (72, 8, 375)], ids=["acceptance", "fullsize"])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_centre_tap_windows_give_the_1x1_conv_bits(self, x_shape, stride):
        # the centre-tap rows of a k=3, p=1 conv's windows are the 1x1 windows of the same stride, bit for bit
        x, kernels, bias, rng = _conv_case(x_shape, 8, 1, stride, 0)
        centre = conv_windows(x, 3, stride, 1).reshape(x_shape[1], 3, -1)[:, 1]
        gout = None
        for pinned in (False, True):
            with single_blas_thread() if pinned else contextlib.nullcontext():
                runs = []
                for windows in (None, centre):
                    tape = Tape()
                    out = conv1d(x, kernels, bias, stride=stride, padding=0, tape=tape, windows=windows)
                    gout = rng.normal(size=out.shape) if gout is None else gout
                    tape.backward(gout, output=out)
                    runs.append([out.data] + [tape.grad(t) for t in (x, kernels, bias)])
            for own, view in zip(*runs):
                np.testing.assert_array_equal(view, own)


def _conv_case(x_shape, c_out, k, stride, padding):
    rng = np.random.default_rng(100 * k + 10 * stride + padding)
    x = random_tensor(rng, x_shape)
    kernels, bias = random_tensor(rng, (c_out, x_shape[-2], k)), random_tensor(rng, (c_out,))
    return x, kernels, bias, rng


def _conv1d_forward_oracle(x, kernels, bias, stride, padding):
    """Output by one [C_out, C*K] @ [C*K, L_out] product per sample, plus the bias: the bitwise
    reference, with windows built apart from conv1d's."""
    b, c, length = x.shape
    c_out, _, k = kernels.shape
    n_out = conv_output_length(length, k, stride, padding)
    xp = np.zeros((b, c, length + 2 * padding))
    xp[:, :, padding:padding + length] = x
    sb, sc, sl = xp.strides
    windows = np.ascontiguousarray(
        np.lib.stride_tricks.as_strided(xp, shape=(b, c, k, n_out), strides=(sb, sc, sl, sl * stride))
    ).reshape(b, c * k, n_out)
    kflat = kernels.reshape(c_out, c * k)
    return np.stack([kflat @ windows[i] + bias[:, None] for i in range(b)])


def _conv1d_backward_oracle(x, kernels, g, stride, padding):
    """(gx, gker, gbias) by a per-tap scatter in [B, L, C] layout, the bitwise reference. The
    kernel gradient sums the B*L_out window columns in 256-column blocks, in block order. Its
    products run on one BLAS thread: threaded, OpenBLAS's Haswell kernels sum the rows at the
    threads' split of the tall ``gflat @ kflat`` in another order (B = 37, L_out = 188)."""
    b, c, length = x.shape
    c_out, _, k = kernels.shape
    n_out = g.shape[2]
    padded_len = length + 2 * padding
    xp = np.zeros((b, c, padded_len))
    xp[:, :, padding:padding + length] = x
    sb, sc, sl = xp.strides
    windows = np.ascontiguousarray(
        np.lib.stride_tricks.as_strided(xp, shape=(b, n_out, c, k), strides=(sb, sl * stride, sc, sl))
    ).reshape(b * n_out, c * k)
    kflat = kernels.reshape(c_out, c * k)
    gbias = g.sum(axis=(0, 2))
    gflat = np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(b * n_out, c_out)
    gker = None
    with single_blas_thread():
        for lo in range(0, b * n_out, 256):  # 256-column blocks, added in block order
            part = gflat[lo:lo + 256].T @ windows[lo:lo + 256]
            gker = part if gker is None else gker + part
        spread = (gflat @ kflat).reshape(b, n_out, c, k)
    gker = gker.reshape(c_out, c, k)
    gxp = np.zeros((b, padded_len, c))
    for j in range(k):
        gxp[:, j:j + stride * n_out:stride, :] += spread[:, :, :, j]
    gx = np.ascontiguousarray(gxp[:, padding:padding + length, :].transpose(0, 2, 1))
    return gx, gker, gbias


class TestSequenceRank:
    @pytest.mark.parametrize("op", [
        lambda x: conv1d(x, Tensor(np.ones((1, 2, 3))), Tensor(np.zeros(1))),
        lambda x: maxpool1d(x, 2, 2),
        lambda x: adaptive_avg_pool1d(x, 1),
    ], ids=["conv1d", "maxpool1d", "adaptive_avg_pool1d"])
    def test_unbatched_input_is_rejected(self, op):
        # a single trial [C, L] must come as a batch of one, [1, C, L]
        with pytest.raises(DimensionError, match=r"\[B, C, L\]"):
            op(Tensor(np.ones((2, 8))))
        with pytest.raises(DimensionError, match=r"\[B, C, L\]"):
            op(Tensor(np.ones((1, 1, 2, 8))))
        assert op(Tensor(np.ones((1, 2, 8)))).ndim == 3


class TestElu:
    def test_point_values(self):
        x = Tensor(np.array([0.0, 2.5, -1.0]))
        out = elu(x)
        np.testing.assert_allclose(out.data, [0.0, 2.5, math.expm1(-1.0)], atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(13)
        x = random_tensor(rng, (5, 7))

        def value():
            return float(elu(x).data.sum())

        tape = Tape()
        out = elu(x, tape=tape)
        tape.backward(np.ones_like(out.data), output=out)
        assert probe_gradients(value, [x], [tape.grad(x)], rng, n_probes=25) < 1e-4

    def test_forward_bitwise_matches_masked_expm1(self):
        """The masked expm1 the forward used to run, bit for bit, sign bits included."""
        special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 709.8, 710.0, 1e300, -1e300, -800.0]
        xd = np.concatenate([np.random.default_rng(17).standard_normal(100_000), special])
        neg = xd <= 0.0
        ref = xd.copy()
        np.expm1(xd, out=ref, where=neg)
        with warnings.catch_warnings():
            # an overflow warning from expm1(710), or an invalid one from inf * 0, would raise here
            warnings.simplefilter("error")
            tape = Tape()
            x = Tensor(xd)
            out = elu(x, tape=tape)  # elu(1e300) is finite, so no NumericError either
            tape.backward(np.ones_like(xd), output=out)
        np.testing.assert_array_equal(out.data.view(np.uint64), ref.view(np.uint64))
        np.testing.assert_array_equal(tape.grad(x), np.where(xd > 0.0, 1.0, ref + 1.0))

    def test_bitwise_matches_masked_form_at_every_magnitude(self):
        """Output and gradient equal the masked form's bit for bit, sign bits included,
        over magnitudes from subnormal to expm1's overflow and both signs."""
        rng = np.random.default_rng(19)
        sweep = np.logspace(-323, 2.9, 40_000)
        xd = np.concatenate([rng.standard_normal(50_000), sweep, -sweep, [0.0, -0.0]])
        gout = rng.standard_normal(xd.size)
        gout[::7] = -0.0
        with np.errstate(over="ignore", invalid="ignore"):  # expm1(800) is inf, and inf * 0 NaN
            want = np.where(xd > 0.0, xd, np.expm1(xd))
        tape = Tape()
        x = Tensor(xd)
        out = elu(x, tape=tape)
        tape.backward(gout, output=out)
        np.testing.assert_array_equal(out.data.view(np.uint64), want.view(np.uint64))
        want_grad = gout * np.where(xd > 0.0, 1.0, want + 1.0)
        np.testing.assert_array_equal(tape.grad(x).view(np.uint64), want_grad.view(np.uint64))


def _maxpool1d_oracle(x, k, stride, g):
    """(output, input gradient) by a strided window view and an np.add.at scatter, the bitwise reference."""
    b, c, length = x.shape
    n_out = (length - k) // stride + 1
    sb, sc, sl = x.strides
    windows = np.lib.stride_tricks.as_strided(x, shape=(b, c, n_out, k), strides=(sb, sc, sl * stride, sl),
                                              writeable=False)
    gx = np.zeros((b, c, length))
    pos = np.arange(n_out)[None, None, :] * stride + windows.argmax(axis=3)
    np.add.at(gx, (np.arange(b)[:, None, None], np.arange(c)[None, :, None], pos), g)
    return windows.max(axis=3), gx


class TestMaxPool1d:
    # every (k, stride) whose windows overlap at most pairwise, so each input position sums at most
    # two shares and the sum cannot depend on their order: the model's 4/4 and c03's 4/3 among them
    @pytest.mark.parametrize("k, stride", [(k, s) for s in range(1, 5) for k in range(1, 2 * s + 1)])
    def test_matches_the_strided_oracle_bitwise(self, k, stride):
        rng = np.random.default_rng(10 * k + stride)
        for shape in ((3, 4, 29), (2, 5, 2 * k + 3), (1, 2, k)):
            # small integers, so most windows hold tied maxima; -0.0 and 0.0 among the upstream gradients
            x = Tensor(rng.integers(-2, 3, size=shape).astype(np.float64))
            tape = Tape()
            out = maxpool1d(x, k, stride, tape=tape)
            g = rng.normal(size=out.shape)
            g[rng.random(out.shape) < 0.3] = -0.0
            g[rng.random(out.shape) < 0.1] = 0.0
            tape.backward(g, output=out)
            want_out, want_gx = _maxpool1d_oracle(x.data, k, stride, g)
            np.testing.assert_array_equal(out.data.view(np.uint64), want_out.view(np.uint64))
            np.testing.assert_array_equal(tape.grad(x).view(np.uint64), want_gx.view(np.uint64))

    def test_single_window(self):
        out = maxpool1d(Tensor(np.array([[[1.0, 3.0, 2.0, 8.0]]])), 4, 4)
        np.testing.assert_array_equal(out.data, [[[8.0]]])

    def test_constant_input(self):
        out = maxpool1d(Tensor(np.full((1, 3, 8), 2.5)), 2, 2)
        np.testing.assert_array_equal(out.data, np.full((1, 3, 4), 2.5))

    def test_stride_equal_kernel_shape(self):
        rng = np.random.default_rng(3)
        for length in (16, 94, 250):
            out = maxpool1d(random_tensor(rng, (1, 128, length)), 4, 4)
            assert out.shape == (1, 128, length // 4)

    def test_window_too_large(self):
        with pytest.raises(DimensionError):
            maxpool1d(Tensor(np.ones((1, 1, 3))), 4, 4)

    def test_gradient_goes_to_first_argmax(self):
        x = Tensor(np.array([[[1.0, 5.0, 5.0, 0.0]]]))
        tape = Tape()
        out = maxpool1d(x, 4, 4, tape=tape)
        tape.backward(np.ones_like(out.data), output=out)
        np.testing.assert_array_equal(tape.grad(x), [[[0.0, 1.0, 0.0, 0.0]]])

    def test_gradients(self):
        rng = np.random.default_rng(17)
        x = random_tensor(rng, (2, 4, 21))

        def value():
            return float(maxpool1d(x, 3, 2).data.sum())

        tape = Tape()
        out = maxpool1d(x, 3, 2, tape=tape)
        tape.backward(np.ones_like(out.data), output=out)
        assert probe_gradients(value, [x], [tape.grad(x)], rng, n_probes=25) < 1e-4

    def test_shape_formula_fuzz(self):
        rng = np.random.default_rng(53)
        for _ in range(60):
            length = int(rng.integers(2, 40))
            k = int(rng.integers(1, min(length, 6) + 1))
            stride = int(rng.integers(1, 5))
            out = maxpool1d(random_tensor(rng, (1, 2, length)), k, stride)
            assert out.shape == (1, 2, (length - k) // stride + 1)
            pooled_len = int(rng.integers(1, length + 1))
            avg = adaptive_avg_pool1d(random_tensor(rng, (1, 2, length)), pooled_len)
            assert avg.shape == (1, 2, pooled_len)


class TestAdaptiveAvgPool1d:
    def test_global_mean(self):
        out = adaptive_avg_pool1d(Tensor(np.array([[[2.0, 4.0, 6.0]]])), 1)
        np.testing.assert_allclose(out.data, [[[4.0]]])

    def test_identity_binning(self):
        rng = np.random.default_rng(5)
        x = random_tensor(rng, (1, 3, 9))
        out = adaptive_avg_pool1d(x, 9)
        np.testing.assert_array_equal(out.data, x.data)

    def test_zeros(self):
        out = adaptive_avg_pool1d(Tensor(np.zeros((1, 2, 10))), 3)
        np.testing.assert_array_equal(out.data, np.zeros((1, 2, 3)))

    def test_out_len_too_large(self):
        with pytest.raises(DimensionError):
            adaptive_avg_pool1d(Tensor(np.ones((1, 1, 3))), 4)

    def test_gradients(self):
        rng = np.random.default_rng(19)
        x = random_tensor(rng, (2, 3, 11))

        def value():
            return float(adaptive_avg_pool1d(x, 4).data.sum())

        tape = Tape()
        out = adaptive_avg_pool1d(x, 4, tape=tape)
        tape.backward(np.ones_like(out.data), output=out)
        assert probe_gradients(value, [x], [tape.grad(x)], rng, n_probes=25) < 1e-4


class TestLinearAddReshape:
    def test_linear_values(self):
        x = Tensor(np.array([[1.0, 2.0]]))
        w = Tensor(np.array([[3.0, 4.0], [5.0, 6.0]]))
        b = Tensor(np.array([0.5, -0.5]))
        np.testing.assert_allclose(linear(x, w, b).data, [[11.5, 16.5]])

    def test_add_requires_same_shape(self):
        with pytest.raises(DimensionError):
            add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))

    def test_reshape_roundtrip_gradient(self):
        rng = np.random.default_rng(23)
        x = random_tensor(rng, (2, 3, 4))
        tape = Tape()
        out = reshape(x, (2, 12), tape=tape)
        tape.backward(np.ones((2, 12)), output=out)
        np.testing.assert_array_equal(tape.grad(x), np.ones((2, 3, 4)))

    def test_gradients(self):
        rng = np.random.default_rng(29)
        x = random_tensor(rng, (4, 6))
        w = random_tensor(rng, (3, 6))
        b = random_tensor(rng, (3,))

        def value():
            return float(linear(x, w, b).data.sum())

        tape = Tape()
        out = linear(x, w, b, tape=tape)
        tape.backward(np.ones_like(out.data), output=out)
        grads = [tape.grad(t) for t in (x, w, b)]
        assert probe_gradients(value, [x, w, b], grads, rng, n_probes=25) < 1e-4


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        losses, _ = softmax_cross_entropy(Tensor(np.zeros((3, 4))), np.array([0, 1, 3]))
        np.testing.assert_allclose(losses.data, math.log(4.0), atol=1e-12)

    def test_saturated_correct_prediction(self):
        losses, _ = softmax_cross_entropy(Tensor(np.array([[100.0, 0.0]])), np.array([0]))
        assert losses.data[0] == pytest.approx(0.0, abs=1e-12)

    def test_closed_form(self):
        losses, _ = softmax_cross_entropy(Tensor(np.array([[1.0, 2.0]])), np.array([0]))
        assert losses.data[0] == pytest.approx(math.log1p(math.e), abs=1e-12)

    def test_grad_rows_recover_softmax(self):
        rng = np.random.default_rng(31)
        logits = random_tensor(rng, (6, 5))
        labels = rng.integers(0, 5, size=6)
        losses, grad = softmax_cross_entropy(logits, labels)
        softmax = grad.data.copy()
        softmax[np.arange(6), labels] += 1.0
        np.testing.assert_allclose(softmax.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(losses.data >= 0.0)

    def test_grad_matches_finite_difference(self):
        rng = np.random.default_rng(37)
        logits = random_tensor(rng, (4, 3))
        labels = np.array([0, 2, 1, 1])

        def value():
            losses, _ = softmax_cross_entropy(logits, labels)
            return float(losses.data.sum())

        _, grad = softmax_cross_entropy(logits, labels)
        assert probe_gradients(value, [logits], [grad.data], rng, n_probes=20) < 1e-4

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))
        with pytest.raises(ValidationError):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([-1, 0]))


class TestTape:
    def test_backward_without_forward(self):
        with pytest.raises(StateError):
            Tape().backward(np.ones(1), output=Tensor(np.ones(1)))

    def test_double_backward_rejected(self):
        x = Tensor(np.ones((2, 2)))
        tape = Tape()
        out = elu(x, tape=tape)
        tape.backward(np.ones_like(out.data), output=out)
        with pytest.raises(StateError):
            tape.backward(np.ones_like(out.data), output=out)

    def test_backward_frees_intermediates_and_keeps_leaf_grads(self):
        rng = np.random.default_rng(47)
        x = random_tensor(rng, (3, 4))
        w1, b1 = random_tensor(rng, (5, 4)), random_tensor(rng, (5,))
        w2, b2 = random_tensor(rng, (2, 5)), random_tensor(rng, (2,))
        tape = Tape()
        h = elu(linear(x, w1, b1, tape=tape), tape=tape)
        out = linear(h, w2, b2, tape=tape)
        h_data = h.data.copy()
        h_ref = weakref.ref(h)
        del h
        gout = rng.normal(size=out.shape)
        tape.backward(gout, output=out)
        assert h_ref() is None
        np.testing.assert_array_equal(tape.grad(w2), gout.T @ h_data)
        assert all(g is not None for g in (tape.grad(x), tape.grad(w1), tape.grad(b1), tape.grad(b2)))
        # tensors created after backward may reuse freed ids; none may read a stale buffer
        assert all(tape.grad(Tensor(np.zeros(5))) is None for _ in range(100))

    @pytest.mark.parametrize("chain", ["add", "reshape"])
    def test_shared_gradient_is_never_written_through(self, chain):
        rng = np.random.default_rng(53)
        x = random_tensor(rng, (3, 4))
        tape = Tape()
        if chain == "add":
            out = add(x, x, tape=tape)
        else:  # two reshape views of one seed both flow back to x
            out = add(reshape(x, (12,), tape=tape),
                      reshape(reshape(x, (2, 6), tape=tape), (12,), tape=tape), tape=tape)
        seed = rng.normal(size=out.shape)
        kept = seed.copy()
        tape.backward(seed, output=out)
        np.testing.assert_array_equal(seed, kept)
        np.testing.assert_array_equal(tape.grad(x), 2.0 * kept.reshape(3, 4))

    def test_leaf_outside_wrt_gets_no_gradient(self):
        rng = np.random.default_rng(59)
        x, w, b = random_tensor(rng, (3, 4)), random_tensor(rng, (2, 4)), random_tensor(rng, (2,))
        gout = rng.normal(size=(3, 2))

        def backward(wrt):
            tape = Tape()
            tape.backward(gout, output=linear(x, w, b, tape=tape), wrt=wrt)
            return tape

        full, only_params = backward(None), backward([w, b])
        assert only_params.grad(x) is None and full.grad(x) is not None
        for t in (w, b):
            np.testing.assert_array_equal(only_params.grad(t), full.grad(t))

    def test_linear_functional_gradient_is_ones(self):
        # summing all entries via a ones-weight linear map
        x = Tensor(np.array([[0.3, -1.2, 4.0, 0.0]]))
        w = Tensor(np.ones((1, 4)))
        b = Tensor(np.zeros(1))
        tape = Tape()
        out = linear(x, w, b, tape=tape)
        tape.backward(np.ones((1, 1)), output=out)
        np.testing.assert_array_equal(tape.grad(x), np.ones((1, 4)))

    def test_stationary_point_has_zero_gradient(self):
        # squared loss of a linear fit at its optimum: seed grad 2*(pred-target) = 0
        rng = np.random.default_rng(41)
        x = random_tensor(rng, (3, 2))
        w = random_tensor(rng, (1, 2))
        b = random_tensor(rng, (1,))
        tape = Tape()
        out = linear(x, w, b, tape=tape)
        target = out.data.copy()
        tape.backward(2.0 * (out.data - target), output=out)
        np.testing.assert_array_equal(tape.grad(w), np.zeros((1, 2)))
        np.testing.assert_array_equal(tape.grad(b), np.zeros(1))

    def test_three_layer_chain_finite_difference(self):
        rng = np.random.default_rng(43)
        x = random_tensor(rng, (2, 2, 12))
        k = random_tensor(rng, (3, 2, 3))
        kb = random_tensor(rng, (3,))
        w = random_tensor(rng, (2, 9))
        wb = random_tensor(rng, (2,))
        labels = np.array([0, 1])

        def forward(tape=None):
            h = conv1d(x, k, kb, stride=2, padding=1, tape=tape)
            h = elu(h, tape=tape)
            h = maxpool1d(h, 2, 2, tape=tape)
            h = reshape(h, (2, 9), tape=tape)
            return linear(h, w, wb, tape=tape)

        def value():
            losses, _ = softmax_cross_entropy(forward(), labels)
            return float(losses.data.sum())

        tape = Tape()
        logits = forward(tape)
        _, grad = softmax_cross_entropy(logits, labels)
        tape.backward(grad.data, output=logits)
        tensors = [x, k, kb, w, wb]
        grads = [tape.grad(t) for t in tensors]
        assert all(g is not None for g in grads)
        assert probe_gradients(value, tensors, grads, rng, n_probes=20) < 1e-4


def _with_nan(shape) -> Tensor:
    data = np.zeros(shape)
    data.flat[1] = np.nan
    return Tensor(data)


# each primitive that checks its output, called on an input holding a NaN (softmax: an inf logit)
NON_FINITE_CALLS = {
    "conv1d": lambda: conv1d(_with_nan((1, 2, 5)), Tensor(np.ones((1, 2, 3))), Tensor(np.zeros(1))),
    "elu": lambda: elu(_with_nan((1, 2, 5))),
    "maxpool1d": lambda: maxpool1d(_with_nan((1, 2, 5)), 2, 2),
    "adaptive_avg_pool1d": lambda: adaptive_avg_pool1d(_with_nan((1, 2, 5)), 1),
    "linear": lambda: linear(_with_nan((2, 3)), Tensor(np.ones((4, 3))), Tensor(np.zeros(4))),
    "add": lambda: add(_with_nan((2, 3)), Tensor(np.ones((2, 3)))),
    "softmax_cross_entropy": lambda: softmax_cross_entropy(Tensor([[np.inf, 0.0]]), np.array([1])),
}


class TestDeterminismAndFiniteness:
    def test_primitives_bitwise_deterministic(self):
        rng = np.random.default_rng(47)
        x = random_tensor(rng, (3, 4, 16))
        k = random_tensor(rng, (5, 4, 3))
        b = random_tensor(rng, (5,))
        first = conv1d(x, k, b, stride=2, padding=1).data
        second = conv1d(x, k, b, stride=2, padding=1).data
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(elu(x).data, elu(x).data)

    @pytest.mark.parametrize("op", NON_FINITE_CALLS)
    def test_non_finite_input_raises_naming_the_primitive(self, op):
        # construction accepts any value; the first primitive that computes from it refuses
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match=f"^non-finite values produced by {op}$"):
                NON_FINITE_CALLS[op]()

    def test_overflowing_primitive_raises(self):
        x = Tensor(np.full((1, 2), 1e308))
        w = Tensor(np.full((1, 2), 2.0))
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            linear(x, w, Tensor(np.zeros(1)))
