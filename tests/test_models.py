"""The network: stage arithmetic, init determinism, losses, checkpoints."""

import json
import math
import pickle
import re
import struct
import tracemalloc

import numpy as np
import pytest

from ctss.errors import DataFormatError, ValidationError
from ctss.models import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    ModelConfig,
    ResidualBlock,
    build_mini_resnet1d,
    load_checkpoint,
    per_sample_losses,
    save_checkpoint,
)
from ctss.tensor import Tape, Tensor, maxpool1d, softmax_cross_entropy
from gradcheck import probe_gradients
from test_coteaching import closure_arrays


def small_config(**overrides):
    base = dict(n_electrodes=4, n_timesteps=64, n_classes=3, width_base=4, n_blocks=1, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_model():
    return build_mini_resnet1d(ModelConfig(n_electrodes=1, n_timesteps=16, n_classes=2, width_base=1, n_blocks=1))


class TestResnetBuilder:
    def test_full_scale_stage_lengths(self):
        cfg = ModelConfig(n_electrodes=60, n_timesteps=750, n_classes=2,
                          width_base=32, n_blocks=4, seed=1)
        model = build_mini_resnet1d(cfg)
        # sequence length after the stem and after each stage, its max pool included
        h = model.stem.forward(Tensor(np.zeros((1, 60, 750))), None)
        lengths = [h.shape[2]]
        for first, second, pool in model.stages:
            h = second.forward(first.forward(h, None), None)
            if pool:
                h = maxpool1d(h, 4, 4)
            lengths.append(h.shape[2])
        assert lengths == [375, 188, 94, 11, 1]
        assert [pool for *_, pool in model.stages] == [False, False, True, True]

    def test_full_scale_forward_shape(self):
        cfg = ModelConfig(n_electrodes=60, n_timesteps=750, n_classes=2,
                          width_base=32, n_blocks=4, seed=1)
        model = build_mini_resnet1d(cfg)
        rng = np.random.default_rng(0)
        logits = model.forward(Tensor(rng.normal(size=(1, 60, 750))))
        assert logits.shape == (1, 2)

    def test_logits_length_equals_n_classes(self):
        model = build_mini_resnet1d(small_config(n_classes=3))
        rng = np.random.default_rng(1)
        logits = model.forward(Tensor(rng.normal(size=(2, 4, 64))))
        assert logits.shape == (2, 3)

    def test_parameter_count_matches_layer_formula(self):
        cfg = ModelConfig(n_electrodes=1, n_timesteps=32, n_classes=2,
                          width_base=2, n_blocks=1, seed=0)
        model = build_mini_resnet1d(cfg)
        w = 2
        # stem conv k=7, then two residual blocks (first strided with 1x1
        # projection), then the fully-connected head
        stem = w * 1 * 7 + w
        block1 = (w * w * 3 + w) + (w * w * 3 + w) + (w * w * 1 + w)
        block2 = (w * w * 3 + w) + (w * w * 3 + w)
        head = 2 * w + 2
        assert model.flat.size == stem + block1 + block2 + head

    def test_too_deep_raises_naming_stage(self):
        with pytest.raises(ValidationError, match="stage"):
            build_mini_resnet1d(ModelConfig(n_electrodes=2, n_timesteps=16, n_classes=2,
                                            width_base=2, n_blocks=4, seed=0))

    def test_same_seed_same_weights(self):
        a = build_mini_resnet1d(small_config(seed=99))
        b = build_mini_resnet1d(small_config(seed=99))
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seed_different_weights(self):
        a = build_mini_resnet1d(small_config(seed=1))
        b = build_mini_resnet1d(small_config(seed=2))
        assert any(not np.array_equal(pa.data, pb.data)
                   for pa, pb in zip(a.parameters(), b.parameters()))

    def test_batch_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        model = build_mini_resnet1d(small_config(seed=5))
        batch = rng.normal(size=(6, 4, 64))
        labels = rng.integers(0, 3, size=6)
        losses = per_sample_losses(model, Tensor(batch), labels)
        perm = rng.permutation(6)
        permuted = per_sample_losses(model, Tensor(batch[perm]), labels[perm])
        np.testing.assert_array_equal(permuted, losses[perm])

    def test_end_to_end_gradient(self):
        rng = np.random.default_rng(8)
        cfg = ModelConfig(n_electrodes=2, n_timesteps=64, n_classes=3,
                          width_base=2, n_blocks=3, seed=21)
        model = build_mini_resnet1d(cfg)
        x = Tensor(rng.normal(size=(3, 2, 64)))
        labels = np.array([0, 1, 2])

        def value():
            losses, _ = softmax_cross_entropy(model.forward(x), labels)
            return float(losses.data.mean())

        tape = Tape()
        logits = model.forward(x, tape)
        _, grad = softmax_cross_entropy(logits, labels)
        tape.backward(grad.data / 3.0, output=logits)
        params = model.parameters()
        grads = [tape.grad(p) for p in params]
        assert all(g is not None for g in grads)
        assert probe_gradients(value, params, grads, rng, n_probes=25) < 1e-3

    def test_backward_wrt_params_skips_only_the_batch_gradient(self):
        rng = np.random.default_rng(9)
        model = build_mini_resnet1d(small_config(n_blocks=2, seed=3))
        batch = Tensor(rng.normal(size=(5, 4, 64)))
        labels = rng.integers(0, 3, size=5)
        params = model.parameters()

        def backward(wrt):
            tape = Tape()
            logits = model.forward(batch, tape)
            _, grad = softmax_cross_entropy(logits, labels)
            tape.backward(grad.data / 5.0, output=logits, wrt=wrt)
            return tape

        full, only_params = backward(None), backward(params)
        for p in params:
            np.testing.assert_array_equal(only_params.grad(p), full.grad(p))
        assert only_params.grad(batch) is None
        np.testing.assert_array_equal(backward(params + [batch]).grad(batch), full.grad(batch))

        def value():
            losses, _ = softmax_cross_entropy(model.forward(batch), labels)
            return float(losses.data.mean())

        assert probe_gradients(value, [batch], [full.grad(batch)], rng, n_probes=20) < 1e-4


def seeded_draw(seed: int):
    rng = np.random.default_rng(seed)
    return lambda shape, fan_in: rng.uniform(-1.0, 1.0, size=shape)


class TestShortcutWindows:
    @pytest.mark.parametrize("length", [31, 32])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv1_centre_tap_rows_are_the_shortcut_windows(self, stride, length):
        block = ResidualBlock(3, 5, stride, seeded_draw(0))
        x = Tensor(np.random.default_rng(length).normal(size=(4, 3, length)))
        centre = block.conv1.windows(x).reshape(3, 3, -1)[:, 1]
        np.testing.assert_array_equal(centre, block.shortcut.windows(x))

    @pytest.mark.parametrize("batch", [4, 2048])
    def test_shortcut_keeps_its_own_windows_or_the_block_input(self, batch):
        # no view of conv1's windows, which would keep all of them alive: at 4 samples each conv keeps
        # the windows it built, at 2048 (294,912 and 98,304 window values) both keep the block input
        block = ResidualBlock(3, 5, 2, seeded_draw(1))
        x = Tensor(np.random.default_rng(2).normal(size=(batch, 3, 32)))
        tape = Tape()
        block.forward(x, tape)
        kept = [[a for a in closure_arrays(tape._entries[i][1]).values() if not np.shares_memory(a, conv.weight.data)]
                for i, conv in ((0, block.conv1), (3, block.shortcut))]  # conv1, elu, conv2, shortcut, add
        if batch == 4:
            assert [[a.shape for a in arrays] for arrays in kept] == [[(9, 4 * 16)], [(3, 4 * 16)]]
            assert not np.shares_memory(*(arrays[0] for arrays in kept))
        else:
            assert [[a is x.data for a in arrays] for arrays in kept] == [[True], [True]]


class TestPerSampleLosses:
    def test_zero_weight_model_gives_log_c(self):
        model = build_mini_resnet1d(small_config(n_classes=3))
        for p in model.parameters():
            p.data[:] = 0.0
        batch = Tensor(np.random.default_rng(2).normal(size=(5, 4, 64)))
        losses = per_sample_losses(model, batch, np.array([0, 1, 2, 1, 0]))
        np.testing.assert_allclose(losses, math.log(3.0), atol=1e-12)

    def test_single_sample_matches_direct_evaluation(self):
        rng = np.random.default_rng(4)
        model = build_mini_resnet1d(small_config(seed=7))
        trial = rng.normal(size=(1, 4, 64))
        label = np.array([2])
        losses = per_sample_losses(model, Tensor(trial), label)
        direct, _ = softmax_cross_entropy(model.forward(Tensor(trial)), label)
        np.testing.assert_array_equal(losses, direct.data)

    def test_mean_matches_independent_reduction(self):
        rng = np.random.default_rng(6)
        model = build_mini_resnet1d(small_config(seed=11))
        batch = Tensor(rng.normal(size=(9, 4, 64)))
        labels = rng.integers(0, 3, size=9)
        losses = per_sample_losses(model, batch, labels)
        manual = [per_sample_losses(model, Tensor(batch.data[i:i + 1]), labels[i:i + 1])[0]
                  for i in range(9)]
        assert abs(losses.mean() - np.mean(manual)) < 1e-12


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        model = build_mini_resnet1d(small_config(seed=13))
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.arch == model.arch
        for pa, pb in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(tiny_model(), path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(tiny_model(), path)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    def test_header_declaring_a_huge_model_is_rejected_before_building(self, tmp_path):
        # a few bytes may not make the loader allocate the terabytes their architecture declares
        path = tmp_path / "model.bin"
        for n_electrodes in (2 ** 40, 2 ** 31):  # the stem's stored shape cannot say 2**40; it can say 2**31
            config = small_config(n_electrodes=n_electrodes)
            arch = json.dumps({"builder": "mini_resnet1d", "kwargs": vars(config)}).encode("utf-8")
            stem_shape = (config.width_base, n_electrodes % 2 ** 32, 7)
            path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<HI", CHECKPOINT_VERSION, len(arch)) + arch
                             + struct.pack("<IB3I", 10, 3, *stem_shape) + bytes(64))
            tracemalloc.start()
            try:
                with pytest.raises(DataFormatError, match="does not match" if n_electrodes == 2 ** 40 else "needs"):
                    load_checkpoint(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 ** 20

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_is_refused_naming_the_tensor(self, tmp_path, value):
        model = tiny_model()
        model.parameters()[3].data[0] = value  # tensors 0 and 1 are the stem conv's; 3 is the next conv's bias
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        with pytest.raises(DataFormatError, match=rf"{re.escape(str(path))}: tensor 3 .*non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("arch", [
        {"builder": "mini_resnet1d", "kwargs": {"bogus": 1}},
        {"builder": "mlp", "kwargs": [5, [], 2]},  # a builder that no longer exists
        {"builder": "mini_resnet1d", "kwargs": dict(vars(small_config()), n_blocks=9)},
        ["mlp"],
    ])
    def test_malformed_builder_kwargs(self, tmp_path, arch):
        model = tiny_model()
        model.arch = arch
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        with pytest.raises(DataFormatError):
            load_checkpoint(path)


def copied(model, how, tmp_path):
    if how == "build":
        return model
    if how == "clone":
        return model.clone()
    if how == "pickle":  # how fold workers return their checkpoints
        return pickle.loads(pickle.dumps(model))
    save_checkpoint(model, tmp_path / "model.bin")
    return load_checkpoint(tmp_path / "model.bin")


class TestFlatParameters:
    @pytest.mark.parametrize("how", ["build", "clone", "pickle", "load_checkpoint"])
    def test_parameters_are_views_of_flat_in_order(self, tmp_path, how):
        source = build_mini_resnet1d(small_config(n_blocks=2, seed=19))
        model = copied(source, how, tmp_path)
        params = model.parameters()
        assert model.flat.dtype == np.float64 and model.flat.flags.c_contiguous
        assert model.flat.size == sum(p.size for p in params)
        offset = 0
        for p in params:
            window = model.flat[offset:offset + p.size]
            assert np.shares_memory(p.data, model.flat)
            assert p.data.flags.c_contiguous and p.data.ctypes.data == window.ctypes.data
            offset += p.size
        if model is not source:
            assert not np.shares_memory(model.flat, source.flat)
        np.testing.assert_array_equal(model.flat, source.flat)

    @pytest.mark.parametrize("how", ["build", "clone", "pickle", "load_checkpoint"])
    def test_writing_flat_changes_the_forward(self, tmp_path, how):
        source = build_mini_resnet1d(small_config(seed=23))
        model = copied(source, how, tmp_path)
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4, 64)))
        before = source.forward(x).data
        np.testing.assert_array_equal(model.forward(x).data, before)
        model.flat[...] = 0.0  # zero weights and biases: every logit is exactly 0
        np.testing.assert_array_equal(model.forward(x).data, np.zeros((3, 3)))
        if model is not source:
            np.testing.assert_array_equal(source.forward(x).data, before)


class TestConfigValidation:
    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValidationError):
            ModelConfig(n_electrodes=0, n_timesteps=8, n_classes=2, width_base=1, n_blocks=1)

    def test_rejects_bad_n_blocks(self):
        with pytest.raises(ValidationError):
            ModelConfig(n_electrodes=1, n_timesteps=8, n_classes=2, width_base=1, n_blocks=5)
