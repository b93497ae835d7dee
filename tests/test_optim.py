"""Adam updates and the cosine learning-rate schedule."""

import math

import numpy as np
import pytest

from ctss.errors import DimensionError, ValidationError
from ctss.models import ModelConfig, build_mini_resnet1d
from ctss.optim import AdamState, CosineSchedule, adam_step, cosine_lr, sgd_step
from ctss.tensor import Tensor


def tiny_model():
    return build_mini_resnet1d(ModelConfig(n_electrodes=1, n_timesteps=16, n_classes=2, width_base=1, n_blocks=1))


class TestAdam:
    def test_zero_gradient_leaves_everything_unchanged(self):
        p = Tensor(np.array([1.0, -2.0, 3.0]))
        state = AdamState.for_params([p])
        adam_step([p], [np.zeros(3)], state, lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0, -2.0, 3.0])
        np.testing.assert_array_equal(state.m[0], np.zeros(3))
        np.testing.assert_array_equal(state.v[0], np.zeros(3))
        assert state.step == 1

    def test_first_step_is_signed_lr(self):
        # bias correction makes m_hat = g and v_hat = g^2, so the step is
        # -lr * g / (|g| + eps) ~= -lr * sign(g)
        p = Tensor(np.array([0.0, 0.0]))
        g = np.array([0.37, -12.0])
        state = AdamState.for_params([p])
        adam_step([p], [g], state, lr=0.01)
        np.testing.assert_allclose(p.data, [-0.01, 0.01], rtol=1e-6)

    def test_descends_scalar_quadratic(self):
        p = Tensor(np.array([1.0]))
        state = AdamState.for_params([p])
        for _ in range(100):
            adam_step([p], [2.0 * p.data], state, lr=0.01)
        assert abs(p.data[0]) < 1.0

    def test_odd_symmetry_from_zero_init(self):
        rng = np.random.default_rng(2)
        grads = [rng.normal(size=(3, 2)) for _ in range(10)]
        p_pos = Tensor(np.zeros((3, 2)))
        p_neg = Tensor(np.zeros((3, 2)))
        s_pos = AdamState.for_params([p_pos])
        s_neg = AdamState.for_params([p_neg])
        for g in grads:
            adam_step([p_pos], [g], s_pos, lr=0.05)
            adam_step([p_neg], [-g], s_neg, lr=0.05)
        np.testing.assert_array_equal(p_pos.data, -p_neg.data)

    def test_shape_mismatch(self):
        p = Tensor(np.zeros((2, 2)))
        state = AdamState.for_params([p])
        with pytest.raises(DimensionError):
            adam_step([p], [np.zeros(3)], state, lr=0.1)

    def test_moments_are_views_of_one_vector_each(self):
        model = tiny_model()
        params = model.parameters()
        state = AdamState.for_params(params)
        assert state.m_flat.shape == state.v_flat.shape == model.flat.shape
        for moments, flat in ((state.m, state.m_flat), (state.v, state.v_flat)):
            assert [m.shape for m in moments] == [p.shape for p in params]
            assert all(np.shares_memory(m, flat) for m in moments)
        adam_step(params, [np.ones(p.shape) for p in params], state, lr=0.1)
        np.testing.assert_array_equal(np.concatenate(state.m, axis=None), state.m_flat)
        np.testing.assert_allclose(state.m_flat, 0.1)

    def test_tensors_of_no_one_vector_are_rejected(self):
        params = [Tensor(np.zeros(2)), Tensor(np.zeros(3))]
        grads = [np.ones(2), np.ones(3)]
        with pytest.raises(DimensionError, match="one model"):
            adam_step(params, grads, AdamState.for_params(params), lr=0.1)
        with pytest.raises(DimensionError, match="one model"):
            sgd_step(tiny_model().parameters()[:2], [np.ones((1, 1, 7)), np.ones(1)], lr=0.1)

    def test_sgd_step(self):
        p = Tensor(np.array([1.0, 2.0]))
        sgd_step([p], [np.array([0.5, -0.5])], lr=0.1)
        np.testing.assert_allclose(p.data, [0.95, 2.05])


class TestCosineSchedule:
    def test_endpoints_exact(self):
        sched = CosineSchedule(base_lr=0.01, min_lr=0.0, total_epochs=30)
        assert cosine_lr(0, sched) == pytest.approx(0.01, abs=1e-12)
        assert cosine_lr(30, sched) == pytest.approx(0.0, abs=1e-12)

    def test_midpoint(self):
        sched = CosineSchedule(base_lr=0.01, min_lr=0.002, total_epochs=10)
        assert cosine_lr(5, sched) == pytest.approx(0.006, abs=1e-12)

    def test_monotone_nonincreasing(self):
        sched = CosineSchedule(base_lr=0.01, min_lr=0.0, total_epochs=50)
        values = [cosine_lr(t, sched) for t in range(51)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_out_of_range(self):
        sched = CosineSchedule(total_epochs=5)
        with pytest.raises(ValidationError):
            cosine_lr(-1, sched)
        with pytest.raises(ValidationError):
            cosine_lr(6, sched)

    def test_closed_form(self):
        sched = CosineSchedule(base_lr=0.04, min_lr=0.01, total_epochs=17)
        for t in range(18):
            expected = 0.01 + 0.03 * (1 + math.cos(math.pi * t / 17)) / 2
            assert cosine_lr(t, sched) == pytest.approx(expected, abs=1e-15)
