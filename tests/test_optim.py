"""Adam updates and the cosine learning-rate schedule."""

import math

import numpy as np
import pytest

from ctss.errors import DimensionError, ValidationError
from ctss.optim import AdamState, CosineSchedule, adam_step, cosine_lr, sgd_step


def fresh_state(n):
    return AdamState(np.zeros(n), np.zeros(n))


class TestAdam:
    def test_zero_gradient_leaves_everything_unchanged(self):
        p = np.array([1.0, -2.0, 3.0])
        state = fresh_state(3)
        adam_step(p, np.zeros(3), state, lr=0.1)
        np.testing.assert_array_equal(p, [1.0, -2.0, 3.0])
        np.testing.assert_array_equal(state.m, np.zeros(3))
        np.testing.assert_array_equal(state.v, np.zeros(3))
        assert state.step == 1

    def test_first_step_is_signed_lr(self):
        # bias correction makes m_hat = g and v_hat = g^2, so the step is
        # -lr * g / (|g| + eps) ~= -lr * sign(g)
        p = np.array([0.0, 0.0])
        g = np.array([0.37, -12.0])
        state = fresh_state(2)
        adam_step(p, g, state, lr=0.01)
        np.testing.assert_allclose(p, [-0.01, 0.01], rtol=1e-6)
        np.testing.assert_allclose(state.m, 0.1 * g)
        np.testing.assert_allclose(state.v, 0.001 * g * g)

    def test_descends_scalar_quadratic(self):
        p = np.array([1.0])
        state = fresh_state(1)
        for _ in range(100):
            adam_step(p, 2.0 * p, state, lr=0.01)
        assert abs(p[0]) < 1.0

    def test_odd_symmetry_from_zero_init(self):
        rng = np.random.default_rng(2)
        grads = [rng.normal(size=6) for _ in range(10)]
        p_pos, p_neg = np.zeros(6), np.zeros(6)
        s_pos, s_neg = fresh_state(6), fresh_state(6)
        for g in grads:
            adam_step(p_pos, g, s_pos, lr=0.05)
            adam_step(p_neg, -g, s_neg, lr=0.05)
        np.testing.assert_array_equal(p_pos, -p_neg)

    def test_shape_mismatch(self):
        p = np.zeros(4)
        with pytest.raises(DimensionError):
            adam_step(p, np.zeros(3), fresh_state(4), lr=0.1)
        with pytest.raises(DimensionError):
            adam_step(p, np.zeros(4), fresh_state(3), lr=0.1)
        with pytest.raises(DimensionError):
            sgd_step(p, np.zeros(3), lr=0.1)

    def test_sgd_step(self):
        p = np.array([1.0, 2.0])
        sgd_step(p, np.array([0.5, -0.5]), lr=0.1)
        np.testing.assert_allclose(p, [0.95, 2.05])


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
