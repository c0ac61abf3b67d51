"""Optimizer and gradient clipping."""

import numpy as np
import pytest

from trihead.autograd import Tensor
from trihead.optim import AdamW, clip_global_norm


def test_clip_scales_down_to_the_budget():
    a = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    a.grad = np.array([3.0, 0.0, 4.0], dtype=np.float32)  # norm 5
    norm = clip_global_norm({"a": a})
    assert norm == pytest.approx(5.0)
    np.testing.assert_allclose(a.grad, [0.6, 0.0, 0.8], atol=1e-7)


def test_clip_leaves_small_gradients_alone():
    a = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    g = np.array([0.3, 0.4], dtype=np.float32)
    a.grad = g.copy()
    norm = clip_global_norm({"a": a})
    assert norm == pytest.approx(0.5)
    np.testing.assert_array_equal(a.grad, g)


def test_clip_norm_spans_all_tensors():
    a = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
    b = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
    a.grad = np.array([3.0], dtype=np.float32)
    b.grad = np.array([4.0], dtype=np.float32)
    norm = clip_global_norm({"a": a, "b": b})
    assert norm == pytest.approx(5.0)
    np.testing.assert_allclose(a.grad, [0.6], atol=1e-7)
    np.testing.assert_allclose(b.grad, [0.8], atol=1e-7)


def test_clip_skips_missing_grads():
    a = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
    norm = clip_global_norm({"a": a})
    assert norm == 0.0


def test_adamw_minimizes_a_quadratic():
    x = Tensor(np.array([5.0, -3.0], dtype=np.float32), requires_grad=True)
    opt = AdamW({"x": x})
    for _ in range(400):
        opt.zero_grad()
        x.grad = 2.0 * x.data  # d/dx of sum(x^2)
        opt.step(lr=0.05)
    assert np.abs(x.data).max() < 0.05


def test_adamw_decoupled_weight_decay_shrinks_without_gradient_signal():
    x = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
    opt = AdamW({"x": x})
    x.grad = np.zeros(1, dtype=np.float32)
    opt.step(lr=0.5)
    # decay applies even when the gradient is zero
    assert 0.0 < x.data[0] < 1.0


def test_adamw_skips_frozen_params():
    frozen = Tensor(np.ones(2, dtype=np.float32), requires_grad=False)
    live = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    opt = AdamW({"frozen": frozen, "live": live})
    live.grad = np.ones(2, dtype=np.float32)
    frozen.grad = np.ones(2, dtype=np.float32)
    before = frozen.data.copy()
    opt.step(lr=0.1)
    np.testing.assert_array_equal(frozen.data, before)
    assert not np.array_equal(live.data, before)


def test_adamw_step_sizes_are_bias_corrected():
    # with bias correction, the very first Adam step moves by almost exactly
    # lr, after the decoupled decay has taken lr * 0.01 of the weight
    x = Tensor(np.array([10.0], dtype=np.float32), requires_grad=True)
    opt = AdamW({"x": x})
    x.grad = np.array([7.0], dtype=np.float32)
    opt.step(lr=0.1)
    assert x.data[0] == pytest.approx(10.0 - 0.1 * 0.01 * 10.0 - 0.1, abs=1e-4)


def test_zero_grad_clears_gradients():
    x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    x.grad = np.ones(2, dtype=np.float32)
    AdamW({"x": x}).zero_grad()
    assert x.grad is None
