"""Autodiff engine: hand-worked oracles, then finite-difference checks."""

import math

import numpy as np
import pytest

from trihead.autograd import (
    GradCheckReport,
    Tensor,
    add,
    backward,
    cross_entropy,
    dropout,
    embedding_lookup,
    gelu,
    grad_check,
    layer_norm,
    linear,
    matmul,
    merge_heads,
    reshape,
    scale,
    softmax,
    split_heads,
    transpose,
)
from trihead.errors import ConfigError


def project(y, w):
    """Scalar Σ y·w as a 1×1 tensor, built from reshape and matmul."""
    w = np.asarray(w, dtype=y.dtype)
    return matmul(reshape(y, (1, y.size)), Tensor(w.reshape(y.size, 1), dtype=y.dtype))


def total(y):
    return project(y, np.ones(y.shape))


# ---------------------------------------------------------------------------
# forward values worked out by hand


def test_matmul_2x2_times_2x1():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0], [6.0]])
    out = matmul(a, b)
    # row 1: 1*5 + 2*6 = 17; row 2: 3*5 + 4*6 = 39
    assert out.shape == (2, 1)
    np.testing.assert_allclose(out.data, [[17.0], [39.0]], rtol=0, atol=0)


def test_matmul_shape_mismatch_names_both_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 1)))
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 1\)"):
        matmul(a, b)


def test_matmul_rejects_vectors():
    with pytest.raises(ValueError):
        matmul(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))


def test_linear_is_matmul_plus_bias_over_the_last_axis():
    rng = np.random.default_rng(2)
    x, w, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=(5,))
    out = linear(Tensor(x), Tensor(w), Tensor(b))
    assert out.shape == (2, 3, 5)
    np.testing.assert_allclose(out.data, x @ w + b, rtol=1e-5, atol=1e-6)
    with pytest.raises(ValueError, match="linear"):
        linear(Tensor(x), Tensor(w.T), Tensor(b))


def test_split_heads_slices_the_last_axis_and_merge_heads_inverts_it():
    x = np.arange(2 * 3 * 6, dtype=np.float64).reshape(2, 3, 6)
    heads = split_heads(Tensor(x, dtype=np.float64), 2)
    assert heads.shape == (2, 2, 3, 3)
    # head 1 of row 0 is the second half of each token's vector
    np.testing.assert_array_equal(heads.data[0, 1], x[0, :, 3:])
    np.testing.assert_array_equal(merge_heads(heads).data, x)


def test_softmax_zero_log2():
    x = Tensor([0.0, math.log(2.0)], dtype=np.float64)
    y = softmax(x)
    np.testing.assert_allclose(y.data, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(5, 7)))
    y = softmax(x, axis=-1)
    np.testing.assert_allclose(y.data.sum(axis=-1), np.ones(5), atol=1e-6)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    base = rng.normal(size=(3, 4))
    y1 = softmax(Tensor(base, dtype=np.float64)).data
    y2 = softmax(Tensor(base + 1000.0, dtype=np.float64)).data
    np.testing.assert_allclose(y1, y2, atol=1e-12)


def test_softmax_rejects_nonfinite():
    with pytest.raises(ValueError, match="NaN or Inf"):
        softmax(Tensor([1.0, float("nan")]))


def test_cross_entropy_uniform_logits():
    # equal logits over 3 classes: loss is ln 3 regardless of the target
    logits = Tensor(np.zeros((4, 3)), dtype=np.float64)
    loss = cross_entropy(logits, [0, 1, 2, 0])
    assert loss.item() == pytest.approx(math.log(3.0), abs=1e-12)


def test_cross_entropy_two_class_uniform():
    logits = Tensor(np.zeros((1, 2)), dtype=np.float64)
    assert cross_entropy(logits, [1]).item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError, match="out of range"):
        cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])


def test_cross_entropy_batch_mismatch():
    with pytest.raises(ValueError):
        cross_entropy(Tensor(np.zeros((2, 3))), [0])


# ---------------------------------------------------------------------------
# backward semantics


def test_fanout_gradient_sums():
    # y = x + x + x  →  dy/dx = 3
    x = Tensor([2.0], requires_grad=True)
    y = add(add(x, x), x)
    backward(total(y))
    np.testing.assert_allclose(x.grad, [3.0])


def test_second_backward_doubles_gradients():
    x = Tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True, dtype=np.float64)
    w = Tensor([[2.0], [1.0]], requires_grad=True, dtype=np.float64)
    loss = total(gelu(matmul(x, w)))
    backward(loss)
    gx, gw = x.grad.copy(), w.grad.copy()
    backward(loss)
    np.testing.assert_allclose(x.grad, 2.0 * gx, rtol=1e-12)
    np.testing.assert_allclose(w.grad, 2.0 * gw, rtol=1e-12)


def test_diamond_graph_accumulates_through_shared_node():
    # s = x*2; loss = sum(s*s) → d/dx = 8x
    x = Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
    row = reshape(scale(x, 2.0), (1, 2))
    backward(matmul(row, transpose(row)))
    np.testing.assert_allclose(x.grad, [8.0, 16.0], rtol=1e-12)


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        backward(add(x, x))


def test_no_grad_tensors_stay_clean():
    x = Tensor([1.0, 2.0], requires_grad=False)
    w = Tensor([3.0, 4.0], requires_grad=True)
    backward(matmul(reshape(x, (1, 2)), reshape(w, (2, 1))))
    assert x.grad is None
    np.testing.assert_allclose(w.grad, [1.0, 2.0])


def test_broadcast_add_unbroadcasts_gradient():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.zeros((3,)), requires_grad=True)
    backward(total(add(x, b)))
    np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])
    np.testing.assert_allclose(x.grad, np.ones((2, 3)))


def test_only_leaves_hold_gradients():
    # the diamond above through a broadcast zero bias: d/dx = 8x,
    # d/db = 2 Σ s = 12
    x = Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
    b = Tensor([0.0], requires_grad=True, dtype=np.float64)
    s = scale(x, 2.0)
    biased = add(s, b)
    row = reshape(biased, (1, 2))
    loss = matmul(row, transpose(row))
    backward(loss)
    assert all(t.grad is None for t in (s, biased, row, loss))
    np.testing.assert_allclose(x.grad, [8.0, 16.0], rtol=1e-12)
    np.testing.assert_allclose(b.grad, [12.0], rtol=1e-12)


def test_leaf_grad_accumulates_across_separate_graphs():
    w = Tensor([1.0], requires_grad=True)
    backward(total(scale(w, 2.0)))
    backward(total(scale(w, 5.0)))
    np.testing.assert_allclose(w.grad, [7.0])


# ---------------------------------------------------------------------------
# finite differences against every differentiable op


def _check(f, x, **kw):
    report = grad_check(f, x, **kw)
    assert isinstance(report, GradCheckReport)
    assert report.passed, str(report)
    return report


def test_grad_check_matmul_chain():
    rng = np.random.default_rng(7)
    w = rng.normal(size=(4, 3))

    def f(t):
        return total(gelu(matmul(t, Tensor(w, dtype=np.float64))))

    _check(f, Tensor(rng.normal(size=(2, 4)), dtype=np.float64))


def test_grad_check_softmax_cross_entropy():
    rng = np.random.default_rng(8)

    def f(t):
        return cross_entropy(t, [2, 0, 1])

    _check(f, Tensor(rng.normal(size=(3, 4)), dtype=np.float64))


def test_grad_check_layer_norm_all_three_inputs():
    rng = np.random.default_rng(9)
    x0 = rng.normal(size=(3, 5))
    g0 = rng.normal(size=(5,)) + 1.0
    b0 = rng.normal(size=(5,))

    f64 = np.float64

    def fx(t):
        return project(layer_norm(t, Tensor(g0, dtype=f64), Tensor(b0, dtype=f64)), x0 + 0.5)

    def fg(t):
        return project(layer_norm(Tensor(x0, dtype=f64), t, Tensor(b0, dtype=f64)), x0 + 0.5)

    def fb(t):
        return project(layer_norm(Tensor(x0, dtype=f64), Tensor(g0, dtype=f64), t), x0 + 0.5)

    _check(fx, Tensor(x0, dtype=np.float64))
    _check(fg, Tensor(g0, dtype=np.float64))
    _check(fb, Tensor(b0, dtype=np.float64))


def test_grad_check_softmax_weighted():
    rng = np.random.default_rng(10)
    w = rng.normal(size=(2, 6))

    def f(t):
        return project(softmax(t, axis=-1), w)

    _check(f, Tensor(rng.normal(size=(2, 6)), dtype=np.float64))


def test_grad_check_mean_reshape_transpose():
    rng = np.random.default_rng(11)
    w = rng.normal(size=(3, 4))

    def f(t):
        h = transpose(reshape(t, (4, 3)))
        return project(h, w / w.size)  # the mean of h * w

    _check(f, Tensor(rng.normal(size=(12,)), dtype=np.float64))


def test_grad_check_embedding_lookup():
    rng = np.random.default_rng(12)
    ids = np.array([[0, 2, 2], [1, 0, 3]])
    w = rng.normal(size=(2, 3, 5))

    def f(t):
        return project(embedding_lookup(t, ids), w)

    _check(f, Tensor(rng.normal(size=(4, 5)), dtype=np.float64))


def test_grad_check_linear_all_three_inputs():
    rng = np.random.default_rng(13)
    x0 = rng.normal(size=(2, 3, 4))
    w0 = rng.normal(size=(4, 5))
    b0 = rng.normal(size=(5,))
    out_w = rng.normal(size=(2, 3, 5))
    f64 = np.float64

    _check(lambda t: project(linear(t, Tensor(w0, dtype=f64), Tensor(b0, dtype=f64)), out_w),
           Tensor(x0, dtype=f64))
    _check(lambda t: project(linear(Tensor(x0, dtype=f64), t, Tensor(b0, dtype=f64)), out_w),
           Tensor(w0, dtype=f64))
    _check(lambda t: project(linear(Tensor(x0, dtype=f64), Tensor(w0, dtype=f64), t), out_w),
           Tensor(b0, dtype=f64))


def test_grad_check_split_heads():
    rng = np.random.default_rng(14)
    w = rng.normal(size=(2, 3, 4, 2))

    _check(lambda t: project(split_heads(t, 3), w),
           Tensor(rng.normal(size=(2, 4, 6)), dtype=np.float64))


def test_grad_check_merge_heads():
    rng = np.random.default_rng(15)
    w = rng.normal(size=(2, 4, 6))

    _check(lambda t: project(merge_heads(t), w),
           Tensor(rng.normal(size=(2, 3, 4, 2)), dtype=np.float64))


def test_grad_check_detects_a_wrong_gradient():
    # a deliberately broken rule must fail the check
    def f(t):
        out = gelu(t)
        if out.node is not None:

            def bad_backward(g):
                return (g,)  # wrong: should be gelu'(t) * g

            out.node.backward_fn = bad_backward
        return total(out)

    report = grad_check(f, Tensor([1.5, -0.5], dtype=np.float64))
    assert not report.passed


def test_grad_check_rejects_nondeterministic_f():
    state = {"n": 0}

    def f(t):
        state["n"] += 1
        return total(scale(t, float(state["n"])))

    with pytest.raises(ValueError, match="deterministic"):
        grad_check(f, Tensor([1.0], dtype=np.float64))


# ---------------------------------------------------------------------------
# dropout and embedding details


def test_dropout_eval_is_identity_object():
    x = Tensor([1.0, 2.0])
    assert dropout(x, 0.3, training=False) is x
    assert dropout(x, 0.0, training=True, rng=np.random.default_rng(0)) is x


def test_dropout_scales_survivors():
    rng = np.random.default_rng(5)
    x = Tensor(np.ones(10_000))
    y = dropout(x, 0.25, training=True, rng=rng)
    kept = y.data[y.data != 0]
    np.testing.assert_allclose(kept, 1.0 / 0.75, rtol=1e-6)
    assert abs(len(kept) / 10_000 - 0.75) < 0.02


def test_dropout_bad_probability():
    with pytest.raises(ConfigError):
        dropout(Tensor([1.0]), 1.0, training=True, rng=np.random.default_rng(0))
    with pytest.raises(ConfigError):
        dropout(Tensor([1.0]), -0.1)


def test_dropout_mask_reused_in_backward():
    rng = np.random.default_rng(6)
    x = Tensor(np.ones((4, 4)), requires_grad=True)
    y = dropout(x, 0.5, training=True, rng=rng)
    backward(total(y))
    # gradient must be nonzero exactly where the forward kept values
    np.testing.assert_array_equal(x.grad != 0, y.data != 0)


def test_embedding_lookup_gathers_and_scatters():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    out = embedding_lookup(table, np.array([1, 1, 3]))
    np.testing.assert_allclose(out.data, [[3, 4, 5], [3, 4, 5], [9, 10, 11]])
    backward(total(out))
    np.testing.assert_allclose(table.grad, [[0, 0, 0], [2, 2, 2], [0, 0, 0], [1, 1, 1]])


def test_embedding_lookup_id_out_of_range():
    with pytest.raises(IndexError, match="out of range"):
        embedding_lookup(Tensor(np.zeros((4, 3))), np.array([4]))


# ---------------------------------------------------------------------------
# housekeeping


def test_default_dtype_is_float32():
    assert Tensor([1.0]).dtype == np.float32
    assert Tensor([1.0], dtype=np.float64).dtype == np.float64
    assert Tensor(np.array([1], dtype=np.int64)).dtype == np.float32


def test_detach_cuts_graph():
    x = Tensor([1.0], requires_grad=True)
    y = scale(x, 2.0).detach()
    assert y.node is None and not y.requires_grad
