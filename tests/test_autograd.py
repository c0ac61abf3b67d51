"""Autodiff engine: hand-worked oracles, then finite-difference checks."""

import inspect
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trihead import autograd
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
from trihead.optim import MAX_GRAD_NORM, clip_global_norm


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


def test_float32_erf_is_within_5e_7_of_math_erf():
    # normal draws, a dense grid past the clamp at ±4, tiny magnitudes, the ends
    rng = np.random.default_rng(0)
    tiny = np.finfo(np.float32).smallest_subnormal
    z = np.concatenate([rng.standard_normal(200_000) * 2, np.linspace(0, 8, 200_001),
                        np.geomspace(1e-37, 1e-3, 2_000), [tiny, 3e38, np.inf]])
    z = z.astype(np.float32)
    z = np.concatenate([z, -z])
    got = autograd._erf(z)
    want = np.array([math.erf(v) for v in z.tolist()])
    assert got.dtype == np.float32
    assert np.abs(got - want).max() <= 5e-7


def test_float64_gelu_is_the_math_erf_formula_bit_for_bit():
    x = np.concatenate([np.linspace(-6, 6, 1_201), [1e-300, -1e-300, 0.7071067811865476]])
    got = gelu(Tensor(x, dtype=np.float64)).data
    inv_sqrt2 = 1 / math.sqrt(2)  # gelu scales by the reciprocal, as written here
    want = np.array([v * 0.5 * (1 + math.erf(v * inv_sqrt2)) for v in x.tolist()])
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


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


def test_two_leaves_never_share_a_gradient_buffer():
    # add's gradients for two same-shape leaves are views of one array; a
    # shared .grad would carry any in-place change to one leaf's into the other's
    a = Tensor(np.zeros((1, 3)), requires_grad=True)
    b = Tensor(np.zeros((1, 3)), requires_grad=True)
    backward(cross_entropy(add(a, b), [0]))
    assert not np.shares_memory(a.grad, b.grad)
    grad = np.concatenate([a.grad, b.grad], axis=None)  # AdamW's gather
    # the two size-3 tensors are one group of AdamW's layout
    assert clip_global_norm(grad, [(0, 6, (2, 3))], [0, 1], np.empty(6)) == pytest.approx(
        2 / np.sqrt(3), rel=1e-6)
    norm = np.sqrt(float(np.sum(grad.astype(np.float64) ** 2)))
    assert norm == pytest.approx(MAX_GRAD_NORM, rel=1e-6)


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


def test_layer_norm_wants_gamma_and_beta_shaped_like_the_last_axis():
    # backward sums their gradients over every leading axis, to shape (d,)
    x = Tensor(np.zeros((2, 3)))
    for gamma, beta in (((1, 3), (3,)), ((3,), (2, 3)), ((4,), (4,))):
        with pytest.raises(ValueError, match=r"layer_norm: shapes disagree, \(2, 3\)"):
            layer_norm(x, Tensor(np.ones(gamma)), Tensor(np.zeros(beta)))


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


def test_detach_shares_storage():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    y = x.detach()
    assert np.shares_memory(y.data, x.data)
    assert y.dtype == x.dtype and not y.requires_grad


def test_a_0d_tensor_stays_0d():
    assert Tensor(np.float32(2.0)).shape == ()
    assert Tensor(2.0, dtype=np.float64).shape == ()
    loss = cross_entropy(Tensor(np.zeros((2, 3)), requires_grad=True), [0, 1])
    assert loss.shape == () and loss.detach().shape == ()


def test_a_tensor_of_a_strided_view_holds_a_contiguous_copy():
    view = np.arange(6.0, dtype=np.float32).reshape(2, 3).T
    t = Tensor(view)
    assert t.data.flags.c_contiguous and not np.shares_memory(t.data, view)
    np.testing.assert_array_equal(t.data, view)


# float32 in, float32 out: every op, forward and backward

F32_OPS = {
    "add": lambda t: add(t((2, 3)), t((3,))),
    "scale": lambda t: scale(t((2, 3)), 0.5),
    "matmul": lambda t: matmul(t((2, 3)), t((3, 4))),
    "linear": lambda t: linear(t((2, 2, 3)), t((3, 4)), t((4,))),
    "reshape": lambda t: reshape(t((2, 3)), (3, 2)),
    "transpose": lambda t: transpose(t((2, 3)), (1, 0)),
    "split_heads": lambda t: split_heads(t((2, 3, 4)), 2),
    "merge_heads": lambda t: merge_heads(t((2, 2, 3, 2))),
    "softmax": lambda t: softmax(t((2, 3))),
    "gelu": lambda t: gelu(t((2, 3))),
    "layer_norm": lambda t: layer_norm(t((2, 3)), t((3,)), t((3,))),
    "dropout": lambda t: dropout(t((2, 3)), 0.5, training=True,
                                 rng=np.random.default_rng(0)),
    "embedding_lookup": lambda t: embedding_lookup(t((5, 3)), [0, 2, 2]),
    "cross_entropy": lambda t: cross_entropy(t((2, 3)), [0, 2]),
}


def test_the_dtype_table_lists_every_public_op():
    ops = {name for name, f in vars(autograd).items()
           if inspect.isfunction(f) and not name.startswith("_")
           and "_from_op" in f.__code__.co_names}
    assert ops == set(F32_OPS)


@pytest.mark.parametrize("op", sorted(F32_OPS))
def test_a_float32_op_keeps_float32_forward_and_backward(op):
    rng = np.random.default_rng(7)

    def t(shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    out = F32_OPS[op](t)
    assert out.dtype == np.float32
    grads = out.node.backward_fn(np.ones_like(out.data))
    assert len(grads) == len(out.node.inputs)
    for g, inp in zip(grads, out.node.inputs):
        assert g.dtype == np.float32, f"{op}: gradient of a {inp.shape} input is {g.dtype}"
        assert g.shape == inp.shape


# ---------------------------------------------------------------------------
# the in-place rules give the bits of the rules they replaced


def unbroadcast_ref(grad, shape):
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# The former rules, verbatim but for returning (output, backward) in place
# of a Tensor: every activation-sized term a fresh array, and each mean np.mean.

def add_ref(a, b):
    data = a.data + b.data

    def backward(g):
        return unbroadcast_ref(g, a.shape), unbroadcast_ref(g, b.shape)

    return data, backward


def softmax_ref(x, axis=-1):
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - inner),)

    return y, backward


def layer_norm_ref(x, gamma, beta):
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + autograd._LN_EPS)
    xhat = centered * inv_std
    data = xhat * gamma.data + beta.data

    def backward(g):
        gbeta = unbroadcast_ref(g, beta.shape)
        ggamma = unbroadcast_ref(g * xhat, gamma.shape)
        gxhat = g * gamma.data
        m1 = gxhat.mean(axis=-1, keepdims=True)
        m2 = (gxhat * xhat).mean(axis=-1, keepdims=True)
        gx = inv_std * (gxhat - m1 - xhat * m2)
        return gx.astype(x.dtype, copy=False), ggamma, gbeta

    return data, backward


def cross_entropy_ref(logits, targets):
    targets = np.asarray(targets, dtype=np.int64)
    b, c = logits.shape
    m = logits.data.max(axis=1, keepdims=True)
    shifted = logits.data - m
    lse = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(b)
    losses = lse - shifted[rows, targets]
    data = np.asarray(losses.mean(), dtype=logits.dtype)

    def backward(g):
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[rows, targets] -= 1.0
        return ((g / b) * p.astype(logits.dtype, copy=False),)

    return data, backward


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def rule_cases(draw):
    """A dtype, an upstream-gradient dtype (the op's own, or float64), a
    shape of leading axes (1 among them) and a last axis of 1 to 64, a
    value scale and a seed."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    g_dtype = draw(st.sampled_from([dtype, np.float64]))
    lead = draw(st.lists(st.sampled_from([1, 2, 3, 8]), max_size=3))
    d = draw(st.integers(1, 64))
    return (dtype, g_dtype, (*lead, d), draw(st.sampled_from([1e-3, 1.0, 30.0])),
            draw(st.integers(0, 2**32 - 1)))


def check_rule(new, ref, inputs, g):
    """Output and every gradient of new equal ref's, bit for bit and dtype."""
    out = new(*inputs)
    want, want_backward = ref(*inputs)
    assert_same_bits(out.data, want)
    got_grads = out.node.backward_fn(g)
    want_grads = want_backward(g)
    assert len(got_grads) == len(want_grads) == len(inputs)
    for got, ref_grad in zip(got_grads, want_grads):
        assert_same_bits(got, ref_grad)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(rule_cases())
def test_layer_norm_gives_the_former_rules_bits(case):
    dtype, g_dtype, shape, size, seed = case
    rng = np.random.default_rng(seed)
    x, gamma, beta = (Tensor(size * rng.normal(size=s) + 0.5, requires_grad=True, dtype=dtype)
                      for s in (shape, shape[-1:], shape[-1:]))
    check_rule(layer_norm, layer_norm_ref, (x, gamma, beta),
               rng.normal(size=shape).astype(g_dtype))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(rule_cases(), st.sampled_from([-1, 0]))
def test_softmax_gives_the_former_rules_bits(case, axis):
    dtype, g_dtype, shape, size, seed = case
    rng = np.random.default_rng(seed)
    x = Tensor(size * rng.normal(size=shape), requires_grad=True, dtype=dtype)
    check_rule(lambda t: softmax(t, axis=axis), lambda t: softmax_ref(t, axis=axis), (x,),
               rng.normal(size=shape).astype(g_dtype))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(rule_cases())
def test_cross_entropy_gives_the_former_rules_bits(case):
    # the leading axes make the batch; a float64 upstream g into float32
    # logits is among the cases
    dtype, g_dtype, shape, size, seed = case
    rng = np.random.default_rng(seed)
    b, c = math.prod(shape[:-1]), shape[-1]
    logits = Tensor(size * rng.normal(size=(b, c)), requires_grad=True, dtype=dtype)
    targets = rng.integers(0, c, size=b)
    check_rule(lambda t: cross_entropy(t, targets), lambda t: cross_entropy_ref(t, targets),
               (logits,), np.asarray(rng.normal(), dtype=g_dtype))


def cross_entropy_node_ref(logits, targets):
    """The one-pair cross_entropy rule the loss node replaced, verbatim but
    for returning (output, backward) in place of a Tensor."""
    targets = np.asarray(targets, dtype=np.int64)
    b, c = logits.shape
    m = logits.data.max(axis=1, keepdims=True)
    shifted = logits.data - m
    e = np.exp(shifted)  # kept: backward's softmax divides it by its row sums
    sums = np.add.reduce(e, axis=1)
    lse = np.log(sums)
    rows = np.arange(b)
    losses = lse - shifted[rows, targets]
    data = np.asarray(losses.mean(), dtype=logits.dtype)

    def backward(g):
        p = e / sums[:, None]
        p[rows, targets] -= 1.0
        return ((g / b) * p,)

    return data, backward


def summed_cross_entropy_ref(logits, targets):
    """The graph the loss node replaced: one cross_entropy node per pair,
    their values added left to right by add nodes, (l0 + l1) + l2. Returns
    the sum, each term's value as the step loop read it, and a backward
    that walks the adds back to every logits tensor."""
    parts = [cross_entropy_node_ref(z, t) for z, t in zip(logits, targets)]
    left, adds = parts[0][0], []
    for data, _ in parts[1:]:
        # add_ref reads .data and .shape; a Tensor would make the 0-d value 1-d
        left, add_backward = add_ref(SimpleNamespace(data=left, shape=left.shape),
                                     SimpleNamespace(data=data, shape=data.shape))
        adds.append(add_backward)

    def backward(g):
        upstream = []
        for add_backward in reversed(adds):
            g, g_right = add_backward(g)
            upstream.append(g_right)
        upstream.append(g)
        return tuple(part_backward(gi)[0]
                     for (_, part_backward), gi in zip(parts, reversed(upstream)))

    # each value as Tensor.item() read it
    return np.asarray(left), backward, [float(data.reshape(-1)[0]) for data, _ in parts]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.sampled_from([np.float32, np.float64]), st.booleans(),
       st.lists(st.tuples(st.integers(1, 9), st.integers(2, 5)), min_size=1, max_size=3),
       st.sampled_from([1e-3, 1.0, 30.0]), st.integers(0, 2**32 - 1))
def test_the_loss_node_gives_the_bits_of_per_task_nodes_and_adds(dtype, g64, pairs, size,
                                                                 seed):
    # one to three (batch, classes) pairs; the three heads share a batch,
    # but the node does not need them to
    rng = np.random.default_rng(seed)
    logits = [Tensor(size * rng.normal(size=shape), requires_grad=True, dtype=dtype)
              for shape in pairs]
    targets = [rng.integers(0, c, size=b) for b, c in pairs]
    terms = []
    out = cross_entropy(logits, targets, terms)
    want, want_backward, want_terms = summed_cross_entropy_ref(logits, targets)
    assert_same_bits(out.data, want)
    assert terms == want_terms
    g = np.asarray(rng.normal(), dtype=np.float64 if g64 else dtype)
    got_grads, want_grads = out.node.backward_fn(g), want_backward(g)
    assert len(got_grads) == len(want_grads) == len(logits)
    for got, ref_grad in zip(got_grads, want_grads):
        assert_same_bits(got, ref_grad)


def test_the_loss_node_wants_one_targets_per_logits():
    z = Tensor(np.zeros((2, 3)), requires_grad=True)
    with pytest.raises(ValueError, match=r"^cross_entropy: 2 logits tensors for 1 targets$"):
        cross_entropy([z, z], [[0, 1]])
    with pytest.raises(ValueError, match=r"^cross_entropy: 0 logits tensors for 0 targets$"):
        cross_entropy([], [])


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(rule_cases(), st.lists(st.booleans(), min_size=4, max_size=4),
       st.sampled_from([(True, True), (True, False), (False, True)]))
def test_add_gives_the_former_rules_bits_and_none_for_a_constant(case, ones, live):
    # b broadcasts against a: a suffix of a's shape, some axes set to 1
    dtype, g_dtype, shape, size, seed = case
    rng = np.random.default_rng(seed)
    b_shape = tuple(1 if one else n for n, one in zip(shape[1:] or shape, ones))
    a, b = (Tensor(size * rng.normal(size=s), requires_grad=r, dtype=dtype)
            for s, r in zip((shape, b_shape), live))
    out = add(a, b)
    want, want_backward = add_ref(a, b)
    assert_same_bits(out.data, want)
    g = rng.normal(size=shape).astype(g_dtype)
    for t, got, ref_grad in zip((a, b), out.node.backward_fn(g), want_backward(g)):
        if t.requires_grad:
            assert_same_bits(got, ref_grad)
        else:
            assert got is None


def test_add_leaves_a_constant_operand_alone():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    bias = Tensor(np.array([0.0, -1e9, 0.0]))
    sentinel = np.full(3, 7.0, dtype=np.float32)
    bias.grad = sentinel
    out = add(x, bias)
    assert out.node.backward_fn(np.ones((2, 3), dtype=np.float32))[1] is None
    backward(total(out))
    assert bias.grad is sentinel
    np.testing.assert_array_equal(sentinel, np.full(3, 7.0))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def erf_ref(z):
    """_erf before its clamp left np.clip, verbatim."""
    if z.dtype == np.float64:
        return autograd._MATH_ERF(z).astype(np.float64)
    z = np.clip(z, -4.0, 4.0)
    z2 = z * z
    z *= autograd._horner(z2, autograd._ERF_P)
    z /= autograd._horner(z2, autograd._ERF_Q)
    return z


def gelu_ref(x):
    inv_sqrt2 = x.dtype.type(autograd._INV_SQRT2)
    inv_sqrt2pi = x.dtype.type(autograd._INV_SQRT2PI)
    cdf = 0.5 * (1.0 + erf_ref(x.data * inv_sqrt2))
    data = x.data * cdf

    def backward(g):
        pdf = np.exp(-0.5 * x.data * x.data) * inv_sqrt2pi
        return (g * (cdf + x.data * pdf),)

    return data, backward


def dropout_ref(x, p, rng):
    """The training-mode dropout rule before its mask took one pass, verbatim."""
    keep = (rng.random(x.shape) >= p).astype(x.dtype)
    keep *= np.asarray(1.0 / (1.0 - p), dtype=x.dtype)
    data = x.data * keep

    def backward(g):
        return (g * keep,)

    return data, backward


def embedding_lookup_ref(table, ids):
    """The embedding rule before its scatter went flat, verbatim."""
    ids = np.asarray(ids)
    data = table.data[ids]

    def backward(g):
        buf = np.zeros_like(table.data)
        np.add.at(buf, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        return (buf,)

    return data, backward


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(rule_cases())
def test_gelu_gives_the_former_rules_bits(case):
    # 30 × N(0, 1) reaches past the clamp at ±4 √2 on both sides
    dtype, g_dtype, shape, size, seed = case
    rng = np.random.default_rng(seed)
    x = Tensor(size * rng.normal(size=shape), requires_grad=True, dtype=dtype)
    check_rule(gelu, gelu_ref, (x,), rng.normal(size=shape).astype(g_dtype))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(rule_cases(), st.sampled_from([0.1, 0.3, 0.5, 0.9]))
def test_dropout_gives_the_former_rules_bits_and_draws(case, p):
    dtype, g_dtype, shape, size, seed = case
    rng = np.random.default_rng(seed)
    x = Tensor(size * rng.normal(size=shape), requires_grad=True, dtype=dtype)
    g = rng.normal(size=shape).astype(g_dtype)
    check_rule(lambda t: dropout(t, p, training=True, rng=np.random.default_rng(seed)),
               lambda t: dropout_ref(t, p, np.random.default_rng(seed)), (x,), g)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(rule_cases(), st.integers(1, 6), st.sampled_from([(5,), (3, 4), (2, 2, 3)]))
def test_embedding_lookup_gives_the_former_rules_bits(case, n_rows, ids_shape):
    # few rows, so ids repeat and each row's gradients add up in order
    dtype, g_dtype, shape, size, seed = case
    rng = np.random.default_rng(seed)
    table = Tensor(size * rng.normal(size=(n_rows, shape[-1])), requires_grad=True,
                   dtype=dtype)
    ids = rng.integers(0, n_rows, size=ids_shape)
    check_rule(lambda t: embedding_lookup(t, ids), lambda t: embedding_lookup_ref(t, ids),
               (table,), (size * rng.normal(size=ids_shape + shape[-1:])).astype(g_dtype))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(rule_cases(), st.sampled_from([-1, 0]))
def test_softmax_on_signed_zeros_and_ties_gives_the_former_rules_bits(case, axis):
    # the row max comes from another reduction order now; only a zero's
    # sign could tell, and exp erases it
    dtype, g_dtype, shape, _, seed = case
    rng = np.random.default_rng(seed)
    x = Tensor(rng.choice([-0.0, 0.0, -1.0, 1.0, 2.5], size=shape), requires_grad=True,
               dtype=dtype)
    check_rule(lambda t: softmax(t, axis=axis), lambda t: softmax_ref(t, axis=axis), (x,),
               rng.normal(size=shape).astype(g_dtype))


def backward_ref(loss):
    """The graph walk this engine had before it keyed by the tensor itself,
    verbatim: id() keys, and leaves pushed onto the stack and skipped."""
    if loss.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.node is None:
        if loss.requires_grad:
            seed = np.ones_like(loss.data)
            loss.grad = seed if loss.grad is None else loss.grad + seed
        return

    # reverse topological order: inputs before the op that consumes them
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            topo.append(t)
            continue
        if t.node is None or id(t) in visited:
            continue
        visited.add(id(t))
        stack.append((t, True))
        for inp in t.node.inputs:
            stack.append((inp, False))

    pass_grads = {id(loss): np.ones_like(loss.data)}
    for t in reversed(topo):
        g = pass_grads.pop(id(t), None)
        if g is None:
            continue
        for inp, gi in zip(t.node.inputs, t.node.backward_fn(g)):
            if gi is None or not inp.requires_grad:
                continue
            if inp.node is None:
                if inp.grad is None:
                    inp.grad = gi if gi.base is None else gi.copy()
                else:
                    inp.grad = inp.grad + gi
            else:
                key = id(inp)
                if key in pass_grads:
                    pass_grads[key] = pass_grads[key] + gi
                else:
                    pass_grads[key] = gi


GRAPH_OPS = (
    lambda a, b, c: add(a, b),
    lambda a, b, c: scale(a, c),
    lambda a, b, c: gelu(a),
    lambda a, b, c: softmax(add(a, b)),
    lambda a, b, c: transpose(transpose(a)),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(1, 3),
       st.lists(st.tuples(st.integers(0, len(GRAPH_OPS) - 1), st.floats(0, 1, exclude_max=True),
                          st.floats(0, 1, exclude_max=True), st.sampled_from([-1.5, 0.5, 3.0])),
                min_size=1, max_size=12),
       st.integers(0, 2**32 - 1))
def test_the_walk_gives_the_former_walks_bits_on_shared_graphs(n_leaves, ops, seed):
    # each op takes its operands from every tensor made so far, leaves
    # included, so leaves are shared and interior tensors fan out into
    # diamonds; float32 sums show any change in the order gradients add up
    rng = np.random.default_rng(seed)
    leaves = [Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(n_leaves)]
    pool = list(leaves)
    for op, i, j, c in ops:
        pool.append(GRAPH_OPS[op](pool[int(i * len(pool))], pool[int(j * len(pool))], c))
    loss = project(add(pool[-1], pool[len(pool) // 2]), rng.normal(size=(2, 3)))
    backward(loss)
    got = [leaf.grad for leaf in leaves]
    for leaf in leaves:
        leaf.grad = None
    backward_ref(loss)
    for leaf, grad in zip(leaves, got):
        if leaf.grad is None:
            assert grad is None
        else:
            assert_same_bits(grad, leaf.grad)


def test_backward_from_a_leaf_seeds_its_gradient_and_a_constant_takes_none():
    x = Tensor(np.float32(3.0), requires_grad=True)
    backward(x)
    backward(x)  # a second call adds another seed
    assert x.grad.dtype == np.float32
    np.testing.assert_array_equal(x.grad, [2.0])
    c = Tensor(np.float32(3.0))
    backward(c)
    assert c.grad is None


def test_the_walk_skips_a_tensor_that_received_no_gradient():
    # a rule may give an input no gradient (None); the walk then reaches
    # that input with nothing to push, and its own inputs get nothing from it
    x = Tensor([1.0, 2.0], requires_grad=True)
    w = Tensor([0.5, -0.5], requires_grad=True)
    cut = scale(scale(x, 2.0), 3.0)
    cut.node.backward_fn = lambda g: (None,)
    backward(total(add(cut, w)))
    assert x.grad is None
    np.testing.assert_array_equal(w.grad, [1.0, 1.0])


def test_a_tensor_holds_float32_or_float64_only():
    with pytest.raises(ConfigError,
                       match=r"^Tensor dtype must be float32 or float64, got int64$"):
        Tensor([1, 2], dtype=np.int64)


def test_matmul_names_both_shapes_when_it_refuses():
    with pytest.raises(ValueError, match=r"^matmul needs 2-D or higher operands, "
                                         r"got \(2,\) and \(2, 1\)$"):
        matmul(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))
    with pytest.raises(ValueError, match=r"^matmul: inner dimensions disagree, "
                                         r"\(2, 3\) x \(4, 1\)$"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 1))))


def test_grad_check_refuses_a_step_that_is_not_positive_and_a_non_scalar_f():
    x = Tensor([1.0, 2.0], dtype=np.float64)
    with pytest.raises(ValueError, match=r"^eps must be positive, got 0.0$"):
        grad_check(total, x, eps=0.0)
    with pytest.raises(ValueError, match=r"^grad_check needs a scalar-valued f, "
                                         r"got shape \(2,\)$"):
        grad_check(lambda t: scale(t, 2.0), x)


def test_the_shape_refusals_name_the_shape():
    with pytest.raises(ValueError, match=r"^softmax: axis -1 of shape \(2, 0\) is empty$"):
        softmax(Tensor(np.zeros((2, 0))))
    with pytest.raises(ValueError, match=r"^embedding_lookup: table must be 2-D, got \(4,\)$"):
        embedding_lookup(Tensor(np.zeros(4)), [0])
    with pytest.raises(ValueError, match=r"^cross_entropy: logits must be B x C, got \(3,\)$"):
        cross_entropy(Tensor(np.zeros(3)), [0])


def test_a_tensor_shows_its_shape_and_whether_it_takes_gradient():
    assert repr(Tensor(np.zeros((2, 3)))) == "Tensor(shape=(2, 3))"
    assert repr(Tensor(np.zeros(2), requires_grad=True)) == "Tensor(shape=(2,), requires_grad=True)"


ACTIVATION = (8, 48, 64)


@pytest.mark.parametrize("op, bound", [
    (lambda x, rng: layer_norm(x, Tensor(rng.normal(size=ACTIVATION[-1:]), requires_grad=True),
                               Tensor(rng.normal(size=ACTIVATION[-1:]), requires_grad=True)),
     5.0),
    (lambda x, rng: softmax(x, axis=-1), 2.5),
], ids=["layer_norm", "softmax"])
def test_a_rule_allocates_few_buffers_of_its_input(op, bound):
    # tracemalloc sees numpy's buffers: the peak of one forward and one
    # backward call, in multiples of the float32 activation's bytes
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=ACTIVATION), requires_grad=True)
    g = rng.normal(size=ACTIVATION).astype(np.float32)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = op(x, rng)
        grads = out.node.backward_fn(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grads[0].shape == ACTIVATION
    assert (peak - start) / x.data.nbytes <= bound
