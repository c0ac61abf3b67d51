"""Pooling operators and task heads."""

import importlib
import math

import numpy as np
import pytest

import trihead.pooling
from trihead.autograd import Tensor, cross_entropy, grad_check, softmax
from trihead.encoder import EncoderConfig
from trihead.metrics import TASKS
from trihead.pooling import (
    attention_pool,
    attention_weights,
    logits_for,
    mean_pool,
    predict_labels,
)
from trihead.textpipe import EncodedBatch
from trihead.train import forward_logits, init_model_params

# trihead.train is also the name of a function, so import the module
TRAIN_MODULE = importlib.import_module("trihead.train")


def rand_h(b, l, d, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=(b, l, d)), dtype=dtype)


def mask_of(rows, l):
    m = np.zeros((len(rows), l), dtype=np.int64)
    for i, n in enumerate(rows):
        m[i, :n] = 1
    return m


# ---------------------------------------------------------------------------
# mean pooling


def test_mean_pool_hand_average():
    h = Tensor(np.array([[[1.0, 3.0], [3.0, 5.0]]]))
    out = mean_pool(h, np.array([[1, 1]]))
    np.testing.assert_allclose(out.data, [[2.0, 4.0]])


def test_mean_pool_single_token_passthrough():
    h = rand_h(1, 4, 8, seed=1)
    out = mean_pool(h, mask_of([1], 4))
    assert np.array_equal(out.data, h.data[:, 0, :])


def test_mean_pool_ignores_padding_values():
    h = rand_h(2, 5, 4, seed=2)
    mask = mask_of([3, 2], 5)
    base = mean_pool(h, mask).data
    noisy = h.data.copy()
    noisy[mask == 0] = 1e6
    out = mean_pool(Tensor(noisy), mask).data
    assert np.array_equal(base, out)


def test_mean_pool_rejects_all_masked_row():
    with pytest.raises(ValueError, match="fully masked"):
        mean_pool(rand_h(1, 3, 4), np.zeros((1, 3), dtype=np.int64))


def test_mean_pool_rejects_mask_shape_mismatch():
    with pytest.raises(ValueError, match="mask shape"):
        mean_pool(rand_h(2, 3, 4), np.ones((2, 5), dtype=np.int64))


# ---------------------------------------------------------------------------
# attention pooling


def zero_query_params(d, dtype=np.float32):
    return Tensor(np.zeros(d), dtype=dtype), Tensor(np.eye(d), dtype=dtype)


def fresh_table(d_model, pooler="attention"):
    config = EncoderConfig(vocab_size=10, d_model=d_model, n_layers=1, n_heads=1,
                           d_ff=2 * d_model, max_len=8)
    return init_model_params(config, pooler, 0)


def test_zero_query_identity_projection_equals_mean_pool():
    h = rand_h(3, 6, 8, seed=3)
    mask = mask_of([6, 4, 1], 6)
    att = attention_pool(h, mask, *zero_query_params(8)).data
    mean = mean_pool(h, mask).data
    # same arithmetic path by construction: digit-for-digit equal
    assert np.array_equal(att, mean)


def test_fresh_pooler_starts_as_mean_pool():
    table = fresh_table(8)
    q, w_h = table["pooler.q"], table["pooler.w_h"]
    h = rand_h(2, 5, 8, seed=4)
    mask = mask_of([5, 2], 5)
    assert np.array_equal(attention_pool(h, mask, q, w_h).data, mean_pool(h, mask).data)


def test_singleton_row_returns_cls_state_for_any_query():
    d = 6
    rng = np.random.default_rng(5)
    h = rand_h(1, 4, d, seed=5)
    mask = mask_of([1], 4)
    out = attention_pool(h, mask, Tensor(rng.normal(size=d)), Tensor(np.eye(d)))
    assert np.array_equal(out.data, h.data[:, 0, :])


def test_alpha_is_a_masked_distribution():
    h = rand_h(1, 3, 4, seed=6)
    mask = np.array([[1, 1, 0]])
    alpha = attention_weights(h, mask, Tensor(np.random.default_rng(7).normal(size=4)))
    assert alpha.shape == (1, 3)
    assert (alpha >= 0).all()
    np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-6)
    assert alpha[0, 2] == 0.0


def test_permuting_unmasked_positions_permutes_alpha_and_keeps_output():
    d = 8
    h = rand_h(1, 5, d, seed=8, dtype=np.float64)
    mask = mask_of([4], 5)
    rng = np.random.default_rng(9)
    q = Tensor(rng.normal(size=d), dtype=np.float64)
    w_h = Tensor(rng.normal(size=(d, d)), dtype=np.float64)
    base_alpha = attention_weights(h, mask, q)
    base_out = attention_pool(h, mask, q, w_h).data
    perm = [2, 0, 3, 1, 4]  # shuffles the unmasked prefix only
    hp = Tensor(h.data[:, perm, :], dtype=np.float64)
    alpha_p = attention_weights(hp, mask, q)
    np.testing.assert_allclose(alpha_p, base_alpha[:, perm], atol=1e-12)
    np.testing.assert_allclose(attention_pool(hp, mask, q, w_h).data, base_out, atol=1e-12)


def test_scaling_query_sharpens_attention():
    def entropy(a):
        nz = a[a > 0]
        return float(-(nz * np.log(nz)).sum())

    d = 8
    rng = np.random.default_rng(10)
    h = rand_h(1, 6, d, seed=11, dtype=np.float64)
    mask = np.ones((1, 6), dtype=np.int64)
    q = rng.normal(size=d)
    prev = None
    for c in [0.5, 1.0, 2.0, 4.0, 8.0]:
        e = entropy(attention_weights(h, mask, Tensor(c * q, dtype=np.float64))[0])
        if prev is not None:
            assert e <= prev + 1e-12
        prev = e


def test_attention_pool_dropout_only_in_train_mode(monkeypatch):
    # the pooled-vector dropout sits in forward_logits, after either pooler
    config = EncoderConfig(vocab_size=10, d_model=8, n_layers=1, n_heads=2, d_ff=16,
                           max_len=4, dropout_p=0.5)
    batch = EncodedBatch(token_ids=np.array([[2, 5, 6, 7], [2, 8, 9, 0]]),
                         attention_mask=mask_of([4, 3], 4))
    for pooler, pool_fn in (("attention", "attention_pool"), ("mean", "mean_pool")):
        seen = {}

        def spy(*args, name=pool_fn):
            seen["pool"] = getattr(trihead.pooling, name)(*args)
            return seen["pool"]

        def heads(pooled, w, b):
            seen["heads"] = pooled
            return logits_for(pooled, w, b)

        monkeypatch.setattr(TRAIN_MODULE, pool_fn, spy)
        monkeypatch.setattr(TRAIN_MODULE, "logits_for", heads)
        params = init_model_params(config, pooler, 0)
        forward_logits(params, config, pooler, batch, mode="eval")
        assert seen["heads"] is seen["pool"]
        forward_logits(params, config, pooler, batch, mode="train",
                       rng=np.random.default_rng(0))
        pooled, dropped = seen["pool"].data, seen["heads"].data
        assert (dropped == 0).any()
        kept = dropped != 0
        np.testing.assert_allclose(dropped[kept], 2.0 * pooled[kept], rtol=1e-6)


def test_attention_pool_rejects_all_masked_row():
    with pytest.raises(ValueError, match="fully masked"):
        attention_pool(rand_h(1, 3, 4), np.zeros((1, 3), dtype=np.int64),
                       *zero_query_params(4))


# ---------------------------------------------------------------------------
# heads


def probabilities(pooled, table):
    return {t: softmax(logits_for(pooled, table[f"heads.{t}.w"], table[f"heads.{t}.b"]),
                       axis=-1)
            for t in TASKS}


def test_zero_init_heads_give_uniform_probabilities():
    table = fresh_table(8)
    pooled = rand_h(3, 1, 8, seed=13)
    probs = probabilities(Tensor(pooled.data[:, 0, :]), table)
    np.testing.assert_allclose(probs["aggression"].data, 1.0 / 3.0, atol=1e-7)
    np.testing.assert_allclose(probs["gender"].data, 0.5, atol=1e-7)
    np.testing.assert_allclose(probs["communal"].data, 0.5, atol=1e-7)


def test_probability_rows_sum_to_one():
    rng = np.random.default_rng(14)
    table = fresh_table(6)
    for task in TASKS:
        w = table[f"heads.{task}.w"]
        w.data[:] = rng.normal(size=w.shape).astype(np.float32)
    probs = probabilities(Tensor(rng.normal(size=(5, 6))), table)
    for task in TASKS:
        np.testing.assert_allclose(probs[task].data.sum(axis=-1), 1.0, atol=1e-6)


def test_bias_dominance_forces_first_class():
    table = fresh_table(4)
    table["heads.aggression.b"].data[:] = np.array([10.0, 0.0, 0.0], dtype=np.float32)
    pooled = Tensor(np.random.default_rng(15).normal(size=(6, 4)))
    labels = predict_labels(probabilities(pooled, table))
    assert all(t[0] == "NAG" for t in labels)


def test_tie_breaks_to_lowest_class_index():
    table = fresh_table(4)  # all-zero heads: every class tied
    labels = predict_labels(probabilities(Tensor(np.zeros((2, 4))), table))
    assert labels == [("NAG", "NGEN", "NCOM")] * 2


def test_model_table_tail_order_and_shapes():
    # the checkpoint writes its blobs in table order
    heads = [
        ("heads.aggression.w", (8, 3)), ("heads.aggression.b", (3,)),
        ("heads.gender.w", (8, 2)), ("heads.gender.b", (2,)),
        ("heads.communal.w", (8, 2)), ("heads.communal.b", (2,)),
    ]
    for pooler, tail in (("attention", [("pooler.q", (8,)), ("pooler.w_h", (8, 8))] + heads),
                         ("mean", heads)):
        entries = [(name, t.shape) for name, t in fresh_table(8, pooler).items()]
        assert entries[-len(tail):] == tail
        assert entries[-len(tail) - 1][0].startswith("encoder.")


# ---------------------------------------------------------------------------
# gradients through pool + head + loss


def test_grad_check_attention_pool_classify_chain():
    d, b, l = 6, 2, 4
    rng = np.random.default_rng(16)
    h0 = rng.normal(size=(b, l, d))
    mask = mask_of([4, 2], l)
    w_h = rng.normal(size=(d, d))
    head_w = rng.normal(size=(d, 3))
    targets = np.array([0, 2])

    def build(q_data, h_data):
        pooled = attention_pool(h_data, mask, q_data, Tensor(w_h, dtype=np.float64))
        logits = logits_for(pooled, Tensor(head_w, dtype=np.float64),
                            Tensor(np.zeros(3), dtype=np.float64))
        return cross_entropy(logits, targets)

    rep_q = grad_check(lambda t: build(t, Tensor(h0, dtype=np.float64)),
                       Tensor(rng.normal(size=d), dtype=np.float64))
    assert rep_q.passed, str(rep_q)

    q_fixed = rng.normal(size=d)
    rep_h = grad_check(lambda t: build(Tensor(q_fixed, dtype=np.float64), t),
                       Tensor(h0, dtype=np.float64))
    assert rep_h.passed, str(rep_h)


def test_grad_check_mean_pool_chain():
    d, b, l = 5, 2, 3
    rng = np.random.default_rng(17)
    mask = mask_of([3, 1], l)
    head_w = rng.normal(size=(d, 2))
    targets = np.array([1, 0])

    def f(t):
        logits = logits_for(mean_pool(t, mask), Tensor(head_w, dtype=np.float64),
                            Tensor(np.zeros(2), dtype=np.float64))
        return cross_entropy(logits, targets)

    report = grad_check(f, Tensor(rng.normal(size=(b, l, d)), dtype=np.float64))
    assert report.passed, str(report)
