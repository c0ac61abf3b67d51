"""Transformer encoder: shapes, masking, determinism, gradients, MLM."""

import numpy as np
import pytest

import trihead.encoder
from trihead.autograd import (
    Tensor,
    add,
    cross_entropy,
    embedding_lookup,
    grad_check,
    matmul,
    reshape,
    softmax,
    transpose,
)
from trihead.encoder import (
    EncoderConfig,
    PretrainSchedule,
    encode_batch,
    init_encoder_params,
    pretrain_mlm,
)
from trihead.errors import ConfigError, DataError
from trihead.textpipe import EncodedBatch, build_vocab


def make_batch(ids_rows, max_len):
    ids = np.full((len(ids_rows), max_len), 0, dtype=np.int64)
    mask = np.zeros((len(ids_rows), max_len), dtype=np.int64)
    for r, row in enumerate(ids_rows):
        ids[r, : len(row)] = row
        mask[r, : len(row)] = 1
    return EncodedBatch(token_ids=ids, attention_mask=mask)


def small_config(**kw):
    base = dict(vocab_size=12, d_model=8, n_layers=1, n_heads=2, d_ff=16,
                max_len=6, dropout_p=0.0)
    base.update(kw)
    return EncoderConfig(**base)


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="divisible"):
        small_config(d_model=9, n_heads=2)
    with pytest.raises(ConfigError, match="dropout_p"):
        small_config(dropout_p=1.0)
    with pytest.raises(ConfigError, match="max_len"):
        small_config(max_len=1)
    with pytest.raises(ConfigError, match="vocab_size"):
        small_config(vocab_size=4)
    with pytest.raises(ConfigError, match="positive"):
        small_config(n_layers=0)


# ---------------------------------------------------------------------------
# forward pass


def test_output_shape():
    config = EncoderConfig(vocab_size=20, d_model=32, n_layers=2, n_heads=2,
                           d_ff=64, max_len=16, dropout_p=0.0)
    params = init_encoder_params(config, seed=0)
    batch = make_batch([[2, 5, 6], [2, 7, 8, 9, 10]], max_len=16)
    h = encode_batch(batch, params, config)
    assert h.shape == (2, 16, 32)


def test_eval_mode_deterministic():
    config = small_config()
    params = init_encoder_params(config, seed=1)
    batch = make_batch([[2, 4, 5], [2, 6]], max_len=6)
    h1 = encode_batch(batch, params, config)
    h2 = encode_batch(batch, params, config)
    assert np.array_equal(h1.data, h2.data)


def test_padding_token_value_cannot_leak():
    config = small_config(n_layers=2)
    params = init_encoder_params(config, seed=2)
    rows = [[2, 4, 5], [2, 6, 7, 8]]
    a = make_batch(rows, max_len=6)
    # same real tokens, garbage ids in the padding slots
    ids = a.token_ids.copy()
    ids[a.attention_mask == 0] = 11
    b = EncodedBatch(token_ids=ids, attention_mask=a.attention_mask)
    ha = encode_batch(a, params, config).data
    hb = encode_batch(b, params, config).data
    real = a.attention_mask == 1
    assert np.array_equal(ha[real], hb[real])


def test_attention_rows_normalized_and_padding_ignored(monkeypatch):
    config = small_config(n_layers=2)
    params = init_encoder_params(config, seed=3)
    batch = make_batch([[2, 4, 5], [2, 6]], max_len=6)
    probs = []

    def capture(x, axis=-1):
        out = softmax(x, axis=axis)
        probs.append(out.data.copy())
        return out

    monkeypatch.setattr(trihead.encoder, "softmax", capture)
    encode_batch(batch, params, config)
    assert len(probs) == config.n_layers
    for layer in probs:
        np.testing.assert_allclose(layer.sum(axis=-1), 1.0, atol=1e-6)
        # no weight lands on padded keys
        padded = batch.attention_mask == 0
        for b in range(batch.batch_size):
            assert layer[b, :, :, padded[b]].max() == 0.0


def test_length_overflow_rejected():
    config = small_config(max_len=4)
    params = init_encoder_params(config, seed=0)
    with pytest.raises(ValueError, match="exceeds max_len"):
        encode_batch(make_batch([[2, 4, 5, 6, 7]], max_len=5), params, config)


def test_out_of_range_token_id_rejected():
    config = small_config()
    params = init_encoder_params(config, seed=0)
    with pytest.raises(IndexError):
        encode_batch(make_batch([[2, 99]], max_len=4), params, config)


def test_train_mode_needs_rng_and_uses_dropout():
    config = small_config(dropout_p=0.3)
    params = init_encoder_params(config, seed=4)
    batch = make_batch([[2, 4, 5]], max_len=4)
    with pytest.raises(ConfigError, match="rng"):
        encode_batch(batch, params, config, mode="train")
    h_train = encode_batch(batch, params, config, mode="train",
                           rng=np.random.default_rng(0))
    h_eval = encode_batch(batch, params, config)
    assert not np.array_equal(h_train.data, h_eval.data)


def test_bad_mode_rejected():
    config = small_config()
    params = init_encoder_params(config, seed=0)
    with pytest.raises(ConfigError, match="mode"):
        encode_batch(make_batch([[2]], max_len=2), params, config, mode="test")


def test_init_is_seed_deterministic():
    config = small_config()
    a = init_encoder_params(config, seed=9)
    b = init_encoder_params(config, seed=9)
    c = init_encoder_params(config, seed=10)
    assert all(np.array_equal(a[k].data, b[k].data) for k in a)
    assert any(not np.array_equal(a[k].data, c[k].data) for k in a)


# ---------------------------------------------------------------------------
# gradients through the full stack


def _mlm_loss_builder(params, name, config, batch, positions, targets):
    def f(t):
        p2 = dict(params)
        p2[name] = t
        h = encode_batch(batch, p2, config, mode="eval")
        b, l, d = h.shape
        rows = embedding_lookup(reshape(h, (b * l, d)), positions)
        logits = add(matmul(rows, transpose(p2["tok_emb"])), p2["mlm_bias"])
        return cross_entropy(logits, targets)

    return f


@pytest.mark.parametrize("name", [
    "tok_emb", "pos_emb",
    "layer0.attn.wq", "layer0.attn.wv", "layer0.attn.bo",
    "layer0.ln1.gamma", "layer0.ffn.w1", "layer0.ffn.b2",
    "ln_f.beta", "mlm_bias",
])
def test_grad_check_through_encoder(name):
    config = small_config()
    params = init_encoder_params(config, seed=5, dtype=np.float64)
    batch = make_batch([[2, 4, 5, 6], [2, 7, 8]], max_len=6)
    positions = np.array([1, 2, 7])  # flat B*L indices of real tokens
    targets = np.array([4, 5, 7])
    f = _mlm_loss_builder(params, name, config, batch, positions, targets)
    report = grad_check(f, Tensor(params[name].data.copy(), dtype=np.float64))
    assert report.passed, f"{name}: {report}"


# ---------------------------------------------------------------------------
# masked-token pretraining


CORPUS = [
    "ami bhalo achi",
    "tumi kemon acho",
    "khub kharap katha",
    "bhalo katha bolo",
    "ami tomake chini",
    "kemon achi ami",
]


def test_pretrain_loss_drops():
    vocab = build_vocab(CORPUS, target_size=80)
    config = EncoderConfig(vocab_size=vocab.size, d_model=16, n_layers=1,
                           n_heads=2, d_ff=32, max_len=8, dropout_p=0.1)
    schedule = PretrainSchedule(steps=60, batch_size=4, base_lr=3e-3, seed=0)
    params, losses = pretrain_mlm(CORPUS, vocab, config, schedule)
    assert len(losses) == 60
    assert all(np.isfinite(losses))
    assert np.mean(losses[-10:]) < losses[0]


def test_pretrain_trace_is_seed_deterministic():
    vocab = build_vocab(CORPUS, target_size=80)
    config = EncoderConfig(vocab_size=vocab.size, d_model=8, n_layers=1,
                           n_heads=2, d_ff=16, max_len=8, dropout_p=0.2)
    schedule = PretrainSchedule(steps=8, batch_size=4, base_lr=1e-3, seed=7)
    p1, t1 = pretrain_mlm(CORPUS, vocab, config, schedule)
    p2, t2 = pretrain_mlm(CORPUS, vocab, config, schedule)
    assert t1 == t2
    assert all(np.array_equal(p1[k].data, p2[k].data) for k in p1)


def test_pretrain_rejects_unmaskable_corpus():
    vocab = build_vocab(["a"], target_size=8)
    config = small_config(vocab_size=vocab.size)
    # every encodable token in "" is special; no positions to hide
    with pytest.raises(DataError, match="maskable"):
        pretrain_mlm([""], vocab, config, PretrainSchedule(steps=1))


def test_pretrain_rejects_zero_mask_rate():
    with pytest.raises(ConfigError, match="mask_rate"):
        PretrainSchedule(mask_rate=0.0)


def test_pretrain_rejects_empty_corpus():
    vocab = build_vocab(["a"], target_size=8)
    with pytest.raises(DataError, match="empty"):
        pretrain_mlm([], vocab, small_config(vocab_size=vocab.size), PretrainSchedule())
