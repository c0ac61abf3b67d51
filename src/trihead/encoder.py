"""Pre-norm transformer encoder and a small masked-token pretraining loop.

The encoder is deliberately tiny: a couple of layers over learned token
and position embeddings, sized to train from scratch on a desk in
seconds. pretrain_mlm gives it the usual warm start by hiding a fraction
of the tokens and training the stack to recover them, with the output
projection tied to the token embedding table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import (
    Tensor,
    add,
    cross_entropy,
    dropout,
    embedding_lookup,
    gelu,
    layer_norm,
    matmul,
    reshape,
    scale,
    softmax,
    transpose,
)
from .errors import ConfigError, DataError, DivergenceError, NonFiniteError
from .optim import AdamW, lr_at, optimizer_step
from .textpipe import CLS_ID, EncodedBatch, Vocab, batch_encode

NEG_INF = -1e9
_N_SPECIAL = 4  # [PAD] [UNK] [CLS] [SEP]


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 2
    d_ff: int = 128
    max_len: int = 48
    dropout_p: float = 0.3

    def __post_init__(self):
        if self.vocab_size < _N_SPECIAL + 1:
            raise ConfigError(f"vocab_size must exceed the {_N_SPECIAL} reserved ids")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.max_len < 2:
            raise ConfigError(f"max_len must be at least 2, got {self.max_len}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        for field in ("d_model", "n_layers", "n_heads", "d_ff"):
            if getattr(self, field) < 1:
                raise ConfigError(f"{field} must be positive")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


def init_encoder_params(config: EncoderConfig, seed, dtype=np.float32) -> dict:
    """Fresh parameter table, name → Tensor; N(0, 0.02) weights, standard
    layer-norm affines, zero biases. Names are stable and ordered. seed may
    be an int or a SeedSequence."""
    rng = np.random.default_rng(seed)
    std = 0.02

    def w(*shape):
        return Tensor(rng.normal(0.0, std, shape), requires_grad=True, dtype=dtype)

    def zeros(*shape):
        return Tensor(np.zeros(shape), requires_grad=True, dtype=dtype)

    def ones(*shape):
        return Tensor(np.ones(shape), requires_grad=True, dtype=dtype)

    d, ff = config.d_model, config.d_ff
    params: dict[str, Tensor] = {
        "tok_emb": w(config.vocab_size, d),
        "pos_emb": w(config.max_len, d),
    }
    for i in range(config.n_layers):
        p = f"layer{i}."
        params[p + "ln1.gamma"] = ones(d)
        params[p + "ln1.beta"] = zeros(d)
        params[p + "attn.wq"] = w(d, d)
        params[p + "attn.bq"] = zeros(d)
        params[p + "attn.wk"] = w(d, d)
        params[p + "attn.bk"] = zeros(d)
        params[p + "attn.wv"] = w(d, d)
        params[p + "attn.bv"] = zeros(d)
        params[p + "attn.wo"] = w(d, d)
        params[p + "attn.bo"] = zeros(d)
        params[p + "ln2.gamma"] = ones(d)
        params[p + "ln2.beta"] = zeros(d)
        params[p + "ffn.w1"] = w(d, ff)
        params[p + "ffn.b1"] = zeros(ff)
        params[p + "ffn.w2"] = w(ff, d)
        params[p + "ffn.b2"] = zeros(d)
    params["ln_f.gamma"] = ones(d)
    params["ln_f.beta"] = zeros(d)
    params["mlm_bias"] = zeros(config.vocab_size)
    return params


def _attention(x, mask_bias, params, prefix, config, collect):
    b, l, d = x.shape
    nh, dh = config.n_heads, config.d_head

    def proj(name):
        flat = matmul(reshape(x, (b * l, d)), params[prefix + "w" + name])
        flat = add(flat, params[prefix + "b" + name])
        # (B, L, nh, dh) -> (B, nh, L, dh)
        return transpose(reshape(flat, (b, l, nh, dh)), (0, 2, 1, 3))

    q, k, v = proj("q"), proj("k"), proj("v")
    scores = scale(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    scores = add(scores, mask_bias)
    probs = softmax(scores, axis=-1)
    if collect is not None:
        collect.append(probs.data.copy())
    ctx = matmul(probs, v)  # (B, nh, L, dh)
    ctx = reshape(transpose(ctx, (0, 2, 1, 3)), (b * l, d))
    out = add(matmul(ctx, params[prefix + "wo"]), params[prefix + "bo"])
    return reshape(out, (b, l, d))


def encode_batch(batch: EncodedBatch, params: dict, config: EncoderConfig,
                 mode: str = "eval", rng=None, return_attention: bool = False):
    """Run the stack; returns H of shape B×L×d (and per-layer attention
    probabilities, detached, when asked).

    Padded key positions get a large negative score bias, so unmasked
    positions never attend to padding. Dropout fires only in train mode.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    ids, mask = batch.token_ids, batch.attention_mask
    b, l = ids.shape
    if l > config.max_len:
        raise ValueError(f"batch length {l} exceeds max_len {config.max_len}")
    if ids.max() >= config.vocab_size:
        raise IndexError(f"token id {ids.max()} out of range [0, {config.vocab_size})")
    training = mode == "train"
    if training and config.dropout_p > 0.0 and rng is None:
        raise ConfigError("train-mode encode_batch needs an rng for dropout")

    pos = embedding_lookup(params["pos_emb"], np.arange(l))
    x = add(embedding_lookup(params["tok_emb"], ids), pos)
    x = dropout(x, config.dropout_p, training=training, rng=rng)

    # keys at padded positions are pushed to -1e9 before softmax
    bias = ((1 - mask) * NEG_INF).astype(x.dtype).reshape(b, 1, 1, l)
    mask_bias = Tensor(bias, dtype=x.dtype)

    collected = [] if return_attention else None
    for i in range(config.n_layers):
        p = f"layer{i}."
        h = layer_norm(x, params[p + "ln1.gamma"], params[p + "ln1.beta"])
        attn = _attention(h, mask_bias, params, p + "attn.", config, collected)
        attn = dropout(attn, config.dropout_p, training=training, rng=rng)
        x = add(x, attn)
        h2 = layer_norm(x, params[p + "ln2.gamma"], params[p + "ln2.beta"])
        flat = reshape(h2, (b * l, config.d_model))
        ff = add(matmul(flat, params[p + "ffn.w1"]), params[p + "ffn.b1"])
        ff = add(matmul(gelu(ff), params[p + "ffn.w2"]), params[p + "ffn.b2"])
        ff = dropout(reshape(ff, (b, l, config.d_model)), config.dropout_p,
                     training=training, rng=rng)
        x = add(x, ff)
    h_final = layer_norm(x, params["ln_f.gamma"], params["ln_f.beta"])
    if return_attention:
        return h_final, collected
    return h_final


# ---------------------------------------------------------------------------
# masked-token pretraining


@dataclass(frozen=True)
class PretrainSchedule:
    steps: int = 300
    batch_size: int = 8
    base_lr: float = 1e-3
    warmup_steps: int = 0
    mask_rate: float = 0.15
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 1:
            raise ConfigError("steps and batch_size must be positive")
        if not 0.0 < self.mask_rate <= 1.0:
            raise ConfigError(f"mask_rate must be in (0, 1], got {self.mask_rate}")
        if self.base_lr <= 0:
            raise ConfigError("base_lr must be positive")


def _mask_tokens(ids, mask, rate, vocab_size, rng):
    """Standard recipe: pick ~rate of the real, non-special tokens; of the
    picked, 80% become the mask id ([UNK] doubles as mask), 10% a random
    ordinary id, 10% stay. Returns (corrupted ids, flat positions, targets)."""
    b, l = ids.shape
    corrupted = ids.copy()
    positions, targets = [], []
    for row in range(b):
        cand = np.flatnonzero((mask[row] == 1) & (ids[row] >= _N_SPECIAL))
        if cand.size == 0:
            continue
        k = max(1, int(round(rate * cand.size)))
        chosen = rng.choice(cand, size=k, replace=False)
        for col in chosen:
            positions.append(row * l + col)
            targets.append(ids[row, col])
            roll = rng.random()
            if roll < 0.8:
                corrupted[row, col] = 1  # [UNK] serves as the mask token
            elif roll < 0.9:
                corrupted[row, col] = rng.integers(_N_SPECIAL, vocab_size)
    return corrupted, np.asarray(positions), np.asarray(targets, dtype=np.int64)


def pretrain_mlm(corpus, vocab: Vocab, config: EncoderConfig,
                 schedule: PretrainSchedule):
    """Train fresh encoder parameters to recover hidden tokens.

    Returns (params, losses) where losses is the per-step trace. Sentences
    with no maskable token are dropped; an entirely unmaskable corpus is an
    input error. A non-finite loss, activation or gradient norm raises
    DivergenceError with its step.
    """
    corpus = list(corpus)
    if not corpus:
        raise DataError("pretrain_mlm: empty corpus")
    encoded = batch_encode(corpus, vocab, config.max_len)
    maskable = (encoded.attention_mask == 1) & (encoded.token_ids >= _N_SPECIAL)
    keep = np.flatnonzero(maskable.any(axis=1))
    if keep.size == 0:
        raise DataError("pretrain_mlm: corpus has no maskable tokens")
    all_ids = encoded.token_ids[keep]
    all_mask = encoded.attention_mask[keep]

    root = np.random.SeedSequence(schedule.seed)
    ss_init, ss_steps = root.spawn(2)
    params = init_encoder_params(config, seed=ss_init)
    rng = np.random.default_rng(ss_steps)
    opt = AdamW(params)

    losses = []
    for step in range(schedule.steps):
        pick = rng.integers(0, len(all_ids), size=min(schedule.batch_size, len(all_ids)))
        ids = all_ids[pick]
        mask = all_mask[pick]
        # every kept row has a candidate, so positions is never empty
        corrupted, positions, targets = _mask_tokens(
            ids, mask, schedule.mask_rate, config.vocab_size, rng
        )
        batch = EncodedBatch(token_ids=corrupted, attention_mask=mask)
        try:
            h = encode_batch(batch, params, config, mode="train", rng=rng)
            b, l, d = h.shape
            rows = embedding_lookup(reshape(h, (b * l, d)), positions)
            logits = add(matmul(rows, transpose(params["tok_emb"])), params["mlm_bias"])
            loss = cross_entropy(logits, targets)
        except NonFiniteError:
            # activations blew up before the loss could; same disease
            raise DivergenceError(step) from None
        losses.append(optimizer_step(opt, loss, step, lr_at(step, schedule.steps, schedule)))
    return params, losses
