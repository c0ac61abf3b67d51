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
    linear,
    matmul,
    merge_heads,
    reshape,
    scale,
    softmax,
    split_heads,
    transpose,
)
from .errors import ConfigError, DataError, DivergenceError, NonFiniteError
from .optim import AdamW, lr_at, optimizer_step
from .textpipe import EncodedBatch, Vocab, batch_encode

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
        for field in ("d_model", "n_layers", "n_heads", "d_ff"):
            if getattr(self, field) < 1:
                raise ConfigError(f"{field} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.max_len < 2:
            raise ConfigError(f"max_len must be at least 2, got {self.max_len}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0, 1), got {self.dropout_p}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


def param_specs(config: EncoderConfig):
    """(name, shape, fill) for every encoder parameter, in checkpoint blob
    order; fill is 'normal' (N(0, 0.02)), 'zeros', 'ones' or 'eye'. The one
    declaration of the table: init_encoder_params fills it, and
    load_checkpoint checks a header against it without allocating."""
    d, ff = config.d_model, config.d_ff
    yield "tok_emb", (config.vocab_size, d), "normal"
    yield "pos_emb", (config.max_len, d), "normal"
    for i in range(config.n_layers):
        p = f"layer{i}."
        yield p + "ln1.gamma", (d,), "ones"
        yield p + "ln1.beta", (d,), "zeros"
        for x in "qkvo":
            yield p + f"attn.w{x}", (d, d), "normal"
            yield p + f"attn.b{x}", (d,), "zeros"
        yield p + "ln2.gamma", (d,), "ones"
        yield p + "ln2.beta", (d,), "zeros"
        yield p + "ffn.w1", (d, ff), "normal"
        yield p + "ffn.b1", (ff,), "zeros"
        yield p + "ffn.w2", (ff, d), "normal"
        yield p + "ffn.b2", (d,), "zeros"
    yield "ln_f.gamma", (d,), "ones"
    yield "ln_f.beta", (d,), "zeros"
    yield "mlm_bias", (config.vocab_size,), "zeros"


def fill_params(specs, seed, dtype=np.float32) -> dict:
    """Fresh name → Tensor table for (name, shape, fill) specs; the normal
    draws come from one generator in spec order. seed may be an int or a
    SeedSequence. A parameter too large to allocate is a ConfigError naming
    it and its shape."""
    rng = np.random.default_rng(seed)
    fills = {"normal": lambda shape: rng.normal(0.0, 0.02, shape),
             "zeros": np.zeros, "ones": np.ones, "eye": lambda shape: np.eye(shape[0])}
    table = {}
    for name, shape, fill in specs:
        try:
            table[name] = Tensor(fills[fill](shape), requires_grad=True, dtype=dtype)
        except MemoryError:
            raise ConfigError(f"parameter {name!r} of shape {shape} does not fit "
                              "in memory") from None
    return table


def init_encoder_params(config: EncoderConfig, seed, dtype=np.float32) -> dict:
    """Fresh encoder table in param_specs order: N(0, 0.02) weights,
    standard layer-norm affines, zero biases."""
    return fill_params(param_specs(config), seed, dtype)


def _attention(x, mask_bias, params, prefix, config):
    q, k, v = (split_heads(linear(x, params[prefix + "w" + n], params[prefix + "b" + n]),
                           config.n_heads) for n in "qkv")
    scores = scale(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(config.d_head))
    probs = softmax(add(scores, mask_bias), axis=-1)
    ctx = merge_heads(matmul(probs, v))
    return linear(ctx, params[prefix + "wo"], params[prefix + "bo"])


def encode_batch(batch: EncodedBatch, params: dict, config: EncoderConfig,
                 mode: str = "eval", rng=None):
    """Run the stack; returns H of shape B×L×d.

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

    for i in range(config.n_layers):
        p = f"layer{i}."
        h = layer_norm(x, params[p + "ln1.gamma"], params[p + "ln1.beta"])
        attn = _attention(h, mask_bias, params, p + "attn.", config)
        attn = dropout(attn, config.dropout_p, training=training, rng=rng)
        x = add(x, attn)
        h2 = layer_norm(x, params[p + "ln2.gamma"], params[p + "ln2.beta"])
        ff = gelu(linear(h2, params[p + "ffn.w1"], params[p + "ffn.b1"]))
        ff = linear(ff, params[p + "ffn.w2"], params[p + "ffn.b2"])
        ff = dropout(ff, config.dropout_p, training=training, rng=rng)
        x = add(x, ff)
    return layer_norm(x, params["ln_f.gamma"], params["ln_f.beta"])


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
        if not 0 < self.base_lr < np.inf:
            raise ConfigError(f"base_lr must be positive and finite, got {self.base_lr}")


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
            logits = linear(rows, transpose(params["tok_emb"]), params["mlm_bias"])
            loss = cross_entropy(logits, targets)
        except NonFiniteError:
            # activations blew up before the loss could; same disease
            raise DivergenceError(step) from None
        losses.append(optimizer_step(opt, loss, step, lr_at(step, schedule.steps, schedule)))
    return params, losses
