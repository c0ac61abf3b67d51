"""Pre-norm transformer encoder and a small masked-token pretraining loop.

The encoder is deliberately tiny: a couple of layers over learned token
and position embeddings, sized to train from scratch on a desk in
seconds. pretrain_mlm gives it the usual warm start by hiding a fraction
of the tokens and training the stack to recover them, with the output
projection tied to the token embedding table.
"""

from __future__ import annotations

import math
import os
import resource
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
from .errors import ConfigError, DataError
from .optim import AdamW, check_schedule, check_warmup, run_steps
from .textpipe import RESERVED, UNK_ID, EncodedBatch, Vocab, batch_encode

NEG_INF = -1e9


def key_mask_bias(mask: np.ndarray, dtype) -> Tensor:
    """Score bias for attention over keys: 0 where mask is 1, NEG_INF at
    padding, so a softmax gives padded keys effectively zero weight."""
    return Tensor((1 - mask) * NEG_INF, dtype=dtype)


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
        if self.vocab_size < len(RESERVED) + 1:
            raise ConfigError(f"vocab_size must exceed the {len(RESERVED)} reserved ids")
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


def check_vocab(config: EncoderConfig, vocab: Vocab) -> None:
    """An encoder's embedding table has one row per vocabulary token."""
    if config.vocab_size != vocab.size:
        raise ConfigError(f"encoder config says vocab_size {config.vocab_size}, "
                          f"vocabulary has {vocab.size} tokens")


def param_specs(config: EncoderConfig):
    """(name, shape, fill) for every encoder parameter, in checkpoint blob
    order; fill is 'normal' (N(0, 0.02)), 'zeros', 'ones' or 'eye'. The one
    declaration of the 'encoder.*' table a model's table starts with:
    init_encoder_params fills it, load_checkpoint checks a header against it."""
    d, ff = config.d_model, config.d_ff
    yield "encoder.tok_emb", (config.vocab_size, d), "normal"
    yield "encoder.pos_emb", (config.max_len, d), "normal"
    for i in range(config.n_layers):
        p = f"encoder.layer{i}."
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
    yield "encoder.ln_f.gamma", (d,), "ones"
    yield "encoder.ln_f.beta", (d,), "zeros"
    yield "encoder.mlm_bias", (config.vocab_size,), "zeros"


def _memory_bytes() -> int:
    """What this process can hold: physical memory, or RLIMIT_AS if lower."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    cap = resource.getrlimit(resource.RLIMIT_AS)[0]
    return physical if cap == resource.RLIM_INFINITY else min(physical, cap)


def fill_params(config: EncoderConfig, specs, seed) -> dict:
    """Fresh float32 name → Tensor table for config's (name, shape, fill)
    specs; the normal draws come from one generator in spec order. seed may
    be an int or a SeedSequence. The training state's bytes (the table,
    its gradients, and AdamW's flat buffers: gathered gradients, two
    moments and the float64 squares, which count as two float32 copies and
    double as the update's scratch) are summed before anything is
    allocated: a state this process cannot hold is a ConfigError naming the
    parameter where it overflows, the running total and config."""
    walked, total, limit = [], 0, _memory_bytes()
    for name, shape, fill in specs:
        total += 7 * math.prod(shape) * np.dtype(np.float32).itemsize
        if total > limit:
            raise ConfigError(f"parameter {name!r} of shape {shape} does not fit in memory: "
                              f"the training state (parameters, gradients, AdamW's flat "
                              f"gradient, moment and float64 square buffers) of "
                              f"{config} reaches {total / 2**30:.1f} GiB there, past the "
                              f"{limit / 2**30:.1f} GiB this process can hold")
        walked.append((name, shape, fill))
    rng = np.random.default_rng(seed)
    fills = {"normal": lambda shape: rng.normal(0.0, 0.02, shape),
             "zeros": np.zeros, "ones": np.ones, "eye": lambda shape: np.eye(shape[0])}
    return {name: Tensor(fills[fill](shape), requires_grad=True)
            for name, shape, fill in walked}


def init_encoder_params(config: EncoderConfig, seed) -> dict:
    """Fresh encoder table in param_specs order: N(0, 0.02) weights,
    standard layer-norm affines, zero biases."""
    return fill_params(config, param_specs(config), seed)


def _attention(x, mask_bias, params, prefix, config):
    q, k, v = (split_heads(linear(x, params[prefix + "w" + n], params[prefix + "b" + n]),
                           config.n_heads) for n in "qkv")
    scores = scale(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(config.d_head))
    probs = softmax(add(scores, mask_bias), axis=-1)
    ctx = merge_heads(matmul(probs, v))
    return linear(ctx, params[prefix + "wo"], params[prefix + "bo"])


def encode_batch(batch: EncodedBatch, params: dict, config: EncoderConfig,
                 mode: str = "eval", rng=None):
    """Run the stack; returns H of shape B×L×d, for any L up to max_len.

    Padded key positions get a large negative score bias, so unmasked
    positions never attend to padding. Dropout fires only in train mode,
    where rng draws its 1 + 2·n_layers masks at the batch's own B×L×d.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    ids, mask = batch.token_ids, batch.attention_mask
    b, l = ids.shape
    if l > config.max_len:
        raise ValueError(f"batch length {l} exceeds max_len {config.max_len}")
    training = mode == "train"

    pos = embedding_lookup(params["encoder.pos_emb"], np.arange(l))
    x = add(embedding_lookup(params["encoder.tok_emb"], ids), pos)
    x = dropout(x, config.dropout_p, training=training, rng=rng)

    mask_bias = key_mask_bias(mask.reshape(b, 1, 1, l), x.dtype)

    for i in range(config.n_layers):
        p = f"encoder.layer{i}."
        h = layer_norm(x, params[p + "ln1.gamma"], params[p + "ln1.beta"])
        attn = _attention(h, mask_bias, params, p + "attn.", config)
        attn = dropout(attn, config.dropout_p, training=training, rng=rng)
        x = add(x, attn)
        h2 = layer_norm(x, params[p + "ln2.gamma"], params[p + "ln2.beta"])
        ff = gelu(linear(h2, params[p + "ffn.w1"], params[p + "ffn.b1"]))
        ff = linear(ff, params[p + "ffn.w2"], params[p + "ffn.b2"])
        ff = dropout(ff, config.dropout_p, training=training, rng=rng)
        x = add(x, ff)
    return layer_norm(x, params["encoder.ln_f.gamma"], params["encoder.ln_f.beta"])


# ---------------------------------------------------------------------------
# masked-token pretraining


@dataclass(frozen=True)
class PretrainSchedule:
    steps: int = 300
    batch_size: int = 8
    base_lr: float = 1e-3
    warmup_steps: int = 0
    mask_rate: float = 0.15
    seed: int = 42

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        check_schedule(self)
        check_warmup(self.warmup_steps, self.steps)
        if not 0.0 < self.mask_rate <= 1.0:
            raise ConfigError(f"mask_rate must be in (0, 1], got {self.mask_rate}")


def _mask_tokens(ids, mask, rate, vocab_size, rng):
    """Standard recipe: pick ~rate of the real, non-special tokens; of the
    picked, 80% become the mask id ([UNK] doubles as mask), 10% a random
    ordinary id, 10% stay. Returns (corrupted ids, flat positions, targets)."""
    b, l = ids.shape
    corrupted = ids.copy()
    positions, targets = [], []
    for row in range(b):
        cand = np.flatnonzero((mask[row] == 1) & (ids[row] >= len(RESERVED)))
        k = max(1, int(round(rate * cand.size)))
        chosen = rng.choice(cand, size=k, replace=False)
        for col in chosen:
            positions.append(row * l + col)
            targets.append(ids[row, col])
            roll = rng.random()
            if roll < 0.8:
                corrupted[row, col] = UNK_ID  # [UNK] serves as the mask token
            elif roll < 0.9:
                corrupted[row, col] = rng.integers(len(RESERVED), vocab_size)
    return corrupted, np.asarray(positions), np.asarray(targets, dtype=np.int64)


def pretrain_mlm(corpus, vocab: Vocab, config: EncoderConfig,
                 schedule: PretrainSchedule):
    """Train fresh encoder parameters to recover hidden tokens.

    Returns (params, losses) where losses is the per-step trace. Sentences
    with no maskable token are dropped; an entirely unmaskable corpus is an
    input error. A non-finite loss, activation or gradient norm raises
    DivergenceError with its step.
    """
    check_vocab(config, vocab)
    corpus = list(corpus)
    if not corpus:
        raise DataError("pretrain_mlm: empty corpus")
    encoded = batch_encode(corpus, vocab, config.max_len)
    maskable = (encoded.attention_mask == 1) & (encoded.token_ids >= len(RESERVED))
    keep = np.flatnonzero(maskable.any(axis=1))
    if keep.size == 0:
        raise DataError("pretrain_mlm: corpus has no maskable tokens")
    encoded = encoded.cut(keep)
    n = len(keep)

    root = np.random.SeedSequence(schedule.seed)
    ss_init, ss_steps = root.spawn(2)
    params = init_encoder_params(config, seed=ss_init)
    rng = np.random.default_rng(ss_steps)
    opt = AdamW(params)

    def mlm_loss(_step):
        # cut before masking, so the flat positions index the cut width
        batch = encoded.cut(rng.integers(0, n, size=min(schedule.batch_size, n)))
        # every kept row has a candidate, so positions is never empty
        corrupted, positions, targets = _mask_tokens(
            batch.token_ids, batch.attention_mask, schedule.mask_rate, config.vocab_size, rng
        )
        batch = EncodedBatch(token_ids=corrupted, attention_mask=batch.attention_mask)
        h = encode_batch(batch, params, config, mode="train", rng=rng)
        b, l, d = h.shape
        rows = embedding_lookup(reshape(h, (b * l, d)), positions)
        logits = linear(rows, transpose(params["encoder.tok_emb"]), params["encoder.mlm_bias"])
        return cross_entropy(logits, targets), ()

    trace = run_steps(opt, range(schedule.steps), mlm_loss, 0, schedule.steps, schedule)
    return params, [loss for _, _, loss in trace]
