"""Joint fine-tuning of encoder + pooler + three heads, and prediction.

One model serves all three tasks: the pooled sentence vector feeds an
aggression head, a gender-bias head, and a communal-bias head, and the
step loss is the weighted sum of their cross-entropies. The defaults
follow the published recipe: batch 8, dropout 0.3, linear LR schedule
from 2e-5. When a dev split is given, the checkpoint that scored the best
overall micro F1 is the one returned.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .autograd import Tensor, add, cross_entropy, dropout, scale
from .encoder import EncoderConfig, encode_batch, fill_params, param_specs
from .errors import (
    CheckpointFormatError,
    ConfigError,
    DataError,
    DivergenceError,
    NonFiniteError,
)
from .metrics import TASK_LABELS, TASKS, MetricsReport, TriLabel, score_triples
from .optim import AdamW, lr_at, optimizer_step
from .pooling import attention_pool, logits_for, mean_pool, predict_labels
from .textpipe import EmojiMap, EncodedBatch, Vocab, batch_encode, normalize

POOLER_KINDS = ("attention", "mean")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 8
    dropout_p: float = 0.3
    base_lr: float = 2e-5
    warmup_steps: int = 0
    seed: int = 42
    pooler: str = "attention"
    task_loss_weights: tuple = (1.0, 1.0, 1.0)
    # parameter-name prefixes excluded from updates, e.g. ("pooler.",)
    freeze: tuple = ()

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.base_lr < np.inf:
            raise ConfigError(f"base_lr must be positive and finite, got {self.base_lr}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.warmup_steps < 0:
            raise ConfigError("warmup_steps must be nonnegative")
        if self.pooler not in POOLER_KINDS:
            raise ConfigError(f"pooler must be one of {POOLER_KINDS}, got {self.pooler!r}")
        w = tuple(float(x) for x in self.task_loss_weights)
        if len(w) != 3 or not all(0 <= x < np.inf for x in w) or not any(w):
            raise ConfigError(
                "task_loss_weights needs three finite nonnegative values, at least one positive"
            )
        object.__setattr__(self, "task_loss_weights", w)
        object.__setattr__(self, "freeze", tuple(self.freeze))


@dataclass
class EncoderInit:
    """How to start the encoder: fresh from the seed when params is None,
    otherwise from an already-trained parameter table (MLM warm start)."""

    config: EncoderConfig
    vocab: Vocab
    params: dict | None = None


@dataclass
class Checkpoint:
    """Everything prediction needs: config, vocabulary, parameters, the
    pooler kind, and run metadata. kind is 'model' for a full classifier,
    'encoder' for a pretraining-only parameter set."""

    kind: str
    config: EncoderConfig
    vocab: Vocab
    pooler_kind: str
    params: dict
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TraceRow:
    step: int
    lr: float
    loss: float
    loss_aggression: float
    loss_gender: float
    loss_communal: float


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    trace: list
    dev_history: list
    best_epoch: int | None


TRACE_FIELDS = tuple(f.name for f in fields(TraceRow))


def trace_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_FIELDS)
    for r in rows:
        writer.writerow([repr(getattr(r, name)) for name in TRACE_FIELDS])
    return buf.getvalue()


def forward_logits(params: dict, config: EncoderConfig, pooler_kind: str,
                   batch: EncodedBatch, mode: str = "eval", rng=None) -> dict:
    """Encoder → pooler → per-task logits, as a task-keyed dict.

    Dropout lands on the pooled vector, whichever pooler made it.
    """
    enc = {k[len("encoder."):]: v for k, v in params.items() if k.startswith("encoder.")}
    h = encode_batch(batch, enc, config, mode=mode, rng=rng)
    mask = batch.attention_mask
    if pooler_kind == "attention":
        pooled = attention_pool(h, mask, params["pooler.q"], params["pooler.w_h"])
    elif pooler_kind == "mean":
        pooled = mean_pool(h, mask)
    else:
        raise ConfigError(f"unknown pooler kind {pooler_kind!r}")
    pooled = dropout(pooled, config.dropout_p, training=mode == "train", rng=rng)
    return {t: logits_for(pooled, params[f"heads.{t}.w"], params[f"heads.{t}.b"])
            for t in TASKS}


def model_param_specs(config: EncoderConfig, pooler_kind: str):
    """(name, shape, fill) for the full model, in checkpoint blob order:
    'encoder.*', then the attention pooler's query 'pooler.q' (d,) and
    projection 'pooler.w_h' (d×d), then 'heads.{task}.w' (d×C) and
    'heads.{task}.b' (C,) per task.

    A zero query with an identity projection is exactly mean pooling (equal
    scores, uniform weights, the average passed straight through); training
    then moves both. Zero heads make the first loss the uniform baseline,
    ln 3 + 2 ln 2, whatever the encoder emits.
    """
    if pooler_kind not in POOLER_KINDS:
        raise ConfigError(f"unknown pooler kind {pooler_kind!r}")
    for name, shape, fill in param_specs(config):
        yield f"encoder.{name}", shape, fill
    d = config.d_model
    if pooler_kind == "attention":
        yield "pooler.q", (d,), "zeros"
        yield "pooler.w_h", (d, d), "eye"
    for task in TASKS:
        c = len(TASK_LABELS[task])
        yield f"heads.{task}.w", (d, c), "zeros"
        yield f"heads.{task}.b", (c,), "zeros"


def init_model_params(config: EncoderConfig, pooler_kind: str, seed) -> dict:
    """Fresh name → Tensor table for the full model, in model_param_specs
    order."""
    return fill_params(model_param_specs(config, pooler_kind), seed)


def _copy_params(params: dict) -> dict:
    return {k: Tensor(t.data.copy(), requires_grad=t.requires_grad, dtype=t.data.dtype)
            for k, t in params.items()}


def _targets(dataset) -> dict:
    return {
        t: np.asarray([TASK_LABELS[t].index(ex.labels.get(t)) for ex in dataset],
                      dtype=np.int64)
        for t in TASKS
    }


def train(dataset, config: TrainConfig, encoder_init: EncoderInit,
          dev=None, emoji_map: EmojiMap | None = None) -> TrainResult:
    """Run the fine-tuning loop; returns the checkpoint, the per-step trace,
    and per-epoch dev reports when a dev split was given.

    Deterministic: the seed drives init, batch order, and dropout through
    independent streams, so identical (seed, config, data) means identical
    parameters.
    """
    dataset = list(dataset)
    if not dataset:
        raise DataError("train: empty dataset")
    enc_config = replace(encoder_init.config, dropout_p=config.dropout_p)
    vocab = encoder_init.vocab

    texts = [normalize(ex.text, emoji_map) for ex in dataset]
    encoded = batch_encode(texts, vocab, enc_config.max_len)
    targets = _targets(dataset)

    ss_init, ss_order, ss_drop = np.random.SeedSequence(config.seed).spawn(3)
    params = init_model_params(enc_config, config.pooler, ss_init)
    if encoder_init.params is not None:
        for name, tensor in encoder_init.params.items():
            key = name if name.startswith("encoder.") else f"encoder.{name}"
            if key not in params:
                raise ConfigError(f"pretrained encoder: unexpected parameter {key!r}")
            if tensor.shape != params[key].shape:
                raise ConfigError(f"pretrained encoder: parameter {key!r} has shape "
                                  f"{tensor.shape}, expected {params[key].shape}")
            params[key] = Tensor(tensor.data.copy(), requires_grad=True,
                                 dtype=tensor.data.dtype)
    for name, tensor in params.items():
        if any(name.startswith(prefix) for prefix in config.freeze):
            tensor.requires_grad = False

    rng_order = np.random.default_rng(ss_order)
    rng_drop = np.random.default_rng(ss_drop)
    opt = AdamW(params)

    n = len(dataset)
    batches_per_epoch = (n + config.batch_size - 1) // config.batch_size
    total_steps = config.epochs * batches_per_epoch
    weights = config.task_loss_weights

    trace: list[TraceRow] = []
    dev_history: list[MetricsReport] = []
    best: tuple[float, dict, int] | None = None
    step = 0
    for epoch in range(config.epochs):
        order = rng_order.permutation(n)
        for start in range(0, n, config.batch_size):
            pick = order[start:start + config.batch_size]
            batch = EncodedBatch(token_ids=encoded.token_ids[pick],
                                 attention_mask=encoded.attention_mask[pick])
            try:
                logits = forward_logits(params, enc_config, config.pooler, batch,
                                        mode="train", rng=rng_drop)
                task_losses = {t: cross_entropy(logits[t], targets[t][pick])
                               for t in TASKS}
            except NonFiniteError:
                # activations blew up before the loss could; same disease
                raise DivergenceError(step) from None
            loss = add(add(scale(task_losses["aggression"], weights[0]),
                           scale(task_losses["gender"], weights[1])),
                       scale(task_losses["communal"], weights[2]))
            lr = lr_at(step, total_steps, config)
            loss_value = optimizer_step(opt, loss, step, lr)
            trace.append(TraceRow(step, lr, loss_value,
                                  task_losses["aggression"].item(),
                                  task_losses["gender"].item(),
                                  task_losses["communal"].item()))
            step += 1
        if dev is not None:
            try:
                report = _evaluate_params(params, enc_config, config.pooler, vocab,
                                          dev, emoji_map)
            except NonFiniteError:
                # the last update left weights whose forward pass overflows
                raise DivergenceError(step - 1, "dev-eval activations") from None
            dev_history.append(report)
            if best is None or report.overall_micro_f1 > best[0]:
                best = (report.overall_micro_f1, _copy_params(params), epoch)

    if best is not None:
        final_params, best_epoch = best[1], best[2]
    else:
        final_params, best_epoch = params, None
    meta = {
        "seed": config.seed,
        "epochs": config.epochs,
        "steps": total_steps,
        "pooler": config.pooler,
        "best_epoch": best_epoch,
        "final_dev_overall_micro_f1": best[0] if best is not None else None,
        "emoji_map": dict(emoji_map.entries) if emoji_map is not None else {},
    }
    checkpoint = Checkpoint(kind="model", config=enc_config, vocab=vocab,
                            pooler_kind=config.pooler, params=final_params, meta=meta)
    return TrainResult(checkpoint=checkpoint, trace=trace,
                       dev_history=dev_history, best_epoch=best_epoch)


def _predict_encoded(params, config, pooler_kind, encoded: EncodedBatch,
                     chunk: int = 64) -> list:
    """Label triples for every row of encoded, in its row order.

    Rows run shortest first, and each chunk is cut to its longest real row,
    so the encoder skips the padding a full-width batch would carry. Masked
    keys weigh exactly zero, so a cut row computes what its full-width row
    does; only the logits' last bits can move, because BLAS sums a shorter
    row in another order.
    """
    params = {k: t.detach() for k, t in params.items()}  # forward only: no graph
    lengths = encoded.attention_mask.sum(axis=1)
    order = np.argsort(lengths, kind="stable")
    triples = [None] * len(order)
    for start in range(0, len(order), chunk):
        rows = order[start:start + chunk]
        width = int(lengths[rows[-1]])
        piece = EncodedBatch(token_ids=encoded.token_ids[rows, :width],
                             attention_mask=encoded.attention_mask[rows, :width])
        logits = forward_logits(params, config, pooler_kind, piece, mode="eval")
        # argmax over logits equals argmax over softmax, so the heads'
        # scores go straight to the label picker
        for row, triple in zip(rows, predict_labels(logits)):
            triples[row] = triple
    return triples


def predict(checkpoint: Checkpoint, texts) -> list:
    """Labels for raw texts: normalize, encode, eval-mode forward, argmax
    per task (ties take the lower class index). Returns TriLabels."""
    if checkpoint.kind != "model":
        raise CheckpointFormatError(
            f"prediction needs a full model checkpoint, got kind {checkpoint.kind!r}"
        )
    texts = list(texts)
    if not texts:
        return []
    emoji_map = None
    if checkpoint.meta.get("emoji_map"):
        emoji_map = EmojiMap(checkpoint.meta["emoji_map"])
    cleaned = [normalize(t, emoji_map) for t in texts]
    encoded = batch_encode(cleaned, checkpoint.vocab, checkpoint.config.max_len)
    try:
        triples = _predict_encoded(checkpoint.params, checkpoint.config,
                                   checkpoint.pooler_kind, encoded)
    except NonFiniteError:
        # every loaded weight is finite, so the weights overflow float32
        raise CheckpointFormatError(
            "the model's forward pass overflows float32: its weights are out of range"
        ) from None
    return [TriLabel(*t) for t in triples]


def _evaluate_params(params, config, pooler_kind, vocab, dataset, emoji_map) -> MetricsReport:
    texts = [normalize(ex.text, emoji_map) for ex in dataset]
    encoded = batch_encode(texts, vocab, config.max_len)
    triples = _predict_encoded(params, config, pooler_kind, encoded)
    return score_triples([ex.labels for ex in dataset], [TriLabel(*t) for t in triples])


def evaluate(checkpoint: Checkpoint, dataset) -> MetricsReport:
    """Predict the dataset's texts and score them against its gold labels."""
    dataset = list(dataset)
    if not dataset:
        raise DataError("evaluate: empty dataset")
    gold = [ex.labels for ex in dataset]
    pred = predict(checkpoint, [ex.text for ex in dataset])
    return score_triples(gold, pred)
