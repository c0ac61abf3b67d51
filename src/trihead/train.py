"""Joint fine-tuning of encoder + pooler + three heads, and prediction.

One model serves all three tasks: the pooled sentence vector feeds an
aggression head, a gender-bias head, and a communal-bias head, and the
step loss is the sum of their cross-entropies. The defaults
follow the published recipe: batch 8, dropout 0.3, linear LR schedule
from 2e-5. When a dev split is given, the checkpoint that scored the best
overall micro F1 is the one returned.
"""

from __future__ import annotations

import csv
import io
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor, cross_entropy, dropout
from .encoder import EncoderConfig, check_vocab, encode_batch, fill_params, param_specs
from .errors import (
    CheckpointFormatError,
    ConfigError,
    DataError,
    DivergenceError,
    NonFiniteError,
)
from .metrics import TASK_LABELS, TASKS, MetricsReport, score_triples
from .optim import AdamW, check_schedule, check_warmup, run_steps
from .pooling import attention_pool, logits_for, mean_pool, predict_labels
from .textpipe import EmojiMap, EncodedBatch, Vocab, batch_encode, normalize

POOLER_KINDS = ("attention", "mean")
PREDICT_CHUNK = 64   # rows per forward-only pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 8
    base_lr: float = 2e-5
    warmup_steps: int = 0
    seed: int = 42
    pooler: str = "attention"
    # parameter-name prefixes excluded from updates, e.g. ("pooler.",); train()
    # rejects a prefix that matches no parameter and a list that freezes all
    freeze: tuple = ()

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        check_schedule(self)
        if self.pooler not in POOLER_KINDS:
            raise ConfigError(f"pooler must be one of {POOLER_KINDS}, got {self.pooler!r}")
        if isinstance(self.freeze, str):  # tuple() would split it into letters
            raise ConfigError(f"freeze must be a list of prefixes, not the string {self.freeze!r}")
        object.__setattr__(self, "freeze", tuple(self.freeze))

    def total_steps(self, n_rows: int) -> int:
        """Optimizer steps over n_rows: one per batch, every epoch."""
        return self.epochs * -(-n_rows // self.batch_size)


@dataclass
class Checkpoint:
    """Everything prediction needs: config, vocabulary and the emoji map
    its texts were normalized under (None: every emoji is dropped),
    parameters, the pooler kind, and run metadata. kind is 'model' for a
    full classifier, 'encoder' for its 'encoder.*' parameters alone."""

    kind: str
    config: EncoderConfig
    vocab: Vocab
    pooler_kind: str
    params: dict
    meta: dict = field(default_factory=dict)
    emoji_map: EmojiMap | None = None


# one training step: its lr, the summed loss, then each task's own loss
TraceRow = namedtuple("TraceRow", ("step", "lr", "loss", *(f"loss_{t}" for t in TASKS)))


@dataclass
class TrainResult:
    """A fine-tuning run: its checkpoint, per-step trace and per-epoch dev
    reports, and the report it ends with: the best dev epoch's, or without
    a dev split the final parameters' score on the training set."""
    checkpoint: Checkpoint
    trace: list
    dev_history: list
    best_epoch: int | None
    report: MetricsReport


def trace_to_csv(rows, header=TraceRow._fields) -> str:
    """CSV text of rows under header, each value written as its repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for r in rows:
        writer.writerow([repr(value) for value in r])
    return buf.getvalue()


def forward_logits(params: dict, config: EncoderConfig, pooler_kind: str,
                   batch: EncodedBatch, mode: str = "eval", rng=None) -> dict:
    """Encoder → pooler → per-task logits, as a task-keyed dict.

    Dropout lands on the pooled vector, whichever pooler made it.
    """
    h = encode_batch(batch, params, config, mode=mode, rng=rng)
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
    'encoder.*' (param_specs), then the attention pooler's query 'pooler.q' (d,) and
    projection 'pooler.w_h' (d×d), then 'heads.{task}.w' (d×C) and
    'heads.{task}.b' (C,) per task.

    A zero query with an identity projection is exactly mean pooling (equal
    scores, uniform weights, the average passed straight through); training
    then moves both. Zero heads make the first loss the uniform baseline,
    ln 3 + 2 ln 2, whatever the encoder emits.
    """
    if pooler_kind not in POOLER_KINDS:
        raise ConfigError(f"unknown pooler kind {pooler_kind!r}")
    yield from param_specs(config)
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
    return fill_params(config, model_param_specs(config, pooler_kind), seed)


def _copy_params(params: dict) -> dict:
    return {k: Tensor(t.data.copy(), requires_grad=t.requires_grad, dtype=t.data.dtype)
            for k, t in params.items()}


def _encode(texts, vocab, config, emoji_map) -> EncodedBatch:
    """Normalize raw texts and pad them into one batch of config.max_len."""
    return batch_encode([normalize(t, emoji_map) for t in texts], vocab, config.max_len)


def _targets(dataset) -> dict:
    columns = zip(*(ex.labels for ex in dataset))
    return {t: np.asarray([TASK_LABELS[t].index(v) for v in column], dtype=np.int64)
            for t, column in zip(TASKS, columns)}


def train(dataset, config: TrainConfig, encoder: EncoderConfig, vocab: Vocab,
          dev=None, emoji_map: EmojiMap | None = None,
          pretrained: dict | None = None) -> TrainResult:
    """Run the fine-tuning loop; returns the checkpoint, the per-step trace,
    per-epoch dev reports when a dev split was given, and the run's report:
    the best dev epoch's, or without a dev split one forward-only pass of
    the final parameters over the training batch it already encoded.

    The encoder is built from encoder, dropout rate included, and starts
    fresh from the seed or from pretrained, an encoder table (MLM warm start).
    Deterministic: the seed drives init, batch order, and dropout through
    independent streams, so identical (seed, config, data) means identical
    parameters.
    Each batch is cut to its longest real row (EncodedBatch.cut), and
    dropout draws one uniform per activation the cut batch holds. With
    dropout off, a step's loss and gradients differ from a full-width
    step's in their last bits at most, because BLAS sums a shorter row in
    another order.
    """
    check_vocab(encoder, vocab)
    dataset = list(dataset)
    if not dataset:
        raise DataError("train: empty dataset")
    n = len(dataset)
    total_steps = config.total_steps(n)
    check_warmup(config.warmup_steps, total_steps)
    encoded = _encode([ex.text for ex in dataset], vocab, encoder, emoji_map)
    targets = _targets(dataset)
    if dev is not None:
        dev = list(dev)
        if not dev:
            raise DataError("train: empty dev split")
        # encoded once; every epoch's dev score reads the same batch
        dev_encoded = _encode([ex.text for ex in dev], vocab, encoder, emoji_map)
        dev_gold = [ex.labels for ex in dev]

    ss_init, ss_order, ss_drop = np.random.SeedSequence(config.seed).spawn(3)
    params = init_model_params(encoder, config.pooler, ss_init)
    shapes = {name: shape for name, shape, _ in param_specs(encoder)}
    for name, tensor in (pretrained or {}).items():
        if name not in shapes:
            raise ConfigError(f"pretrained encoder: unexpected parameter {name!r}")
        if tensor.shape != shapes[name]:
            raise ConfigError(f"pretrained encoder: parameter {name!r} has shape "
                              f"{tensor.shape}, expected {shapes[name]}")
        params[name] = Tensor(tensor.data.copy(), requires_grad=True, dtype=tensor.data.dtype)
    # the classifier never reads the MLM output bias; it rides along,
    # unchanged, for the checkpoint, so no prefix can freeze it
    stepped = {k: t for k, t in params.items() if k != "encoder.mlm_bias"}
    for prefix in config.freeze:
        frozen = [t for name, t in stepped.items() if name.startswith(prefix)]
        if not frozen:
            raise ConfigError(f"freeze prefix {prefix!r} matches no parameter of the model")
        for tensor in frozen:
            tensor.requires_grad = False
    if not any(t.requires_grad for t in stepped.values()):
        raise ConfigError(f"freeze {list(config.freeze)} leaves no parameter to train")

    rng_order = np.random.default_rng(ss_order)
    rng_drop = np.random.default_rng(ss_drop)
    opt = AdamW(stepped)

    def task_losses(pick):
        logits = forward_logits(params, encoder, config.pooler, encoded.cut(pick),
                                mode="train", rng=rng_drop)
        terms = []
        loss = cross_entropy([logits[t] for t in TASKS], [targets[t][pick] for t in TASKS],
                             terms)
        return loss, terms

    trace: list[TraceRow] = []
    dev_history: list[MetricsReport] = []

    def score(batch, gold, what) -> MetricsReport:
        try:
            return _evaluate_params(params, encoder, config.pooler, batch, gold)
        except NonFiniteError:
            # the last update left weights whose forward pass overflows
            raise DivergenceError(len(trace) - 1, f"{what} activations") from None

    best_epoch, final_params = None, params
    for epoch in range(config.epochs):
        order = rng_order.permutation(n)
        picks = (order[start:start + config.batch_size]
                 for start in range(0, n, config.batch_size))
        trace += map(TraceRow._make, run_steps(opt, picks, task_losses, len(trace),
                                               total_steps, config))
        if dev is not None:
            dev_history.append(score(dev_encoded, dev_gold, "dev-eval"))
            if best_epoch is None or (dev_history[-1].overall_micro_f1
                                      > dev_history[best_epoch].overall_micro_f1):
                best_epoch, final_params = epoch, _copy_params(params)

    report = (dev_history[best_epoch] if dev is not None
              else score(encoded, [ex.labels for ex in dataset], "train-eval"))
    meta = {
        "seed": config.seed,
        "epochs": config.epochs,
        "steps": total_steps,
        "pooler": config.pooler,
        "best_epoch": best_epoch,
        "final_dev_overall_micro_f1": None if dev is None else report.overall_micro_f1,
    }
    checkpoint = Checkpoint(kind="model", config=encoder, vocab=vocab, emoji_map=emoji_map,
                            pooler_kind=config.pooler, params=final_params, meta=meta)
    return TrainResult(checkpoint=checkpoint, trace=trace, dev_history=dev_history,
                       best_epoch=best_epoch, report=report)


def _predict_encoded(params, config, pooler_kind, encoded: EncodedBatch) -> list:
    """The TriLabel of every row of encoded, in its row order.

    Rows run shortest first, in chunks of PREDICT_CHUNK, and each chunk is
    cut to its longest real row (EncodedBatch.cut, as training batches
    are), so the encoder skips the padding a full-width batch would carry.
    Masked keys weigh exactly zero, so a cut row computes what its
    full-width row does; only the logits' last bits can move, because BLAS
    sums a shorter row in another order.
    """
    params = {k: t.detach() for k, t in params.items()}  # forward only: no graph
    lengths = encoded.attention_mask.sum(axis=1)
    order = np.argsort(lengths, kind="stable")
    triples = [None] * len(order)
    for start in range(0, len(order), PREDICT_CHUNK):
        rows = order[start:start + PREDICT_CHUNK]
        logits = forward_logits(params, config, pooler_kind, encoded.cut(rows), mode="eval")
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
    encoded = _encode(texts, checkpoint.vocab, checkpoint.config, checkpoint.emoji_map)
    try:
        return _predict_encoded(checkpoint.params, checkpoint.config,
                                checkpoint.pooler_kind, encoded)
    except NonFiniteError:
        # every loaded weight is finite, so the weights overflow float32
        raise CheckpointFormatError(
            "the model's forward pass overflows float32: its weights are out of range"
        ) from None


def _evaluate_params(params, config, pooler_kind, encoded: EncodedBatch, gold) -> MetricsReport:
    """Score the labels params predict for encoded's rows against gold."""
    return score_triples(gold, _predict_encoded(params, config, pooler_kind, encoded))


def evaluate(checkpoint: Checkpoint, dataset) -> MetricsReport:
    """Predict the dataset's texts and score them against its gold labels."""
    dataset = list(dataset)
    if not dataset:
        raise DataError("evaluate: empty dataset")
    gold = [ex.labels for ex in dataset]
    pred = predict(checkpoint, [ex.text for ex in dataset])
    return score_triples(gold, pred)
