"""Sentence pooling over the last hidden state, plus the three task heads.

Plain functions over tensors; the parameters they take (query, projection,
head weights) live in the model's name → Tensor table, which train.py
builds. Attention pooling scores every token against the query q, softmaxes
the scores (padding pushed to effectively zero weight), takes the weighted
sum, and projects it by w_h. Mean pooling is the masked average, weighted
by the softmax of the padding bias alone. Both are followed by per-task
linear heads over a shared pooled vector.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, add, linear, matmul, reshape, softmax
from .encoder import key_mask_bias
from .errors import NonFiniteError
from .metrics import TASK_LABELS, TASKS, TRIPLES

_CLASS_COUNTS = tuple(len(TASK_LABELS[t]) for t in TASKS)


def _check_mask(h: Tensor, mask: np.ndarray):
    b, l, _ = h.shape
    if mask.shape != (b, l):
        raise ValueError(f"mask shape {mask.shape} does not match hidden state ({b}, {l})")
    if (mask.sum(axis=1) == 0).any():
        raise ValueError("pooling over a fully masked row is undefined")


def attention_pool(h: Tensor, mask: np.ndarray, q: Tensor, w_h: Tensor) -> Tensor:
    """Query-scored weighted sum of token states, projected by w_h (d×d);
    q is the (d,) query.

    Scores are q·h_i with padded positions forced to a large negative value;
    softmax turns them into weights that ignore padding entirely.
    """
    _check_mask(h, mask)
    b, l, d = h.shape
    scores = reshape(matmul(h, reshape(q, (d, 1))), (b, l))
    alpha = softmax(add(scores, key_mask_bias(mask, h.dtype)), axis=-1)
    pooled = reshape(matmul(reshape(alpha, (b, 1, l)), h), (b, d))
    return matmul(pooled, w_h)


def attention_weights(h: Tensor, mask: np.ndarray, q: Tensor) -> np.ndarray:
    """The α rows attention_pool weighs h by (B×L numpy array in h's dtype),
    for inspection: its ops on detached inputs, so the model's α bit for
    bit."""
    _check_mask(h, mask)
    b, l, d = h.shape
    scores = reshape(matmul(h.detach(), reshape(q.detach(), (d, 1))), (b, l))
    return softmax(add(scores, key_mask_bias(mask, h.dtype)), axis=-1).data


def mean_pool(h: Tensor, mask: np.ndarray) -> Tensor:
    """Average of the unmasked token states per row.

    Its weights are the softmax over the key mask's bias alone, 1/n at each
    of a row's n unmasked positions: what attention_pool computes for a zero
    query, so the two agree bitwise then. The weights take no gradient.
    """
    _check_mask(h, mask)
    b, l, d = h.shape
    weights = softmax(key_mask_bias(mask, h.dtype), axis=-1)
    return reshape(matmul(reshape(weights, (b, 1, l)), h), (b, d))


def logits_for(pooled: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Pre-softmax scores for one task's head, w (d×C) and b (C,), class
    order fixed by TASK_LABELS (what cross-entropy consumes)."""
    return linear(pooled, w, b)


def predict_labels(logits: dict) -> list:
    """Argmax per task over its logits (or its probabilities: softmax keeps
    the order), ties to the lowest class index; returns one of the twelve
    metrics.TRIPLES per row, the one at the heads' flattened class index.
    Logits holding NaN or Inf name no class: a NonFiniteError."""
    picks = []
    for task in TASKS:
        scores = logits[task].data
        if not np.isfinite(scores).all():
            raise NonFiniteError(f"predict_labels: {task} logits contain NaN or Inf")
        picks.append(scores.argmax(axis=-1))
    return [TRIPLES[i] for i in np.ravel_multi_index(picks, _CLASS_COUNTS).tolist()]
