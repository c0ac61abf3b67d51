"""Sentence pooling over the last hidden state, plus the three task heads.

Plain functions over tensors; the parameters they take (query, projection,
head weights) live in the model's name → Tensor table, which train.py
builds. Attention pooling scores every token against the query q, softmaxes
the scores (padding pushed to effectively zero weight), takes the weighted
sum, and projects it by w_h. Mean pooling is the plain masked average. Both
are followed by per-task linear heads over a shared pooled vector.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, add, linear, matmul, reshape, softmax
from .encoder import NEG_INF
from .metrics import TASK_LABELS, TASKS


def _check_mask(h: Tensor, mask: np.ndarray):
    b, l, _ = h.shape
    if mask.shape != (b, l):
        raise ValueError(f"mask shape {mask.shape} does not match hidden state ({b}, {l})")
    if (mask.sum(axis=1) == 0).any():
        raise ValueError("pooling over a fully masked row is undefined")


def _uniform_weights(mask: np.ndarray, dtype) -> np.ndarray:
    # divide in the target dtype; the result must match what a softmax over
    # equal scores produces in that dtype, digit for digit
    counts = mask.sum(axis=1, keepdims=True)
    return mask.astype(dtype) / counts.astype(dtype)


def attention_pool(h: Tensor, mask: np.ndarray, q: Tensor, w_h: Tensor) -> Tensor:
    """Query-scored weighted sum of token states, projected by w_h (d×d);
    q is the (d,) query.

    Scores are q·h_i with padded positions forced to a large negative value;
    softmax turns them into weights that ignore padding entirely.
    """
    _check_mask(h, mask)
    b, l, d = h.shape
    scores = reshape(matmul(h, reshape(q, (d, 1))), (b, l))
    bias = Tensor(((1 - mask) * NEG_INF), dtype=h.dtype)
    alpha = softmax(add(scores, bias), axis=-1)
    pooled = reshape(matmul(reshape(alpha, (b, 1, l)), h), (b, d))
    return matmul(pooled, w_h)


def attention_weights(h: Tensor, mask: np.ndarray, q: Tensor) -> np.ndarray:
    """The α row per example (B×L numpy array), for inspection."""
    _check_mask(h, mask)
    b, l, d = h.shape
    scores = h.data @ q.data.reshape(d, 1)
    scores = scores.reshape(b, l) + (1 - mask) * NEG_INF
    shifted = np.exp(scores - scores.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


def mean_pool(h: Tensor, mask: np.ndarray) -> Tensor:
    """Average of the unmasked token states per row.

    Implemented as a weight matrix product with uniform weights 1/n over
    unmasked positions, the exact arithmetic a uniform-attention pool
    performs, so the two agree bitwise when the query is zero.
    """
    _check_mask(h, mask)
    b, l, d = h.shape
    weights = Tensor(_uniform_weights(mask, h.data.dtype).reshape(b, 1, l), dtype=h.dtype)
    return reshape(matmul(weights, h), (b, d))


def logits_for(pooled: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Pre-softmax scores for one task's head, w (d×C) and b (C,), class
    order fixed by TASK_LABELS (what cross-entropy consumes)."""
    return linear(pooled, w, b)


def predict_labels(probs: dict) -> list:
    """Argmax per task, ties to the lowest class index; returns a list of
    (aggression, gender, communal) label-string triples."""
    n = probs[TASKS[0]].shape[0]
    picks = {t: probs[t].data.argmax(axis=-1) for t in TASKS}
    out = []
    for i in range(n):
        out.append(tuple(TASK_LABELS[t][int(picks[t][i])] for t in TASKS))
    return out
