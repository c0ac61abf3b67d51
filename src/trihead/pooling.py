"""Sentence pooling over the last hidden state, plus the three task heads.

Attention pooling scores every token against a learned query, softmaxes
the scores (padding pushed to effectively zero weight), takes the weighted
sum, and projects it. Mean pooling is the plain masked average. Both are
followed by per-task linear softmax heads over a shared pooled vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, add, dropout, matmul, reshape, softmax
from .encoder import NEG_INF
from .metrics import TASK_LABELS, TASKS


@dataclass
class AttentionPoolerParams:
    """Learned query q (d,) and output projection w_h (d×d).

    Starts as exact mean pooling: zero query gives uniform attention and an
    identity projection passes the average straight through; training then
    moves both.
    """

    q: Tensor
    w_h: Tensor

    @classmethod
    def fresh(cls, d_model: int, dtype=np.float32) -> "AttentionPoolerParams":
        return cls(
            q=Tensor(np.zeros(d_model), requires_grad=True, dtype=dtype),
            w_h=Tensor(np.eye(d_model), requires_grad=True, dtype=dtype),
        )

    def named(self) -> dict:
        return {"pooler.q": self.q, "pooler.w_h": self.w_h}


@dataclass
class TaskHead:
    """One linear softmax head: w is d×C, b is C, class order fixed."""

    w: Tensor
    b: Tensor


def fresh_heads(d_model: int, dtype=np.float32) -> dict:
    """Zero-initialized heads, one per task; zero weights mean the first
    loss is exactly the uniform baseline no matter what the encoder emits."""
    heads = {}
    for task in TASKS:
        c = len(TASK_LABELS[task])
        heads[task] = TaskHead(
            w=Tensor(np.zeros((d_model, c)), requires_grad=True, dtype=dtype),
            b=Tensor(np.zeros(c), requires_grad=True, dtype=dtype),
        )
    return heads


def named_head_params(heads: dict) -> dict:
    out = {}
    for task in TASKS:
        out[f"heads.{task}.w"] = heads[task].w
        out[f"heads.{task}.b"] = heads[task].b
    return out


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


def attention_pool(h: Tensor, mask: np.ndarray, params: AttentionPoolerParams,
                   mode: str = "eval", dropout_p: float = 0.0, rng=None) -> Tensor:
    """Query-scored weighted sum of token states, projected by w_h.

    Scores are q·h_i with padded positions forced to a large negative value;
    softmax turns them into weights that ignore padding entirely. Dropout
    hits the projected output in train mode.
    """
    _check_mask(h, mask)
    b, l, d = h.shape
    scores = reshape(matmul(h, reshape(params.q, (d, 1))), (b, l))
    bias = Tensor(((1 - mask) * NEG_INF), dtype=h.dtype)
    alpha = softmax(add(scores, bias), axis=-1)
    pooled = reshape(matmul(reshape(alpha, (b, 1, l)), h), (b, d))
    out = matmul(pooled, params.w_h)
    return dropout(out, dropout_p, training=mode == "train", rng=rng)


def attention_weights(h: Tensor, mask: np.ndarray,
                      params: AttentionPoolerParams) -> np.ndarray:
    """The α row per example (B×L numpy array), for inspection."""
    _check_mask(h, mask)
    b, l, d = h.shape
    scores = h.data @ params.q.data.reshape(d, 1)
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


def logits_for(pooled: Tensor, head: TaskHead) -> Tensor:
    """Pre-softmax scores for one task (what cross-entropy consumes)."""
    return add(matmul(pooled, head.w), head.b)


def predict_labels(probs: dict) -> list:
    """Argmax per task, ties to the lowest class index; returns a list of
    (aggression, gender, communal) label-string triples."""
    n = probs[TASKS[0]].shape[0]
    picks = {t: probs[t].data.argmax(axis=-1) for t in TASKS}
    out = []
    for i in range(n):
        out.append(tuple(TASK_LABELS[t][int(picks[t][i])] for t in TASKS))
    return out
