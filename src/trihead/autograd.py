"""Reverse-mode automatic differentiation over dense numpy arrays.

Every operation returns a Tensor that records its inputs and a backward
rule; backward() replays the recorded graph once in reverse topological
order. Storage is flat row-major (numpy C order). float32 is the training
default; build tensors with dtype=np.float64 when gradient-checking, the
finite differences need the headroom.

GELU's erf depends on the dtype: float32 takes the clamped rational Eigen
and XLA use, within 5e-7 of the exact erf; float64, which only the
gradient checks use, takes math.erf per element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFiniteError

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
# erf(z) ≈ z·P(z²)/Q(z²) on z clamped to [-4, 4], Horner from the first
# coefficient; in float32 every step, as Eigen and XLA evaluate it
_ERF_P = tuple(np.float32(c) for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
    -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
    -1.60960333262415e-02))
_ERF_Q = tuple(np.float32(c) for c in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
    -7.37332916720468e-03, -1.42647390514189e-02))
_MATH_ERF = np.frompyfunc(math.erf, 1, 1)
_LN_EPS = 1e-5  # added to layer_norm's variance


class Node:
    """One recorded operation: inputs and how to push gradient back to them."""

    __slots__ = ("inputs", "backward_fn")

    def __init__(self, inputs, backward_fn):
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tensor:
    """Dense float array, optionally participating in the autodiff graph.

    Only leaves (no recorded node) hold .grad, always shaped like data;
    tensors with requires_grad=False never accumulate gradient.
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad=False, dtype=None):
        if dtype is None:
            arr = np.asarray(data, dtype=np.float32)
        else:
            arr = np.asarray(data, dtype=dtype)
            if arr.dtype not in (np.float32, np.float64):
                raise ConfigError(f"Tensor dtype must be float32 or float64, got {arr.dtype}")
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.reshape(-1)[0])

    def detach(self):
        """The same values, sharing storage, cut loose from the graph."""
        return Tensor(self.data, dtype=self.data.dtype)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def _from_op(data, inputs, backward_fn):
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = any(t.requires_grad for t in inputs)
    out.grad = None
    out.node = Node(inputs, backward_fn) if out.requires_grad else None
    return out


def _unbroadcast(grad, shape):
    """Sum a gradient over the axes numpy broadcasting expanded."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data  # numpy raises on incompatible shapes

    def backward(g):
        # a constant operand, such as the key-mask bias, takes no gradient
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _from_op(data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    data = a.data * np.asarray(c, dtype=a.dtype)

    def backward(g):
        return (g * c,)

    return _from_op(data, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul needs 2-D or higher operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: inner dimensions disagree, {a.shape} x {b.shape}")
    data = a.data @ b.data

    def backward(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _from_op(data, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the last axis of a (..., d_in) input, with w d_in×d_out
    and b (d_out,). The leading axes are flattened into one, so each
    direction is a single 2-D matrix product."""
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ValueError(f"linear: shapes disagree, {x.shape} x {w.shape} + {b.shape}")
    x2 = x.data.reshape(-1, w.shape[0])
    data = (x2 @ w.data + b.data).reshape(x.shape[:-1] + w.shape[1:])

    def backward(g):
        g2 = g.reshape(-1, w.shape[1])
        return (g2 @ w.data.T).reshape(x.shape), x2.T @ g2, g2.sum(axis=0)

    return _from_op(data, (x, w, b), backward)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.shape),)

    return _from_op(data, (a,), backward)


def transpose(a: Tensor, axes=None) -> Tensor:
    data = np.ascontiguousarray(a.data.transpose(axes))
    inverse = None if axes is None else tuple(np.argsort(axes))

    def backward(g):
        return (g.transpose(inverse),)

    return _from_op(data, (a,), backward)


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """(B, L, d) → (B, n_heads, L, d / n_heads), each head's slice of the
    last axis moved ahead of the sequence axis."""
    b, l, d = x.shape
    data = np.ascontiguousarray(x.data.reshape(b, l, n_heads, d // n_heads).transpose(0, 2, 1, 3))

    def backward(g):
        return (g.transpose(0, 2, 1, 3).reshape(x.shape),)

    return _from_op(data, (x,), backward)


def merge_heads(x: Tensor) -> Tensor:
    """(B, nh, L, dh) → (B, L, nh * dh), the inverse of split_heads."""
    b, nh, l, dh = x.shape
    data = np.ascontiguousarray(x.data.transpose(0, 2, 1, 3)).reshape(b, l, nh * dh)

    def backward(g):
        return (g.reshape(b, l, nh, dh).transpose(0, 2, 1, 3),)

    return _from_op(data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along one axis (max-subtraction before exp); each
    direction fills one buffer of x's size in place."""
    if x.shape == () or x.shape[axis] < 1:
        raise ValueError(f"softmax: axis {axis} of shape {x.shape} is empty")
    if not np.isfinite(x.data).all():
        raise NonFiniteError("softmax: input contains NaN or Inf")
    y = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=axis, keepdims=True)

    def backward(g):
        # y * (g - Σ g·y), its terms written into the one buffer
        gx = g * y
        inner = np.add.reduce(gx, axis=axis, keepdims=True)
        np.subtract(g, inner, out=gx)
        gx *= y
        return (gx,)

    return _from_op(y, (x,), backward)


def _horner(z2, coeffs):
    acc = z2 * coeffs[0]
    acc += coeffs[1]
    for c in coeffs[2:]:
        acc *= z2
        acc += c
    return acc


def _erf(z: np.ndarray) -> np.ndarray:
    """erf in z's dtype: the float32 rational, or math.erf for float64,
    whose derivative is exactly the Gaussian pdf gelu's backward uses."""
    if z.dtype == np.float64:
        return _MATH_ERF(z).astype(np.float64)
    z = np.clip(z, -4.0, 4.0)
    z2 = z * z
    z *= _horner(z2, _ERF_P)
    z /= _horner(z2, _ERF_Q)
    return z


def gelu(x: Tensor) -> Tensor:
    # the erf form, as used by the BERT family; the constants are cast to
    # x's dtype, since numpy float64 scalars would lift the whole op to float64
    inv_sqrt2, inv_sqrt2pi = x.dtype.type(_INV_SQRT2), x.dtype.type(_INV_SQRT2PI)
    cdf = 0.5 * (1.0 + _erf(x.data * inv_sqrt2))
    data = x.data * cdf

    def backward(g):
        pdf = np.exp(-0.5 * x.data * x.data) * inv_sqrt2pi
        return (g * (cdf + x.data * pdf),)

    return _from_op(data, (x,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to mean 0, variance 1, then apply the affine
    of gamma and beta, both shaped (d,). Each mean is np.add.reduce, then
    /= d, the arithmetic of np.mean, and every term of either direction is
    written into a buffer the rule already holds."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ValueError(f"layer_norm: shapes disagree, {x.shape} with gamma {gamma.shape} "
                         f"and beta {beta.shape}")
    lead = tuple(range(x.ndim - 1))
    mu = np.add.reduce(x.data, axis=-1, keepdims=True)
    mu /= d
    xhat = x.data - mu
    inv_std = np.add.reduce(xhat * xhat, axis=-1, keepdims=True)
    inv_std /= d
    inv_std += _LN_EPS
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    xhat *= inv_std
    data = xhat * gamma.data
    data += beta.data

    def backward(g):
        # inv_std · (gxhat - mean(gxhat) - xhat · mean(gxhat · xhat)), with
        # gxhat = g · gamma; tmp holds g·xhat, then gxhat·xhat, then xhat·m2
        tmp = g * xhat
        if lead:
            gbeta, ggamma = g.sum(axis=lead), tmp.sum(axis=lead)
        else:  # nothing to sum, and a sum would turn -0 into +0
            gbeta, ggamma = g.copy(), tmp.copy()
        gxhat = g * gamma.data
        m1 = np.add.reduce(gxhat, axis=-1, keepdims=True)
        m1 /= d
        np.multiply(gxhat, xhat, out=tmp)
        m2 = np.add.reduce(tmp, axis=-1, keepdims=True)
        m2 /= d
        gxhat -= m1
        np.multiply(xhat, m2, out=tmp)
        gxhat -= tmp
        gxhat *= inv_std
        return gxhat.astype(x.dtype, copy=False), ggamma, gbeta

    return _from_op(data, (x, gamma, beta), backward)


def dropout(x: Tensor, p: float, *, training: bool = False, rng=None) -> Tensor:
    """Zero entries with probability p, scaling survivors by 1/(1-p).

    Eval mode is exactly the identity (same object back). The rng must be a
    seeded numpy Generator so runs stay reproducible.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ConfigError("dropout in training mode needs an rng")
    keep = (rng.random(x.shape) >= p).astype(x.dtype)
    keep *= np.asarray(1.0 / (1.0 - p), dtype=x.dtype)
    data = x.data * keep

    def backward(g):
        return (g * keep,)

    return _from_op(data, (x,), backward)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of a 2-D table; works for token embeddings and for
    selecting rows of any computed matrix (the backward pass scatters)."""
    ids = np.asarray(ids)
    if table.ndim != 2:
        raise ValueError(f"embedding_lookup: table must be 2-D, got {table.shape}")
    n = table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        bad = ids[(ids < 0) | (ids >= n)].reshape(-1)[0]
        raise IndexError(f"embedding_lookup: id {bad} out of range [0, {n})")
    data = table.data[ids]

    def backward(g):
        buf = np.zeros_like(table.data)
        np.add.at(buf, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        return (buf,)

    return _from_op(data, (table,), backward)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean over the batch of -log softmax(logits)[target].

    targets is an integer class index per row. Backward is the usual
    (softmax - one_hot) / batch.
    """
    if logits.ndim != 2:
        raise ValueError(f"cross_entropy: logits must be B x C, got {logits.shape}")
    targets = np.asarray(targets, dtype=np.int64)
    b, c = logits.shape
    if targets.shape != (b,):
        raise ValueError(f"cross_entropy: targets shape {targets.shape} does not match batch {b}")
    if targets.size and (targets.min() < 0 or targets.max() >= c):
        bad = targets[(targets < 0) | (targets >= c)][0]
        raise IndexError(f"cross_entropy: target {bad} out of range [0, {c})")
    m = logits.data.max(axis=1, keepdims=True)
    shifted = logits.data - m
    e = np.exp(shifted)  # kept: backward's softmax divides it by its row sums
    sums = np.add.reduce(e, axis=1)
    lse = np.log(sums)
    rows = np.arange(b)
    losses = lse - shifted[rows, targets]
    data = np.asarray(losses.mean(), dtype=logits.dtype)

    def backward(g):
        p = e / sums[:, None]
        p[rows, targets] -= 1.0
        return ((g / b) * p,)

    return _from_op(data, (logits,), backward)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> None:
    """Accumulate dLoss/dT into .grad for every requires_grad leaf
    reachable from loss; interior tensors get no .grad. Calling again
    without clearing grads adds another full pass (gradients double).
    """
    if loss.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.node is None:
        if loss.requires_grad:
            seed = np.ones_like(loss.data)
            loss.grad = seed if loss.grad is None else loss.grad + seed
        return

    # reverse topological order: inputs before the op that consumes them
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            topo.append(t)
            continue
        if t.node is None or id(t) in visited:
            continue
        visited.add(id(t))
        stack.append((t, True))
        for inp in t.node.inputs:
            stack.append((inp, False))

    # per-pass gradient buffers; leaves accumulate straight into .grad, and a
    # leaf's first gradient is copied if it is a view (add's two can view one
    # buffer), so no two leaves share a .grad that one in-place change alters
    pass_grads = {id(loss): np.ones_like(loss.data)}
    for t in reversed(topo):
        g = pass_grads.pop(id(t), None)
        if g is None:
            continue
        for inp, gi in zip(t.node.inputs, t.node.backward_fn(g)):
            if gi is None or not inp.requires_grad:
                continue
            if inp.node is None:
                if inp.grad is None:
                    inp.grad = gi if gi.base is None else gi.copy()
                else:
                    inp.grad = inp.grad + gi
            else:
                key = id(inp)
                if key in pass_grads:
                    pass_grads[key] = pass_grads[key] + gi
                else:
                    pass_grads[key] = gi


# ---------------------------------------------------------------------------
# verification


@dataclass
class GradCheckReport:
    max_rel_error: float
    tol: float
    passed: bool
    worst_index: tuple

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return f"grad check {status}: max relative error {self.max_rel_error:.3e} (tol {self.tol:.1e})"


def grad_check(f, x: Tensor, eps: float = 1e-4, tol: float = 1e-3,
               floor: float = 1e-6) -> GradCheckReport:
    """Compare backward() against central finite differences, coordinate by
    coordinate: (f(x + eps e_i) - f(x - eps e_i)) / (2 eps).

    f must be scalar-valued and deterministic (run dropout in eval mode);
    this is checked by evaluating twice. Relative error per coordinate is
    |a - n| / max(|a| + |n|, floor); the floor keeps pure-roundoff noise on
    near-zero gradients from registering as failure.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    y1 = f(Tensor(x.data.copy(), dtype=x.dtype))
    y2 = f(Tensor(x.data.copy(), dtype=x.dtype))
    if y1.size != 1:
        raise ValueError(f"grad_check needs a scalar-valued f, got shape {y1.shape}")
    if y1.item() != y2.item():
        raise ValueError("grad_check: f is not deterministic (is dropout still enabled?)")

    probe = Tensor(x.data.copy(), requires_grad=True, dtype=x.dtype)
    backward(f(probe))
    analytic = probe.grad if probe.grad is not None else np.zeros_like(probe.data)

    numeric = np.zeros_like(x.data)
    flat = numeric.reshape(-1)
    base = x.data.reshape(-1)
    for i in range(base.size):
        bumped = base.copy()
        bumped[i] = base[i] + eps
        f_plus = f(Tensor(bumped.reshape(x.shape), dtype=x.dtype)).item()
        bumped[i] = base[i] - eps
        f_minus = f(Tensor(bumped.reshape(x.shape), dtype=x.dtype)).item()
        flat[i] = (f_plus - f_minus) / (2.0 * eps)

    diff = np.abs(analytic - numeric)
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), floor)
    rel = diff / denom
    worst = int(np.argmax(rel)) if rel.size else 0
    max_rel = float(rel.reshape(-1)[worst]) if rel.size else 0.0
    return GradCheckReport(
        max_rel_error=max_rel,
        tol=tol,
        passed=max_rel <= tol,
        worst_index=tuple(np.unravel_index(worst, x.shape)) if x.shape else (),
    )
