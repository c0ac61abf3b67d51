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
_GRAD_CHECK_FLOOR = 1e-6  # grad_check's least relative-error denominator


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
        # C order copies only an array that is not C-contiguous, and keeps a 0-d one 0-d
        arr = np.asarray(data, dtype=np.float32 if dtype is None else dtype, order="C")
        if arr.dtype not in (np.float32, np.float64):
            raise ConfigError(f"Tensor dtype must be float32 or float64, got {arr.dtype}")
        self.data = arr
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
    out.grad = None
    for t in inputs:
        if t.requires_grad:
            out.requires_grad = True
            out.node = Node(inputs, backward_fn)
            return out
    out.requires_grad = False
    out.node = None
    return out


def _unbroadcast(grad, shape):
    """Sum a gradient over the axes numpy broadcasting expanded."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = np.add.reduce(grad, axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = np.add.reduce(grad, axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data  # numpy raises on incompatible shapes

    def backward(g):
        # a constant operand, such as the key-mask bias, takes no gradient
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _from_op(data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    data = a.data * np.asarray(c, dtype=a.data.dtype)

    def backward(g):
        return (g * c,)

    return _from_op(data, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    sa, sb = a.data.shape, b.data.shape
    if len(sa) < 2 or len(sb) < 2:
        raise ValueError(f"matmul needs 2-D or higher operands, got {sa} and {sb}")
    if sa[-1] != sb[-2]:
        raise ValueError(f"matmul: inner dimensions disagree, {sa} x {sb}")
    data = a.data @ b.data

    def backward(g):
        ga = _unbroadcast(g @ b.data.swapaxes(-1, -2), sa)
        gb = _unbroadcast(a.data.swapaxes(-1, -2) @ g, sb)
        return ga, gb

    return _from_op(data, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the last axis of a (..., d_in) input, with w d_in×d_out
    and b (d_out,). The leading axes are flattened into one, so each
    direction is a single 2-D matrix product."""
    sx, sw, sb = x.data.shape, w.data.shape, b.data.shape
    if len(sw) != 2 or not sx or sx[-1] != sw[0] or sb != sw[1:]:
        raise ValueError(f"linear: shapes disagree, {sx} x {sw} + {sb}")
    x2 = x.data.reshape(-1, sw[0])
    data = (x2 @ w.data + b.data).reshape(sx[:-1] + sb)

    def backward(g):
        g2 = g.reshape(-1, sb[0])
        return (g2 @ w.data.T).reshape(sx), x2.T @ g2, np.add.reduce(g2, axis=0)

    return _from_op(data, (x, w, b), backward)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.data.shape),)

    return _from_op(data, (a,), backward)


def transpose(a: Tensor, axes=None) -> Tensor:
    data = np.ascontiguousarray(a.data.transpose(axes))
    inverse = None if axes is None else tuple(sorted(range(len(axes)), key=axes.__getitem__))

    def backward(g):
        return (g.transpose(inverse),)

    return _from_op(data, (a,), backward)


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """(B, L, d) → (B, n_heads, L, d / n_heads), each head's slice of the
    last axis moved ahead of the sequence axis."""
    b, l, d = x.data.shape
    data = np.ascontiguousarray(x.data.reshape(b, l, n_heads, d // n_heads).transpose(0, 2, 1, 3))

    def backward(g):
        return (g.transpose(0, 2, 1, 3).reshape(b, l, d),)

    return _from_op(data, (x,), backward)


def merge_heads(x: Tensor) -> Tensor:
    """(B, nh, L, dh) → (B, L, nh * dh), the inverse of split_heads."""
    b, nh, l, dh = x.data.shape
    data = np.ascontiguousarray(x.data.transpose(0, 2, 1, 3)).reshape(b, l, nh * dh)

    def backward(g):
        return (g.reshape(b, l, nh, dh).transpose(0, 2, 1, 3),)

    return _from_op(data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along one axis (max-subtraction before exp); each
    direction fills one buffer of x's size in place.

    The max is a reduce over the first axis of a copy of x, with the
    softmax axis moved to the front, written into that buffer first: numpy
    reduces short contiguous rows slowly, and a max is exact in any order
    but for the sign of a zero, which exp then loses."""
    d = x.data
    if d.shape == () or d.shape[axis] < 1:
        raise ValueError(f"softmax: axis {axis} of shape {d.shape} is empty")
    if not np.logical_and.reduce(np.isfinite(d), axis=None):
        raise NonFiniteError("softmax: input contains NaN or Inf")
    a = axis % d.ndim
    pre, n, post = math.prod(d.shape[:a]), d.shape[a], math.prod(d.shape[a + 1:])
    y = np.empty_like(d)
    front = y.reshape(n, pre, post)
    np.copyto(front, d.reshape(pre, n, post).transpose(1, 0, 2))
    m = np.maximum.reduce(front, axis=0).reshape(d.shape[:a] + (1,) + d.shape[a + 1:])
    np.subtract(d, m, out=y)
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
    z = np.maximum(z, -4.0)  # clamped to [-4, 4]
    np.minimum(z, 4.0, out=z)
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
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ValueError(f"layer_norm: shapes disagree, {x.shape} with gamma {gamma.shape} "
                         f"and beta {beta.shape}")
    lead = tuple(range(x.data.ndim - 1))
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
            gbeta, ggamma = np.add.reduce(g, axis=lead), np.add.reduce(tmp, axis=lead)
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
        return gxhat.astype(x.data.dtype, copy=False), ggamma, gbeta

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
    # the survivor mask times the scale, in one pass: True · s is s, False · s is 0
    keep = np.multiply(rng.random(x.data.shape) >= p,
                       np.asarray(1.0 / (1.0 - p), dtype=x.data.dtype))
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
    if ids.size and (np.minimum.reduce(ids, axis=None) < 0
                     or np.maximum.reduce(ids, axis=None) >= n):
        bad = ids[(ids < 0) | (ids >= n)].reshape(-1)[0]
        raise IndexError(f"embedding_lookup: id {bad} out of range [0, {n})")
    data = table.data[ids]

    def backward(g):
        # one add.at over flat element indices, numpy's 1-D fast path: each
        # element still takes its rows' gradients one by one in row order,
        # as a row-wise add.at adds them
        d = table.data.shape[1]
        buf = np.zeros_like(table.data)
        flat = (ids.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
        np.add.at(buf.reshape(-1), flat, g.reshape(-1))
        return (buf,)

    return _from_op(data, (table,), backward)


def cross_entropy(logits, targets, terms=None) -> Tensor:
    """Mean over the batch of -log softmax(logits)[target]; or, given a
    sequence of logits tensors and one of targets, the sum of their means
    in one node, added left to right as add would: (l0 + l1) + l2.

    Each targets holds an integer class index per row of its logits. Each
    mean is np.add.reduce, then / B, the arithmetic of np.mean. Backward
    gives each logits tensor (g / B) · (softmax - one_hot). When terms is a
    list, each pair's mean is appended to it as a float.
    """
    if isinstance(logits, Tensor):
        logits, targets = (logits,), (targets,)
    logits, targets = tuple(logits), tuple(targets)
    if not logits or len(logits) != len(targets):
        raise ValueError(f"cross_entropy: {len(logits)} logits tensors for "
                         f"{len(targets)} targets")
    saved, total = [], None
    for z, t in zip(logits, targets):
        if z.ndim != 2:
            raise ValueError(f"cross_entropy: logits must be B x C, got {z.shape}")
        t = np.asarray(t, dtype=np.int64)
        b, c = z.shape
        if t.shape != (b,):
            raise ValueError(f"cross_entropy: targets shape {t.shape} does not match batch {b}")
        if b and (np.minimum.reduce(t) < 0 or np.maximum.reduce(t) >= c):
            bad = t[(t < 0) | (t >= c)][0]
            raise IndexError(f"cross_entropy: target {bad} out of range [0, {c})")
        shifted = z.data - np.maximum.reduce(z.data, axis=1, keepdims=True)
        e = np.exp(shifted)  # kept: backward's softmax divides it by its row sums
        sums = np.add.reduce(e, axis=1)
        rows = np.arange(b)
        losses = np.log(sums)
        losses -= shifted[rows, t]
        value = np.add.reduce(losses) / b
        total = value if total is None else total + value
        if terms is not None:
            terms.append(float(value))
        saved.append((e, sums, rows, t, b))

    def backward(g):
        grads = []
        for e, sums, rows, t, b in saved:
            p = e / sums[:, None]
            p[rows, t] -= 1.0
            grads.append((g / b) * p)
        return grads

    return _from_op(np.asarray(total), logits, backward)


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

    # reverse topological order: inputs before the op that consumes them;
    # tensors hash by identity, and leaves, which have no rule, stay off
    # the stack
    topo, visited = [], set()
    stack = [(loss, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            topo.append(t)
        elif t not in visited:
            visited.add(t)
            stack.append((t, True))
            for inp in t.node.inputs:
                if inp.node is not None:
                    stack.append((inp, False))

    # per-pass gradient buffers; leaves accumulate straight into .grad, and a
    # leaf's first gradient is copied if it is a view (add's two can view one
    # buffer), so no two leaves share a .grad that one in-place change alters
    pass_grads = {loss: np.ones_like(loss.data)}
    for t in reversed(topo):
        g = pass_grads.pop(t, None)
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
            elif inp in pass_grads:
                pass_grads[inp] = pass_grads[inp] + gi
            else:
                pass_grads[inp] = gi


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


def grad_check(f, x: Tensor, eps: float = 1e-4, tol: float = 1e-3) -> GradCheckReport:
    """Compare backward() against central finite differences, coordinate by
    coordinate: (f(x + eps e_i) - f(x - eps e_i)) / (2 eps).

    f must be scalar-valued and deterministic (run dropout in eval mode);
    this is checked by evaluating twice. Relative error per coordinate is
    |a - n| / max(|a| + |n|, 1e-6); the floor keeps pure-roundoff noise on
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
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), _GRAD_CHECK_FLOOR)
    rel = diff / denom
    worst = int(np.argmax(rel)) if rel.size else 0
    max_rel = float(rel.reshape(-1)[worst]) if rel.size else 0.0
    return GradCheckReport(
        max_rel_error=max_rel,
        tol=tol,
        passed=max_rel <= tol,
        worst_index=tuple(np.unravel_index(worst, x.shape)) if x.shape else (),
    )
