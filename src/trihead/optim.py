"""AdamW, global-norm gradient clipping, the LR schedule, and both trainers' step loop."""

from __future__ import annotations

import math

import numpy as np

from .autograd import backward
from .errors import ConfigError, DivergenceError, NonFiniteError


def lr_at(step: int, total_steps: int, config) -> float:
    """Linear warmup from 0 over config.warmup_steps, then linear decay
    hitting 0 exactly at total_steps. config needs base_lr and warmup_steps.
    """
    if total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    warmup = int(config.warmup_steps)
    check_warmup(warmup, total_steps)
    base = float(config.base_lr)
    if step < warmup:
        return base * step / warmup
    return base * (total_steps - step) / (total_steps - warmup)


def check_warmup(warmup_steps: int, total_steps: int) -> None:
    """A warmup must end before the run does."""
    if warmup_steps >= total_steps:
        raise ConfigError(f"warmup_steps ({warmup_steps}) must be below total steps "
                          f"({total_steps})")


def check_schedule(config) -> None:
    """The checks TrainConfig and PretrainSchedule share, on batch_size,
    base_lr, warmup_steps and seed."""
    if config.batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {config.batch_size}")
    if not 0 < config.base_lr < np.inf:
        raise ConfigError(f"base_lr must be positive and finite, got {config.base_lr}")
    if config.warmup_steps < 0:
        raise ConfigError("warmup_steps must be nonnegative")
    if config.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {config.seed}")


# the AdamW defaults of Loshchilov & Hutter, Decoupled Weight Decay
# Regularization (2019), and the global gradient-norm budget
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
WEIGHT_DECAY = 0.01
MAX_GRAD_NORM = 1.0


def clip_global_norm(grad, groups, order, sq) -> float:
    """Scale a flat gradient buffer in place so its L2 norm is at most
    MAX_GRAD_NORM; returns the pre-clip norm. grad holds its tensors
    grouped by size: groups lists, per size, its [lo, hi) span of grad and
    that span's (count, size) shape, and sq is a float64 buffer of grad's
    size that takes the squares. Each group is one float64 reduce over the
    last axis of its shape, one sum per tensor; order holds, in table order, the position of each
    tensor's sum among them, and the sums are added in that order: the
    arithmetic of a per-tensor loop over the table."""
    np.square(grad, out=sq, dtype=np.float64)
    sums = []
    for lo, hi, shape in groups:
        sums += np.add.reduce(sq[lo:hi].reshape(shape), axis=1).tolist()
    total = 0.0  # a plain loop: sum() compensates float rounding from Python 3.12 on
    for i in order:
        total += sums[i]
    norm = math.sqrt(total)
    if norm > MAX_GRAD_NORM:
        grad *= MAX_GRAD_NORM / norm
    return norm


class AdamW:
    """Decoupled weight decay Adam over a name → Tensor parameter table.

    The table's trainable tensors (requires_grad=True) move into one flat
    buffer that each of their Tensor.data then views, grouped by size in
    order of each size's first appearance, so the clip sums each size in
    one reduce; m, v and the gathered gradients are flat buffers of the
    same layout (the foreach idea of PyTorch's AdamW), so a step is one
    gather, one global-norm clip and a few vector ops over the whole
    buffer, with the arithmetic of a per-tensor loop. The step writes
    every intermediate into buffers made here (float64 squares for the
    norm, whose bytes then serve as the update's scratch, and the gathered
    gradients once v is updated), so it allocates nothing of the table's
    size; each Tensor.grad keeps its unclipped values. Frozen tensors keep
    their own storage and are never clipped, decayed or moved. Every
    trainable tensor must hold a gradient at each step, and all of them
    one dtype.
    """

    def __init__(self, params: dict):
        self.params = params
        self._trainable = {k: p for k, p in params.items() if p.requires_grad}
        dtypes = {p.data.dtype for p in self._trainable.values()}
        if len(dtypes) != 1:
            raise ConfigError(f"AdamW: the trainable tensors must hold one dtype, "
                              f"got {sorted(str(d) for d in dtypes)}")
        self.t = 0
        tensors = list(self._trainable.values())
        by_size = {}  # size -> table positions, sizes in order of first appearance
        for i, p in enumerate(tensors):
            by_size.setdefault(p.data.size, []).append(i)
        placed = [i for positions in by_size.values() for i in positions]
        self._placed = [tensors[i] for i in placed]  # in buffer order
        # the clip's per-tensor sums come in buffer order; it adds them in table order
        self._sum_order = sorted(range(len(placed)), key=placed.__getitem__)
        self._data = np.concatenate([p.data for p in self._placed], axis=None)
        self._groups, lo = [], 0
        for n, positions in by_size.items():
            shape, hi = (len(positions), n), lo + n * len(positions)
            self._groups.append((lo, hi, shape))
            for i, row in zip(positions, self._data[lo:hi].reshape(shape)):
                tensors[i].data = row.reshape(tensors[i].data.shape)
            lo = hi
        self._grad = np.empty_like(self._data)
        self._sq = np.empty(self._data.shape, dtype=np.float64)
        # the squares are spent once the norm is known; their bytes then
        # serve the update as its scratch
        self._scratch = self._sq.view(self._data.dtype)[:self._data.size]
        self._m = np.zeros_like(self._data)
        self._v = np.zeros_like(self._data)

    def step(self, lr: float) -> float:
        """Gather, clip and update at lr; returns the pre-clip gradient norm.
        A non-finite norm raises NonFiniteError before t, m, v or any
        parameter moves."""
        missing = [k for k, p in self._trainable.items() if p.grad is None]
        if missing:
            raise RuntimeError(f"AdamW: no gradient for the trainable tensors {missing}")
        g = np.concatenate([p.grad for p in self._placed], axis=None, out=self._grad)
        norm = clip_global_norm(g, self._groups, self._sum_order, self._sq)
        # NaN > 1 is false, so a NaN norm would pass unclipped into the
        # parameters and surface only at the next step
        if not math.isfinite(norm):
            raise NonFiniteError(f"gradient norm {norm}")
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        m, v, w, s = self._m, self._v, self._data, self._scratch
        # the roundings of
        #   v = β2·v + (1 - β2)·(g·g);  m = β1·m + (1 - β1)·g;  w -= (lr·λ)·w
        #   w -= lr·(m / bc1) / (sqrt(v / bc2) + ε)
        # with every result written into s, or into g once v no longer needs it
        v *= BETA2
        np.square(g, out=s)  # the bits of g * g, in one read of g
        s *= 1.0 - BETA2
        v += s
        m *= BETA1
        g *= 1.0 - BETA1
        m += g
        np.multiply(lr * WEIGHT_DECAY, w, out=s)
        w -= s
        np.divide(m, bc1, out=s)
        s *= lr
        np.divide(v, bc2, out=g)
        np.sqrt(g, out=g)
        g += EPS
        s /= g
        w -= s
        return norm

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


def run_steps(opt: AdamW, batches, loss_terms, first: int, total_steps: int, schedule) -> list:
    """One optimizer step per batch, numbered from first: loss_terms(batch)
    returns the step's scalar loss Tensor and the float values of the
    terms it sums; backward, then opt.step, which clips the global gradient
    norm and updates at lr_at(step, total_steps, schedule). Returns a
    (step, lr, loss, *term values) row per step. A NonFiniteError from
    loss_terms, or a non-finite loss or gradient norm, raises
    DivergenceError(step); so do non-finite parameters after the last
    step."""
    rows = []
    for step, batch in enumerate(batches, start=first):
        try:
            loss, terms = loss_terms(batch)
        except NonFiniteError:
            # activations blew up before the loss could; same disease
            raise DivergenceError(step) from None
        lr = lr_at(step, total_steps, schedule)
        value = loss.item()
        if not math.isfinite(value):
            raise DivergenceError(step)
        opt.zero_grad()
        backward(loss)
        try:
            opt.step(lr)
        except NonFiniteError:
            raise DivergenceError(step, "gradient norm") from None
        rows.append((step, lr, value, *terms))
    # an update that overflows leaves non-finite weights; the next step's
    # loss catches those it reads, and this check the rest
    if rows and not np.isfinite(opt._data).all():
        raise DivergenceError(rows[-1][0], "parameters")
    return rows
