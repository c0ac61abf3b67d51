"""Optimizer and gradient clipping."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from trihead.autograd import Tensor
from trihead.errors import ConfigError, DivergenceError, NonFiniteError
from trihead.optim import (BETA1, BETA2, EPS, MAX_GRAD_NORM, WEIGHT_DECAY, AdamW,
                          clip_global_norm, run_steps)


def clip(values, offsets):
    """clip_global_norm over a fresh float32 buffer of values; returns the
    norm and the clipped buffer."""
    grad = np.array(values, dtype=np.float32)
    return clip_global_norm(grad, offsets, np.empty(grad.size)), grad


def test_clip_scales_down_to_the_budget():
    norm, grad = clip([3.0, 0.0, 4.0], [0, 3])  # norm 5
    assert norm == pytest.approx(5.0)
    np.testing.assert_allclose(grad, [0.6, 0.0, 0.8], atol=1e-7)


def test_clip_leaves_small_gradients_alone():
    norm, grad = clip([0.3, 0.4], [0, 2])
    assert norm == pytest.approx(0.5)
    np.testing.assert_array_equal(grad, np.array([0.3, 0.4], dtype=np.float32))


def test_clip_norm_spans_all_tensors():
    norm, grad = clip([3.0, 4.0], [0, 1, 2])
    assert norm == pytest.approx(5.0)
    np.testing.assert_allclose(grad, [0.6, 0.8], atol=1e-7)


def test_clip_skips_missing_grads():
    # AdamW gathers trainable tensors only, so a table with none to train
    # leaves an empty buffer: norm 0, nothing to scale
    norm, grad = clip([], [0])
    assert norm == 0.0 and grad.size == 0


def test_adamw_minimizes_a_quadratic():
    x = Tensor(np.array([5.0, -3.0], dtype=np.float32), requires_grad=True)
    opt = AdamW({"x": x})
    for _ in range(400):
        opt.zero_grad()
        x.grad = 2.0 * x.data  # d/dx of sum(x^2)
        opt.step(lr=0.05)
    assert np.abs(x.data).max() < 0.05


def test_adamw_decoupled_weight_decay_shrinks_without_gradient_signal():
    x = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
    opt = AdamW({"x": x})
    x.grad = np.zeros(1, dtype=np.float32)
    opt.step(lr=0.5)
    # decay applies even when the gradient is zero
    assert 0.0 < x.data[0] < 1.0


def test_adamw_skips_frozen_params():
    frozen = Tensor(np.ones(2, dtype=np.float32), requires_grad=False)
    live = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    opt = AdamW({"frozen": frozen, "live": live})
    live.grad = np.ones(2, dtype=np.float32)
    frozen.grad = np.ones(2, dtype=np.float32)
    before = frozen.data.copy()
    opt.step(lr=0.1)
    np.testing.assert_array_equal(frozen.data, before)
    assert not np.array_equal(live.data, before)


def test_adamw_step_sizes_are_bias_corrected():
    # with bias correction, the very first Adam step moves by almost exactly
    # lr, after the decoupled decay has taken lr * 0.01 of the weight
    x = Tensor(np.array([10.0], dtype=np.float32), requires_grad=True)
    opt = AdamW({"x": x})
    x.grad = np.array([7.0], dtype=np.float32)
    opt.step(lr=0.1)
    assert x.data[0] == pytest.approx(10.0 - 0.1 * 0.01 * 10.0 - 0.1, abs=1e-4)


def test_zero_grad_clears_gradients():
    x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    x.grad = np.ones(2, dtype=np.float32)
    AdamW({"x": x}).zero_grad()
    assert x.grad is None


def clip_per_tensor(params: dict) -> float:
    """The reference clip: scale every gradient of a name → Tensor table in
    place so their joint L2 norm is at most MAX_GRAD_NORM; returns the
    pre-clip norm."""
    grads = [t.grad for t in params.values() if t.grad is not None]
    total = 0.0
    for g in grads:
        total += float(np.sum(g.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    if norm > MAX_GRAD_NORM:
        factor = MAX_GRAD_NORM / norm
        for g in grads:
            g *= factor
    return norm


class PerTensorAdamW:
    """The reference: global-norm clip over the trainable tensors (backward
    never gives a frozen one a gradient), then AdamW as one loop over the
    table, each tensor with its own moments."""

    def __init__(self, params):
        self.params = params
        self.t = 0
        self._m = {k: np.zeros_like(v.data) for k, v in params.items()}
        self._v = {k: np.zeros_like(v.data) for k, v in params.items()}

    def step(self, lr):
        norm = clip_per_tensor({k: p for k, p in self.params.items() if p.requires_grad})
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for name, p in self.params.items():
            if not p.requires_grad or p.grad is None:
                continue
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p.data -= (lr * WEIGHT_DECAY) * p.data
            mhat = m / bc1
            vhat = v / bc2
            p.data -= lr * mhat / (np.sqrt(vhat) + EPS)
        return norm


# live, frozen, live, live, live: the frozen tensor stays out of the flat
# buffer, and the big one is past numpy's 8,192-element buffer
TABLE = [("a", (3, 4), True), ("frozen", (7,), False), ("big", (100, 100), True),
         ("c", (6,), True), ("d", (2, 2, 3), True)]


def test_flat_adamw_matches_the_per_tensor_loop_bit_for_bit():
    rng = np.random.default_rng(3)
    init = {name: rng.normal(size=shape).astype(np.float32) for name, shape, _ in TABLE}

    def table():
        return {name: Tensor(init[name].copy(), requires_grad=live)
                for name, _, live in TABLE}

    flat_params, ref_params = table(), table()
    flat, ref = AdamW(flat_params), PerTensorAdamW(ref_params)
    for name, _, live in TABLE:
        np.testing.assert_array_equal(flat_params[name].data, init[name])
        assert np.shares_memory(flat_params[name].data, flat._data) == live, name
    assert flat._data.size == sum(init[name].size for name, _, live in TABLE if live)
    norms = []
    for step in range(6):
        # the gradient norm is about 100 on odd steps, and 0.1 or less on
        # even ones: both sides of MAX_GRAD_NORM
        size = 1.0 if step % 2 else 1e-3 / (step + 1)
        grads = {}
        for name, shape, _ in TABLE:
            # the frozen tensor carries a gradient it must ignore
            grads[name] = (size * rng.normal(size=shape)).astype(np.float32)
            flat_params[name].grad, ref_params[name].grad = grads[name].copy(), grads[name].copy()
        lr = 0.05 * (step + 1)
        norms.append(flat.step(lr))
        assert norms[-1] == ref.step(lr)
        for name, _, _ in TABLE:  # the clip scales AdamW's gathered copy only
            assert flat_params[name].grad.tobytes() == grads[name].tobytes(), name
    assert max(norms[0::2]) < MAX_GRAD_NORM < min(norms[1::2])
    span = {name: slice(lo, hi)
            for name, lo, hi in zip(flat._trainable, flat._offsets, flat._offsets[1:])}
    for name, shape, _ in TABLE:
        assert flat_params[name].data.tobytes() == ref_params[name].data.tobytes(), name
        if name in span:
            m, v = flat._m[span[name]].reshape(shape), flat._v[span[name]].reshape(shape)
            assert m.tobytes() == ref._m[name].tobytes(), name
            assert v.tobytes() == ref._v[name].tobytes(), name
    assert list(span) == ["a", "big", "c", "d"]
    np.testing.assert_array_equal(flat_params["frozen"].data, init["frozen"])  # no decay


def test_adamw_names_a_trainable_tensor_without_a_gradient():
    params = {name: Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
              for name in ("a", "b", "c")}
    opt = AdamW(params)
    params["a"].grad = params["c"].grad = np.ones(2, dtype=np.float32)
    with pytest.raises(RuntimeError, match=r"no gradient for the trainable tensors \['b'\]"):
        opt.step(lr=0.1)
    assert opt.t == 0
    np.testing.assert_array_equal(params["a"].data, np.ones(2, dtype=np.float32))


def test_adamw_rejects_a_table_of_mixed_dtypes():
    a = Tensor(np.zeros(2), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True, dtype=np.float64)
    with pytest.raises(ConfigError, match=r"one dtype, got \['float32', 'float64'\]"):
        AdamW({"a": a, "b": b})


def test_a_non_finite_gradient_norm_moves_nothing():
    params = {name: Tensor(np.arange(4, dtype=np.float32) + i, requires_grad=True)
              for i, name in enumerate("ab")}
    opt = AdamW(params)
    for p in params.values():
        p.grad = np.full(4, 0.5, dtype=np.float32)
    opt.step(lr=0.1)
    before = [opt._data.tobytes(), opt._m.tobytes(), opt._v.tobytes()]
    params["b"].grad = np.array([1.0, np.nan, 0.0, 0.0], dtype=np.float32)
    with pytest.raises(NonFiniteError, match="gradient norm nan"):
        opt.step(lr=0.1)
    assert opt.t == 1
    assert [opt._data.tobytes(), opt._m.tobytes(), opt._v.tobytes()] == before


def test_a_non_finite_loss_stops_the_loop_before_backward():
    params = {"w": Tensor(np.ones(3, dtype=np.float32), requires_grad=True)}
    opt = AdamW(params)
    before = opt._data.tobytes()

    def loss_terms(batch):
        # a finite term and an inf one, built directly, so no overflow
        # warning fires; their sum is what the loop checks
        return [Tensor(np.float32(1.0)), Tensor(np.float32(np.inf))]

    schedule = SimpleNamespace(base_lr=0.1, warmup_steps=0)
    with pytest.raises(DivergenceError, match="^non-finite loss at step 3$") as info:
        run_steps(opt, ["batch"], loss_terms, first=3, total_steps=4, schedule=schedule)
    assert info.value.step == 3
    assert opt.t == 0 and params["w"].grad is None
    assert opt._data.tobytes() == before


def test_a_step_allocates_nothing_of_the_tables_size():
    # tracemalloc sees numpy's buffers; one float32 temporary of the table,
    # or a float64 cast of its largest tensor, would cross the bound alone
    rng = np.random.default_rng(5)
    params = {name: Tensor(rng.normal(size=shape), requires_grad=True)
              for name, shape in (("w", (100, 300)), ("b", (10000,)))}
    opt = AdamW(params)
    assert opt._data.size == 40_000
    for p in params.values():
        p.grad = rng.normal(size=p.shape).astype(np.float32)  # norm about 200: clipped
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert opt.step(lr=0.01) > MAX_GRAD_NORM
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < opt._data.nbytes / 2
