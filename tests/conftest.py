"""Shared fixtures."""

import importlib

import numpy as np
import pytest

from trihead.textpipe import EncodedBatch


class StepTap:
    """Taps what the training loops hand the encoder: each batch's width
    and longest real row, the rng it draws dropout from, and every
    dropout's keep mask as drawn."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.widths, self.rngs, self.masks = [], [], []
        # import_module: the package's own `train` names the function
        for module in map(importlib.import_module, ("trihead.encoder", "trihead.train")):
            monkeypatch.setattr(module, "encode_batch", self._encode(module.encode_batch))
            monkeypatch.setattr(module, "dropout", self._dropout(module.dropout))

    def _encode(self, real):
        def encode_batch(batch, params, config, mode="eval", rng=None):
            self.widths.append((batch.token_ids.shape[1],
                                int(batch.attention_mask.sum(axis=1).max())))
            self.rngs.append(rng)
            return real(batch, params, config, mode=mode, rng=rng)
        return encode_batch

    def _dropout(self, real):
        tap = self

        def dropout(x, p, *, training=False, rng=None):
            if not training or p == 0.0:
                return real(x, p, training=training, rng=rng)

            class Noise:
                def random(self, shape):
                    u = rng.random(shape)
                    tap.masks.append(u >= p)
                    return u

            return real(x, p, training=training, rng=Noise())
        return dropout

    def _take(self):
        # the rng's next draws show whether two runs left it in one state
        out = self.widths, self.masks, self.rngs[-1].random(8)
        self.widths, self.rngs, self.masks = [], [], []
        return out

    def check_cut_matches_full_width(self, run, max_len):
        """Run run() -> (losses, params) as the code stands, then with
        EncodedBatch.cut keeping every column, as a loop without the cut
        pads every batch to max_len. Each batch of the first run is as
        wide as its longest real row, yet every dropout mask equals the
        full-width one over its columns, the rng ends in the same state,
        and every loss and gradient agrees to float32 rounding. Returns
        both runs' losses.
        """
        cut_losses, cut_params = run()
        cut_widths, cut_masks, cut_next = self._take()
        self.monkeypatch.setattr(
            EncodedBatch, "cut",
            lambda batch, rows: EncodedBatch(token_ids=batch.token_ids[rows],
                                             attention_mask=batch.attention_mask[rows]))
        full_losses, full_params = run()
        full_widths, full_masks, full_next = self._take()

        assert all(width == longest < max_len for width, longest in cut_widths)
        assert [width for width, _ in full_widths] == [max_len] * len(cut_widths)
        assert len(cut_masks) == len(full_masks) > 0
        for c, f in zip(cut_masks, full_masks):
            if c.ndim == 3:   # the encoder's; the pooled vector's is B×d
                f = f[:, :c.shape[1]]
            assert np.array_equal(c, f)
        assert np.array_equal(cut_next, full_next)

        np.testing.assert_allclose(cut_losses, full_losses, rtol=1e-6, atol=0)
        # one scale for all: a gradient that is zero in exact arithmetic
        # (a key bias's) holds rounding noise only
        scale = max(float(np.abs(t.grad).max()) for t in full_params.values()
                    if t.grad is not None)
        for name, t in full_params.items():
            assert (cut_params[name].grad is None) == (t.grad is None), name
            if t.grad is not None:
                np.testing.assert_allclose(cut_params[name].grad, t.grad, rtol=0,
                                           atol=1e-5 * scale, err_msg=name)
        return cut_losses, full_losses


@pytest.fixture
def step_tap(monkeypatch):
    return StepTap(monkeypatch)
