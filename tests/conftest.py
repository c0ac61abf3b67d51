"""Shared fixtures."""

import importlib

import numpy as np
import pytest

from trihead.textpipe import EncodedBatch


class StepTap:
    """Taps what the training loops hand the encoder: each batch's width
    and longest real row."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.widths = []
        # import_module: the package's own `train` names the function
        for module in map(importlib.import_module, ("trihead.encoder", "trihead.train")):
            monkeypatch.setattr(module, "encode_batch", self._encode(module.encode_batch))

    def _encode(self, real):
        def encode_batch(batch, params, config, mode="eval", rng=None):
            self.widths.append((batch.token_ids.shape[1],
                                int(batch.attention_mask.sum(axis=1).max())))
            return real(batch, params, config, mode=mode, rng=rng)
        return encode_batch

    def _take(self):
        out, self.widths = self.widths, []
        return out

    def check_cut_matches_full_width(self, run, max_len):
        """Run run() -> (losses, params) as the code stands, then with
        EncodedBatch.cut keeping every column, as a loop without the cut
        pads every batch to max_len. Each batch of the first run is as
        wide as its longest real row, yet every loss and gradient agrees
        to float32 rounding; run() must leave dropout off, since dropout
        draws one uniform per activation the batch holds. Returns both
        runs' losses.
        """
        cut_losses, cut_params = run()
        cut_widths = self._take()
        self.monkeypatch.setattr(
            EncodedBatch, "cut",
            lambda batch, rows: EncodedBatch(token_ids=batch.token_ids[rows],
                                             attention_mask=batch.attention_mask[rows]))
        full_losses, full_params = run()
        full_widths = self._take()

        assert len(cut_widths) > 0
        assert all(width == longest < max_len for width, longest in cut_widths)
        assert [width for width, _ in full_widths] == [max_len] * len(cut_widths)

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
