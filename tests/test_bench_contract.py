"""The benchmark's tracer still finds every name it patches in trihead.

perfbench/tracing.py wraps trihead's functions by name from outside the
package. A tiny traced train with a dev split, then a predict, checks
that those names are still there and still do what the per-layer
metrics assume: training records a graph, forward-only passes record
none, the step clock stamps both optimizer steps and predicted chunks, and
every step calls the hooked clip. A tiny traced pretrain checks that its
steps, and their clips, run in the pretrain phase.
"""

import importlib.util
import sys
from pathlib import Path

from trihead.assets import asset_path
from trihead.data import load_dataset
from trihead.encoder import EncoderConfig, PretrainSchedule
from trihead.textpipe import build_vocab, normalize
from trihead.train import TrainConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_a_train_and_a_predict():
    tracing = load_tracing()
    data = load_dataset(asset_path("synth_train.tsv"))[:16]
    dev = load_dataset(asset_path("synth_dev.tsv"))[:8]
    vocab = build_vocab([normalize(ex.text) for ex in data], target_size=120)
    config = EncoderConfig(vocab_size=vocab.size, d_model=16, n_layers=1,
                           n_heads=2, d_ff=32, max_len=12)
    # trihead.train is also the name of a function; the tracer patches the module
    module = sys.modules["trihead.train"]
    tracer, clock = tracing.Tracer(), tracing.StepClock()
    tracer.install()
    clock.install()
    try:
        result = module.train(data, TrainConfig(epochs=1, base_lr=1e-3), config, vocab,
                              dev=dev)
        module.predict(result.checkpoint, [ex.text for ex in dev])
    finally:
        clock.uninstall()
        tracer.uninstall()

    name, ok, detail = tracing.encoder_site_check(tracer)
    assert ok, f"{name}: {detail}"
    layers, _ = tracing.layer_metrics(tracer, "train")
    assert layers["autograd.nodes_per_step"] > 0
    assert layers["autograd.eval_nodes_per_chunk"] == 0
    # every gradient the AdamW.step hook reads keeps its parameter's float32
    assert layers["autograd.grad_dtype_mismatch"] == 0
    assert len(clock.steps) == 2  # 16 rows in batches of 8
    # optim.clip_ms and optim.clipped_share read the spans and counts of
    # the hooked module function optim.clip_global_norm, once per step
    assert tracer.counts["clip_calls", tracing.PHASES.index("train")] == len(clock.steps)
    assert len(clock.chunks) == 2  # one dev eval, one predict


def test_tracer_stamps_and_phases_every_pretraining_step():
    tracing = load_tracing()
    corpus = [ex.text for ex in load_dataset(asset_path("synth_train.tsv"))[:16]]
    vocab = build_vocab([normalize(text) for text in corpus], target_size=120)
    config = EncoderConfig(vocab_size=vocab.size, d_model=16, n_layers=1,
                           n_heads=2, d_ff=32, max_len=12)
    module = sys.modules["trihead.encoder"]
    tracer, clock = tracing.Tracer(), tracing.StepClock()
    tracer.install()
    clock.install()
    try:
        _, losses = module.pretrain_mlm(corpus, vocab, config,
                                        PretrainSchedule(steps=3, batch_size=4))
    finally:
        clock.uninstall()
        tracer.uninstall()

    assert len(losses) == len(clock.steps) == 3
    assert tracer.counts["clip_calls", tracing.PHASES.index("pretrain")] == len(clock.steps)
    # the extra holds pretraining's own time only when its AdamW steps ran
    # under the pretrain phase
    _, extra = tracing.layer_metrics(tracer, "train")
    assert extra["encoder.pretrain_self_ms"] > 0
