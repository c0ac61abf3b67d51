"""End to end: train on the bundled corpus, evaluate, predict new text.

Mirrors what the command line does:

    trihead train --data ... --dev ... --out run/
    trihead eval --model run/model.ckpt --data ...
    trihead predict --model run/model.ckpt --input ... --output ...

but through the library API, so the intermediate objects are visible.

    python3 demos/train_and_score.py
"""

from trihead.assets import asset_path
from trihead.data import load_dataset
from trihead.encoder import EncoderConfig
from trihead.textpipe import build_vocab, normalize
from trihead.train import TrainConfig, evaluate, predict, train

# 1. Data and vocabulary. The bundled corpus is synthetic and separable:
#    planted cue words decide each label, filler words carry nothing.
data = load_dataset(asset_path("synth_train.tsv"))
dev = load_dataset(asset_path("synth_dev.tsv"))
vocab = build_vocab([normalize(ex.text) for ex in data], target_size=200)
print(f"{len(data)} training rows, {len(dev)} dev rows, "
      f"vocab {vocab.size} entries")

# 2. Model shape and training recipe. The published recipe (batch 8,
#    dropout 0.3, linear schedule) transfers directly; the learning rate
#    is scaled up because this encoder is tiny.
config = EncoderConfig(vocab_size=vocab.size, d_model=32, n_layers=2,
                       n_heads=2, d_ff=64, max_len=16, dropout_p=0.3)
recipe = TrainConfig(epochs=150, batch_size=8, base_lr=2e-3,
                     seed=42, pooler="attention")

result = train(data, recipe, config, vocab, dev=dev)
print(f"best dev epoch: {result.best_epoch}")

# 3. The per-epoch dev reports show the usual shape: fast early gains,
#    then a plateau. Print a few waypoints.
for epoch in (0, 9, 49, len(result.dev_history) - 1):
    report = result.dev_history[epoch]
    print(f"  epoch {epoch:3d}: overall {report.overall_micro_f1:.3f}  "
          f"exact match {report.instance_f1:.3f}")

# 4. Final evaluation, formatted the way the CLI prints it.
report = evaluate(result.checkpoint, dev)
print()
print(report.to_table())

# 5. Prediction on unseen text goes through the exact normalization and
#    vocabulary stored in the checkpoint. Dev rows make the comparison
#    honest: at 64 training examples the model has the cue words down but
#    still misses some novel combinations, which is exactly what the
#    instance score above says.
print()
sample = dev[:4]
for ex, label in zip(sample, predict(result.checkpoint,
                                     [ex.text for ex in sample])):
    got = f"{label.aggression}/{label.gender}/{label.communal}"
    gold = f"{ex.labels.aggression}/{ex.labels.gender}/{ex.labels.communal}"
    mark = "==" if got == gold else "!="
    print(f"{ex.text[:40]:42} pred {got:14} {mark} gold {gold}")
