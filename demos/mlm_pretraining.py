"""Masked-token pretraining at desk scale, and what it buys fine-tuning.

The encoder learns to recover hidden tokens from context on a raw
sentence corpus, no labels involved. Fine-tuning then starts from those
weights instead of noise. On real data this is where most of the power
of the published systems comes from; the toy version shows the shape of
the effect.

    python3 demos/mlm_pretraining.py
"""

from trihead.assets import asset_path
from trihead.data import load_dataset
from trihead.encoder import EncoderConfig, PretrainSchedule, pretrain_mlm
from trihead.textpipe import build_vocab, normalize
from trihead.train import TrainConfig, train

# 1. A raw corpus: one sentence per line, same word pools as the labeled
#    set but no labels. The vocabulary comes from here.
with open(asset_path("synth_corpus.txt"), encoding="utf-8") as fh:
    corpus = [normalize(line) for line in fh if line.strip()]
vocab = build_vocab(corpus, target_size=200)
print(f"{len(corpus)} sentences, vocab {vocab.size}")

config = EncoderConfig(vocab_size=vocab.size, d_model=32, n_layers=2,
                       n_heads=2, d_ff=64, max_len=16, dropout_p=0.3)

# 2. The masking recipe: 15% of real tokens per sentence; of those, 80%
#    replaced by the mask id, 10% by a random token, 10% left alone so the
#    model cannot assume a masked position is always corrupted.
schedule = PretrainSchedule(steps=300, batch_size=8, base_lr=1e-3,
                            mask_rate=0.15, seed=42)
params, losses = pretrain_mlm(corpus, vocab, config, schedule)

print("masked-token loss along the way:")
for step in (0, 49, 149, 299):
    print(f"  step {step:3d}: {losses[step]:.4f}")

# 3. Fine-tune twice with the identical recipe: once from scratch, once
#    from the pretrained weights. Count epochs to reach 0.95 exact match
#    on the training set.
data = load_dataset(asset_path("synth_train.tsv"))
recipe = TrainConfig(epochs=60, batch_size=8, base_lr=2e-3,
                     seed=42, pooler="attention")

for label, start in (("fresh", None), ("warm", params)):
    result = train(data, recipe, config, vocab, dev=data, pretrained=start)
    hit = next((i for i, r in enumerate(result.dev_history)
                if r.instance_f1 >= 0.95), None)
    final = result.dev_history[-1].instance_f1
    print(f"{label}: reaches 0.95 exact match at epoch {hit}, "
          f"finishes at {final:.3f}")
