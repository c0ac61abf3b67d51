"""Attention pooling against mean pooling on the same encoder.

The attention pooler scores each token state with a learned query and
takes the softmax-weighted sum; the mean pooler just averages. With a
zero query and an identity projection the two are the same function,
which is both a nice sanity check and the reason the attention pooler
is initialized that way: training starts from mean pooling and earns
any sharper weighting.

    python3 demos/pooling_comparison.py
"""

import numpy as np

from trihead.assets import asset_path
from trihead.autograd import Tensor
from trihead.data import load_dataset
from trihead.encoder import EncoderConfig
from trihead.pooling import attention_pool, attention_weights, mean_pool
from trihead.textpipe import batch_encode, build_vocab, normalize
from trihead.train import EncoderInit, TrainConfig, train

# ---------------------------------------------------------------------------
# 1. The zero-query identity, numerically exact.

rng = np.random.default_rng(0)
h = Tensor(rng.normal(size=(2, 5, 4)).astype(np.float32))
mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]])

# the attention pooler's starting values (train.init_model_params)
q = Tensor(np.zeros(4, dtype=np.float32))
w_h = Tensor(np.eye(4, dtype=np.float32))
att = attention_pool(h, mask, q, w_h)
avg = mean_pool(h, mask)
print("fresh attention == mean pooling:",
      bool(np.array_equal(att.data, avg.data)))

alpha = attention_weights(h, mask, q)
print("fresh weights row 0:", np.round(alpha[0], 4).tolist(),
      "(uniform over the 3 real tokens)")

# ---------------------------------------------------------------------------
# 2. Train the same model twice, once per pooler, and compare.

data = load_dataset(asset_path("synth_train.tsv"))
texts = [normalize(ex.text) for ex in data]
vocab = build_vocab(texts, target_size=200)
config = EncoderConfig(vocab_size=vocab.size, d_model=32, n_layers=2,
                       n_heads=2, d_ff=64, max_len=16, dropout_p=0.3)

results = {}
for pooler in ("attention", "mean"):
    tc = TrainConfig(epochs=60, batch_size=8, dropout_p=0.3, base_lr=2e-3,
                     seed=42, pooler=pooler)
    result = train(data, tc, EncoderInit(config=config, vocab=vocab), dev=data)
    final = result.dev_history[-1]
    results[pooler] = result
    print(f"{pooler:9} pooler: exact match {final.instance_f1:.3f}, "
          f"overall micro F1 {final.overall_micro_f1:.3f}")

# 3. After training, the attention pooler's weights are no longer uniform:
#    it has learned which tokens matter for the three decisions. An overtly
#    aggressive sentence makes the shift easiest to see.

ck = results["attention"].checkpoint
enc_params = {k[len("encoder."):]: v for k, v in ck.params.items()
              if k.startswith("encoder.")}
from trihead.encoder import encode_batch  # noqa: E402

overt = next(i for i, ex in enumerate(data) if ex.labels.aggression == "OAG")
batch = batch_encode([texts[overt]], vocab, config.max_len)
states = encode_batch(batch, enc_params, config, mode="eval")
alpha = attention_weights(states, batch.attention_mask, ck.params["pooler.q"])
tokens = [vocab.token_of(i) for i in batch.token_ids[0]]
n = int(batch.attention_mask[0].sum())
print(f"\ntoken weights after training ({texts[overt]!r}):")
for tok, wgt in sorted(zip(tokens[:n], alpha[0, :n]),
                       key=lambda p: -p[1])[:6]:
    print(f"  {wgt:.3f}  {tok}")
