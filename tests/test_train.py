"""Fine-tuning loop: schedule, losses, determinism, freezing, prediction."""

import importlib
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from trihead.autograd import Tensor
from trihead.assets import asset_path
from trihead.data import Example, load_checkpoint, load_dataset, save_checkpoint
from trihead.encoder import EncoderConfig, PretrainSchedule, pretrain_mlm
from trihead.errors import (
    CheckpointFormatError,
    ConfigError,
    DataError,
    DivergenceError,
    NonFiniteError,
)
from trihead.metrics import TASK_LABELS, TASKS, TriLabel
from trihead.optim import lr_at
from trihead.textpipe import EncodedBatch, batch_encode, build_vocab, normalize
from trihead.train import (
    Checkpoint,
    TrainConfig,
    evaluate,
    forward_logits,
    init_model_params,
    predict,
    trace_to_csv,
    train,
)

AGG_CUE = {"NAG": "shanto", "CAG": "khocha", "OAG": "maar"}
FILLERS = ["ami", "tumi", "aj", "kal", "khub", "ektu", "kotha", "bolo"]


def toy_dataset(n=24, seed=0):
    """Separable rows: one aggression cue word always present, a gender cue
    and a communal cue exactly when those labels are positive."""
    rng = np.random.default_rng(seed)
    combos = [(a, g, c)
              for a in ("NAG", "CAG", "OAG")
              for g in ("NGEN", "GEN")
              for c in ("NCOM", "COM")]
    out = []
    for i in range(n):
        a, g, c = combos[i % len(combos)]
        words = [str(rng.choice(FILLERS)), AGG_CUE[a], str(rng.choice(FILLERS))]
        if g == "GEN":
            words.append("meye")
        if c == "COM":
            words.append("dhormo")
        rng.shuffle(words)
        out.append(Example(id=f"t{i:03d}", text=" ".join(words),
                           labels=TriLabel(a, g, c)))
    return out


def toy_init(dataset, **enc_kw):
    """(encoder config, vocabulary) for dataset: train's third and fourth
    arguments."""
    vocab = build_vocab([normalize(ex.text) for ex in dataset], target_size=120)
    kw = dict(vocab_size=vocab.size, d_model=16, n_layers=1, n_heads=2,
              d_ff=32, max_len=10, dropout_p=0.3)
    kw.update(enc_kw)
    return EncoderConfig(**kw), vocab


# ---------------------------------------------------------------------------
# schedule


def cfg(**kw):
    base = dict(epochs=1)
    base.update(kw)
    return TrainConfig(**base)


def test_lr_starts_at_base_without_warmup():
    assert lr_at(0, 100, cfg(base_lr=2e-5)) == 2e-5


def test_lr_ends_at_zero():
    assert lr_at(100, 100, cfg(base_lr=2e-5)) == 0.0


def test_lr_halfway_without_warmup():
    assert lr_at(50, 100, cfg(base_lr=2e-5)) == pytest.approx(1e-5)


def test_lr_warmup_ramps_and_peaks():
    c = cfg(base_lr=1e-3, warmup_steps=10)
    assert lr_at(0, 100, c) == 0.0
    assert lr_at(5, 100, c) == pytest.approx(5e-4)
    values = [lr_at(s, 100, c) for s in range(101)]
    assert max(values) == values[10] == pytest.approx(1e-3)
    assert all(v >= 0 for v in values)


def test_lr_step_beyond_total_rejected():
    with pytest.raises(ValueError, match="outside"):
        lr_at(101, 100, cfg())
    with pytest.raises(ValueError, match=r"^total_steps must be >= 1, got 0$"):
        lr_at(0, 0, cfg())


def test_lr_warmup_must_fit_inside_run():
    with pytest.raises(ConfigError, match="warmup"):
        lr_at(0, 10, cfg(warmup_steps=10))


def test_warmup_as_long_as_the_run_is_refused_before_any_work(monkeypatch):
    message = r"^warmup_steps \(6\) must be below total steps \(6\)$"
    with pytest.raises(ConfigError, match=message):
        PretrainSchedule(steps=6, warmup_steps=6)
    data = toy_dataset(24)

    def no_work(*args):
        raise AssertionError("train encoded its texts before refusing the warmup")

    monkeypatch.setattr(importlib.import_module("trihead.train"), "_encode", no_work)
    # 24 rows in batches of 8 over 2 epochs: 6 steps
    assert cfg(epochs=2, batch_size=8).total_steps(24) == 6
    assert cfg(epochs=2, batch_size=8).total_steps(25) == 8
    with pytest.raises(ConfigError, match=message):
        train(data, cfg(epochs=2, batch_size=8, warmup_steps=6), *toy_init(data))


# ---------------------------------------------------------------------------
# config validation


def test_train_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        cfg(epochs=0)
    with pytest.raises(ConfigError):
        cfg(batch_size=0)
    with pytest.raises(ConfigError):
        cfg(base_lr=0.0)
    with pytest.raises(ConfigError):
        cfg(pooler="cls")
    with pytest.raises(ConfigError, match="seed"):
        cfg(seed=-1)
    with pytest.raises(ConfigError, match="seed"):
        PretrainSchedule(seed=-1)


@pytest.mark.parametrize("freeze", ["pooler.", "he"])
def test_freeze_given_as_a_string_is_a_config_error(freeze):
    # tuple("pooler.") would freeze one-letter prefixes: "o" matches nothing,
    # and "h" and "e" together match every head and encoder tensor
    with pytest.raises(ConfigError) as err:
        cfg(freeze=freeze)
    assert str(err.value) == f"freeze must be a list of prefixes, not the string {freeze!r}"
    assert cfg(freeze=[freeze]).freeze == (freeze,)


def test_pretrain_schedule_rejects_a_negative_warmup_as_train_config_does():
    for make in (cfg, PretrainSchedule):
        with pytest.raises(ConfigError, match="^warmup_steps must be nonnegative$"):
            make(warmup_steps=-5)


def test_pretrain_schedule_rejects_a_zero_batch_as_train_config_does():
    for make in (cfg, PretrainSchedule):
        with pytest.raises(ConfigError, match="^batch_size must be >= 1, got 0$"):
            make(batch_size=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_rate_or_weight_is_a_config_error(bad):
    # either would train on and surface later as a divergence
    with pytest.raises(ConfigError, match="base_lr"):
        cfg(base_lr=bad)
    with pytest.raises(ConfigError, match="base_lr"):
        PretrainSchedule(base_lr=bad)


# ---------------------------------------------------------------------------
# training behaviour


def test_first_step_loss_is_uniform_baseline():
    data = toy_dataset(16)
    result = train(data, cfg(epochs=1, batch_size=8, base_lr=1e-3, seed=1),
                   *toy_init(data))
    expected = math.log(3) + 2 * math.log(2)
    assert result.trace[0].loss == pytest.approx(expected, abs=0.05)


def test_training_is_seed_deterministic():
    data = toy_dataset(16)
    c = cfg(epochs=2, batch_size=8, base_lr=1e-3, seed=9)
    r1 = train(data, c, *toy_init(data))
    r2 = train(data, c, *toy_init(data))
    assert [row.loss for row in r1.trace] == [row.loss for row in r2.trace]
    p1, p2 = r1.checkpoint.params, r2.checkpoint.params
    assert p1.keys() == p2.keys()
    assert all(np.array_equal(p1[k].data, p2[k].data) for k in p1)


def test_different_seed_changes_parameters():
    data = toy_dataset(16)
    r1 = train(data, cfg(epochs=1, batch_size=8, seed=1), *toy_init(data))
    r2 = train(data, cfg(epochs=1, batch_size=8, seed=2), *toy_init(data))
    diff = any(
        not np.array_equal(r1.checkpoint.params[k].data, r2.checkpoint.params[k].data)
        for k in r1.checkpoint.params
    )
    assert diff


def test_step_loss_is_the_plain_sum_of_the_task_losses():
    # float32, summed left to right in task order, as the loss graph adds them
    data = toy_dataset(16)
    result = train(data, cfg(epochs=2, batch_size=4, base_lr=1e-3, seed=3),
                   *toy_init(data))
    assert len(result.trace) == 8
    for row in result.trace:
        aggression, gender, communal = (np.float32(getattr(row, f"loss_{t}"))
                                        for t in TASKS)
        assert row.loss == float((aggression + gender) + communal)


def test_frozen_uniform_attention_matches_mean_pooler_trace():
    data = toy_dataset(16)
    common = dict(epochs=2, batch_size=8, base_lr=1e-3, seed=4)
    att = train(data, cfg(pooler="attention", freeze=("pooler.",), **common),
                *toy_init(data, dropout_p=0.3))
    mean = train(data, cfg(pooler="mean", **common), *toy_init(data, dropout_p=0.3))
    att_losses = [row.loss for row in att.trace]
    mean_losses = [row.loss for row in mean.trace]
    assert att_losses == mean_losses
    # shared parameters end identical too
    for k in mean.checkpoint.params:
        assert np.array_equal(att.checkpoint.params[k].data,
                              mean.checkpoint.params[k].data), k


def graph_size(loss):
    """Recorded nodes reachable from loss."""
    seen, stack = set(), [loss]
    while stack:
        t = stack.pop()
        if t.node is not None and id(t) not in seen:
            seen.add(id(t))
            stack.extend(t.node.inputs)
    return len(seen)


def test_training_step_graph_has_at_most_69_nodes(monkeypatch):
    # the acceptance shape: d=32, L=16, batch 8, two layers, attention
    # pooler; projections are one linear node each and heads split and
    # merge in one node, so layout moves do not pad the graph
    optim = importlib.import_module("trihead.optim")
    real, sizes = optim.backward, []

    def measure_then_backward(loss):
        sizes.append(graph_size(loss))
        return real(loss)

    monkeypatch.setattr(optim, "backward", measure_then_backward)
    data = toy_dataset(8)
    train(data, cfg(epochs=1, batch_size=8),
          *toy_init(data, d_model=32, n_layers=2, d_ff=64, max_len=16))
    assert len(sizes) == 1
    assert sizes[0] <= 69


def test_a_two_layer_training_step_has_exactly_65_nodes(monkeypatch):
    # the acceptance shape again: 64 nodes of forward through the heads,
    # then one loss node takes the three heads' logits and adds their
    # cross-entropies (three cross_entropy and two add nodes before)
    optim = importlib.import_module("trihead.optim")
    real, losses = optim.backward, []

    def measure_then_backward(loss):
        losses.append((graph_size(loss), len(loss.node.inputs)))
        return real(loss)

    monkeypatch.setattr(optim, "backward", measure_then_backward)
    data = toy_dataset(8)
    train(data, cfg(epochs=1, batch_size=8),
          *toy_init(data, d_model=32, n_layers=2, d_ff=64, max_len=16))
    assert losses == [(65, len(TASKS))]


def test_every_gradient_of_a_training_step_is_float32(monkeypatch):
    # the CLI's default width, two layers: every op keeps float32, so every
    # parameter's gradient does too
    adamw = importlib.import_module("trihead.optim").AdamW
    real, dtypes = adamw.step, {}

    def step_then_read(opt, lr):
        real(opt, lr)
        dtypes.update((k, p.grad.dtype) for k, p in opt.params.items() if p.grad is not None)

    monkeypatch.setattr(adamw, "step", step_then_read)
    data = toy_dataset(8)
    train(data, cfg(epochs=1, batch_size=8),
          *toy_init(data, d_model=64, n_layers=2, d_ff=128, max_len=48))
    assert len(dtypes) == 44
    assert {k: d for k, d in dtypes.items() if d != np.float32} == {}


def test_a_cut_training_step_matches_the_full_width_step(step_tap):
    # the CLI's default shape; rows of at most 6 positions in a max_len of 48,
    # with dropout off: its masks are drawn at the batch's own width
    data = toy_dataset(8, seed=5)
    config, vocab = toy_init(data, d_model=64, n_layers=2, d_ff=128, max_len=48,
                             dropout_p=0.0)

    def two_steps():
        # zero heads leave every encoder gradient zero at the first step
        result = train(data, cfg(epochs=2, batch_size=8, base_lr=1e-3, seed=5),
                       config, vocab)
        return [row.loss for row in result.trace], result.checkpoint.params

    cut, full = step_tap.check_cut_matches_full_width(two_steps, config.max_len)
    assert len(cut) == 2
    assert cut[0] == full[0] == pytest.approx(math.log(3) + 2 * math.log(2))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_divergence_is_reported_with_step():
    data = toy_dataset(8)
    with pytest.raises(DivergenceError) as err:
        train(data, cfg(epochs=40, batch_size=8, base_lr=1e12, seed=0),
              *toy_init(data))
    assert err.value.step >= 1


@pytest.mark.parametrize("module", ["trihead.train", "trihead.encoder"],
                         ids=["train", "pretrain"])
def test_a_forward_that_overflows_at_the_third_step_diverges_at_step_2(monkeypatch, module):
    data = toy_dataset(8)
    config, vocab = toy_init(data)
    module = importlib.import_module(module)
    real, calls = module.encode_batch, []

    def overflow_at_the_third_call(*args, **kwargs):
        calls.append(args[0].token_ids.shape[0])
        if len(calls) == 3:
            raise NonFiniteError("softmax: input contains NaN or Inf")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "encode_batch", overflow_at_the_third_call)
    with pytest.raises(DivergenceError) as err:
        if module.__name__ == "trihead.train":
            # two steps an epoch, so the third opens the second epoch
            module.train(data, cfg(epochs=3, batch_size=4), config, vocab)
        else:
            module.pretrain_mlm([ex.text for ex in data], vocab, config,
                                PretrainSchedule(steps=5, batch_size=4))
    assert err.value.step == 2
    assert str(err.value) == "non-finite loss at step 2"
    assert calls == [4, 4, 4]


def test_dev_split_tracks_best_epoch():
    data = toy_dataset(24, seed=1)
    dev = toy_dataset(12, seed=2)
    result = train(data, cfg(epochs=3, batch_size=8, base_lr=2e-3, seed=5),
                   *toy_init(data), dev=dev)
    assert len(result.dev_history) == 3
    assert result.best_epoch is not None
    best = result.dev_history[result.best_epoch].overall_micro_f1
    assert all(best >= r.overall_micro_f1 for r in result.dev_history)
    # earlier epoch wins ties: no later epoch with an equal score is chosen
    first_best = next(i for i, r in enumerate(result.dev_history)
                      if r.overall_micro_f1 == best)
    assert result.best_epoch == first_best
    assert result.checkpoint.meta["best_epoch"] == result.best_epoch


def test_report_without_dev_scores_the_training_set_as_evaluate_does():
    data = toy_dataset(24, seed=1)
    result = train(data, cfg(epochs=3, batch_size=8, base_lr=2e-3, seed=5), *toy_init(data))
    assert (result.dev_history, result.best_epoch) == ([], None)
    assert result.report.to_json() == evaluate(result.checkpoint, data).to_json()
    assert result.checkpoint.meta["final_dev_overall_micro_f1"] is None


def test_report_with_dev_is_the_best_epochs_dev_report():
    data = toy_dataset(24, seed=1)
    result = train(data, cfg(epochs=3, batch_size=8, base_lr=2e-3, seed=5),
                   *toy_init(data), dev=toy_dataset(12, seed=2))
    assert result.report is result.dev_history[result.best_epoch]
    assert result.checkpoint.meta["final_dev_overall_micro_f1"] == \
        result.report.overall_micro_f1


def test_a_training_set_forward_that_overflows_diverges_at_the_last_step():
    # one huge step leaves finite weights whose forward pass over the
    # training set overflows: the CLI recipe of the same name, in the library
    data = load_dataset(asset_path("synth_train.tsv"))
    vocab = build_vocab([normalize(ex.text) for ex in data], target_size=200)
    config = EncoderConfig(vocab_size=vocab.size, d_model=16, max_len=12)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
        train(data, cfg(epochs=1, batch_size=100000, base_lr=1e18), config, vocab)
    assert (err.value.step, str(err.value)) == (0, "non-finite train-eval activations at step 0")


def test_empty_dataset_rejected():
    data = toy_dataset(8)
    with pytest.raises(DataError, match="^train: empty dataset$"):
        train([], cfg(), *toy_init(data))
    # the CLI refuses an empty --dev file itself, so only this reaches the check
    with pytest.raises(DataError, match="^train: empty dev split$"):
        train(data, cfg(), *toy_init(data), dev=[])


def test_pretrained_encoder_params_are_used():
    data = toy_dataset(16)
    config, vocab = toy_init(data, dropout_p=0.0)
    fresh = init_model_params(config, "mean", seed=123)
    warm = {k: v for k, v in fresh.items() if k.startswith("encoder.")}
    result = train(data, cfg(epochs=1, batch_size=16, base_lr=1e-9, seed=6,
                             pooler="mean"), config, vocab, pretrained=warm)
    # near-zero lr: encoder weights should still be (almost) the warm start
    got = result.checkpoint.params["encoder.tok_emb"].data
    want = fresh["encoder.tok_emb"].data
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_an_unknown_pooler_kind_is_refused():
    data = toy_dataset(8)
    config, vocab = toy_init(data)
    params = init_model_params(config, "mean", 0)
    batch = batch_encode([normalize(ex.text) for ex in data], vocab, config.max_len)
    with pytest.raises(ConfigError, match=r"^unknown pooler kind 'max'$"):
        forward_logits(params, config, "max", batch)
    with pytest.raises(ConfigError, match=r"^unknown pooler kind 'max'$"):
        init_model_params(config, "max", 0)


def test_pretrained_params_shape_mismatch_rejected():
    data = toy_dataset(8)
    config, vocab = toy_init(data)
    bad = {"encoder.tok_emb": init_model_params(config, "mean", 0)["encoder.pos_emb"]}
    with pytest.raises(ConfigError, match="shape"):
        train(data, cfg(epochs=1), config, vocab, pretrained=bad)


def test_pretrained_params_under_bare_names_are_rejected():
    # only an encoder checkpoint file drops the 'encoder.' prefix
    data = toy_dataset(8)
    config, vocab = toy_init(data)
    bare = {"tok_emb": init_model_params(config, "mean", 0)["encoder.tok_emb"]}
    with pytest.raises(ConfigError, match="unexpected parameter 'tok_emb'"):
        train(data, cfg(epochs=1), config, vocab, pretrained=bare)


@pytest.mark.parametrize("extra", [5, None], ids=["vocab-plus-5", "vocab-size-8"])
def test_a_config_whose_vocab_size_is_not_the_vocabularys_is_a_config_error(extra):
    # vocab+5 trained and wrote a checkpoint load_checkpoint refused;
    # 8 ended in an IndexError from the embedding lookup
    data = toy_dataset(8)
    config, vocab = toy_init(data)
    size = vocab.size + extra if extra else 8
    config = replace(config, vocab_size=size)
    message = f"vocab_size {size}, vocabulary has {vocab.size} tokens"
    with pytest.raises(ConfigError, match=message):
        train(data, cfg(epochs=1), config, vocab)
    with pytest.raises(ConfigError, match=message):
        pretrain_mlm([ex.text for ex in data], vocab, config, PretrainSchedule(steps=1))


def test_a_warm_start_returns_the_encoders_mlm_bias_unchanged():
    # the classifier never reads the MLM output bias, so the checkpoint
    # carries the encoder's, byte for byte
    data = toy_dataset(16)
    config, vocab = toy_init(data)
    fresh = init_model_params(config, "attention", seed=123)
    warm = {k: v for k, v in fresh.items() if k.startswith("encoder.")}
    bias = np.random.default_rng(1).normal(size=warm["encoder.mlm_bias"].shape).astype(np.float32)
    warm["encoder.mlm_bias"] = Tensor(bias, requires_grad=True)
    result = train(data, cfg(epochs=2, batch_size=8, base_lr=1e-2, seed=6), config, vocab,
                   dev=toy_dataset(8, seed=2), pretrained=warm)
    got = result.checkpoint.params["encoder.mlm_bias"]
    assert got.data.tobytes() == bias.tobytes()
    assert got.requires_grad
    assert result.checkpoint.params["encoder.tok_emb"].data.tobytes() != \
        fresh["encoder.tok_emb"].data.tobytes()


@pytest.mark.parametrize("freeze, pooler, message", [
    (("nope.",), "attention", "freeze prefix 'nope.' matches no parameter of the model"),
    (("pooler.",), "mean", "freeze prefix 'pooler.' matches no parameter of the model"),
    # fine-tuning never steps the MLM output bias, so there is nothing to freeze
    (("encoder.mlm_bias",), "attention",
     "freeze prefix 'encoder.mlm_bias' matches no parameter of the model"),
    (("",), "attention", r"freeze \[''\] leaves no parameter to train"),
    (("encoder.tok", "encoder.pos", "encoder.layer", "encoder.ln_f", "pooler.", "heads."),
     "attention", "leaves no parameter to train"),
], ids=["unmatched", "no-pooler", "mlm-bias", "empty-prefix", "all-but-mlm-bias"])
def test_freeze_must_match_a_parameter_and_leave_one_to_train(freeze, pooler, message):
    data = toy_dataset(8)
    with pytest.raises(ConfigError, match=message):
        train(data, cfg(pooler=pooler, freeze=freeze), *toy_init(data))


def test_dropout_comes_from_the_encoder_config(tmp_path):
    data = toy_dataset(8)
    runs = {p: train(data, cfg(batch_size=4), *toy_init(data, dropout_p=p))
            for p in (0.0, 0.5)}
    # zero heads make the first loss the baseline whatever the dropout; the
    # second step's loss sees the rate the encoder config gave
    assert runs[0.0].trace[1].loss != runs[0.5].trace[1].loss
    save_checkpoint(runs[0.0].checkpoint, tmp_path / "model.ckpt")
    assert load_checkpoint(tmp_path / "model.ckpt").config.dropout_p == 0.0


# ---------------------------------------------------------------------------
# trace serialization


def test_trace_csv_shape():
    data = toy_dataset(8)
    result = train(data, cfg(epochs=2, batch_size=4, seed=7), *toy_init(data))
    text = trace_to_csv(result.trace)
    lines = text.strip().split("\n")
    assert lines[0] == "step,lr,loss,loss_aggression,loss_gender,loss_communal"
    assert len(lines) == 1 + len(result.trace)
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[2]) == result.trace[0].loss  # repr round-trips


# ---------------------------------------------------------------------------
# prediction and evaluation


def overfit_checkpoint(seed=11):
    data = toy_dataset(24, seed=3)
    result = train(data, cfg(epochs=40, batch_size=8, base_lr=3e-3, seed=seed),
                   *toy_init(data, dropout_p=0.1))
    return data, result.checkpoint


def test_overfit_model_reproduces_training_labels():
    data, ck = overfit_checkpoint()
    report = evaluate(ck, data)
    assert report.instance_f1 >= 0.9
    labels = predict(ck, [ex.text for ex in data])
    agree = sum(1 for ex, lab in zip(data, labels) if lab == ex.labels)
    assert agree / len(data) == report.instance_f1


def test_predict_empty_list():
    _, ck = overfit_checkpoint()
    assert predict(ck, []) == []


def test_predict_is_deterministic_across_calls():
    data, ck = overfit_checkpoint()
    texts = [ex.text for ex in data]
    assert predict(ck, texts) == predict(ck, texts)


def test_predict_rejects_encoder_only_checkpoint():
    data, ck = overfit_checkpoint()
    enc_only = Checkpoint(kind="encoder", config=ck.config, vocab=ck.vocab,
                          pooler_kind="none", params=ck.params, meta={})
    with pytest.raises(CheckpointFormatError, match="full model"):
        predict(enc_only, ["kichu kotha"])


def test_evaluate_empty_dataset_rejected():
    _, ck = overfit_checkpoint()
    with pytest.raises(DataError, match="empty"):
        evaluate(ck, [])


# ---------------------------------------------------------------------------
# padding: predict runs rows shortest first, each chunk of 64 cut to its
# longest real row


@pytest.fixture(scope="module")
def overfit():
    return overfit_checkpoint()


def varied_texts(data, n, seed=0):
    """n texts of 1 to 14 words from data's vocabulary: rows from two
    tokens to past max_len."""
    rng = np.random.default_rng(seed)
    words = sorted({w for ex in data for w in normalize(ex.text).split()})
    return [" ".join(rng.choice(words, size=rng.integers(1, 15))) for _ in range(n)]


def assert_labels_match_rows_alone(ck, texts, labels):
    """Each predicted label lies within 1e-4 of the top logit of a
    full-width forward of its row alone."""
    assert len(labels) == len(texts)
    for text, label in zip(texts, labels):
        alone = batch_encode([normalize(text)], ck.vocab, ck.config.max_len)
        logits = forward_logits(ck.params, ck.config, ck.pooler_kind, alone)
        for task in TASKS:
            row = logits[task].data[0]
            picked = row[TASK_LABELS[task].index(getattr(label, task))]
            assert picked >= row.max() - 1e-4, (text, task)


def test_predict_labels_match_each_row_predicted_alone(overfit):
    data, ck = overfit
    texts = varied_texts(data, 150)  # three chunks, each its own width
    assert_labels_match_rows_alone(ck, texts, predict(ck, texts))


def test_length_shuffled_input_gives_permuted_predictions(overfit):
    data, ck = overfit
    texts = varied_texts(data, 150, seed=1)
    labels = predict(ck, texts)
    perm = np.random.default_rng(2).permutation(len(texts))
    assert predict(ck, [texts[i] for i in perm]) == [labels[i] for i in perm]


def test_chunk_mixing_max_len_and_two_token_rows(overfit):
    data, ck = overfit
    long_text = " ".join(normalize(ex.text) for ex in data[:4])
    texts = ["maar", long_text, "shanto", "meye", long_text[::-1]]
    lengths = batch_encode(texts, ck.vocab, ck.config.max_len).attention_mask.sum(axis=1)
    assert lengths.tolist() == [2, ck.config.max_len, 2, 2, ck.config.max_len]
    assert_labels_match_rows_alone(ck, texts, predict(ck, texts))


@pytest.mark.parametrize("pooler", ["attention", "mean"])
def test_forward_logits_ignore_what_sits_in_padding(overfit, pooler):
    data, ck = overfit
    params = init_model_params(ck.config, pooler, seed=5)
    rng = np.random.default_rng(6)
    for name, t in params.items():
        if not name.startswith("encoder."):
            t.data[...] = rng.normal(0.0, 1.0, t.shape)
    batch = batch_encode(varied_texts(data, 40), ck.vocab, ck.config.max_len)
    ids = batch.token_ids.copy()
    pad = batch.attention_mask == 0
    ids[pad] = rng.integers(0, ck.vocab.size, int(pad.sum()))
    noisy = EncodedBatch(token_ids=ids, attention_mask=batch.attention_mask)
    clean = forward_logits(params, ck.config, pooler, batch)
    dirty = forward_logits(params, ck.config, pooler, noisy)
    for task in TASKS:
        assert np.array_equal(clean[task].data, dirty[task].data), task


# ---------------------------------------------------------------------------
# forward-only passes record no graph


@pytest.fixture
def chunk_logits(monkeypatch):
    """Every logits dict the forward-only path hands to predict_labels."""
    # trihead.train is also the name of a function, so import the module
    module = importlib.import_module("trihead.train")
    real, seen = module.predict_labels, []

    def capture(logits):
        seen.append(logits)
        return real(logits)

    monkeypatch.setattr(module, "predict_labels", capture)
    return seen


def assert_no_graph(chunks):
    assert chunks
    for logits in chunks:
        assert all(t.node is None and not t.requires_grad for t in logits.values())


def test_predict_and_evaluate_record_no_graph(overfit, chunk_logits):
    data, ck = overfit
    predict(ck, varied_texts(data, 100))
    assert_no_graph(chunk_logits)
    chunk_logits.clear()
    evaluate(ck, data)
    assert_no_graph(chunk_logits)
    assert all(t.requires_grad for t in ck.params.values())


def test_dev_split_is_encoded_once(monkeypatch):
    module = importlib.import_module("trihead.train")
    real_encode, calls = module.batch_encode, []

    def counted(texts, *args):
        calls.append(len(texts))
        return real_encode(texts, *args)

    monkeypatch.setattr(module, "batch_encode", counted)
    data = toy_dataset(16, seed=1)
    train(data, cfg(epochs=2, batch_size=8, base_lr=2e-3), *toy_init(data),
          dev=toy_dataset(8, seed=2))
    assert calls == [16, 8]  # the training rows, then the dev rows, once


def test_dev_eval_records_no_graph_and_leaves_params_trainable(chunk_logits, monkeypatch):
    module = importlib.import_module("trihead.train")
    real_eval, tables = module._evaluate_params, []

    def evaluate_then_check(params, *args):
        report = real_eval(params, *args)
        tables.append(all(t.requires_grad for t in params.values()))
        return report

    monkeypatch.setattr(module, "_evaluate_params", evaluate_then_check)
    data = toy_dataset(16, seed=1)
    train(data, cfg(epochs=2, batch_size=8, base_lr=2e-3), *toy_init(data),
          dev=toy_dataset(8, seed=2))
    assert tables == [True, True]
    assert_no_graph(chunk_logits)
