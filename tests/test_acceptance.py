"""Acceptance gate: the ten properties this build must hold, each as one
test with its stated tolerance. Run `pytest -v tests/test_acceptance.py`
for a one-line pass/fail verdict per criterion.

The heavyweight fixtures (overfit runs, masked-token pretraining) are
module-scoped and shared so the whole gate stays inside a couple of
minutes on a laptop CPU.
"""

import math
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from trihead.assets import asset_path
from trihead.autograd import Tensor, add, cross_entropy, grad_check
from trihead.cli import main
from trihead.data import class_distribution, load_dataset
from trihead.encoder import EncoderConfig, PretrainSchedule, pretrain_mlm
from trihead.metrics import (
    MetricsReport,
    TaskScore,
    TriLabel,
    instance_f1,
    micro_prf,
    overall_micro_f1,
    score_triples,
)
from trihead.pooling import attention_pool, mean_pool
from trihead.textpipe import balance, batch_encode, build_vocab, normalize
from trihead.train import (
    EncoderInit,
    TrainConfig,
    evaluate,
    forward_logits,
    init_model_params,
    train,
)

TRAIN_TSV = str(asset_path("synth_train.tsv"))
DEV_TSV = str(asset_path("synth_dev.tsv"))
CORPUS_TXT = str(asset_path("synth_corpus.txt"))

AGGRESSION = ("NAG", "CAG", "OAG")
GENDER = ("NGEN", "GEN")
COMMUNAL = ("NCOM", "COM")


def announce(n, name, detail):
    print(f"criterion {n} ({name}): PASS - {detail}")


# ---------------------------------------------------------------------------
# shared heavyweight fixtures


@pytest.fixture(scope="module")
def bundled():
    """Training set, raw corpus, shared vocabulary, and the d=32 encoder
    shape used by the overfit and pretraining criteria."""
    data = load_dataset(TRAIN_TSV)
    with open(CORPUS_TXT, encoding="utf-8") as fh:
        corpus = [normalize(line) for line in fh if line.strip()]
    vocab = build_vocab(corpus, target_size=200)
    config = EncoderConfig(vocab_size=vocab.size, d_model=32, n_layers=2,
                           n_heads=2, d_ff=64, max_len=16, dropout_p=0.3)
    return data, corpus, vocab, config


def overfit_run(data, vocab, config, pooler, params=None):
    """200 epochs at the published hyperparameters, with the learning rate
    scaled up through the config (the published 2e-5 is sized for a model
    four orders of magnitude larger). Evaluated on the training set every
    epoch so the trajectory is visible."""
    tc = TrainConfig(epochs=200, batch_size=8, dropout_p=0.3, base_lr=2e-3,
                     warmup_steps=0, seed=42, pooler=pooler)
    init = EncoderInit(config=config, vocab=vocab, params=params)
    return train(data, tc, init, dev=data)


@pytest.fixture(scope="module")
def fresh_attention(bundled):
    data, _, vocab, config = bundled
    return overfit_run(data, vocab, config, "attention")


@pytest.fixture(scope="module")
def fresh_mean(bundled):
    data, _, vocab, config = bundled
    return overfit_run(data, vocab, config, "mean")


@pytest.fixture(scope="module")
def mlm_result(bundled):
    _, corpus, vocab, config = bundled
    schedule = PretrainSchedule(steps=300, batch_size=8, base_lr=1e-3,
                                warmup_steps=0, mask_rate=0.15, seed=42)
    return pretrain_mlm(corpus, vocab, config, schedule)


# ---------------------------------------------------------------------------
# 1. gradient fidelity


def test_criterion_01_gradient_fidelity():
    started = time.monotonic()
    texts = ["ami bhalo achi re", "tui ekta chagol bhag",
             "khub kharap kotha", "meye der niye khocha"]
    vocab = build_vocab(texts, target_size=40)
    config = EncoderConfig(vocab_size=vocab.size, d_model=16, n_layers=2,
                           n_heads=2, d_ff=32, max_len=8, dropout_p=0.0)
    batch = batch_encode(["ami bhalo achi re tui",
                          "khub kharap kotha meye der"], vocab, 8)
    assert batch.token_ids.shape == (2, 8)

    base = init_model_params(config, "attention", seed=5)
    params = {k: Tensor(v.data.astype(np.float64), dtype=np.float64,
                        requires_grad=True) for k, v in base.items()}
    targets = {"aggression": np.array([0, 2]), "gender": np.array([0, 1]),
               "communal": np.array([1, 0])}

    def joint_loss(name, probe):
        table = dict(params)
        table[name] = probe
        logits = forward_logits(table, config, "attention", batch, mode="eval")
        total = cross_entropy(logits["aggression"], targets["aggression"])
        total = add(total, cross_entropy(logits["gender"], targets["gender"]))
        return add(total, cross_entropy(logits["communal"], targets["communal"]))

    worst = 0.0
    for name in params:
        if name == "encoder.mlm_bias":  # not part of the classification loss
            continue
        report = grad_check(lambda p, n=name: joint_loss(n, p), params[name],
                            eps=1e-4, tol=1e-3)
        assert report.passed, f"{name}: {report}"
        worst = max(worst, report.max_rel_error)
    elapsed = time.monotonic() - started
    assert worst <= 1e-3
    assert elapsed < 60.0
    announce(1, "gradient fidelity",
             f"max rel err {worst:.2e} over every parameter, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. zero-query equivalence


def test_criterion_02_zero_query_equivalence():
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(100):
        b = int(rng.integers(1, 5))
        l = int(rng.integers(2, 9))
        d = int(rng.integers(2, 17))
        h = Tensor(rng.normal(size=(b, l, d)).astype(np.float32))
        mask = np.zeros((b, l), dtype=np.int64)
        for row in range(b):
            mask[row, :int(rng.integers(1, l + 1))] = 1
        q = Tensor(np.zeros(d, dtype=np.float32), requires_grad=True)
        w_h = Tensor(np.eye(d, dtype=np.float32), requires_grad=True)
        att = attention_pool(h, mask, q, w_h)
        mean = mean_pool(h, mask)
        worst = max(worst, float(np.abs(att.data - mean.data).max()))
    assert worst <= 1e-6
    announce(2, "zero-query equivalence",
             f"max |attention - mean| = {worst:.1e} over 100 draws")


# ---------------------------------------------------------------------------
# 3. metric oracle


def oracle_accuracy(gold, pred):
    return Fraction(sum(g == p for g, p in zip(gold, pred)), len(gold))


def test_criterion_03_metric_oracle():
    # Exhaustive per task: every (gold, pred) pair of label sequences up to
    # length 6 over that task's full alphabet. The joint product of all
    # three alphabets squared is 144^L pairs, astronomically past length 2,
    # so the joint quantities get an exhaustive sweep to length 2 plus a
    # large random sample at length 50.
    checked = 0
    for task, alphabet in (("aggression", AGGRESSION), ("gender", GENDER),
                           ("communal", COMMUNAL)):
        for length in range(1, 7):
            for combo in product(product(alphabet, alphabet), repeat=length):
                gold = [g for g, _ in combo]
                pred = [p for _, p in combo]
                p, r, f1 = micro_prf(gold, pred, task)
                want = float(oracle_accuracy(gold, pred))
                assert p == r == f1 == want
                checked += 1
    per_task = checked
    assert per_task == sum(9 ** n for n in range(1, 7)) \
        + 2 * sum(4 ** n for n in range(1, 7))

    combos = [TriLabel(a, g, c) for a in AGGRESSION for g in GENDER
              for c in COMMUNAL]
    joint = 0
    for length in (1, 2):
        for pair in product(product(combos, combos), repeat=length):
            gold = [g for g, _ in pair]
            pred = [p for _, p in pair]
            report = score_triples(gold, pred)
            per_task_oracle = [
                oracle_accuracy([t.aggression for t in gold],
                                [t.aggression for t in pred]),
                oracle_accuracy([t.gender for t in gold],
                                [t.gender for t in pred]),
                oracle_accuracy([t.communal for t in gold],
                                [t.communal for t in pred]),
            ]
            want_overall = (float(per_task_oracle[0]) + float(per_task_oracle[1])
                            + float(per_task_oracle[2])) / 3
            assert report.overall_micro_f1 == want_overall
            assert report.instance_f1 == float(
                Fraction(sum(g == p for g, p in zip(gold, pred)), length))
            for ts, frac in zip(report.tasks, per_task_oracle):
                assert ts.precision == ts.recall == ts.f1 == float(frac)
            joint += 1
    assert joint == 144 + 144 ** 2

    rng = np.random.default_rng(3)
    for _ in range(1000):
        gold = [combos[i] for i in rng.integers(0, 12, size=50)]
        pred = [combos[i] for i in rng.integers(0, 12, size=50)]
        report = score_triples(gold, pred)
        for ts, labels in zip(report.tasks, ("aggression", "gender", "communal")):
            want = float(oracle_accuracy([getattr(t, labels) for t in gold],
                                         [getattr(t, labels) for t in pred]))
            assert ts.precision == ts.recall == ts.f1 == want
        assert report.instance_f1 == instance_f1(gold, pred)
    announce(3, "metric oracle",
             f"{per_task} per-task pairs, {joint} joint pairs, "
             f"1000 random length-50 samples, all exact")


# ---------------------------------------------------------------------------
# 4. published-table arithmetic


def test_criterion_04_table_arithmetic():
    # (per-task F1 triple, printed overall) from the published dev results
    rows = [
        ((0.470, 0.599, 0.493), 0.521),
        ((0.471, 0.603, 0.356), 0.477),
        ((0.642, 0.755, 0.692), 0.696),
        ((0.635, 0.762, 0.612), 0.670),
        ((0.594, 0.816, 0.909), 0.773),
        ((0.683, 0.827, 0.902), 0.804),
        ((0.618, 0.839, 0.661), 0.706),
    ]

    def overall_from(f1s):
        tasks = tuple(
            TaskScore(task=t, precision=f, recall=f, f1=f, support={})
            for t, f in zip(("aggression", "gender", "communal"), f1s))
        report = MetricsReport(tasks=tasks,
                               overall_micro_f1=sum(f1s) / 3,
                               instance_f1=0.0, n_instances=0)
        return overall_micro_f1(report)

    for f1s, printed in rows:
        got = overall_from(f1s)
        assert abs(got - printed) <= 0.001, (f1s, printed, got)

    # One published row is internally inconsistent: its own per-task values
    # average to 0.775, not the printed 0.791. Pin the discrepancy so a
    # silent change in either direction gets noticed.
    odd = overall_from((0.612, 0.823, 0.891))
    assert abs(odd - 0.791) > 0.015
    assert abs(odd - 0.7753333333333333) < 1e-12
    announce(4, "table arithmetic",
             "7 self-consistent rows within ±0.001; the one inconsistent "
             "row pinned at its actual mean 0.775")


# ---------------------------------------------------------------------------
# 5. distribution invariants


def test_criterion_05_distribution_invariants():
    class _Ex:
        def __init__(self, a, g, c):
            self.labels = TriLabel(a, g, c)

    def lump(n, a, g, c):
        return [_Ex(a, g, c) for _ in range(n)]

    fixture = (lump(1258, "NAG", "NGEN", "NCOM")
               + lump(1295, "CAG", "NGEN", "NCOM")
               + lump(200, "CAG", "GEN", "NCOM")
               + lump(211, "OAG", "NGEN", "NCOM")
               + lump(3, "OAG", "GEN", "NCOM")
               + lump(242, "OAG", "NGEN", "COM"))
    table = class_distribution(fixture)
    assert (table.nag, table.cag, table.oag) == (1258, 1495, 456)
    assert (table.ngen, table.gen) == (3006, 203)
    assert (table.ncom, table.com) == (2967, 242)
    assert table.total == 3209
    assert table.nag + table.cag + table.oag == table.total
    assert table.ngen + table.gen == table.total
    assert table.ncom + table.com == table.total
    announce(5, "distribution invariants",
             "NAG 1258 / CAG 1495 / OAG 456, total 3209, all sums agree")


# ---------------------------------------------------------------------------
# 6. overfit on the bundled separable corpus


def test_criterion_06_overfit_both_poolers(bundled, fresh_attention, fresh_mean):
    started = time.monotonic()
    data, _, _, config = bundled
    assert config.d_model == 32 and config.n_layers == 2 and config.n_heads == 2
    scores = {}
    for pooler, result in (("attention", fresh_attention), ("mean", fresh_mean)):
        report = evaluate(result.checkpoint, data)
        scores[pooler] = report.instance_f1
        assert report.instance_f1 >= 0.95, (pooler, report.instance_f1)
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    announce(6, "overfit",
             f"train exact match attention {scores['attention']:.3f}, "
             f"mean {scores['mean']:.3f} after 200 epochs")


# ---------------------------------------------------------------------------
# 7. initial loss


def test_criterion_07_initial_loss(fresh_attention):
    expected = math.log(3) + 2 * math.log(2)
    first = fresh_attention.trace[0].loss
    assert abs(first - expected) <= 0.05
    announce(7, "initial loss",
             f"step-0 loss {first:.6f} vs ln3+2ln2 = {expected:.6f}")


# ---------------------------------------------------------------------------
# 8. balance contract


def test_criterion_08_balance_contract():
    class _Ex:
        def __init__(self, i, a):
            self.id = i
            self.labels = TriLabel(a, "NGEN", "NCOM")

        def __repr__(self):
            return self.id

    rows = ([_Ex(f"n{i}", "NAG") for i in range(4)]
            + [_Ex(f"c{i}", "CAG") for i in range(2)]
            + [_Ex("o0", "OAG")])
    out1 = balance(rows, seed=42)
    out2 = balance(rows, seed=42)
    counts = {}
    for ex in out1:
        counts[ex.labels.aggression] = counts.get(ex.labels.aggression, 0) + 1
    assert counts == {"NAG": 4, "CAG": 4, "OAG": 4}
    assert [ex.id for ex in out1] == [ex.id for ex in out2]
    assert {ex.id for ex in rows} <= {ex.id for ex in out1}
    announce(8, "balance contract", "{4,2,1} -> {4,4,4}, seed-stable order")


# ---------------------------------------------------------------------------
# 9. end-to-end determinism


def test_criterion_09_cli_determinism(tmp_path, capsys):
    flags = ["--epochs", "2", "--d-model", "16", "--n-heads", "2",
             "--d-ff", "32", "--max-len", "12", "--base-lr", "1e-3"]
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["train", "--data", TRAIN_TSV, "--out", str(out),
                     *flags]) == 0
    capsys.readouterr()
    assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()

    assert main(["eval", "--model", str(a / "model.ckpt"),
                 "--data", DEV_TSV]) == 0
    eval_out = capsys.readouterr().out
    pred = tmp_path / "pred.tsv"
    assert main(["predict", "--model", str(a / "model.ckpt"),
                 "--input", DEV_TSV, "--output", str(pred)]) == 0
    capsys.readouterr()
    assert main(["score", "--gold", DEV_TSV, "--pred", str(pred)]) == 0
    score_out = capsys.readouterr().out
    assert eval_out == score_out
    announce(9, "determinism",
             "bit-identical checkpoints; eval == predict+score byte for byte")


# ---------------------------------------------------------------------------
# 10. pretraining helps


def test_criterion_10_mlm_pretraining(bundled, fresh_attention, mlm_result):
    data, _, vocab, config = bundled
    params, losses = mlm_result
    assert len(losses) == 300
    assert losses[-1] < losses[0]

    warm = overfit_run(data, vocab, config, "attention", params=params)

    def first_epoch_at_target(result):
        for i, report in enumerate(result.dev_history):
            if report.instance_f1 >= 0.95:
                return i
        return None

    fresh_first = first_epoch_at_target(fresh_attention)
    warm_first = first_epoch_at_target(warm)
    assert fresh_first is not None
    assert warm_first is not None
    assert warm_first <= fresh_first
    announce(10, "masked-token pretraining",
             f"loss {losses[0]:.3f} -> {losses[-1]:.3f}; warm start reaches "
             f"0.95 at epoch {warm_first} vs {fresh_first} fresh")
