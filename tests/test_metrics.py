"""Scoring module against hand counts and a brute-force oracle."""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trihead.errors import DataError
from trihead.metrics import (
    AGGRESSION_LABELS,
    COMMUNAL_LABELS,
    GENDER_LABELS,
    TASK_LABELS,
    TASKS,
    TRIPLES,
    MetricsReport,
    TriLabel,
    instance_f1,
    micro_prf,
    overall_micro_f1,
    score_triples,
)


def oracle_accuracy(gold, pred):
    """Independent count: exact fraction of positions that agree."""
    hits = sum(1 for g, p in zip(gold, pred) if g == p)
    return Fraction(hits, len(gold))


def triple(a="NAG", g="NGEN", c="NCOM"):
    return TriLabel(a, g, c)


# ---------------------------------------------------------------------------
# micro P/R/F1


def test_perfect_prediction_scores_one():
    gold = ["NAG", "CAG", "OAG"]
    assert micro_prf(gold, gold, "aggression") == (1.0, 1.0, 1.0)


def test_two_of_three_correct():
    p, r, f1 = micro_prf(["NAG", "CAG", "OAG"], ["NAG", "CAG", "CAG"], "aggression")
    assert p == r == f1 == pytest.approx(2.0 / 3.0)


def test_micro_identity_holds_on_random_samples():
    rng = np.random.default_rng(42)
    for task, labels in TASK_LABELS.items():
        for _ in range(50):
            n = int(rng.integers(1, 40))
            gold = [labels[i] for i in rng.integers(0, len(labels), n)]
            pred = [labels[i] for i in rng.integers(0, len(labels), n)]
            p, r, f1 = micro_prf(gold, pred, task)
            assert p == r == f1  # bitwise, not approximately


def test_micro_matches_oracle_exhaustively_short():
    # every (gold, pred) pair up to length 4 for the 3-class task,
    # up to length 6 for the binary tasks
    cases = [("aggression", AGGRESSION_LABELS, 4), ("gender", GENDER_LABELS, 6),
             ("communal", COMMUNAL_LABELS, 6)]
    checked = 0
    for task, labels, max_len in cases:
        for n in range(1, max_len + 1):
            for gold in itertools.product(labels, repeat=n):
                for pred in itertools.product(labels, repeat=n):
                    p, r, f1 = micro_prf(list(gold), list(pred), task)
                    want = float(oracle_accuracy(gold, pred))
                    assert p == want and r == want and f1 == want
                    checked += 1
    # 9^1..9^4 = 7380 aggression pairs; 4^1..4^6 = 5460 per binary task
    assert checked == 7380 + 2 * 5460


def test_length_mismatch_rejected():
    with pytest.raises(DataError, match="rows"):
        micro_prf(["NAG"], ["NAG", "CAG"], "aggression")


def test_invalid_label_names_row():
    with pytest.raises(DataError, match="row 1"):
        micro_prf(["NAG", "AGG"], ["NAG", "NAG"], "aggression")
    with pytest.raises(DataError, match=r"^row 1: invalid predicted aggression label 'AGG'$"):
        micro_prf(["NAG", "CAG"], ["NAG", "AGG"], "aggression")


def test_empty_sequences_rejected():
    with pytest.raises(DataError, match="empty"):
        micro_prf([], [], "gender")


def test_unknown_task_rejected():
    with pytest.raises(DataError, match="unknown task"):
        micro_prf(["NAG"], ["NAG"], "stance")


# ---------------------------------------------------------------------------
# instance F1


def test_instance_f1_all_correct():
    gold = [triple(), triple("CAG", "GEN", "COM")]
    assert instance_f1(gold, list(gold)) == 1.0


def test_instance_f1_one_label_off_halves_score():
    gold = [triple(), triple()]
    pred = [triple(), triple(g="GEN")]
    assert instance_f1(gold, pred) == 0.5


def test_instance_f1_bounded_by_per_task_accuracy():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        gold = [
            triple(
                AGGRESSION_LABELS[rng.integers(3)],
                GENDER_LABELS[rng.integers(2)],
                COMMUNAL_LABELS[rng.integers(2)],
            )
            for _ in range(n)
        ]
        pred = [
            triple(
                AGGRESSION_LABELS[rng.integers(3)],
                GENDER_LABELS[rng.integers(2)],
                COMMUNAL_LABELS[rng.integers(2)],
            )
            for _ in range(n)
        ]
        inst = instance_f1(gold, pred)
        per_task = [
            micro_prf([getattr(t, k) for t in gold], [getattr(t, k) for t in pred], k)[2]
            for k in TASK_LABELS
        ]
        assert 0.0 <= inst <= min(per_task) + 1e-12


# ---------------------------------------------------------------------------
# report assembly


def test_overall_is_mean_of_task_f1s():
    gold = [triple("NAG"), triple("CAG"), triple("OAG")]
    pred = [triple("NAG"), triple("CAG"), triple("CAG")]
    report = score_triples(gold, pred)
    f1s = [ts.f1 for ts in report.tasks]
    assert report.overall_micro_f1 == pytest.approx(sum(f1s) / 3)
    assert overall_micro_f1(report) == report.overall_micro_f1


def test_overall_wants_one_score_per_task():
    report = score_triples([triple()], [triple()])
    two = MetricsReport(tasks=report.tasks[:2], overall_micro_f1=report.overall_micro_f1,
                        instance_f1=report.instance_f1, n_instances=report.n_instances)
    with pytest.raises(DataError, match=r"^report has 2 tasks, expected 3$"):
        overall_micro_f1(two)


def test_published_row_arithmetic():
    # averaging the three task scores reproduces the overall column
    assert round((0.470 + 0.599 + 0.493) / 3, 3) == 0.521
    assert round((0.594 + 0.816 + 0.909) / 3, 3) == 0.773


def test_report_json_fields_and_stability():
    gold = [triple(), triple("OAG", "GEN", "COM")]
    pred = [triple(), triple("OAG", "NGEN", "COM")]
    report = score_triples(gold, pred)
    blob = json.loads(report.to_json())
    assert set(blob) == {"tasks", "overall_micro_f1", "instance_f1", "n_instances"}
    for entry in blob["tasks"]:
        assert set(entry) == {"task", "precision", "recall", "f1", "support"}
    assert blob["n_instances"] == 2
    assert report.to_json() == score_triples(gold, pred).to_json()


def test_report_support_counts_gold_sides():
    gold = [triple("NAG"), triple("NAG"), triple("OAG")]
    scores = {ts.task: ts for ts in score_triples(gold, gold).tasks}
    assert scores["aggression"].support == {"NAG": 2, "CAG": 0, "OAG": 1}
    assert scores["gender"].support == {"NGEN": 3, "GEN": 0}


def test_report_table_renders_three_decimals():
    gold = [triple(), triple(), triple("CAG")]
    pred = [triple(), triple(), triple()]
    table = score_triples(gold, pred).to_table()
    assert "0.667" in table
    assert "aggression" in table and "instance" in table


def test_permutation_invariance():
    rng = np.random.default_rng(13)
    gold = [triple(AGGRESSION_LABELS[rng.integers(3)]) for _ in range(20)]
    pred = [triple(AGGRESSION_LABELS[rng.integers(3)]) for _ in range(20)]
    base = score_triples(gold, pred)
    perm = rng.permutation(20)
    shuffled = score_triples([gold[i] for i in perm], [pred[i] for i in perm])
    assert shuffled.to_json() == base.to_json()


def test_trilabel_validation():
    with pytest.raises(DataError, match="aggression"):
        TriLabel("BAD", "NGEN", "NCOM")
    with pytest.raises(DataError, match="gender"):
        TriLabel("NAG", "X", "NCOM")
    with pytest.raises(DataError, match="communal"):
        TriLabel("NAG", "NGEN", "")


def test_trilabel_hands_back_the_prebuilt_triple():
    combos = list(itertools.product(AGGRESSION_LABELS, GENDER_LABELS, COMMUNAL_LABELS))
    assert TRIPLES == tuple(combos)  # the heads' flattened class order
    for i, labels in enumerate(combos):
        assert TriLabel(*labels) is TRIPLES[i]
        assert TriLabel(**dict(zip(TASKS, labels))) is TRIPLES[i]
        assert TRIPLES[i]._replace(aggression="OAG") is TriLabel("OAG", *labels[1:])
    assert repr(TRIPLES[0]) == "TriLabel(aggression='NAG', gender='NGEN', communal='NCOM')"
    assert tuple(TRIPLES[-1]) == tuple(getattr(TRIPLES[-1], t) for t in TASKS)


@pytest.mark.parametrize("labels, message", [
    (("BAD", "NGEN", "NCOM"),
     "invalid aggression label 'BAD'; expected one of ('NAG', 'CAG', 'OAG')"),
    (("NAG", "X", "NCOM"), "invalid gender label 'X'; expected one of ('NGEN', 'GEN')"),
    (("NAG", "NGEN", ""), "invalid communal label ''; expected one of ('NCOM', 'COM')"),
    (("NAG", ["GEN"], "NCOM"),
     "invalid gender label ['GEN']; expected one of ('NGEN', 'GEN')"),
])
def test_trilabel_names_the_first_bad_label(labels, message):
    with pytest.raises(DataError) as err:
        TriLabel(*labels)
    assert str(err.value) == message
    with pytest.raises(DataError):
        TRIPLES[0]._replace(**dict(zip(TASKS, labels)))


@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_score_triples_matches_oracle(n, seed):
    rng = np.random.default_rng(seed)
    mk = lambda: triple(
        AGGRESSION_LABELS[rng.integers(3)],
        GENDER_LABELS[rng.integers(2)],
        COMMUNAL_LABELS[rng.integers(2)],
    )
    gold = [mk() for _ in range(n)]
    pred = [mk() for _ in range(n)]
    report = score_triples(gold, pred)
    scores = {ts.task: ts for ts in report.tasks}
    for task in TASK_LABELS:
        want = float(oracle_accuracy([getattr(t, task) for t in gold],
                                     [getattr(t, task) for t in pred]))
        assert scores[task].f1 == want
    assert report.instance_f1 == float(oracle_accuracy(gold, pred))
