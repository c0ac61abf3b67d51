"""Scoring: per-task micro precision/recall/F1, their average, Instance F1.

Each comment carries exactly one label per task, so micro-averaging has a
useful property: summed false positives equal summed false negatives,
which forces precision == recall == F1 per task. micro_prf still counts
true positives, false positives and false negatives in one pass over the
rows and derives each figure from them rather than shortcutting to
accuracy.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import asdict, dataclass
from itertools import product
from typing import Sequence

from .errors import DataError

AGGRESSION_LABELS = ("NAG", "CAG", "OAG")
GENDER_LABELS = ("NGEN", "GEN")
COMMUNAL_LABELS = ("NCOM", "COM")

# The one declaration of the three tasks and their labels, in head, column
# and report order; data files, the loss, the trace and the scores walk it.
TASK_LABELS = {
    "aggression": AGGRESSION_LABELS,
    "gender": GENDER_LABELS,
    "communal": COMMUNAL_LABELS,
}
TASKS = tuple(TASK_LABELS)


class TriLabel(namedtuple("TriLabel", TASKS)):
    """One comment's three gold or predicted labels, in TASKS order: one of
    the twelve TRIPLES, which TriLabel(...) hands back; others are a DataError."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        labels = super().__new__(cls, *args, **kwargs) if kwargs else args
        try:
            return _TRIPLE_OF[labels]
        except (KeyError, TypeError):  # TypeError: a label that cannot be hashed
            labels = super().__new__(cls, *labels)  # the namedtuple's arity checks
            task, value = next((t, v) for t, v in zip(TASKS, labels)
                               if v not in TASK_LABELS[t])
            raise DataError(
                f"invalid {task} label {value!r}; expected one of {TASK_LABELS[task]}"
            ) from None

    @classmethod
    def _make(cls, iterable):  # so _replace hands back a prebuilt triple too
        return cls(*iterable)


# every valid triple, in the order of the heads' flattened class indices
TRIPLES = tuple(tuple.__new__(TriLabel, labels) for labels in product(*TASK_LABELS.values()))
_TRIPLE_OF = {t: t for t in TRIPLES}


@dataclass(frozen=True)
class TaskScore:
    task: str
    precision: float
    recall: float
    f1: float
    support: dict


@dataclass(frozen=True)
class MetricsReport:
    tasks: tuple
    overall_micro_f1: float
    instance_f1: float
    n_instances: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    def to_table(self) -> str:
        lines = [f"{'task':<12} {'P':>6} {'R':>6} {'F1':>6}"]
        for ts in self.tasks:
            lines.append(
                f"{ts.task:<12} {ts.precision:>6.3f} {ts.recall:>6.3f} {ts.f1:>6.3f}"
            )
        lines.append(f"{'overall':<12} {'':>6} {'':>6} {self.overall_micro_f1:>6.3f}")
        lines.append(f"{'instance':<12} {'':>6} {'':>6} {self.instance_f1:>6.3f}")
        return "\n".join(lines)


def _validate_pair(gold: Sequence, pred: Sequence):
    if len(gold) != len(pred):
        raise DataError(f"gold has {len(gold)} rows but pred has {len(pred)}")
    if len(gold) == 0:
        raise DataError("cannot score an empty label sequence")


def micro_prf(gold: Sequence[str], pred: Sequence[str], task: str) -> tuple:
    """Micro-averaged (precision, recall, F1) for one task's label strings."""
    if task not in TASK_LABELS:
        raise DataError(f"unknown task {task!r}; expected one of {TASKS}")
    _validate_pair(gold, pred)
    labels = TASK_LABELS[task]
    tp = fp = fn = 0
    for i, (g, p) in enumerate(zip(gold, pred)):
        if g not in labels:
            raise DataError(f"row {i}: invalid gold {task} label {g!r}")
        if p not in labels:
            raise DataError(f"row {i}: invalid predicted {task} label {p!r}")
        if g == p:
            tp += 1
        else:
            fp += 1  # for the predicted class
            fn += 1  # for the gold class
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    # a wrong row is one FP and one FN, so fp == fn; keep F1 bitwise equal to both
    f1 = precision if precision == recall else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def instance_f1(gold: Sequence[TriLabel], pred: Sequence[TriLabel]) -> float:
    """Fraction of instances with all three labels correct (exact match)."""
    _validate_pair(gold, pred)
    correct = sum(1 for g, p in zip(gold, pred) if g == p)
    return correct / len(gold)


def _mean_f1(scores) -> float:
    if len(scores) != len(TASKS):
        raise DataError(f"report has {len(scores)} tasks, expected {len(TASKS)}")
    return sum(ts.f1 for ts in scores) / len(TASKS)


def overall_micro_f1(report: MetricsReport) -> float:
    """Plain average of the per-task micro F1 scores, one per task."""
    return _mean_f1(report.tasks)


def score_triples(gold: Sequence[TriLabel], pred: Sequence[TriLabel]) -> MetricsReport:
    """Full report over parallel gold/predicted TriLabel sequences."""
    _validate_pair(gold, pred)
    scores = []
    for task, g, p in zip(TASKS, zip(*gold), zip(*pred)):
        precision, recall, f1 = micro_prf(g, p, task)
        support = {c: g.count(c) for c in TASK_LABELS[task]}
        scores.append(TaskScore(task, precision, recall, f1, support))
    report = MetricsReport(
        tasks=tuple(scores),
        overall_micro_f1=_mean_f1(scores),
        instance_f1=instance_f1(gold, pred),
        n_instances=len(gold),
    )
    return report
