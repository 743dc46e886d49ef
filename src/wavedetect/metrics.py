"""Confusion-matrix metrics for binary anomaly predictions. ``compute_metrics``
checks nothing: its callers, ``training.evaluate_fragments`` and
``streaming._report``, pass equal-length, non-empty lists of 0/1 values.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MetricsReport:
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    degenerate: tuple = ()  # metric names whose denominator was zero

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def as_row(self) -> str:
        return (
            f"{self.tp},{self.fp},{self.tn},{self.fn},"
            f"{self.accuracy:.6f},{self.precision:.6f},{self.recall:.6f},{self.f1:.6f}"
        )

    def format_table(self) -> str:
        lines = [
            f"{'samples':<12}{self.total}",
            f"{'tp/fp/tn/fn':<12}{self.tp}/{self.fp}/{self.tn}/{self.fn}",
            f"{'accuracy':<12}{self.accuracy:.4f}",
            f"{'precision':<12}{self.precision:.4f}{' (degenerate)' if 'precision' in self.degenerate else ''}",
            f"{'recall':<12}{self.recall:.4f}{' (degenerate)' if 'recall' in self.degenerate else ''}",
            f"{'f1':<12}{self.f1:.4f}{' (degenerate)' if 'f1' in self.degenerate else ''}",
        ]
        return "\n".join(lines)


def compute_metrics(preds, labels) -> MetricsReport:
    """Accuracy, precision, recall and F1 from 0/1 predictions.

    A zero denominator yields 0.0 for the affected metric and records its
    name in ``degenerate``.
    """
    tp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 1)
    fp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 0)
    tn = sum(1 for p, y in zip(preds, labels) if p == 0 and y == 0)
    fn = sum(1 for p, y in zip(preds, labels) if p == 0 and y == 1)

    degenerate = []
    accuracy = (tp + tn) / len(preds)
    if tp + fp:
        precision = tp / (tp + fp)
    else:
        precision, _ = 0.0, degenerate.append("precision")
    if tp + fn:
        recall = tp / (tp + fn)
    else:
        recall, _ = 0.0, degenerate.append("recall")
    if precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1, _ = 0.0, degenerate.append("f1")
    return MetricsReport(tp, fp, tn, fn, accuracy, precision, recall, f1, tuple(degenerate))
