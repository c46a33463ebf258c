"""Evaluation suite: per-class precision/recall/F, ROC/AUC, Gamma-index noise.

The AUC numerator is accumulated in integer counts and divided once, so the
trapezoid sweep agrees bit-for-bit with a tie-aware pairwise comparison
count. The ROC curve keeps only the vertices of its polyline, chosen in the
same integer counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, EmptyError
from .grid import neighbor_slices, write_lines

ROC_BLOCK = 4096  # rows per formatted block of a ROC file


@dataclass
class ClassScores:
    precision: float
    recall: float
    f1: float


@dataclass
class ClassReport:
    """Confusion-matrix metrics per class (index 0 = dry, 1 = flood) plus their mean F."""

    classes: tuple[ClassScores, ClassScores]
    avg_f: float


@dataclass
class RocCurve:
    # (k, 2) rows of (false positive rate, true positive rate): the polyline's
    # vertices, from (0, 0) to (1, 1) in sweep order.
    points: np.ndarray
    auc: float


def _flatten(grid: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    grid = np.asarray(grid)
    if mask is None:
        return grid.ravel()
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != grid.shape:
        raise DataError(f"mask shape {mask.shape} != grid shape {grid.shape}")
    return grid[mask]


def class_report(
    pred: np.ndarray, truth: np.ndarray, mask: np.ndarray | None = None
) -> ClassReport:
    """Precision/recall/F per class over the masked pixels."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise DataError(f"prediction shape {pred.shape} != truth shape {truth.shape}")
    p = _flatten(pred, mask)
    t = _flatten(truth, mask)
    if p.size == 0:
        raise EmptyError("empty evaluation mask")
    scores = []
    for cls in (0, 1):
        tp = int(np.sum((p == cls) & (t == cls)))
        fp = int(np.sum((p == cls) & (t != cls)))
        fn = int(np.sum((p != cls) & (t == cls)))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        scores.append(ClassScores(precision=precision, recall=recall, f1=f1))
    return ClassReport(classes=(scores[0], scores[1]), avg_f=(scores[0].f1 + scores[1].f1) / 2)


def roc_auc(
    scores: np.ndarray, truth: np.ndarray, mask: np.ndarray | None = None
) -> RocCurve:
    """Threshold sweep over the unique scores; AUC by the trapezoid rule.

    Equals the Mann-Whitney statistic exactly, ties counting one half. The
    curve holds the end points and every threshold point where the sweep
    changes direction; the points it drops lie on the segment between their
    neighbours, so it draws the same polyline as the full sweep.
    """
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth)
    if scores.shape != truth.shape:
        raise DataError(f"score shape {scores.shape} != truth shape {truth.shape}")
    s = _flatten(scores, mask)
    t = _flatten(truth, mask)
    if not np.all(np.isfinite(s)):
        raise DataError("scores contain non-finite values")
    n_pos = int(np.sum(t == 1))
    n_neg = int(np.sum(t == 0))
    if n_pos == 0 or n_neg == 0:
        raise EmptyError("ROC needs both classes present")
    values, inverse = np.unique(s, return_inverse=True)
    pos_per = np.bincount(inverse[t == 1], minlength=values.size)
    neg_per = np.bincount(inverse[t == 0], minlength=values.size)
    # Sweep from the highest score down; each unique value is one threshold.
    pos_per = pos_per[::-1]
    neg_per = neg_per[::-1]
    # Cumulative counts at (0, 0) and after each threshold.
    fps = np.concatenate([[0], np.cumsum(neg_per)])
    tps = np.concatenate([[0], np.cumsum(pos_per)])
    numerator = int(np.sum(neg_per * (2 * tps[:-1] + pos_per)))
    auc = numerator / (2 * n_pos * n_neg)
    # Point i is a vertex where the steps into and out of it, (neg_per[i-1],
    # pos_per[i-1]) and (neg_per[i], pos_per[i]), turn: an exact cross-product
    # test in counts, whose products are at most N^2.
    turn = neg_per[:-1] * pos_per[1:] != neg_per[1:] * pos_per[:-1]
    keep = np.concatenate([[True], turn, [True]])
    points = np.stack([fps[keep] / n_neg, tps[keep] / n_pos], axis=1)
    return RocCurve(points=points, auc=auc)


def salt_pepper_count(pred: np.ndarray, neighborhood: int = 8) -> int:
    """Number of pixels whose local Gamma index, the mean product of the
    pixel's class sign (+1 flood, -1 dry) with each in-grid neighbour's, is
    strictly negative: the sign of the pixel's sign times its neighbours' sum."""
    sign = np.where(np.asarray(pred).astype(bool), 1, -1).astype(np.int64)
    total = np.zeros(sign.shape, dtype=np.int64)
    for dst, src in neighbor_slices(sign.shape, neighborhood):
        total[dst] += sign[src]
    return int(np.sum(sign * total < 0))


def write_roc_csv(curve: RocCurve, path: str) -> None:
    """Two-column fpr,tpr CSV of the curve's vertices, as %.17g, for external plotting.
    Rows are %-formatted ROC_BLOCK at a time: no per-row Python step, fixed extra memory."""
    def lines():
        yield "fpr,tpr"
        for s in range(0, len(curve.points), ROC_BLOCK):
            block = curve.points[s:s + ROC_BLOCK]
            yield "\n".join(["%.17g,%.17g"] * len(block)) % tuple(block.ravel().tolist())
    write_lines(path, "ROC points", lines())
