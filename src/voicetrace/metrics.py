"""Binary detection metrics with fake as the positive class.

Thresholded rates treat a clip as predicted-fake when its score is
greater than or equal to the threshold. Ranking metrics group tied
scores so reorderings within a tie cannot change the result.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields

import numpy as np


def _as_arrays(labels, scores):
    labels = np.asarray(labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape or labels.ndim != 1:
        raise ValueError("labels and scores must be matching 1-D arrays")
    if labels.size == 0:
        raise ValueError("metrics need at least one sample")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0 (real) or 1 (fake)")
    if np.any(np.isnan(scores)):  # NaN never ties with itself, so tie grouping would not end
        raise ValueError("scores must not be NaN")
    return labels, scores


def threshold_metrics(labels, scores, threshold: float = 0.5) -> dict:
    """Accuracy, F1, FPR and FNR at a fixed decision threshold."""
    labels, scores = _as_arrays(labels, scores)
    pred = scores >= threshold
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    tn = int(np.sum(~pred & (labels == 0)))

    def ratio(num, den):
        return num / den if den else 0.0

    f1 = ratio(2 * tp, 2 * tp + fp + fn)
    return {
        "acc": (tp + tn) / labels.size,
        "f1": f1,
        "fpr": ratio(fp, fp + tn),
        "fnr": ratio(fn, fn + tp),
    }


def _tie_groups(labels, scores):
    """Scores descending, each group of tied scores' end index and running positive count."""
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    ends = np.append(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1, ranked.size)
    return ends, np.cumsum(labels[order])[ends - 1]


def _roc_points(labels, scores):
    """Tie-grouped (fpr, fnr) operating points, threshold descending from +inf."""
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ranking metrics need both classes present")
    ends, positives = _tie_groups(labels, scores)
    fpr = np.concatenate(([0.0], (ends - positives) / n_neg))
    fnr = np.concatenate(([1.0], 1.0 - positives / n_pos))
    return fpr, fnr


def roc_auc(labels, scores) -> float:
    """Trapezoidal area under the ROC curve over tie-grouped points."""
    labels, scores = _as_arrays(labels, scores)
    fpr, fnr = _roc_points(labels, scores)
    tpr = 1.0 - fnr
    return float(np.sum(0.5 * (tpr[1:] + tpr[:-1]) * np.diff(fpr)))


def average_precision(labels, scores) -> float:
    """Step-wise AP: sum of (recall gain) * precision over distinct thresholds."""
    labels, scores = _as_arrays(labels, scores)
    n_pos = int(np.sum(labels == 1))
    if n_pos == 0:
        raise ValueError("average precision needs at least one positive")
    ap = 0.0
    prev_recall = 0.0
    for end, tp in zip(*(a.tolist() for a in _tie_groups(labels, scores))):
        recall = tp / n_pos
        ap += (recall - prev_recall) * (tp / end)
        prev_recall = recall
    return ap


def eer(labels, scores) -> float:
    """Equal error rate: linear interpolation between the operating points
    straddling FPR = FNR. The difference FPR - FNR never decreases as the
    threshold drops, so there is a single crossing."""
    labels, scores = _as_arrays(labels, scores)
    fpr, fnr = _roc_points(labels, scores)
    diff = fpr - fnr
    idx = int(np.argmax(diff >= 0.0))
    if diff[idx] == 0.0:
        return float(fpr[idx])
    alpha = -diff[idx - 1] / (diff[idx] - diff[idx - 1])
    return float(fpr[idx - 1] + alpha * (fpr[idx] - fpr[idx - 1]))


def compute_all(labels, scores, threshold: float = 0.5) -> dict:
    out = threshold_metrics(labels, scores, threshold)
    out["auc"] = roc_auc(labels, scores)
    out["ap"] = average_precision(labels, scores)
    out["eer"] = eer(labels, scores)
    return out


@dataclass(frozen=True)
class MetricRow:
    dataset: str
    criterion: str
    manipulation: str
    magnitude: float
    acc: float
    auc: float
    f1: float
    ap: float
    fpr: float
    fnr: float
    eer: float

    @classmethod
    def from_metrics(cls, dataset, criterion, manipulation, magnitude, metrics: dict):
        return cls(dataset, criterion, manipulation, float(magnitude), **metrics)


REPORT_COLUMNS = tuple(f.name for f in fields(MetricRow))


def write_report(path, rows) -> None:
    """CSV with repr-formatted floats so values round-trip exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for row in rows:
            writer.writerow([
                row.dataset, row.criterion, row.manipulation,
                *(repr(getattr(row, name)) for name in REPORT_COLUMNS[3:]),
            ])


def read_report(path) -> list:
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != REPORT_COLUMNS:
            raise ValueError(f"{path}: unexpected report header {header}")
        for rec in reader:
            rows.append(MetricRow(rec[0], rec[1], rec[2], *(float(v) for v in rec[3:])))
    return rows
