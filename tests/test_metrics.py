import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from voicetrace import metrics

from voicetrace.metrics import (
    REPORT_COLUMNS,
    MetricRow,
    average_precision,
    compute_all,
    eer,
    read_report,
    roc_auc,
    threshold_metrics,
    write_report,
)


def _mann_whitney_auc(labels, scores):
    """Pairwise comparison count; ties score half a win."""
    pos = [s for y, s in zip(labels, scores) if y == 1]
    neg = [s for y, s in zip(labels, scores) if y == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def _prefix_ap(labels, scores):
    """AP by explicit enumeration of distinct-score prefixes."""
    pairs = sorted(zip(scores, labels), key=lambda t: -t[0])
    n_pos = sum(y for _, y in pairs)
    ap = 0.0
    prev_recall = 0.0
    i = 0
    while i < len(pairs):
        j = i
        while j < len(pairs) and pairs[j][0] == pairs[i][0]:
            j += 1
        tp = sum(y for _, y in pairs[:j])
        recall = tp / n_pos
        ap += (recall - prev_recall) * (tp / j)
        prev_recall = recall
        i = j
    return ap


def _polyline_eer(labels, scores):
    """EER by walking the tie-grouped ROC polyline and solving the crossing."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    points = [(0.0, 1.0)]
    for t in sorted(set(scores), reverse=True):
        pred = scores >= t
        fp = int(np.sum(pred & (labels == 0)))
        fn = int(np.sum(~pred & (labels == 1)))
        points.append((fp / n_neg, fn / n_pos))
    for (f0, g0), (f1, g1) in zip(points, points[1:]):
        d0, d1 = f0 - g0, f1 - g1
        if d0 == 0.0:
            return f0
        if d0 < 0.0 <= d1:
            if d1 == d0:
                return f0
            alpha = -d0 / (d1 - d0)
            return f0 + alpha * (f1 - f0)
    return points[-1][0]


def test_threshold_metrics_perfect_separation():
    m = threshold_metrics([1, 1, 0, 0], [0.9, 0.8, 0.1, 0.2])
    assert m == {"acc": 1.0, "f1": 1.0, "fpr": 0.0, "fnr": 0.0}


def test_threshold_metrics_everything_flagged():
    m = threshold_metrics([1, 1, 0, 0], [0.9, 0.8, 0.7, 0.6])
    assert m["acc"] == 0.5
    assert m["fpr"] == 1.0
    assert m["fnr"] == 0.0


def test_threshold_metrics_boundary_counts_as_fake():
    m = threshold_metrics([0], [0.5])
    assert m["fpr"] == 1.0


def test_threshold_metrics_zero_denominator_f1():
    # nothing predicted positive and no positives at all
    m = threshold_metrics([0, 0], [0.1, 0.2])
    assert m["f1"] == 0.0


def test_threshold_metrics_match_brute_force():
    rng = np.random.default_rng(73)
    for _ in range(25):
        labels = rng.integers(0, 2, 20)
        scores = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], 20)
        m = threshold_metrics(labels, scores)
        tp = fp = fn = tn = 0
        for y, s in zip(labels, scores):
            pred = s >= 0.5
            if pred and y == 1:
                tp += 1
            elif pred and y == 0:
                fp += 1
            elif not pred and y == 1:
                fn += 1
            else:
                tn += 1
        assert m["acc"] == (tp + tn) / 20
        assert m["f1"] == (2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)
        assert m["fpr"] == (fp / (fp + tn) if fp + tn else 0.0)
        assert m["fnr"] == (fn / (fn + tp) if fn + tp else 0.0)


def test_threshold_metrics_permutation_invariant():
    rng = np.random.default_rng(79)
    labels = rng.integers(0, 2, 15)
    scores = rng.uniform(0, 1, 15)
    base = threshold_metrics(labels, scores)
    perm = rng.permutation(15)
    assert threshold_metrics(labels[perm], scores[perm]) == base


def test_auc_perfect_and_inverted():
    assert roc_auc([1, 1, 0, 0], [0.9, 0.8, 0.1, 0.2]) == 1.0
    assert roc_auc([1, 1, 0, 0], [0.1, 0.2, 0.9, 0.8]) == 0.0


def test_auc_all_tied_scores():
    assert roc_auc([1, 0, 1, 0], [0.4, 0.4, 0.4, 0.4]) == 0.5


def test_auc_equals_mann_whitney():
    rng = np.random.default_rng(83)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        labels = np.zeros(n, dtype=int)
        labels[: int(rng.integers(1, n))] = 1
        rng.shuffle(labels)
        scores = rng.choice(np.linspace(0, 1, 5), n)  # coarse grid forces ties
        if labels.min() == labels.max():
            continue
        assert abs(roc_auc(labels, scores) - _mann_whitney_auc(labels, scores)) <= 1e-12


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(89)
    labels = rng.integers(0, 2, 30)
    labels[:2] = [0, 1]
    scores = rng.uniform(0, 1, 30)
    base = roc_auc(labels, scores)
    for transform in (lambda s: 2 * s + 3, np.exp, lambda s: s**3):
        assert roc_auc(labels, transform(scores)) == pytest.approx(base, abs=1e-12)


def test_auc_label_flip_complement():
    rng = np.random.default_rng(97)
    labels = rng.integers(0, 2, 25)
    labels[:2] = [0, 1]
    scores = rng.uniform(0, 1, 25)
    assert roc_auc(labels, scores) + roc_auc(1 - labels, scores) == pytest.approx(1.0, abs=1e-12)


def test_auc_rejects_single_class():
    with pytest.raises(ValueError):
        roc_auc([1, 1], [0.2, 0.4])


@pytest.mark.parametrize("metric", [roc_auc, average_precision, eer, compute_all])
def test_ranking_metrics_reject_a_nan_score(metric):
    # a NaN never ties with itself; the tie grouping used to loop forever on one
    with pytest.raises(ValueError, match="NaN"):
        metric([0, 1, 1], [0.2, float("nan"), 0.7])


def test_ap_perfect():
    assert average_precision([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1]) == 1.0


def test_ap_single_positive_ranked_last():
    for n in (3, 5, 8):
        scores = np.linspace(1.0, 0.1, n)
        labels = np.zeros(n, dtype=int)
        labels[-1] = 1
        assert average_precision(labels, scores) == pytest.approx(1.0 / n)


def test_ap_matches_prefix_enumeration():
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        labels = np.zeros(n, dtype=int)
        labels[: int(rng.integers(1, n))] = 1
        rng.shuffle(labels)
        scores = rng.choice(np.linspace(0, 1, 4), n)
        if labels.min() == labels.max():
            continue
        assert average_precision(labels, scores) == _prefix_ap(labels, scores)


def test_eer_perfect_and_inverted():
    assert eer([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1]) == 0.0
    assert eer([1, 1, 0, 0], [0.1, 0.2, 0.8, 0.9]) == 1.0


def test_eer_interleaved_hand_case():
    labels = [1, 0, 1, 0]
    scores = [0.8, 0.6, 0.4, 0.2]
    got = eer(labels, scores)
    assert got == pytest.approx(_polyline_eer(labels, scores), abs=1e-9)
    assert got == 0.5


def test_eer_matches_polyline_walk():
    rng = np.random.default_rng(103)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        labels = np.zeros(n, dtype=int)
        labels[: int(rng.integers(1, n))] = 1
        rng.shuffle(labels)
        if labels.min() == labels.max():
            continue
        scores = rng.choice(np.linspace(0, 1, 6), n)
        assert eer(labels, scores) == pytest.approx(_polyline_eer(labels, scores), abs=1e-9)


def test_eer_within_unit_interval():
    rng = np.random.default_rng(107)
    for _ in range(50):
        labels = rng.integers(0, 2, 10)
        labels[:2] = [0, 1]
        scores = rng.uniform(0, 1, 10)
        assert 0.0 <= eer(labels, scores) <= 1.0


def test_compute_all_keys():
    out = compute_all([1, 0, 1, 0], [0.9, 0.4, 0.6, 0.2])
    assert sorted(out) == ["acc", "ap", "auc", "eer", "f1", "fnr", "fpr"]


def test_report_round_trip(tmp_path):
    rows = [
        MetricRow("test", "acn", "none", 0.0, 0.9375, 0.98765432109876, 0.9, 0.95, 0.0625, 0.0, 0.03125),
        MetricRow("test", "tkan", "add_noise:indoor_rain", 35.0, 0.875, 0.9, 0.8, 0.85, 0.125, 0.125, 0.125),
    ]
    p = tmp_path / "report.csv"
    write_report(p, rows)
    header = p.read_text().splitlines()[0]
    assert header == ",".join(REPORT_COLUMNS)
    back = read_report(p)
    assert back == rows


def test_reports_are_utf8_whatever_the_locale(tmp_path):
    # noise ids come from the noise bank's file names, so a report row may hold any character
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(metrics.__file__).parents[1]),
                                                       os.environ.get("PYTHONPATH")]))}
    script = ("import sys; from voicetrace.metrics import MetricRow, read_report, write_report; "
              "row = MetricRow('test', 'acn', 'add_noise:r\\u00fcido', 30.0, *[0.5] * 7); "
              "write_report(sys.argv[1], [row]); assert read_report(sys.argv[1]) == [row]")
    path = tmp_path / "report.csv"
    done = subprocess.run([sys.executable, "-c", script, str(path)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert path.read_bytes().splitlines()[1].startswith("test,acn,add_noise:rüido,".encode("utf-8"))
    assert path.read_bytes().endswith(b"\r\n")
    assert read_report(path)[0].manipulation == "add_noise:rüido"


def test_read_report_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("alpha,beta\n1,2\n")
    with pytest.raises(ValueError):
        read_report(p)


def test_metric_row_from_metrics():
    metrics = compute_all([1, 0], [0.9, 0.1])
    row = MetricRow.from_metrics("test", "acn", "speed", 1.2, metrics)
    assert row.dataset == "test"
    assert row.magnitude == 1.2
    assert row.auc == metrics["auc"]


def _reference_roc_points(labels, scores):
    """_roc_points as it was before the shared tie grouping: one walk over the ties."""
    labels, scores = np.asarray(labels), np.asarray(scores, dtype=np.float64)
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    fpr = [0.0]
    fnr = [1.0]
    tp = fp = 0
    i = 0
    while i < labels.size:
        j = i
        while j < labels.size and sorted_scores[j] == sorted_scores[i]:
            j += 1
        tp += int(np.sum(sorted_labels[i:j] == 1))
        fp += (j - i) - int(np.sum(sorted_labels[i:j] == 1))
        fpr.append(fp / n_neg)
        fnr.append(1.0 - tp / n_pos)
        i = j
    return np.asarray(fpr), np.asarray(fnr)


def _reference_roc_auc(labels, scores):
    fpr, fnr = _reference_roc_points(labels, scores)
    tpr = 1.0 - fnr
    return float(np.sum(0.5 * (tpr[1:] + tpr[:-1]) * np.diff(fpr)))


def _reference_average_precision(labels, scores):
    """average_precision as it was before the shared tie grouping."""
    labels, scores = np.asarray(labels), np.asarray(scores, dtype=np.float64)
    n_pos = int(np.sum(labels == 1))
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    ap = 0.0
    tp = 0
    prev_recall = 0.0
    i = 0
    while i < labels.size:
        j = i
        while j < labels.size and sorted_scores[j] == sorted_scores[i]:
            j += 1
        tp += int(np.sum(sorted_labels[i:j] == 1))
        recall = tp / n_pos
        precision = tp / j
        ap += (recall - prev_recall) * precision
        prev_recall = recall
        i = j
    return ap


def _reference_eer(labels, scores):
    fpr, fnr = _reference_roc_points(labels, scores)
    diff = fpr - fnr
    idx = int(np.argmax(diff >= 0.0))
    if diff[idx] == 0.0:
        return float(fpr[idx])
    alpha = -diff[idx - 1] / (diff[idx] - diff[idx - 1])
    return float(fpr[idx - 1] + alpha * (fpr[idx] - fpr[idx - 1]))


_SCORE_POOL = np.array([0.0, -0.0, np.inf, -np.inf, 0.5, 1.0, 1e-300, -2.5])
_SCORES = {
    "normal": lambda rng, n: rng.standard_normal(n),
    "few_levels": lambda rng, n: rng.integers(0, 4, n).astype(float),
    "signed_zeros_and_infs": lambda rng, n: rng.choice(_SCORE_POOL, n),
    "rounded": lambda rng, n: np.round(rng.random(n), 2) * rng.choice([1, -1], n),
}


@pytest.mark.parametrize("seed, kind", list(enumerate(_SCORES)))
def test_ranking_metrics_bitwise_equal_the_reference_walk(seed, kind):
    rng = np.random.default_rng(seed)
    for _ in range(300):
        n = int(rng.integers(2, 60))
        labels = rng.permutation(np.concatenate(([0, 1], rng.integers(0, 2, n - 2))))
        scores = _SCORES[kind](rng, n)
        for metric, reference in ((roc_auc, _reference_roc_auc),
                                  (average_precision, _reference_average_precision),
                                  (eer, _reference_eer)):
            got, want = metric(labels, scores), reference(labels, scores)
            assert repr(got) == repr(want) and type(got) is type(want), (metric.__name__, labels, scores)


def test_average_precision_bitwise_equals_the_reference_walk_without_negatives():
    rng = np.random.default_rng(5)
    for n in (1, 2, 7):
        scores = rng.integers(0, 3, n).astype(float)
        assert repr(average_precision(np.ones(n), scores)) == repr(_reference_average_precision(np.ones(n), scores))
