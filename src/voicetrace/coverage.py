"""Activation-coverage features over traces.

Three pieces: per-layer threshold calibration (the grand mean of a
layer's neuron outputs over a calibration set), activated-neuron counts
against those thresholds (ACN), and the top-k raw neuron outputs per
layer (TKAN). These vectors are what the detector consumes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backbone import ActivationTrace
from .errors import ThresholdsFormatError

ACN = "acn"
TKAN = "tkan"
DEFAULT_K = 5


@dataclass(frozen=True)
class LayerThresholds:
    """Calibrated per-layer activation thresholds plus the calibration-set size."""

    deltas: tuple  # ((layer_id, threshold), ...) in trace order
    calibration_size: int

    def layer_ids(self):
        return [name for name, _ in self.deltas]

    def value(self, layer_id: str) -> float:
        for name, delta in self.deltas:
            if name == layer_id:
                return delta
        raise KeyError(layer_id)


@dataclass(frozen=True)
class FeatureVector:
    """Flat feature values plus which layer contributed which slots."""

    values: np.ndarray
    layout: tuple  # ((layer_id, slot_count), ...)

    def column_names(self, criterion: str):
        names = []
        for layer_id, slots in self.layout:
            if slots == 1:
                names.append(f"{layer_id}.{criterion}")
            else:
                names.extend(f"{layer_id}.{criterion}{i + 1}" for i in range(slots))
        return names


def _check_layout(trace: ActivationTrace, reference: ActivationTrace):
    ids = trace.layer_ids()
    if ids != reference.layer_ids() or trace.widths() != reference.widths():
        raise ValueError(f"trace layout {ids}/{trace.widths()} does not match calibration layout")


def calibrate_thresholds(traces) -> LayerThresholds:
    """Per layer: mean of every neuron output over every calibration input.

    Accumulation is sequential over the given ordering, so results are
    bit-stable for a fixed input order (and order-free mathematically).
    """
    traces = list(traces)
    if not traces:
        raise ValueError("calibration needs at least one trace")
    first = traces[0]
    sums = np.zeros(len(first.entries))
    for trace in traces:
        _check_layout(trace, first)
        for j, (_, values) in enumerate(trace.entries):
            sums[j] += float(np.sum(values))
    n = len(traces)
    deltas = tuple(
        (name, float(sums[j] / (n * values.size)))
        for j, (name, values) in enumerate(first.entries)
    )
    return LayerThresholds(deltas, n)


def acn_features(trace: ActivationTrace, thresholds: LayerThresholds, normalize: bool = False) -> FeatureVector:
    """Count of neurons strictly above the layer threshold, one slot per layer."""
    if trace.layer_ids() != thresholds.layer_ids():
        raise ValueError(
            f"trace layers {trace.layer_ids()} do not match thresholds {thresholds.layer_ids()}"
        )
    counts = []
    for (name, values), (_, delta) in zip(trace.entries, thresholds.deltas):
        count = float(np.count_nonzero(values > delta))
        if normalize:
            count /= values.size
        counts.append(count)
    layout = tuple((name, 1) for name, _ in trace.entries)
    return FeatureVector(np.asarray(counts), layout)


def tkan_features(trace: ActivationTrace, k: int = DEFAULT_K) -> FeatureVector:
    """The k largest neuron outputs per layer, sorted descending, values only."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    parts = []
    for name, values in trace.entries:
        if values.size < k:
            raise ValueError(f"layer {name!r} has {values.size} neurons, fewer than k={k}")
        parts.append(np.sort(values)[::-1][:k])
    layout = tuple((name, k) for name, _ in trace.entries)
    return FeatureVector(np.concatenate(parts), layout)


def save_thresholds(thresholds: LayerThresholds, path) -> None:
    doc = {
        "calibration_size": thresholds.calibration_size,
        "thresholds": [[name, delta] for name, delta in thresholds.deltas],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def load_thresholds(path) -> LayerThresholds:
    """Inverse of save_thresholds; any other document raises ThresholdsFormatError."""

    def bad(detail):
        return ThresholdsFormatError(f"{path}: {detail}; rerun the calibrate stage")

    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise bad(f"not a JSON document ({exc})") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("thresholds"), list) or not doc["thresholds"]:
        raise bad("expected an object with a non-empty 'thresholds' list")
    for pair in doc["thresholds"]:
        if not (isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str) and _is_number(pair[1])):
            raise bad(f"threshold entry {pair!r} is not a [layer, number] pair")
    size = doc.get("calibration_size")
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise bad("calibration_size must be a positive integer")
    return LayerThresholds(tuple((name, float(delta)) for name, delta in doc["thresholds"]), size)


def write_feature_csv(path, column_names, labels, splits, matrix) -> None:
    """label,split,<layer-tagged columns> rows; floats use repr for exact round-trips."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape[0] != len(labels) or len(labels) != len(splits):
        raise ValueError("labels, splits, and matrix rows must align")
    if matrix.ndim != 2 or matrix.shape[1] != len(column_names):
        raise ValueError("matrix columns must match column_names")
    lines = ["label,split," + ",".join(column_names)]
    for label, split, row in zip(labels, splits, matrix):
        lines.append(f"{label},{split}," + ",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_feature_csv(path):
    """Inverse of write_feature_csv: (column_names, labels, splits, matrix)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty feature CSV")
    header = lines[0].split(",")
    if header[:2] != ["label", "split"]:
        raise ValueError(f"{path}: feature CSV must start with label,split columns")
    column_names = header[2:]
    labels, splits, rows = [], [], []
    for line in lines[1:]:
        fields = line.split(",")
        labels.append(fields[0])
        splits.append(fields[1])
        rows.append([float(v) for v in fields[2:]])
    matrix = np.asarray(rows, dtype=np.float64) if rows else np.zeros((0, len(column_names)))
    return column_names, labels, splits, matrix
