"""Activation-coverage features over block traces, one (clips, width) array per layer.

Three pieces: per-layer threshold calibration (the grand mean of a
layer's neuron outputs over a calibration block), activated-neuron counts
against those thresholds (ACN), and the top-k raw neuron outputs per
layer (TKAN), one feature row per clip. These rows are what the detector
consumes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backbone import ActivationTrace
from .corpus import LABELS, SPLITS
from .errors import FeatureFormatError, ThresholdsFormatError

ACN = "acn"
TKAN = "tkan"


@dataclass(frozen=True)
class LayerThresholds:
    """Calibrated per-layer activation thresholds plus the calibration-set size."""

    deltas: tuple  # ((layer_id, threshold), ...) in trace order
    calibration_size: int

    def layer_ids(self):
        return [name for name, _ in self.deltas]


@dataclass(frozen=True)
class FeatureVector:
    """Feature values (one row per clip for a block trace) plus which layer contributed which slots."""

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


def calibrate_thresholds(trace: ActivationTrace) -> LayerThresholds:
    """Per layer: mean of every neuron output over every calibration clip of the block trace.

    Each clip's layer sum is added in clip order (np.cumsum adds left to right), as a loop
    over the clips one at a time would add it, so a clip's row gives the same threshold
    bits in any block.
    """
    n = len(trace.entries[0][1]) if trace.entries else 0
    if n == 0:
        raise ValueError("calibration needs at least one clip")
    deltas = tuple((name, float(np.cumsum(np.sum(values, axis=-1))[-1] / values.size))
                   for name, values in trace.entries)
    return LayerThresholds(deltas, n)


def acn_features(trace: ActivationTrace, thresholds: LayerThresholds) -> FeatureVector:
    """Count of neurons strictly above the layer threshold, one slot per layer (per clip)."""
    if trace.layer_ids() != thresholds.layer_ids():
        raise ValueError(
            f"trace layers {trace.layer_ids()} do not match thresholds {thresholds.layer_ids()}"
        )
    counts = [np.count_nonzero(values > delta, axis=-1)
              for (_, values), (_, delta) in zip(trace.entries, thresholds.deltas)]
    layout = tuple((name, 1) for name, _ in trace.entries)
    return FeatureVector(np.stack(counts, axis=-1).astype(np.float64), layout)


def tkan_features(trace: ActivationTrace, k: int) -> FeatureVector:
    """The k largest neuron outputs per layer (per clip), sorted descending, values only."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    parts = []
    for name, values in trace.entries:
        if values.shape[-1] < k:
            raise ValueError(f"layer {name!r} has {values.shape[-1]} neurons, fewer than k={k}")
        parts.append(np.sort(values, axis=-1)[..., ::-1][..., :k])
    layout = tuple((name, k) for name, _ in trace.entries)
    return FeatureVector(np.concatenate(parts, axis=-1), layout)


def save_thresholds(thresholds: LayerThresholds, path) -> None:
    doc = {
        "calibration_size": thresholds.calibration_size,
        "thresholds": [[name, delta] for name, delta in thresholds.deltas],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _is_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def load_thresholds(path) -> LayerThresholds:
    """Inverse of save_thresholds; any other document raises ThresholdsFormatError."""

    def bad(detail):
        return ThresholdsFormatError(f"{path}: {detail}")

    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, deep nesting
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
        lines.append(f"{label},{split}," + ",".join(map(repr, row.tolist())))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_feature_csv(path):
    """Inverse of write_feature_csv: (column_names, labels, splits, matrix).

    Anything write_feature_csv cannot have written raises FeatureFormatError:
    bytes that are not UTF-8, no header, a header other than label,split and
    named feature columns, a row of another width, an unknown label or split,
    or a feature cell that is not a finite number.
    """

    def bad(detail):
        return FeatureFormatError(f"{path}: {detail}")

    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise bad(f"not UTF-8 text ({exc})") from exc
    if not lines:
        raise bad("empty feature CSV")
    header = lines[0].split(",")
    column_names = header[2:]
    if header[:2] != ["label", "split"] or not column_names or not all(column_names):
        raise bad("the header must be label,split followed by named feature columns")
    labels, splits, rows = [], [], []
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            raise bad(f"line {number} has {len(fields)} fields, the header {len(header)}")
        if fields[0] not in LABELS or fields[1] not in SPLITS:
            raise bad(f"line {number} has label {fields[0]!r} and split {fields[1]!r}")
        try:
            row = [float(v) for v in fields[2:]]
        except ValueError:
            raise bad(f"line {number} has a feature cell that is not a number") from None
        if not all(math.isfinite(v) for v in row):
            raise bad(f"line {number} has a feature cell that is not finite")
        labels.append(fields[0])
        splits.append(fields[1])
        rows.append(row)
    matrix = np.asarray(rows, dtype=np.float64) if rows else np.zeros((0, len(column_names)))
    return column_names, labels, splits, matrix
