"""Shallow binary real/fake classifier over coverage feature vectors.

detector_network builds the five fully-connected layers (four ReLU hidden
layers, one logit) as a flat-input NetworkSpec, run by the backbone's
engine and trained by backbone.fit. train_detector fits that network and
the feature Standardizer on its own train rows. This module adds only the
sigmoid / binary cross-entropy head, the Standardizer and the NSD1 file
format. Fake is the positive class. Training and scoring run in float32,
the dtype NSD1 stores; the gradient check runs in float64.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nsw1
from .backbone import FullyConnected, NetworkSpec, WeightStore, _check_gradients, _run_layers, fit
from .corpus import FAKE, REAL
from .errors import WeightFormatError
from .metrics import DECISION_THRESHOLD
from .nn import TrainConfig, sigmoid

_MAGIC = b"NSD1"
_VERSION = 1
HIDDEN = (256, 128, 64, 32)  # the widths of the four ReLU layers


def detector_network(input_width: int, hidden=HIDDEN) -> NetworkSpec:
    """One ReLU FC layer per hidden width, then one FC logit; tensors fc1..fc5."""
    if input_width < 1:
        raise ValueError("input_width must be positive")
    if len(hidden) != 4:
        raise ValueError("detector has exactly five FC layers: four hidden plus the output")
    return NetworkSpec([*map(FullyConnected, hidden), FullyConnected(1)], (input_width,))


@dataclass(frozen=True)
class Standardizer:
    """Per-dimension (x - mean) / std with std floored at 1e-8; fit on train only."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, features: np.ndarray) -> "Standardizer":
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] == 0:
            raise ValueError("standardizer needs a non-empty 2-D feature matrix")
        mean = features.mean(axis=0)
        std = np.maximum(features.std(axis=0), 1e-8)
        return cls(mean, std)

    def transform(self, features: np.ndarray) -> np.ndarray:
        return (np.asarray(features, dtype=np.float64) - self.mean) / self.std


@dataclass(frozen=True)
class Prediction:
    score: float
    label: str


@dataclass
class DetectorModel:
    """A trained detector: its network, weights and standardizer, and the criterion and k it reads."""

    network: NetworkSpec
    weights: WeightStore  # fcN.weight / fcN.bias
    standardizer: Standardizer
    criterion: str = ""
    k: int = 0
    loss_log: list = field(default_factory=list)


def _bce_loss(logits: np.ndarray, targets: np.ndarray):
    z = logits.ravel()
    y = targets.astype(logits.dtype)
    # softplus(z) - y*z, computed overflow-free
    loss = float(np.mean(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) - y * z))
    dlogits = (sigmoid(z) - y)[:, None] / z.size
    return loss, dlogits


def train_detector(features: np.ndarray, labels, config: TrainConfig, hidden=HIDDEN, criterion: str = "",
                   k: int = 0) -> DetectorModel:
    """BCE-head fit in float32; lr_t = lr0 / (1 + decay * t) per global step.

    labels are 1 for fake, 0 for real. The network's width and the Standardizer
    come from these rows; the model carries the Standardizer, so predict()
    accepts raw features.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    standardizer = Standardizer.fit(features)  # refuses all but a non-empty 2-D matrix
    if features.shape[0] != labels.size:
        raise ValueError("features and labels must align")
    if np.unique(labels).size < 2:
        raise ValueError("training needs both classes present")
    network = detector_network(features.shape[1], hidden)
    weights, epoch_losses = fit(network, standardizer.transform(features).astype(np.float32), labels,
                                config, _bce_loss)
    return DetectorModel(network, weights, standardizer, criterion, k, epoch_losses)


def score_batch(model: DetectorModel, features: np.ndarray) -> np.ndarray:
    """Sigmoid scores in [0, 1] for raw (unstandardized) feature rows."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[None]
    width = model.network.input_shape[0]
    if features.shape[1] != width:
        raise ValueError(f"feature width {features.shape[1]} does not match model input {width}")
    x = model.standardizer.transform(features).astype(np.float32)
    logits = _run_layers(model.network, model.weights.tensors, x)[-1]
    return sigmoid(logits.ravel().astype(np.float64))


def predict(model: DetectorModel, feature) -> Prediction:
    score = float(score_batch(model, np.asarray(feature, dtype=np.float64))[0])
    return Prediction(score, FAKE if score >= DECISION_THRESHOLD else REAL)


def gradient_check(model: DetectorModel, feature, label: int, eps: float = 1e-3) -> float:
    """Analytic vs central-difference BCE gradients; max relative error.

    Only meaningful on small models; refuses above 5000 parameters.
    """
    x = model.standardizer.transform(np.asarray(feature, dtype=np.float64)[None])
    y = np.asarray([label], dtype=np.int64)
    return _check_gradients(model.network, model.weights.as_float64(), x, y, _bce_loss, eps)


def save_detector(model: DetectorModel, path) -> None:
    """NSD1 header (criterion, k) followed by an NSW1 block with weights and stats."""
    header = _MAGIC + struct.pack("<I", _VERSION)
    enc = model.criterion.encode("utf-8")
    header += struct.pack("<I", len(enc)) + enc + struct.pack("<I", model.k)
    tensors = dict(model.weights.tensors)
    tensors["standardize.mean"] = model.standardizer.mean.astype(np.float32)
    tensors["standardize.std"] = model.standardizer.std.astype(np.float32)
    Path(path).write_bytes(header + nsw1.pack_tensors(tensors))


def load_detector(path) -> DetectorModel:
    data = Path(path).read_bytes()
    r = nsw1.Reader(data, str(path))
    if r.take(4) != _MAGIC:
        raise WeightFormatError(f"{path}: bad magic, not a detector file")
    version = r.u32()
    if version != _VERSION:
        raise WeightFormatError(f"{path}: unsupported detector version {version}")
    try:
        criterion = r.take(r.u32()).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WeightFormatError(f"{path}: criterion name is not UTF-8") from exc
    k = r.u32()
    tensors = nsw1.read_tensor_stream(data[r.pos :], label=str(path))

    try:
        mean = tensors.pop("standardize.mean").astype(np.float64)
        std = tensors.pop("standardize.std").astype(np.float64)
    except KeyError as exc:
        raise WeightFormatError(f"{path}: missing standardization tensors") from exc
    expected = [f"fc{i}.{part}" for i in range(1, 6) for part in ("weight", "bias")]
    if sorted(tensors) != sorted(expected) or any(tensors[f"fc{i}.weight"].ndim != 2 for i in range(1, 6)):
        raise WeightFormatError(f"{path}: detector needs exactly fc1..fc5 weight/bias tensors")
    try:
        hidden = tuple(tensors[f"fc{i}.weight"].shape[1] for i in range(1, 5))
        network = detector_network(tensors["fc1.weight"].shape[0], hidden)
        store = WeightStore(tensors)
        store.validate(network)
        if mean.shape != network.input_shape or std.shape != mean.shape:
            raise ValueError(f"standardization tensors do not match input width {network.input_shape[0]}")
        if not (np.isfinite(mean).all() and np.isfinite(std).all()) or np.any(std <= 0):
            raise ValueError("standardization must be finite, with every std above 0")
    except ValueError as exc:  # WeightFormatError is one
        raise WeightFormatError(f"{path}: {exc}") from exc
    return DetectorModel(network, store, Standardizer(mean, std), criterion, k)
