"""Shallow binary real/fake classifier over coverage feature vectors.

Five fully-connected layers (four ReLU hidden layers, one logit) built
as a flat-input NetworkSpec and run by the backbone's network engine.
This module adds only what is specific to the detector: the sigmoid /
binary cross-entropy head, a training config with inverse-time
learning-rate decay, the feature Standardizer and the NSD1 file format.
Fake is the positive class. Training runs in float32, the dtype NSD1
stores; scoring and the gradient check run in float64.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nsw1
from .backbone import (FullyConnected, NetworkSpec, Relu, WeightStore, _check_gradients,
                       _loss_and_grads, _run_layers, init_weights)
from .corpus import FAKE, REAL
from .errors import WeightFormatError
from .nn import momentum_sgd, sigmoid

_MAGIC = b"NSD1"
_VERSION = 1


@dataclass(frozen=True)
class DetectorSpec:
    input_width: int
    hidden: tuple = (256, 128, 64, 32)

    def __post_init__(self):
        if self.input_width < 1:
            raise ValueError("input_width must be positive")
        if len(self.hidden) != 4:
            raise ValueError("detector has exactly five FC layers: four hidden plus the output")

    def network(self) -> NetworkSpec:
        """FC-ReLU for each hidden width, then one FC logit; tensors fc1..fc5."""
        layers = []
        for width in self.hidden:
            layers += [FullyConnected(width), Relu()]
        return NetworkSpec([*layers, FullyConnected(1)], (self.input_width,))


@dataclass(frozen=True)
class TrainConfig:
    """The detector section of the config plus the seed, and the pipeline's SGD settings."""

    epochs: int
    seed: int
    lr: float = 3e-4
    momentum: float = 0.9
    decay: float = 1e-6
    batch_size: int = 32

    def __post_init__(self):
        if self.lr < 0 or self.decay < 0:
            raise ValueError("learning rate and decay must be non-negative")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")


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

    @classmethod
    def identity(cls, width: int) -> "Standardizer":
        return cls(np.zeros(width), np.ones(width))

    def transform(self, features: np.ndarray) -> np.ndarray:
        return (np.asarray(features, dtype=np.float64) - self.mean) / self.std


@dataclass(frozen=True)
class Prediction:
    score: float
    label: str


@dataclass
class DetectorModel:
    """A trained detector: its network, weights and standardizer, and the criterion and k it reads."""

    spec: DetectorSpec
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


def train_detector(
    features: np.ndarray,
    labels,
    config: TrainConfig,
    spec: DetectorSpec | None = None,
    standardizer: Standardizer | None = None,
    criterion: str = "",
    k: int = 0,
) -> DetectorModel:
    """Momentum-SGD BCE training; lr_t = lr0 / (1 + decay * t) per global step.

    labels are 1 for fake, 0 for real. When a standardizer is given it is
    applied before training and bundled into the returned model, so
    predict() accepts raw features.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    if features.shape[0] != labels.size:
        raise ValueError("features and labels must align")
    if np.unique(labels).size < 2:
        raise ValueError("training needs both classes present")
    if spec is None:
        spec = DetectorSpec(features.shape[1])
    if features.shape[1] != spec.input_width:
        raise ValueError(f"feature width {features.shape[1]} does not match spec {spec.input_width}")
    if standardizer is None:
        standardizer = Standardizer.identity(spec.input_width)
    x_all = standardizer.transform(features).astype(np.float32)

    net = spec.network()
    rng = np.random.default_rng(config.seed)
    params = {name: t.copy() for name, t in init_weights(net, rng).tensors.items()}
    epoch_losses = momentum_sgd(
        params, lambda take: _loss_and_grads(net, params, x_all[take], labels[take], _bce_loss),
        features.shape[0], rng, lr=config.lr, momentum=config.momentum,
        epochs=config.epochs, batch_size=config.batch_size, decay=config.decay)
    return DetectorModel(spec, WeightStore(params), standardizer, criterion, k, epoch_losses)


def score_batch(model: DetectorModel, features: np.ndarray) -> np.ndarray:
    """Sigmoid scores in [0, 1] for raw (unstandardized) feature rows."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[None]
    if features.shape[1] != model.spec.input_width:
        raise ValueError(
            f"feature width {features.shape[1]} does not match model input {model.spec.input_width}"
        )
    x = model.standardizer.transform(features)
    logits = _run_layers(model.spec.network(), model.weights.params64(), x)[-1]
    return sigmoid(logits.ravel())


def predict(model: DetectorModel, feature, threshold: float = 0.5) -> Prediction:
    score = float(score_batch(model, np.asarray(feature, dtype=np.float64))[0])
    return Prediction(score, FAKE if score >= threshold else REAL)


def gradient_check(model: DetectorModel, feature, label: int, eps: float = 1e-3) -> float:
    """Analytic vs central-difference BCE gradients; max relative error.

    Only meaningful on small models; refuses above 5000 parameters.
    """
    x = model.standardizer.transform(np.asarray(feature, dtype=np.float64)[None])
    y = np.asarray([label], dtype=np.int64)
    return _check_gradients(model.spec.network(), model.weights.as_float64(), x, y, _bce_loss, eps)


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
        spec = DetectorSpec(tensors["fc1.weight"].shape[0], hidden)
        store = WeightStore(tensors)
        store.validate(spec.network())
        if mean.shape != (spec.input_width,) or std.shape != mean.shape:
            raise ValueError(f"standardization tensors do not match input width {spec.input_width}")
        if not all(np.all(np.isfinite(t)) for t in (*tensors.values(), mean, std)) or np.any(std <= 0):
            raise ValueError("weights and standardization must be finite, with every std above 0")
    except ValueError as exc:  # WeightFormatError is one
        raise WeightFormatError(f"{path}: {exc}") from exc
    return DetectorModel(spec, store, Standardizer(mean, std), criterion, k)
