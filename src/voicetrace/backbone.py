"""The network engine, and the instrumented speaker CNN built on it.

A NetworkSpec is an ordered list of conv, ReLU, max-pool, flatten and
fully-connected layers over a (frames, bins, channels) or flat (width,)
input. One forward pass, one backward pass and one Glorot init serve
every spec: the speaker CNN here, trained with a softmax cross-entropy
head, and the detector's FC stack (detector.py), trained with a BCE
head. Both train through nn.momentum_sgd and are checked by
nn.central_difference_check.

The speaker CNN's real job is exposing per-layer post-activation neuron
outputs. Convolutional and fully-connected layers are the monitored
kinds; a conv "neuron" is one output channel summarized by the spatial
mean of its post-ReLU feature map, an FC neuron is one post-ReLU unit,
and the final logit layer is recorded pre-softmax.

Everything computes in float64; stored weights are float32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nsw1
from .audio import FeatureMap
from .errors import WeightFormatError
from .nn import central_difference_check, glorot_uniform, momentum_sgd, relu


@dataclass(frozen=True)
class Conv2d:
    out_channels: int
    kernel: int
    stride: int = 1


@dataclass(frozen=True)
class Relu:
    pass


@dataclass(frozen=True)
class MaxPool:
    kernel: int
    stride: int


@dataclass(frozen=True)
class Flatten:
    pass


@dataclass(frozen=True)
class FullyConnected:
    out_units: int


@dataclass(frozen=True)
class ActivationTrace:
    """Ordered (layer_id, neuron values) pairs, one per monitored layer."""

    entries: tuple

    def layer_ids(self):
        return [name for name, _ in self.entries]

    def widths(self):
        return [values.size for _, values in self.entries]

    def values(self, layer_id: str) -> np.ndarray:
        for name, values in self.entries:
            if name == layer_id:
                return values
        raise KeyError(layer_id)


class NetworkSpec:
    """Ordered layer list plus input shape; shapes are chained at construction."""

    def __init__(self, layers, input_shape):
        self.layers = tuple(layers)
        self.input_shape = tuple(int(d) for d in input_shape)
        if len(self.input_shape) not in (1, 3):
            raise ValueError("input_shape must be (frames, bins, channels) or flat (width,)")
        self._chain_shapes()

    def _chain_shapes(self):
        shape = self.input_shape
        self.layer_shapes = []  # output shape of each layer
        self.layer_names = []  # parametric layers only get names
        n_conv = n_fc = 0
        for idx, layer in enumerate(self.layers):
            if isinstance(layer, (Conv2d, MaxPool)):
                if len(shape) != 3:
                    raise ValueError(f"layer {idx}: {type(layer).__name__} needs a 3-D input")
                h, w, c = shape
                if h < layer.kernel or w < layer.kernel:
                    raise ValueError(f"layer {idx}: kernel {layer.kernel} exceeds input {h}x{w}")
                oh = (h - layer.kernel) // layer.stride + 1
                ow = (w - layer.kernel) // layer.stride + 1
                if isinstance(layer, MaxPool):
                    shape = (oh, ow, c)
                    self.layer_names.append(None)
                else:
                    shape = (oh, ow, layer.out_channels)
                    n_conv += 1
                    self.layer_names.append(f"conv{n_conv}")
            elif isinstance(layer, Flatten):
                shape = (int(np.prod(shape)),)
                self.layer_names.append(None)
            elif isinstance(layer, FullyConnected):
                if len(shape) != 1:
                    raise ValueError(f"layer {idx}: fully_connected needs a flat input")
                shape = (layer.out_units,)
                n_fc += 1
                self.layer_names.append(f"fc{n_fc}")
            elif isinstance(layer, Relu):
                self.layer_names.append(None)
            else:
                raise ValueError(f"layer {idx}: unknown layer kind {layer!r}")
            self.layer_shapes.append(shape)
        if len(shape) != 1:
            raise ValueError("network must end in a flat (fully-connected) output")
        self.output_width = shape[0]

    def monitored_layers(self):
        """[(layer index, name, neuron count)] for conv and FC layers, in order."""
        out = []
        for idx, layer in enumerate(self.layers):
            if isinstance(layer, (Conv2d, FullyConnected)):
                width = self.layer_shapes[idx][-1]
                out.append((idx, self.layer_names[idx], width))
        return out

    def parameter_shapes(self):
        """Ordered {tensor name: shape} for every weight and bias."""
        shapes = {}
        in_shape = self.input_shape
        for idx, layer in enumerate(self.layers):
            if isinstance(layer, Conv2d):
                name = self.layer_names[idx]
                shapes[f"{name}.weight"] = (layer.kernel, layer.kernel, in_shape[2], layer.out_channels)
                shapes[f"{name}.bias"] = (layer.out_channels,)
            elif isinstance(layer, FullyConnected):
                name = self.layer_names[idx]
                shapes[f"{name}.weight"] = (in_shape[0], layer.out_units)
                shapes[f"{name}.bias"] = (layer.out_units,)
            in_shape = self.layer_shapes[idx]
        return shapes


def reference_spec(num_speakers: int, input_shape=(200, 64, 1)) -> NetworkSpec:
    """The stock instrumented architecture: 3 convs + 3 FCs monitored."""
    return NetworkSpec(
        [
            Conv2d(16, 3, 2),
            Relu(),
            MaxPool(2, 2),
            Conv2d(32, 3, 2),
            Relu(),
            Conv2d(64, 3, 2),
            Relu(),
            Flatten(),
            FullyConnected(128),
            Relu(),
            FullyConnected(64),
            Relu(),
            FullyConnected(num_speakers),
        ],
        input_shape,
    )


class WeightStore:
    """Named float32 tensors matching a NetworkSpec's parameter shapes."""

    def __init__(self, tensors: dict):
        self.tensors = {k: np.asarray(v, dtype=np.float32) for k, v in tensors.items()}

    def validate(self, spec: NetworkSpec) -> None:
        expected = spec.parameter_shapes()
        for name, shape in expected.items():
            if name not in self.tensors:
                raise WeightFormatError(f"missing tensor {name!r}")
            got = self.tensors[name].shape
            if tuple(got) != tuple(shape):
                raise WeightFormatError(f"tensor {name!r} has shape {got}, spec wants {shape}")
        for name in self.tensors:
            if name not in expected:
                raise WeightFormatError(f"unexpected tensor {name!r} not in spec")

    def as_float64(self) -> dict:
        return {k: v.astype(np.float64) for k, v in self.tensors.items()}


def init_weights_with_rng(spec: NetworkSpec, rng: np.random.Generator) -> WeightStore:
    """Glorot-uniform weights, zero biases; all draws from the given generator."""
    tensors = {}
    for name, shape in spec.parameter_shapes().items():
        if name.endswith(".bias"):
            tensors[name] = np.zeros(shape, dtype=np.float32)
        elif len(shape) == 4:  # conv kernel
            k, _, cin, cout = shape
            tensors[name] = glorot_uniform(rng, shape, k * k * cin, k * k * cout).astype(np.float32)
        else:  # fc weight
            fan_in, fan_out = shape
            tensors[name] = glorot_uniform(rng, shape, fan_in, fan_out).astype(np.float32)
    return WeightStore(tensors)


def init_weights(spec: NetworkSpec, seed: int) -> WeightStore:
    return init_weights_with_rng(spec, np.random.default_rng(seed))


def save_weights(weights: WeightStore, path) -> None:
    nsw1.write_tensors(path, weights.tensors)


def load_weights(path, spec: NetworkSpec | None = None) -> WeightStore:
    store = WeightStore(nsw1.read_tensors(path))
    if spec is not None:
        store.validate(spec)
    return store


def _conv_patches(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    # (N, H, W, C) -> (N, OH, OW, kernel*kernel*C), patch order (ki, kj, c)
    view = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(1, 2))
    view = view[:, ::stride, ::stride]
    view = np.transpose(view, (0, 1, 2, 4, 5, 3))
    n, oh, ow = view.shape[:3]
    return np.ascontiguousarray(view).reshape(n, oh, ow, kernel * kernel * x.shape[3])


def _run_layers(spec: NetworkSpec, params: dict, x: np.ndarray):
    """Forward a batch (N, *input_shape); returns each layer's output in order."""
    outputs = []
    cur = x
    for idx, layer in enumerate(spec.layers):
        if isinstance(layer, Conv2d):
            name = spec.layer_names[idx]
            w = params[f"{name}.weight"]
            b = params[f"{name}.bias"]
            patches = _conv_patches(cur, layer.kernel, layer.stride)
            cur = patches @ w.reshape(-1, layer.out_channels) + b
        elif isinstance(layer, Relu):
            cur = relu(cur)
        elif isinstance(layer, MaxPool):
            view = np.lib.stride_tricks.sliding_window_view(cur, (layer.kernel, layer.kernel), axis=(1, 2))
            cur = view[:, ::layer.stride, ::layer.stride].max(axis=(4, 5))
        elif isinstance(layer, Flatten):
            cur = cur.reshape(cur.shape[0], -1)
        elif isinstance(layer, FullyConnected):
            name = spec.layer_names[idx]
            cur = cur @ params[f"{name}.weight"] + params[f"{name}.bias"]
        outputs.append(cur)
    return outputs


def _batch_trace(spec: NetworkSpec, outputs) -> list:
    """[(layer_id, (N, width) post-activation values)] for monitored layers.

    Uses the ReLU that immediately follows a layer when present; the final
    logit layer has none and is recorded raw.
    """
    entries = []
    for idx, name, _ in spec.monitored_layers():
        use = outputs[idx]
        if idx + 1 < len(spec.layers) and isinstance(spec.layers[idx + 1], Relu):
            use = outputs[idx + 1]
        if use.ndim == 4:  # conv map -> spatial mean per channel
            entries.append((name, use.mean(axis=(1, 2))))
        else:
            entries.append((name, use))
    return entries


def _coerce_input(spec: NetworkSpec, inp) -> np.ndarray:
    if isinstance(inp, FeatureMap):
        arr = inp.values[:, :, None]
    else:
        arr = np.asarray(inp, dtype=np.float64)
    if arr.shape != spec.input_shape:
        raise ValueError(f"input shape {arr.shape} does not match spec {spec.input_shape}")
    return arr


def forward_batch(spec: NetworkSpec, weights: WeightStore, batch: np.ndarray):
    """Batched inference: (logits (N, K), [(layer_id, (N, width))])."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.shape[1:] != spec.input_shape:
        raise ValueError(f"batch shape {batch.shape[1:]} does not match spec {spec.input_shape}")
    outputs = _run_layers(spec, weights.as_float64(), batch)
    return outputs[-1], _batch_trace(spec, outputs)


def forward(spec: NetworkSpec, weights: WeightStore, inp):
    """Single-input inference: (logits vector, ActivationTrace)."""
    arr = _coerce_input(spec, inp)[None]
    logits, entries = forward_batch(spec, weights, arr)
    trace = ActivationTrace(tuple((name, values[0]) for name, values in entries))
    return logits[0], trace


def _softmax_xent(logits: np.ndarray, labels: np.ndarray):
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    log_probs = shifted - log_z
    n = logits.shape[0]
    loss = -float(np.mean(log_probs[np.arange(n), labels]))
    dlogits = np.exp(log_probs)
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def _backward(spec: NetworkSpec, params: dict, x: np.ndarray, outputs, dout: np.ndarray):
    """Gradients of the loss w.r.t. every parameter tensor."""
    grads = {}
    dcur = dout
    for idx in range(len(spec.layers) - 1, -1, -1):
        layer = spec.layers[idx]
        layer_in = x if idx == 0 else outputs[idx - 1]
        if isinstance(layer, FullyConnected):
            name = spec.layer_names[idx]
            grads[f"{name}.weight"] = layer_in.T @ dcur
            grads[f"{name}.bias"] = dcur.sum(axis=0)
            dcur = dcur @ params[f"{name}.weight"].T
        elif isinstance(layer, Relu):
            dcur = dcur * (outputs[idx] > 0)
        elif isinstance(layer, Flatten):
            dcur = dcur.reshape(layer_in.shape)
        elif isinstance(layer, MaxPool):
            k, s = layer.kernel, layer.stride
            view = np.lib.stride_tricks.sliding_window_view(layer_in, (k, k), axis=(1, 2))
            windows = view[:, ::s, ::s]  # (N, OH, OW, C, k, k)
            n, oh, ow, c = windows.shape[:4]
            flat = windows.reshape(n, oh, ow, c, k * k)
            first_max = flat.argmax(axis=4)  # first index on ties
            mask = first_max[..., None] == np.arange(k * k)
            dwin = (dcur[..., None] * mask).reshape(n, oh, ow, c, k, k)
            dx = np.zeros_like(layer_in)
            for ki in range(k):
                for kj in range(k):
                    dx[:, ki : ki + s * oh : s, kj : kj + s * ow : s, :] += dwin[:, :, :, :, ki, kj]
            dcur = dx
        elif isinstance(layer, Conv2d):
            name = spec.layer_names[idx]
            k, s, oc = layer.kernel, layer.stride, layer.out_channels
            patches = _conv_patches(layer_in, k, s)
            n, oh, ow, pw = patches.shape
            dflat = dcur.reshape(-1, oc)
            grads[f"{name}.weight"] = (patches.reshape(-1, pw).T @ dflat).reshape(
                k, k, layer_in.shape[3], oc
            )
            grads[f"{name}.bias"] = dcur.sum(axis=(0, 1, 2))
            dpatch = (dcur @ params[f"{name}.weight"].reshape(pw, oc).T).reshape(
                n, oh, ow, k, k, layer_in.shape[3]
            )
            dx = np.zeros_like(layer_in)
            for ki in range(k):
                for kj in range(k):
                    dx[:, ki : ki + s * oh : s, kj : kj + s * ow : s, :] += dpatch[:, :, :, ki, kj, :]
            dcur = dx
    return grads


def _loss_and_grads(spec: NetworkSpec, params: dict, batch: np.ndarray, targets: np.ndarray,
                    head=_softmax_xent):
    """head(logits, targets) -> (mean loss, d loss / d logits); softmax cross-entropy by default."""
    outputs = _run_layers(spec, params, batch)
    loss, dlogits = head(outputs[-1], targets)
    return loss, _backward(spec, params, batch, outputs, dlogits)


def _check_gradients(spec: NetworkSpec, params: dict, batch: np.ndarray, targets: np.ndarray,
                     head=_softmax_xent, eps: float = 1e-3) -> float:
    """The head's analytic gradients against central differences, all float64."""
    return central_difference_check(
        params,
        lambda p: head(_run_layers(spec, p, batch)[-1], targets)[0],
        lambda p: _loss_and_grads(spec, p, batch, targets, head)[1],
        eps,
    )


@dataclass(frozen=True)
class BackboneTrainConfig:
    lr: float = 0.01
    momentum: float = 0.9
    epochs: int = 15
    batch_size: int = 32
    seed: int = 0


def train_backbone(spec: NetworkSpec, features: np.ndarray, labels, config: BackboneTrainConfig):
    """Momentum-SGD softmax training on (N, *spec.input_shape) inputs.

    Batches follow a seeded shuffle each epoch; weight init and shuffling
    draw from a single generator so identical configs give bit-identical
    weights. Returns (WeightStore, per-epoch mean losses).
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim == 3:  # (N, frames, bins) -> single channel
        features = features[..., None]
    if features.shape[1:] != spec.input_shape:
        raise ValueError(f"feature shape {features.shape[1:]} does not match spec {spec.input_shape}")
    if np.unique(labels).size < 2:
        raise ValueError("training needs at least two speaker classes")
    if labels.min() < 0 or labels.max() >= spec.output_width:
        raise ValueError("labels must lie in [0, output_width)")

    rng = np.random.default_rng(config.seed)
    params = init_weights_with_rng(spec, rng).as_float64()
    epoch_losses = momentum_sgd(
        params, lambda take: _loss_and_grads(spec, params, features[take], labels[take]),
        features.shape[0], rng, lr=config.lr, momentum=config.momentum,
        epochs=config.epochs, batch_size=config.batch_size)
    return WeightStore(params), epoch_losses


def classify(spec: NetworkSpec, weights: WeightStore, batch: np.ndarray) -> np.ndarray:
    logits, _ = forward_batch(spec, weights, batch)
    return logits.argmax(axis=1)


def gradient_check(spec: NetworkSpec, weights: WeightStore, inp, label: int, eps: float = 1e-3) -> float:
    """Max relative error between analytic and central-difference softmax gradients.

    Only meaningful on small nets; refuses above 5000 parameters.
    """
    batch = _coerce_input(spec, inp)[None]
    labels = np.asarray([label], dtype=np.int64)
    return _check_gradients(spec, weights.as_float64(), batch, labels, eps=eps)
