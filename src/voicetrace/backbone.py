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

The engine computes in its inputs' dtype: float64 for the backbone, for
inference and for both gradient checks, float32 for detector training.
Stored weights are float32; a WeightStore converts them for inference once.
The forward pass applies each ReLU in place, over the layer output before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nsw1
from .errors import WeightFormatError
from .nn import central_difference_check, glorot_uniform, momentum_sgd


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
    """Ordered (layer_id, neuron values) pairs, one per monitored layer; the values are
    (clips, width), one row per clip."""

    entries: tuple

    def layer_ids(self):
        return [name for name, _ in self.entries]

    def widths(self):
        return [values.shape[-1] for _, values in self.entries]

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
                shape = (math.prod(shape),)
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
    """Named float32 tensors matching a NetworkSpec's parameter shapes, plus float64 copies made
    once for inference. Both are read-only copies, so neither goes stale and the caller's
    arrays keep their flags; unpickling rebuilds the store from its float32 tensors."""

    def __init__(self, tensors: dict):
        self.tensors = {k: np.array(v, dtype=np.float32) for k, v in tensors.items()}
        self._params64 = {k: v.astype(np.float64) for k, v in self.tensors.items()}
        for tensor in (*self.tensors.values(), *self._params64.values()):
            tensor.flags.writeable = False

    def __reduce__(self):
        return WeightStore, (self.tensors,)

    def params64(self) -> dict:
        return self._params64

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
        """Fresh writable float64 copies, for training and the gradient check to update."""
        return {k: v.astype(np.float64) for k, v in self.tensors.items()}


def init_weights(spec: NetworkSpec, seed: int | np.random.Generator) -> WeightStore:
    """Glorot-uniform weights, zero biases; all draws come from the seed's generator, or from
    the given Generator itself, which np.random.default_rng returns unaltered."""
    rng = np.random.default_rng(seed)
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


def save_weights(weights: WeightStore, path) -> None:
    nsw1.write_tensors(path, weights.tensors)


def load_weights(path, spec: NetworkSpec | None = None) -> WeightStore:
    store = WeightStore(nsw1.read_tensors(path))
    if spec is not None:
        try:
            store.validate(spec)
        except WeightFormatError as exc:
            raise WeightFormatError(f"{path}: {exc}") from exc
    return store


def _conv_patches(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    # (N, H, W, C) -> (N, OH, OW, kernel*kernel*C), patch order (ki, kj, c)
    view = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(1, 2))
    view = view[:, ::stride, ::stride]
    view = np.transpose(view, (0, 1, 2, 4, 5, 3))
    n, oh, ow = view.shape[:3]
    return np.ascontiguousarray(view).reshape(n, oh, ow, kernel * kernel * x.shape[3])


def _window_cells(kernel: int, stride: int, oh: int, ow: int):
    """(ki, kj, index) for each of the kernel x kernel offsets of a strided window grid.

    Offsets come in window order (row-major). index selects, from an
    (N, H, W, C) map, the (N, oh, ow, C) values at offset (ki, kj) of
    every window.
    """
    for ki in range(kernel):
        for kj in range(kernel):
            yield ki, kj, (slice(None), slice(ki, ki + stride * oh, stride),
                           slice(kj, kj + stride * ow, stride))


def _run_layers(spec: NetworkSpec, params: dict, x: np.ndarray, keep: dict | None = None):
    """Forward a batch (N, *input_shape); returns each layer's output in order. When keep
    is a dict, each conv's im2col patches go into it by layer index, for _backward.

    ReLU works in place, except on x or a view of it, which stay unwritten: the entry of a
    layer that a ReLU follows is the ReLU's own entry and holds its output. _batch_trace
    reads it there; _backward reads only the ReLU's output, never its input.
    """
    outputs = []
    cur = x
    for idx, layer in enumerate(spec.layers):
        if isinstance(layer, Conv2d):
            name = spec.layer_names[idx]
            w = params[f"{name}.weight"]
            b = params[f"{name}.bias"]
            patches = _conv_patches(cur, layer.kernel, layer.stride)
            if keep is not None:
                keep[idx] = patches
            cur = patches @ w.reshape(-1, layer.out_channels)
            cur += b
        elif isinstance(layer, Relu):
            cur = np.maximum(cur, 0.0, out=None if np.may_share_memory(cur, x) else cur)
        elif isinstance(layer, MaxPool):
            oh, ow = spec.layer_shapes[idx][:2]
            cells = (cur[at] for _, _, at in _window_cells(layer.kernel, layer.stride, oh, ow))
            pooled = next(cells).copy()
            for cell in cells:
                np.maximum(pooled, cell, out=pooled)
            cur = pooled
        elif isinstance(layer, Flatten):
            cur = cur.reshape(cur.shape[0], -1)
        elif isinstance(layer, FullyConnected):
            name = spec.layer_names[idx]
            cur = cur @ params[f"{name}.weight"]
            cur += params[f"{name}.bias"]
        outputs.append(cur)
    return outputs


def _batch_trace(spec: NetworkSpec, outputs) -> ActivationTrace:
    """The monitored layers' (N, width) post-activation values.

    A layer's entry holds the output of the ReLU that follows it, applied in place by
    _run_layers; the final logit layer has none and is recorded raw. A conv map is
    summarized by its spatial mean per channel.
    """
    return ActivationTrace(tuple(
        (name, outputs[idx].mean(axis=(1, 2)) if outputs[idx].ndim == 4 else outputs[idx])
        for idx, name, _ in spec.monitored_layers()))


def forward_batch(spec: NetworkSpec, weights: WeightStore, batch: np.ndarray):
    """Batched inference: (logits (N, K), ActivationTrace of (N, width) entries)."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.shape[1:] != spec.input_shape:
        raise ValueError(f"batch shape {batch.shape[1:]} does not match spec {spec.input_shape}")
    outputs = _run_layers(spec, weights.params64(), batch)
    return outputs[-1], _batch_trace(spec, outputs)


def _softmax_xent(logits: np.ndarray, labels: np.ndarray):
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    log_probs = shifted - log_z
    n = logits.shape[0]
    loss = -float(np.mean(log_probs[np.arange(n), labels]))
    dlogits = np.exp(log_probs)
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def _backward(spec: NetworkSpec, params: dict, x: np.ndarray, outputs, dout: np.ndarray, patches: dict):
    """Gradients of the loss w.r.t. every parameter tensor, from the conv patches _run_layers kept.

    The gradient w.r.t. the network input is never formed: nothing reads it.
    dout, outputs and patches are only read; ReLU masks dcur in place once it
    is neither dout nor a view of it.
    """
    grads = {}
    dcur = dout
    for idx in range(len(spec.layers) - 1, -1, -1):
        layer = spec.layers[idx]
        layer_in = x if idx == 0 else outputs[idx - 1]
        if isinstance(layer, FullyConnected):
            name = spec.layer_names[idx]
            grads[f"{name}.weight"] = layer_in.T @ dcur
            grads[f"{name}.bias"] = dcur.sum(axis=0)
            if idx == 0:
                break
            dcur = dcur @ params[f"{name}.weight"].T
        elif isinstance(layer, Relu):
            dcur = np.multiply(dcur, outputs[idx] > 0, out=None if np.may_share_memory(dcur, dout) else dcur)
        elif isinstance(layer, Flatten):
            dcur = dcur.reshape(layer_in.shape)
        elif isinstance(layer, MaxPool):
            # each window's gradient goes to its first maximum in window order,
            # argmax's tie rule; free marks windows whose maximum is not yet found
            pooled = outputs[idx]
            free = np.ones(dcur.shape, dtype=bool)
            dx = np.zeros_like(layer_in)
            for _, _, at in _window_cells(layer.kernel, layer.stride, *dcur.shape[1:3]):
                hit = layer_in[at] == pooled
                hit &= free
                free ^= hit
                dx[at] += dcur * hit
            dcur = dx
        elif isinstance(layer, Conv2d):
            name = spec.layer_names[idx]
            k, s, oc = layer.kernel, layer.stride, layer.out_channels
            n, oh, ow, pw = patches[idx].shape
            dflat = dcur.reshape(-1, oc)
            grads[f"{name}.weight"] = (patches[idx].reshape(-1, pw).T @ dflat).reshape(
                k, k, layer_in.shape[3], oc
            )
            grads[f"{name}.bias"] = dcur.sum(axis=(0, 1, 2))
            if idx == 0:
                break
            dpatch = (dcur @ params[f"{name}.weight"].reshape(pw, oc).T).reshape(
                n, oh, ow, k, k, layer_in.shape[3]
            )
            dx = np.zeros_like(layer_in)
            for ki, kj, at in _window_cells(k, s, oh, ow):
                dx[at] += dpatch[:, :, :, ki, kj, :]
            dcur = dx
    return grads


def _loss_and_grads(spec: NetworkSpec, params: dict, batch: np.ndarray, targets: np.ndarray,
                    head=_softmax_xent):
    """head(logits, targets) -> (mean loss, d loss / d logits); softmax cross-entropy by default."""
    patches = {}
    outputs = _run_layers(spec, params, batch, patches)
    loss, dlogits = head(outputs[-1], targets)
    return loss, _backward(spec, params, batch, outputs, dlogits, patches)


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
    """The backbone section of the config plus the seed, and the pipeline's SGD settings."""

    epochs: int
    seed: int
    lr: float = 0.01
    momentum: float = 0.9
    batch_size: int = 32


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
    params = init_weights(spec, rng).as_float64()
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
    batch = np.asarray(inp, dtype=np.float64)[None]
    if batch.shape[1:] != spec.input_shape:
        raise ValueError(f"input shape {batch.shape[1:]} does not match spec {spec.input_shape}")
    labels = np.asarray([label], dtype=np.int64)
    return _check_gradients(spec, weights.as_float64(), batch, labels, eps=eps)
