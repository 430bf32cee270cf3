"""The network engine, and the instrumented speaker CNN built on it.

A NetworkSpec is an ordered list of three layer kinds, conv, max-pool and
fully-connected, over a (frames, bins, channels) or flat (width,) input.
Every conv and FC layer but the last applies a ReLU to its own output, in
place; an FC layer flattens its input, and a spec ends in an FC layer.
One forward pass, one backward pass and one Glorot init serve
every spec: the speaker CNN here, trained with a softmax cross-entropy
head, and the detector's FC stack (detector.py), trained with a BCE
head. Both train through fit's one momentum-SGD loop, under one
nn.TrainConfig, and are checked by _check_gradients' central differences.

The speaker CNN's real job is exposing per-layer post-activation neuron
outputs. Convolutional and fully-connected layers are the monitored
kinds; a conv "neuron" is one output channel summarized by the spatial
mean of its post-ReLU feature map, an FC neuron is one post-ReLU unit,
and the final logit layer is recorded pre-softmax.

The engine computes in its inputs' dtype: float64 for the backbone, for
inference and for both gradient checks, float32 for detector training.
Stored weights are float32; a WeightStore converts them for inference once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nsw1
from .errors import WeightFormatError
from .nn import TrainConfig, glorot_uniform


@dataclass(frozen=True)
class Conv2d:
    out_channels: int
    kernel: int
    stride: int = 1


@dataclass(frozen=True)
class MaxPool:
    kernel: int
    stride: int


@dataclass(frozen=True)
class FullyConnected:
    out_units: int


@dataclass(frozen=True)
class LayerTable:
    """Per-layer values of a block of clips: one (clips, columns) matrix whose columns run layer
    by layer, cut by ((layer_id, columns), ...). A trace holds each monitored layer's neuron
    outputs, an ACN or TKAN feature table each layer's feature slots."""

    values: np.ndarray
    layout: tuple

    def layers(self):
        """(layer_id, (clips, columns) view of values) for each layer, in order."""
        start = 0
        for layer_id, columns in self.layout:
            yield layer_id, self.values[:, start : start + columns]
            start += columns

    def layer_ids(self):
        return [layer_id for layer_id, _ in self.layout]

    def column_names(self, tag: str):
        """{layer}.{tag} for a one-column layer, else {layer}.{tag}1 .. {layer}.{tag}n."""
        return [f"{layer_id}.{tag}" if columns == 1 else f"{layer_id}.{tag}{i + 1}"
                for layer_id, columns in self.layout for i in range(columns)]


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
            elif isinstance(layer, FullyConnected):
                shape = (layer.out_units,)
                n_fc += 1
                self.layer_names.append(f"fc{n_fc}")
            else:
                raise ValueError(f"layer {idx}: unknown layer kind {layer!r}")
            self.layer_shapes.append(shape)
        if not self.layers or not isinstance(self.layers[-1], FullyConnected):
            raise ValueError("network must end in a fully-connected layer")
        self.output_width = shape[0]

    def monitored_layers(self):
        """[(layer index, name, neuron count)] for the named (conv and FC) layers, in order."""
        return [(idx, name, self.layer_shapes[idx][-1]) for idx, name in enumerate(self.layer_names) if name]

    def parameter_shapes(self):
        """Ordered {tensor name: shape} for every weight and bias. A conv weight is
        (kernel, kernel, in channels, out channels), an FC weight (in width, out width)."""
        shapes = {}
        in_shape = self.input_shape
        for layer, name, shape in zip(self.layers, self.layer_names, self.layer_shapes):
            if name:  # a conv outputs a (h, w, c) map and reads a kernel window, an FC all its input
                shapes[f"{name}.weight"] = ((layer.kernel, layer.kernel, in_shape[2], shape[2]) if len(shape) == 3
                                            else (math.prod(in_shape), shape[0]))
                shapes[f"{name}.bias"] = (shape[-1],)
            in_shape = shape
        return shapes


def reference_spec(num_speakers: int, input_shape=(200, 64, 1)) -> NetworkSpec:
    """The stock instrumented architecture: 3 convs + 3 FCs monitored."""
    return NetworkSpec(
        [
            Conv2d(16, 3, 2),
            MaxPool(2, 2),
            Conv2d(32, 3, 2),
            Conv2d(64, 3, 2),
            FullyConnected(128),
            FullyConnected(64),
            FullyConnected(num_speakers),
        ],
        input_shape,
    )


class WeightStore:
    """Named float32 tensors matching a NetworkSpec's parameter shapes, plus their float64 copies,
    params64, made once for inference. Both are read-only copies, so neither goes stale and the
    caller's arrays keep their flags; unpickling rebuilds the store from its float32 tensors."""

    def __init__(self, tensors: dict):
        self.tensors = {k: np.array(v, dtype=np.float32) for k, v in tensors.items()}
        self.params64 = {k: v.astype(np.float64) for k, v in self.tensors.items()}
        for tensor in (*self.tensors.values(), *self.params64.values()):
            tensor.flags.writeable = False

    def __reduce__(self):
        return WeightStore, (self.tensors,)

    def validate(self, spec: NetworkSpec) -> None:
        expected = spec.parameter_shapes()
        for name, shape in expected.items():
            if name not in self.tensors:
                raise WeightFormatError(f"missing tensor {name!r}")
            got = self.tensors[name].shape
            if tuple(got) != tuple(shape):
                raise WeightFormatError(f"tensor {name!r} has shape {got}, spec wants {shape}")
        for name, tensor in self.tensors.items():
            if name not in expected:
                raise WeightFormatError(f"unexpected tensor {name!r} not in spec")
            if not np.isfinite(tensor).all():
                raise WeightFormatError(f"tensor {name!r} holds a value that is not finite")

    def as_float64(self) -> dict:
        """Fresh writable float64 copies, for the gradient check to nudge."""
        return {k: v.astype(np.float64) for k, v in self.tensors.items()}


def init_weights(spec: NetworkSpec, seed: int | np.random.Generator) -> WeightStore:
    """Glorot-uniform weights, zero biases; all draws come from the seed's generator, or from
    the given Generator itself, which np.random.default_rng returns unaltered."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in spec.parameter_shapes().items():
        if name.endswith(".bias"):
            tensors[name] = np.zeros(shape, dtype=np.float32)
        else:  # the last axis is the output; an FC weight has no kernel window axes
            fan_in, fan_out = math.prod(shape[:-1]), math.prod(shape[:-2]) * shape[-1]
            tensors[name] = glorot_uniform(rng, shape, fan_in, fan_out).astype(np.float32)
    return WeightStore(tensors)


def save_weights(weights: WeightStore, path) -> None:
    Path(path).write_bytes(nsw1.pack_tensors(weights.tensors))


def load_weights(path, spec: NetworkSpec | None = None) -> WeightStore:
    store = WeightStore(nsw1.read_tensor_stream(Path(path).read_bytes(), label=str(path)))
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

    Every conv and FC layer but the last applies its ReLU in place, on its own fresh output;
    x is only read.
    """
    outputs = []
    cur = x
    last = len(spec.layers) - 1
    for idx, layer in enumerate(spec.layers):
        if isinstance(layer, MaxPool):
            oh, ow = spec.layer_shapes[idx][:2]
            cells = (cur[at] for _, _, at in _window_cells(layer.kernel, layer.stride, oh, ow))
            pooled = next(cells).copy()
            for cell in cells:
                np.maximum(pooled, cell, out=pooled)
            cur = pooled
        else:
            name = spec.layer_names[idx]
            if isinstance(layer, Conv2d):
                patches = _conv_patches(cur, layer.kernel, layer.stride)
                if keep is not None:
                    keep[idx] = patches
                cur = patches @ params[f"{name}.weight"].reshape(-1, layer.out_channels)
            else:
                cur = cur.reshape(cur.shape[0], -1) @ params[f"{name}.weight"]
            cur += params[f"{name}.bias"]
            if idx != last:
                np.maximum(cur, 0.0, out=cur)
        outputs.append(cur)
    return outputs


def forward_batch(spec: NetworkSpec, weights: WeightStore, batch: np.ndarray):
    """Batched inference: (logits (N, K), the trace, a LayerTable of the monitored layers).

    A layer's N rows of trace columns are its own output, after the ReLU _run_layers applied in
    place; the final logit layer has none and is recorded raw. A conv map is summarized by its
    spatial mean per channel.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.shape[1:] != spec.input_shape:
        raise ValueError(f"batch shape {batch.shape[1:]} does not match spec {spec.input_shape}")
    outputs = _run_layers(spec, weights.params64, batch)
    monitored = spec.monitored_layers()
    values = [outputs[idx].mean(axis=(1, 2)) if outputs[idx].ndim == 4 else outputs[idx]
              for idx, _, _ in monitored]
    return outputs[-1], LayerTable(np.concatenate(values, axis=1),
                                   tuple((name, width) for _, name, width in monitored))


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

    The gradient w.r.t. the network input is never formed: nothing reads it. dout, outputs
    and patches are only read; below the last layer dcur is always fresh, and each conv and
    FC layer masks it in place by its ReLU.
    """
    grads = {}
    dcur = dout
    last = len(spec.layers) - 1
    for idx in range(last, -1, -1):
        layer = spec.layers[idx]
        layer_in = x if idx == 0 else outputs[idx - 1]
        if isinstance(layer, MaxPool):
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
            continue
        name = spec.layer_names[idx]
        if idx != last:
            np.multiply(dcur, outputs[idx] > 0, out=dcur)
        if isinstance(layer, FullyConnected):
            grads[f"{name}.weight"] = layer_in.reshape(layer_in.shape[0], -1).T @ dcur
            grads[f"{name}.bias"] = dcur.sum(axis=0)
            if idx == 0:
                break
            dcur = (dcur @ params[f"{name}.weight"].T).reshape(layer_in.shape)
        else:
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
    """Max relative error of the head's analytic gradients against central differences, all
    float64: |a - n| / max(|a|, |n|, 1e-2), maximized over every element. The floor keeps
    near-zero components from dominating via finite-difference noise; real backprop bugs show up
    on the large components regardless. Each element of params is nudged by +-eps in place and
    restored. Only meaningful on small nets; refuses above 5000 parameters.
    """
    n_params = sum(int(t.size) for t in params.values())
    if n_params > 5000:
        raise ValueError(f"gradient check limited to 5000 parameters, got {n_params}")
    analytic = _loss_and_grads(spec, params, batch, targets, head)[1]
    worst = 0.0
    for name, tensor in params.items():
        flat, numeric = tensor.ravel(), np.empty(tensor.size)
        for i in range(flat.size):
            orig, losses = flat[i], []
            for nudged in (orig + eps, orig - eps):
                flat[i] = nudged
                losses.append(head(_run_layers(spec, params, batch)[-1], targets)[0])
            flat[i] = orig
            numeric[i] = (losses[0] - losses[1]) / (2.0 * eps)
        a = analytic[name].ravel()  # a NaN on either side propagates into worst
        worst = np.max(np.abs(a - numeric) / np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-2),
                       initial=worst)
    return float(worst)


def fit(spec: NetworkSpec, x: np.ndarray, targets: np.ndarray, config: TrainConfig, head=_softmax_xent):
    """Momentum-SGD training of spec on (N, *spec.input_shape) inputs x, in x's float dtype.

    One generator seeded by config.seed draws the weight init first, then, for each of
    config.epochs epochs, one permutation of the N rows, walked in batches; identical configs
    give bit-identical weights. The step size decays per global step as lr / (1 + decay * t);
    decay 0 keeps it at lr exactly. Returns (WeightStore, per-epoch mean losses).
    """
    rng = np.random.default_rng(config.seed)
    params = {name: t.astype(x.dtype) for name, t in init_weights(spec, rng).tensors.items()}
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    n = x.shape[0]
    step = 0
    epoch_losses = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            take = order[start : start + config.batch_size]
            loss, grads = _loss_and_grads(spec, params, x[take], targets[take], head)
            lr_t = config.lr / (1.0 + config.decay * step)
            for key, param in params.items():
                # v = momentum * v - lr_t * g; p = p + v, in the same order, in place on fresh grads
                v, g = velocity[key], grads[key]
                v *= config.momentum
                g *= lr_t
                v -= g
                param += v
            step += 1
            total += loss * take.size
        epoch_losses.append(total / n)
    return WeightStore(params), epoch_losses


def train_backbone(spec: NetworkSpec, features: np.ndarray, labels, config: TrainConfig):
    """Softmax-head fit on (N, *spec.input_shape) inputs, in float64."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.shape[1:] != spec.input_shape:
        raise ValueError(f"feature shape {features.shape[1:]} does not match spec {spec.input_shape}")
    if np.unique(labels).size < 2:
        raise ValueError("training needs at least two speaker classes")
    if labels.min() < 0 or labels.max() >= spec.output_width:
        raise ValueError("labels must lie in [0, output_width)")
    return fit(spec, features, labels, config)


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
