import struct

import numpy as np
import pytest

from voicetrace import nsw1
from voicetrace.backbone import (
    Conv2d,
    FullyConnected,
    MaxPool,
    NetworkSpec,
    WeightStore,
    _backward,
    _conv_patches,
    _loss_and_grads,
    _run_layers,
    _softmax_xent,
    forward_batch,
    gradient_check,
    init_weights,
    load_weights,
    reference_spec,
    save_weights,
    train_backbone,
)
from voicetrace.detector import detector_network, train_detector
from voicetrace.detector import gradient_check as detector_gradient_check
from voicetrace.errors import WeightFormatError
from voicetrace.nn import TrainConfig, glorot_uniform


def relu(x):
    return np.maximum(x, 0.0)


TINY_SPEC = NetworkSpec(
    [
        Conv2d(3, 3, 2),
        Conv2d(4, 2, 1),
        FullyConnected(6),
        FullyConnected(3),
    ],
    input_shape=(8, 6, 1),
)


def _naive_forward(spec, tensors, x):
    """Direct-loop re-implementation of the forward pass and trace capture: a ReLU follows
    every conv and FC layer but the last, and a layer's trace is read from its own output."""
    cur = x
    per_layer = []
    last = len(spec.layers) - 1
    for idx, layer in enumerate(spec.layers):
        if isinstance(layer, Conv2d):
            name = spec.layer_names[idx]
            w = tensors[f"{name}.weight"].astype(np.float64)
            b = tensors[f"{name}.bias"].astype(np.float64)
            h, wd, cin = cur.shape
            oh = (h - layer.kernel) // layer.stride + 1
            ow = (wd - layer.kernel) // layer.stride + 1
            out = np.zeros((oh, ow, layer.out_channels))
            for i in range(oh):
                for j in range(ow):
                    for oc in range(layer.out_channels):
                        acc = b[oc]
                        for ki in range(layer.kernel):
                            for kj in range(layer.kernel):
                                for c in range(cin):
                                    acc += (
                                        cur[i * layer.stride + ki, j * layer.stride + kj, c]
                                        * w[ki, kj, c, oc]
                                    )
                        out[i, j, oc] = acc
            cur = out if idx == last else np.maximum(out, 0.0)
        elif isinstance(layer, MaxPool):
            h, wd, c = cur.shape
            oh = (h - layer.kernel) // layer.stride + 1
            ow = (wd - layer.kernel) // layer.stride + 1
            out = np.zeros((oh, ow, c))
            for i in range(oh):
                for j in range(ow):
                    for ch in range(c):
                        block = cur[
                            i * layer.stride : i * layer.stride + layer.kernel,
                            j * layer.stride : j * layer.stride + layer.kernel,
                            ch,
                        ]
                        out[i, j, ch] = block.max()
            cur = out
        elif isinstance(layer, FullyConnected):
            name = spec.layer_names[idx]
            w = tensors[f"{name}.weight"].astype(np.float64)
            b = tensors[f"{name}.bias"].astype(np.float64)
            flat = cur.reshape(-1)
            out = np.zeros(layer.out_units)
            for o in range(layer.out_units):
                acc = b[o]
                for i in range(flat.size):
                    acc += flat[i] * w[i, o]
                out[o] = acc
            cur = out if idx == last else np.maximum(out, 0.0)
        per_layer.append(cur)

    trace = []
    for idx, name, _ in spec.monitored_layers():
        use = per_layer[idx]
        if use.ndim == 3:
            trace.append((name, use.mean(axis=(0, 1))))
        else:
            trace.append((name, use))
    return per_layer[-1], trace


def test_forward_zero_weights():
    tensors = {k: np.zeros(s) for k, s in TINY_SPEC.parameter_shapes().items()}
    rng = np.random.default_rng(0)
    logits, trace = forward_batch(TINY_SPEC, WeightStore(tensors), rng.standard_normal((1, 8, 6, 1)))
    assert np.all(logits == 0)
    for _, values in trace.layers():
        assert np.all(values == 0)


def test_forward_identity_conv_constant_input():
    spec = NetworkSpec(
        [Conv2d(1, 1, 1), FullyConnected(2)],
        input_shape=(2, 2, 1),
    )
    tensors = {k: np.zeros(s) for k, s in spec.parameter_shapes().items()}
    tensors["conv1.weight"][0, 0, 0, 0] = 1.0
    c = 0.73
    _, trace = forward_batch(spec, WeightStore(tensors), np.full((1, 2, 2, 1), c))
    assert dict(trace.layers())["conv1"][0, 0] == pytest.approx(c)


def test_forward_matches_naive_loop_oracle():
    rng = np.random.default_rng(21)
    weights = init_weights(TINY_SPEC, 21)
    for _ in range(5):
        x = rng.standard_normal((8, 6, 1))
        logits, trace = forward_batch(TINY_SPEC, weights, x[None])
        ref_logits, ref_trace = _naive_forward(TINY_SPEC, weights.tensors, x)
        np.testing.assert_allclose(logits[0], ref_logits, rtol=1e-5, atol=1e-8)
        assert trace.layer_ids() == [name for name, _ in ref_trace]
        for (_, got), (_, want) in zip(trace.layers(), ref_trace, strict=True):
            np.testing.assert_allclose(got[0], want, rtol=1e-5, atol=1e-8)


def test_forward_with_maxpool_matches_oracle():
    spec = NetworkSpec(
        [Conv2d(2, 3, 1), MaxPool(2, 2), FullyConnected(3)],
        input_shape=(9, 7, 1),
    )
    rng = np.random.default_rng(33)
    weights = init_weights(spec, 33)
    x = rng.standard_normal((9, 7, 1))
    logits, trace = forward_batch(spec, weights, x[None])
    ref_logits, ref_trace = _naive_forward(spec, weights.tensors, x)
    np.testing.assert_allclose(logits[0], ref_logits, rtol=1e-5, atol=1e-8)
    for (_, got), (_, want) in zip(trace.layers(), ref_trace, strict=True):
        np.testing.assert_allclose(got[0], want, rtol=1e-5, atol=1e-8)


def test_trace_layout_independent_of_content():
    rng = np.random.default_rng(7)
    weights = init_weights(TINY_SPEC, 7)
    seen = set()
    for _ in range(10):
        _, trace = forward_batch(TINY_SPEC, weights, rng.standard_normal((1, 8, 6, 1)))
        seen.add(trace.layout)
        for _, values in list(trace.layers())[:-1]:  # all but the raw logit layer
            assert np.all(values >= 0)
    assert seen == {(("conv1", 3), ("conv2", 4), ("fc1", 6), ("fc2", 3))}


def test_reference_spec_trace_widths():
    spec = reference_spec(8)
    widths = [w for _, _, w in spec.monitored_layers()]
    assert widths == [16, 32, 64, 128, 64, 8]


def test_forward_deterministic():
    rng = np.random.default_rng(13)
    weights = init_weights(TINY_SPEC, 13)
    x = rng.standard_normal((8, 6, 1))
    la, ta = forward_batch(TINY_SPEC, weights, x[None])
    lb, tb = forward_batch(TINY_SPEC, weights, x.copy()[None])
    assert np.array_equal(la, lb)
    for (_, va), (_, vb) in zip(ta.layers(), tb.layers(), strict=True):
        assert np.array_equal(va, vb)


def test_forward_rejects_shape_mismatch():
    weights = init_weights(TINY_SPEC, 1)
    with pytest.raises(ValueError):
        forward_batch(TINY_SPEC, weights, np.zeros((1, 6, 8, 1)))


def _toy_dataset(n_per_class=6, seed=5):
    rng = np.random.default_rng(seed)
    feats, labels = [], []
    for cls in range(3):
        for _ in range(n_per_class):
            base = np.zeros((8, 6, 1))
            base[cls * 2 : cls * 2 + 2] = 1.0
            feats.append(base + 0.05 * rng.standard_normal((8, 6, 1)))
            labels.append(cls)
    return np.stack(feats), np.array(labels)


def test_train_lr_zero_keeps_init():
    feats, labels = _toy_dataset()
    cfg = TrainConfig(lr=0.0, epochs=3, seed=9)
    store, _ = train_backbone(TINY_SPEC, feats, labels, cfg)
    init = init_weights(TINY_SPEC, 9)
    for name in init.tensors:
        assert np.array_equal(store.tensors[name], init.tensors[name])


def test_train_same_seed_bit_identical():
    feats, labels = _toy_dataset()
    cfg = TrainConfig(lr=0.01, epochs=2, seed=3)
    a, losses_a = train_backbone(TINY_SPEC, feats, labels, cfg)
    b, losses_b = train_backbone(TINY_SPEC, feats, labels, cfg)
    assert losses_a == losses_b
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name])


def test_train_rejects_single_class():
    feats, _ = _toy_dataset()
    with pytest.raises(ValueError):
        train_backbone(TINY_SPEC, feats, np.zeros(feats.shape[0], dtype=int),
                       TrainConfig(epochs=15, seed=0))


def test_train_loss_decreases_on_toy_task():
    feats, labels = _toy_dataset()
    _, losses = train_backbone(TINY_SPEC, feats, labels, TrainConfig(lr=0.01, epochs=4, seed=1))
    assert losses[0] > losses[1] > losses[2]


def test_gradient_check_random_tiny_net():
    weights = init_weights(TINY_SPEC, 17)
    rng = np.random.default_rng(17)
    err = gradient_check(TINY_SPEC, weights, rng.standard_normal((8, 6, 1)), label=1)
    assert err < 1e-4


def test_gradient_check_flat_fc_net_without_convs():
    spec = NetworkSpec([FullyConnected(5), FullyConnected(4), FullyConnected(3)], input_shape=(6,))
    assert [name for _, name, _ in spec.monitored_layers()] == ["fc1", "fc2", "fc3"]
    rng = np.random.default_rng(41)
    err = gradient_check(spec, init_weights(spec, 41), rng.standard_normal(6), label=2)
    assert err < 1e-4


@pytest.mark.parametrize("factor", [2.0, np.nan], ids=["doubled", "nan"])
def test_both_gradient_checks_report_a_wrong_gradient(monkeypatch, factor):
    from voicetrace import backbone

    def spoiled(spec, params, batch, targets, head):
        loss, grads = real(spec, params, batch, targets, head)
        grads[f"{spec.layer_names[-1]}.bias"] *= factor  # the logit layer's bias
        return loss, grads

    real = backbone._loss_and_grads
    rng = np.random.default_rng(17)
    feats = rng.standard_normal((8, 2))
    model = train_detector(feats, np.array([0, 1] * 4), TrainConfig(epochs=0, seed=3), hidden=(4, 3, 3, 2))
    monkeypatch.setattr(backbone, "_loss_and_grads", spoiled)
    errors = [gradient_check(TINY_SPEC, init_weights(TINY_SPEC, 17), rng.standard_normal((8, 6, 1)), 1),
              detector_gradient_check(model, feats[0], label=0)]
    if np.isnan(factor):  # whichever tensor holds it, a NaN gradient fails every tolerance
        assert np.isnan(errors).all()
    else:  # a doubled component above the 1e-2 floor reads |2a - a| / |2a| = 0.5
        assert min(errors) >= 0.3


def test_gradient_check_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="does not match spec"):
        gradient_check(TINY_SPEC, init_weights(TINY_SPEC, 1), np.zeros((6, 8, 1)), label=0)


def test_gradient_check_refuses_big_nets():
    spec = reference_spec(8)
    with pytest.raises(ValueError):
        gradient_check(spec, init_weights(spec, 0), np.zeros((200, 64, 1)), label=0)


def test_zero_net_zero_hidden_gradients():
    tensors = {k: np.zeros(s) for k, s in TINY_SPEC.parameter_shapes().items()}
    params = {k: v.astype(np.float64) for k, v in tensors.items()}
    x = np.zeros((1, 8, 6, 1))
    labels = np.array([2])
    _, grads = _loss_and_grads(TINY_SPEC, params, x, labels)
    for name, grad in grads.items():
        if name == "fc2.bias":  # softmax residual lands here even at zero
            assert np.any(grad != 0)
        else:
            assert np.all(grad == 0)


def test_linear_net_gradient_matches_closed_form():
    # the logit layer has no ReLU, so one FC over a 3-D input is an affine map of the flat input
    spec = NetworkSpec([FullyConnected(3)], input_shape=(2, 2, 1))
    rng = np.random.default_rng(19)
    weights = init_weights(spec, 19)
    x = rng.standard_normal((2, 2, 1))
    label = 1

    params = weights.as_float64()
    _, grads = _loss_and_grads(spec, params, x[None], np.array([label]))

    # closed form, derived by hand for the affine map
    feat = x.reshape(-1)
    logits = feat @ params["fc1.weight"] + params["fc1.bias"]
    p = np.exp(logits - logits.max())
    p /= p.sum()
    dz = p.copy()
    dz[label] -= 1.0

    assert list(grads) == ["fc1.weight", "fc1.bias"]
    np.testing.assert_allclose(grads["fc1.weight"], np.outer(feat, dz), atol=1e-8)
    np.testing.assert_allclose(grads["fc1.bias"], dz, atol=1e-8)


def test_weight_round_trip_bit_exact(tmp_path):
    weights = init_weights(TINY_SPEC, 23)
    p = tmp_path / "w.nsw1"
    save_weights(weights, p)
    back = load_weights(p, TINY_SPEC)
    assert set(back.tensors) == set(weights.tensors)
    for name in weights.tensors:
        assert back.tensors[name].dtype == np.float32
        assert np.array_equal(back.tensors[name], weights.tensors[name])


def test_load_rejects_corrupt_magic(tmp_path):
    p = tmp_path / "w.nsw1"
    save_weights(init_weights(TINY_SPEC, 2), p)
    raw = bytearray(p.read_bytes())
    raw[:4] = b"XXXX"
    p.write_bytes(bytes(raw))
    with pytest.raises(WeightFormatError):
        load_weights(p)


def test_read_tensor_stream_rejects_a_duplicate_tensor_name():
    tensor = struct.pack("<I", 1) + b"a" + struct.pack("<II", 1, 1) + struct.pack("<f", 1.0)
    data = nsw1.MAGIC + struct.pack("<II", nsw1.VERSION, 2) + tensor + tensor
    with pytest.raises(WeightFormatError) as exc:
        nsw1.read_tensor_stream(data)
    assert "'a'" in str(exc.value)


def test_load_rejects_missing_layer(tmp_path):
    # same prefix as TINY_SPEC but the final logit layer is absent
    other = NetworkSpec(
        [Conv2d(3, 3, 2), Conv2d(4, 2, 1), FullyConnected(6)],
        input_shape=(8, 6, 1),
    )
    p = tmp_path / "w.nsw1"
    save_weights(init_weights(other, 2), p)
    with pytest.raises(WeightFormatError) as exc:
        load_weights(p, TINY_SPEC)
    assert "fc2" in str(exc.value)  # names the layer the file lacks


def test_load_rejects_wrong_shape(tmp_path):
    other = NetworkSpec(
        [Conv2d(2, 3, 1), FullyConnected(2)],
        input_shape=(8, 6, 1),
    )
    p = tmp_path / "w.nsw1"
    save_weights(init_weights(other, 2), p)
    with pytest.raises(WeightFormatError) as exc:
        load_weights(p, TINY_SPEC)
    assert str(exc.value).startswith(f"{p}: ") and "conv1" in str(exc.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_load_rejects_a_tensor_that_is_not_finite(tmp_path, bad):
    weights = init_weights(TINY_SPEC, 2).as_float64()
    weights["conv2.bias"][0] = bad
    p = tmp_path / "w.nsw1"
    save_weights(WeightStore(weights), p)
    with pytest.raises(WeightFormatError) as exc:
        load_weights(p, TINY_SPEC)
    assert str(exc.value) == f"{p}: tensor 'conv2.bias' holds a value that is not finite"


def test_batch_forward_matches_single():
    rng = np.random.default_rng(29)
    weights = init_weights(TINY_SPEC, 29)
    batch = rng.standard_normal((4, 8, 6, 1))
    logits, trace = forward_batch(TINY_SPEC, weights, batch)
    for i in range(4):
        single_logits, single_trace = forward_batch(TINY_SPEC, weights, batch[i][None])
        # batched matmuls may sum in a different order; allow rounding noise
        np.testing.assert_allclose(logits[i], single_logits[0], atol=1e-12)
        for (name, block), (s_name, s_vals) in zip(trace.layers(), single_trace.layers(), strict=True):
            assert name == s_name
            np.testing.assert_allclose(block[i], s_vals[0], atol=1e-12)


def _reference_run_layers(spec, params, x):
    """The forward pass from before max-pool took a running maximum over window offsets,
    with a fresh ReLU after every conv and FC layer but the last."""
    outputs = []
    cur = x
    last = len(spec.layers) - 1
    for idx, layer in enumerate(spec.layers):
        if isinstance(layer, MaxPool):
            view = np.lib.stride_tricks.sliding_window_view(cur, (layer.kernel, layer.kernel), axis=(1, 2))
            cur = view[:, ::layer.stride, ::layer.stride].max(axis=(4, 5))
            outputs.append(cur)
            continue
        name = spec.layer_names[idx]
        if isinstance(layer, Conv2d):
            w = params[f"{name}.weight"]
            b = params[f"{name}.bias"]
            patches = _conv_patches(cur, layer.kernel, layer.stride)
            cur = patches @ w.reshape(-1, layer.out_channels) + b
        else:
            cur = cur.reshape(cur.shape[0], -1) @ params[f"{name}.weight"] + params[f"{name}.bias"]
        if idx != last:
            cur = relu(cur)
        outputs.append(cur)
    return outputs


def _reference_backward(spec, params, x, outputs, dout):
    """The backward pass from before it skipped the input gradient and routed max-pool by masks."""
    grads = {}
    dcur = dout
    last = len(spec.layers) - 1
    for idx in range(last, -1, -1):
        layer = spec.layers[idx]
        layer_in = x if idx == 0 else outputs[idx - 1]
        if idx != last and not isinstance(layer, MaxPool):
            dcur = dcur * (outputs[idx] > 0)
        if isinstance(layer, FullyConnected):
            name = spec.layer_names[idx]
            grads[f"{name}.weight"] = layer_in.reshape(layer_in.shape[0], -1).T @ dcur
            grads[f"{name}.bias"] = dcur.sum(axis=0)
            dcur = (dcur @ params[f"{name}.weight"].T).reshape(layer_in.shape)
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


OVERLAP_POOL_SPEC = NetworkSpec(
    [Conv2d(4, 3, 1), MaxPool(3, 2), Conv2d(5, 2, 1), MaxPool(3, 2), FullyConnected(6),
     FullyConnected(3)],
    input_shape=(16, 15, 1),
)
SMALL_REFERENCE_SPEC = reference_spec(4, input_shape=(40, 32, 1))


def _tied_case(spec, ties, seed):
    """Params and a batch whose pooled windows hold exact ties.

    "zeros": a negative conv1 bias leaves many post-ReLU windows all zero.
    "values": integer inputs and conv kernels on a 1/8 grid make equal nonzero maxima common.
    """
    rng = np.random.default_rng(seed)
    params = init_weights(spec, seed).as_float64()
    x = rng.standard_normal((6, *spec.input_shape))
    if ties == "values":
        x = np.round(2 * x)
        for name in params:
            if name.startswith("conv") and name.endswith(".weight"):
                params[name] = np.round(8 * params[name]) / 8
    params["conv1.bias"] -= 0.5
    return params, x


@pytest.mark.parametrize("ties", ["zeros", "values"])
@pytest.mark.parametrize("spec", [SMALL_REFERENCE_SPEC, OVERLAP_POOL_SPEC],
                         ids=["reference-maxpool2x2", "overlapping-maxpool3x2"])
def test_forward_and_backward_match_the_references_bitwise(spec, ties):
    params, x = _tied_case(spec, ties, seed=47)
    outputs = _run_layers(spec, params, x)
    ref_outputs = _reference_run_layers(spec, params, x)
    pooled = [out for layer, out in zip(spec.layers, outputs) if isinstance(layer, MaxPool)]
    assert any(np.any(p == 0.0) for p in pooled)  # the case holds post-ReLU zero maxima
    assert len(outputs) == len(ref_outputs)
    for got, want in zip(outputs, ref_outputs):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    _, dlogits = _softmax_xent(outputs[-1], np.arange(x.shape[0]) % spec.output_width)
    kept = {}
    _run_layers(spec, params, x, kept)
    grads = _backward(spec, params, x, outputs, dlogits, kept)
    ref_grads = _reference_backward(spec, params, x, ref_outputs, dlogits)
    assert list(grads) == list(ref_grads)
    assert all(np.any(g != 0) for g in grads.values())  # gradient reaches every tensor
    for name, want in ref_grads.items():
        assert grads[name].shape == want.shape
        assert grads[name].tobytes() == want.tobytes(), name


def _reference_train_backbone(spec, features, labels, config):
    """train_backbone's loop on the reference layers, with the out-of-place momentum update."""
    rng = np.random.default_rng(config.seed)
    params = init_weights(spec, rng).as_float64()
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    losses = []
    for _ in range(config.epochs):
        order = rng.permutation(features.shape[0])
        total = 0.0
        for start in range(0, features.shape[0], config.batch_size):
            take = order[start : start + config.batch_size]
            outputs = _reference_run_layers(spec, params, features[take])
            loss, dlogits = _softmax_xent(outputs[-1], labels[take])
            grads = _reference_backward(spec, params, features[take], outputs, dlogits)
            for key in params:
                velocity[key] = config.momentum * velocity[key] - config.lr * grads[key]
                params[key] = params[key] + velocity[key]
            total += loss * take.size
        losses.append(total / features.shape[0])
    return {k: v.astype(np.float32) for k, v in params.items()}, losses


@pytest.mark.parametrize("spec", [SMALL_REFERENCE_SPEC, OVERLAP_POOL_SPEC],
                         ids=["reference-maxpool2x2", "overlapping-maxpool3x2"])
def test_train_backbone_matches_the_reference_loop_bitwise(spec):
    rng = np.random.default_rng(53)
    feats = rng.standard_normal((20, *spec.input_shape))
    labels = np.arange(20) % spec.output_width
    cfg = TrainConfig(lr=0.05, momentum=0.9, epochs=3, batch_size=8, seed=59)
    store, losses = train_backbone(spec, feats, labels, cfg)
    tensors, ref_losses = _reference_train_backbone(spec, feats, labels, cfg)
    assert losses == ref_losses
    assert list(store.tensors) == list(tensors)
    for name, tensor in tensors.items():
        assert store.tensors[name].tobytes() == tensor.tobytes(), name


# specs whose first layer reads x itself: an FC over a flat input, an FC over a 3-D input,
# and a max-pool
FIRST_LAYER_SPECS = {
    "fc-flat": NetworkSpec([FullyConnected(5), FullyConnected(3)], input_shape=(6,)),
    "fc-3d": NetworkSpec([FullyConnected(5), FullyConnected(3)], input_shape=(4, 3, 1)),
    "maxpool-first": NetworkSpec([MaxPool(2, 2), Conv2d(3, 2, 1), FullyConnected(4)], input_shape=(9, 8, 1)),
}


@pytest.mark.parametrize("spec", [SMALL_REFERENCE_SPEC, *FIRST_LAYER_SPECS.values()],
                         ids=["reference", *FIRST_LAYER_SPECS])
def test_backward_reuses_the_kept_patches_and_writes_into_none_of_its_inputs(spec):
    rng = np.random.default_rng(61)
    params = init_weights(spec, 61).as_float64()
    x = rng.standard_normal((5, *spec.input_shape))
    kept = {}
    outputs = _run_layers(spec, params, x, kept)
    assert [o.tobytes() for o in outputs] == [o.tobytes() for o in _run_layers(spec, params, x)]
    convs = [idx for idx, layer in enumerate(spec.layers) if isinstance(layer, Conv2d)]
    assert sorted(kept) == convs
    for idx in convs:
        layer = spec.layers[idx]
        layer_in = x if idx == 0 else outputs[idx - 1]
        assert kept[idx].tobytes() == _conv_patches(layer_in, layer.kernel, layer.stride).tobytes()

    dout = rng.standard_normal(outputs[-1].shape)  # a mask written into dout would zero some of it
    inputs = [x, dout, *outputs, *kept.values()]
    before = [a.tobytes() for a in inputs]
    grads = _backward(spec, params, x, outputs, dout, kept)
    assert [a.tobytes() for a in inputs] == before
    want = _reference_backward(spec, params, x, outputs, dout)
    assert list(grads) == list(want)
    for name, tensor in want.items():
        assert grads[name].tobytes() == tensor.tobytes(), name


def test_the_trace_path_keeps_no_patches(monkeypatch):
    from voicetrace import backbone

    calls = []

    def spy(spec, params, x, keep=None):
        calls.append(keep)
        return real(spec, params, x, keep)

    real = backbone._run_layers
    monkeypatch.setattr(backbone, "_run_layers", spy)
    forward_batch(TINY_SPEC, init_weights(TINY_SPEC, 5), np.zeros((2, *TINY_SPEC.input_shape)))
    assert calls == [None]


def test_forward_batch_converts_the_weights_once_across_calls(monkeypatch):
    from voicetrace import backbone

    seen = []

    def spy(spec, params, x, keep=None):
        seen.append(params)
        return real(spec, params, x, keep)

    real = backbone._run_layers
    monkeypatch.setattr(backbone, "_run_layers", spy)
    weights = init_weights(TINY_SPEC, 5)
    batch = np.random.default_rng(5).standard_normal((2, *TINY_SPEC.input_shape))
    first = forward_batch(TINY_SPEC, weights, batch)
    second = forward_batch(TINY_SPEC, weights, batch)
    assert len(seen) == 2 and seen[0] is seen[1] is weights.params64
    assert first[0].tobytes() == second[0].tobytes()
    for name, tensor in weights.tensors.items():
        assert seen[0][name].dtype == np.float64
        assert seen[0][name].tobytes() == tensor.astype(np.float64).tobytes()


def test_a_store_tensors_are_read_only_copies_of_the_callers_arrays():
    given = {k: np.ones(s, dtype=np.float32) for k, s in TINY_SPEC.parameter_shapes().items()}
    weights = WeightStore(given)
    for store in (weights.tensors, weights.params64):
        with pytest.raises(ValueError, match="read-only"):
            store["conv1.weight"][0, 0, 0, 0] = 2.0
    assert all(a.flags.writeable for a in given.values())
    given["conv1.weight"][0, 0, 0, 0] = 2.0  # the store copied, so it does not see this
    assert weights.tensors["conv1.weight"][0, 0, 0, 0] == weights.params64["conv1.weight"][0, 0, 0, 0] == 1.0
    fresh = weights.as_float64()
    fresh["conv1.weight"] += 1.0  # training and the gradient check update their own copies
    assert weights.params64["conv1.weight"][0, 0, 0, 0] == 1.0


@pytest.mark.parametrize("spec", FIRST_LAYER_SPECS.values(), ids=FIRST_LAYER_SPECS)
def test_the_in_place_relu_never_writes_the_input(spec):
    params = init_weights(spec, 3).as_float64()
    x = np.random.default_rng(3).standard_normal((5, *spec.input_shape))
    before = x.tobytes()
    outputs = _run_layers(spec, params, x)
    assert x.tobytes() == before
    assert not any(np.shares_memory(out, x) for out in outputs)
    want = _reference_run_layers(spec, params, x)
    assert [out.tobytes() for out in outputs] == [out.tobytes() for out in want]


@pytest.mark.parametrize("layers, input_shape, match", [
    ([], (6,), "must end in a fully-connected layer"),
    ([Conv2d(2, 3, 1)], (8, 6, 1), "must end in a fully-connected layer"),
    ([Conv2d(2, 3, 1), MaxPool(2, 2)], (8, 6, 1), "must end in a fully-connected layer"),
    ([FullyConnected(4), Conv2d(2, 1, 1), FullyConnected(3)], (8, 6, 1), "layer 1: Conv2d needs a 3-D input"),
], ids=["empty", "conv-last", "maxpool-last", "conv-after-fc"])
def test_a_spec_that_breaks_the_layer_rules_is_refused(layers, input_shape, match):
    with pytest.raises(ValueError, match=match):
        NetworkSpec(layers, input_shape)


def test_an_fc_over_a_3d_input_gives_the_bits_of_the_fc_over_the_reshaped_input():
    over_3d = NetworkSpec([FullyConnected(5), FullyConnected(3)], input_shape=(4, 3, 2))
    over_flat = NetworkSpec([FullyConnected(5), FullyConnected(3)], input_shape=(24,))
    assert over_3d.parameter_shapes() == over_flat.parameter_shapes()
    weights = init_weights(over_3d, 67)
    x = np.random.default_rng(67).standard_normal((6, 4, 3, 2))
    labels = np.arange(6) % 3
    logits, trace = forward_batch(over_3d, weights, x)
    flat_logits, flat_trace = forward_batch(over_flat, weights, x.reshape(6, -1))
    assert logits.tobytes() == flat_logits.tobytes()
    assert trace.layout == flat_trace.layout
    assert [v.tobytes() for _, v in trace.layers()] == [v.tobytes() for _, v in flat_trace.layers()]
    loss, grads = _loss_and_grads(over_3d, weights.as_float64(), x, labels)
    flat_loss, flat_grads = _loss_and_grads(over_flat, weights.as_float64(), x.reshape(6, -1), labels)
    assert loss == flat_loss
    assert {k: g.tobytes() for k, g in grads.items()} == {k: g.tobytes() for k, g in flat_grads.items()}


def _glorot_by_kind(spec, seed):
    """init_weights written per layer kind: a conv weight's fans are k*k*cin and k*k*cout, an
    FC weight's its input and output widths; every draw comes from one generator, in layer order."""
    rng = np.random.default_rng(seed)
    tensors = {}
    in_shapes = [spec.input_shape, *spec.layer_shapes]
    for idx, layer in enumerate(spec.layers):
        if isinstance(layer, Conv2d):
            k, cin, cout = layer.kernel, in_shapes[idx][2], layer.out_channels
            weight = glorot_uniform(rng, (k, k, cin, cout), k * k * cin, k * k * cout)
        elif isinstance(layer, FullyConnected):
            fan_in, fan_out = int(np.prod(in_shapes[idx])), layer.out_units
            weight = glorot_uniform(rng, (fan_in, fan_out), fan_in, fan_out)
        else:  # a max-pool has no parameters
            continue
        tensors[f"{spec.layer_names[idx]}.weight"] = weight.astype(np.float32)
        tensors[f"{spec.layer_names[idx]}.bias"] = np.zeros(weight.shape[-1], dtype=np.float32)
    return tensors


ENGINE_SPECS = {"tiny": TINY_SPEC, "reference": reference_spec(8), "detector": detector_network(30)}


@pytest.mark.parametrize("spec", ENGINE_SPECS.values(), ids=ENGINE_SPECS)
def test_init_weights_is_the_glorot_rule_of_each_layer_kind_bitwise(spec):
    want = _glorot_by_kind(spec, 71)
    got = init_weights(spec, 71).tensors
    assert list(got) == list(want)
    for name, tensor in want.items():
        assert got[name].dtype == np.float32
        assert got[name].tobytes() == tensor.tobytes(), name


SPEC_LITERALS = {
    "reference": (
        reference_spec(8),
        {"conv1.weight": (3, 3, 1, 16), "conv1.bias": (16,), "conv2.weight": (3, 3, 16, 32),
         "conv2.bias": (32,), "conv3.weight": (3, 3, 32, 64), "conv3.bias": (64,),
         "fc1.weight": (2112, 128), "fc1.bias": (128,), "fc2.weight": (128, 64), "fc2.bias": (64,),
         "fc3.weight": (64, 8), "fc3.bias": (8,)},
        [(0, "conv1", 16), (2, "conv2", 32), (3, "conv3", 64), (4, "fc1", 128), (5, "fc2", 64),
         (6, "fc3", 8)],
    ),
    "detector": (
        detector_network(30),
        {"fc1.weight": (30, 256), "fc1.bias": (256,), "fc2.weight": (256, 128), "fc2.bias": (128,),
         "fc3.weight": (128, 64), "fc3.bias": (64,), "fc4.weight": (64, 32), "fc4.bias": (32,),
         "fc5.weight": (32, 1), "fc5.bias": (1,)},
        [(0, "fc1", 256), (1, "fc2", 128), (2, "fc3", 64), (3, "fc4", 32), (4, "fc5", 1)],
    ),
}


@pytest.mark.parametrize("spec, shapes, monitored", SPEC_LITERALS.values(), ids=SPEC_LITERALS)
def test_parameter_shapes_and_monitored_layers_are_the_written_out_tables(spec, shapes, monitored):
    got = spec.parameter_shapes()
    assert got == shapes and list(got) == list(shapes)
    assert spec.monitored_layers() == monitored
    # each call hands out a fresh table, so a caller that edits one leaves the spec as it was
    got.pop("fc1.weight")
    got["extra.weight"] = (1, 1)
    spec.monitored_layers().append((9, "extra", 1))
    spec.monitored_layers()[0] = (0, "renamed", 0)
    assert spec.parameter_shapes() == shapes
    assert spec.monitored_layers() == monitored
