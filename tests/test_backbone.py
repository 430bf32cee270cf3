import numpy as np
import pytest

from voicetrace.backbone import (
    BackboneTrainConfig,
    Conv2d,
    Flatten,
    FullyConnected,
    MaxPool,
    NetworkSpec,
    Relu,
    WeightStore,
    _loss_and_grads,
    forward,
    forward_batch,
    gradient_check,
    init_weights,
    load_weights,
    reference_spec,
    save_weights,
    train_backbone,
)
from voicetrace.errors import WeightFormatError

TINY_SPEC = NetworkSpec(
    [
        Conv2d(3, 3, 2),
        Relu(),
        Conv2d(4, 2, 1),
        Relu(),
        Flatten(),
        FullyConnected(6),
        Relu(),
        FullyConnected(3),
    ],
    input_shape=(8, 6, 1),
)


def _naive_forward(spec, tensors, x):
    """Direct-loop re-implementation of the forward pass and trace capture."""
    cur = x
    per_layer = []
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
            cur = out
        elif isinstance(layer, Relu):
            cur = np.maximum(cur, 0.0)
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
        elif isinstance(layer, Flatten):
            cur = cur.reshape(-1)
        elif isinstance(layer, FullyConnected):
            name = spec.layer_names[idx]
            w = tensors[f"{name}.weight"].astype(np.float64)
            b = tensors[f"{name}.bias"].astype(np.float64)
            out = np.zeros(layer.out_units)
            for o in range(layer.out_units):
                acc = b[o]
                for i in range(cur.size):
                    acc += cur[i] * w[i, o]
                out[o] = acc
            cur = out
        per_layer.append(cur)

    trace = []
    for idx, name, _ in spec.monitored_layers():
        use = per_layer[idx]
        if idx + 1 < len(spec.layers) and isinstance(spec.layers[idx + 1], Relu):
            use = per_layer[idx + 1]
        if use.ndim == 3:
            trace.append((name, use.mean(axis=(0, 1))))
        else:
            trace.append((name, use))
    return per_layer[-1], trace


def test_forward_zero_weights():
    tensors = {k: np.zeros(s) for k, s in TINY_SPEC.parameter_shapes().items()}
    rng = np.random.default_rng(0)
    logits, trace = forward(TINY_SPEC, WeightStore(tensors), rng.standard_normal((8, 6, 1)))
    assert np.all(logits == 0)
    for _, values in trace.entries:
        assert np.all(values == 0)


def test_forward_identity_conv_constant_input():
    spec = NetworkSpec(
        [Conv2d(1, 1, 1), Relu(), Flatten(), FullyConnected(2)],
        input_shape=(2, 2, 1),
    )
    tensors = {k: np.zeros(s) for k, s in spec.parameter_shapes().items()}
    tensors["conv1.weight"][0, 0, 0, 0] = 1.0
    c = 0.73
    _, trace = forward(spec, WeightStore(tensors), np.full((2, 2, 1), c))
    assert trace.values("conv1")[0] == pytest.approx(c)


def test_forward_matches_naive_loop_oracle():
    rng = np.random.default_rng(21)
    weights = init_weights(TINY_SPEC, 21)
    for _ in range(5):
        x = rng.standard_normal((8, 6, 1))
        logits, trace = forward(TINY_SPEC, weights, x)
        ref_logits, ref_trace = _naive_forward(TINY_SPEC, weights.tensors, x)
        np.testing.assert_allclose(logits, ref_logits, rtol=1e-5, atol=1e-8)
        assert trace.layer_ids() == [name for name, _ in ref_trace]
        for (_, got), (_, want) in zip(trace.entries, ref_trace):
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-8)


def test_forward_with_maxpool_matches_oracle():
    spec = NetworkSpec(
        [Conv2d(2, 3, 1), Relu(), MaxPool(2, 2), Flatten(), FullyConnected(3)],
        input_shape=(9, 7, 1),
    )
    rng = np.random.default_rng(33)
    weights = init_weights(spec, 33)
    x = rng.standard_normal((9, 7, 1))
    logits, trace = forward(spec, weights, x)
    ref_logits, ref_trace = _naive_forward(spec, weights.tensors, x)
    np.testing.assert_allclose(logits, ref_logits, rtol=1e-5, atol=1e-8)
    for (_, got), (_, want) in zip(trace.entries, ref_trace):
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-8)


def test_trace_layout_independent_of_content():
    rng = np.random.default_rng(7)
    weights = init_weights(TINY_SPEC, 7)
    seen = set()
    for _ in range(10):
        _, trace = forward(TINY_SPEC, weights, rng.standard_normal((8, 6, 1)))
        seen.add((tuple(trace.layer_ids()), tuple(trace.widths())))
        for _, values in trace.entries[:-1]:  # all but the raw logit layer
            assert np.all(values >= 0)
    assert seen == {(("conv1", "conv2", "fc1", "fc2"), (3, 4, 6, 3))}


def test_reference_spec_trace_widths():
    spec = reference_spec(8)
    widths = [w for _, _, w in spec.monitored_layers()]
    assert widths == [16, 32, 64, 128, 64, 8]


def test_forward_deterministic():
    rng = np.random.default_rng(13)
    weights = init_weights(TINY_SPEC, 13)
    x = rng.standard_normal((8, 6, 1))
    la, ta = forward(TINY_SPEC, weights, x)
    lb, tb = forward(TINY_SPEC, weights, x.copy())
    assert np.array_equal(la, lb)
    for (_, va), (_, vb) in zip(ta.entries, tb.entries):
        assert np.array_equal(va, vb)


def test_forward_rejects_shape_mismatch():
    weights = init_weights(TINY_SPEC, 1)
    with pytest.raises(ValueError):
        forward(TINY_SPEC, weights, np.zeros((6, 8, 1)))


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
    cfg = BackboneTrainConfig(lr=0.0, epochs=3, seed=9)
    store, _ = train_backbone(TINY_SPEC, feats, labels, cfg)
    init = init_weights(TINY_SPEC, 9)
    for name in init.tensors:
        assert np.array_equal(store.tensors[name], init.tensors[name])


def test_train_same_seed_bit_identical():
    feats, labels = _toy_dataset()
    cfg = BackboneTrainConfig(lr=0.01, epochs=2, seed=3)
    a, losses_a = train_backbone(TINY_SPEC, feats, labels, cfg)
    b, losses_b = train_backbone(TINY_SPEC, feats, labels, cfg)
    assert losses_a == losses_b
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name])


def test_train_rejects_single_class():
    feats, _ = _toy_dataset()
    with pytest.raises(ValueError):
        train_backbone(TINY_SPEC, feats, np.zeros(feats.shape[0], dtype=int), BackboneTrainConfig())


def test_train_loss_decreases_on_toy_task():
    feats, labels = _toy_dataset()
    _, losses = train_backbone(TINY_SPEC, feats, labels, BackboneTrainConfig(lr=0.01, epochs=4, seed=1))
    assert losses[0] > losses[1] > losses[2]


def test_gradient_check_random_tiny_net():
    weights = init_weights(TINY_SPEC, 17)
    rng = np.random.default_rng(17)
    err = gradient_check(TINY_SPEC, weights, rng.standard_normal((8, 6, 1)), label=1)
    assert err < 1e-4


def test_gradient_check_flat_fc_net_without_convs():
    spec = NetworkSpec([FullyConnected(5), Relu(), FullyConnected(4), Relu(), FullyConnected(3)],
                       input_shape=(6,))
    assert [name for _, name, _ in spec.monitored_layers()] == ["fc1", "fc2", "fc3"]
    rng = np.random.default_rng(41)
    err = gradient_check(spec, init_weights(spec, 41), rng.standard_normal(6), label=2)
    assert err < 1e-4


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
    # no ReLU anywhere: conv then flatten then one logit layer
    spec = NetworkSpec(
        [Conv2d(2, 1, 1), Flatten(), FullyConnected(3)],
        input_shape=(2, 2, 1),
    )
    rng = np.random.default_rng(19)
    weights = init_weights(spec, 19)
    x = rng.standard_normal((2, 2, 1))
    label = 1

    params = weights.as_float64()
    _, grads = _loss_and_grads(spec, params, x[None], np.array([label]))

    # closed form, derived by hand for the affine chain
    w1 = params["conv1.weight"][0, 0, 0]  # (out_channels,)
    b1 = params["conv1.bias"]
    conv = x[:, :, 0][:, :, None] * w1[None, None, :] + b1
    feat = conv.reshape(-1)
    logits = feat @ params["fc1.weight"] + params["fc1.bias"]
    p = np.exp(logits - logits.max())
    p /= p.sum()
    dz = p.copy()
    dz[label] -= 1.0
    d_fc_w = np.outer(feat, dz)
    d_fc_b = dz
    d_feat = params["fc1.weight"] @ dz
    d_conv = d_feat.reshape(conv.shape)
    d_w1 = np.einsum("ij,ijo->o", x[:, :, 0], d_conv)
    d_b1 = d_conv.sum(axis=(0, 1))

    np.testing.assert_allclose(grads["fc1.weight"], d_fc_w, atol=1e-8)
    np.testing.assert_allclose(grads["fc1.bias"], d_fc_b, atol=1e-8)
    np.testing.assert_allclose(grads["conv1.weight"].reshape(-1), d_w1, atol=1e-8)
    np.testing.assert_allclose(grads["conv1.bias"], d_b1, atol=1e-8)


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


def test_load_rejects_missing_layer(tmp_path):
    # same prefix as TINY_SPEC but the final logit layer is absent
    other = NetworkSpec(
        [Conv2d(3, 3, 2), Relu(), Conv2d(4, 2, 1), Relu(), Flatten(), FullyConnected(6)],
        input_shape=(8, 6, 1),
    )
    p = tmp_path / "w.nsw1"
    save_weights(init_weights(other, 2), p)
    with pytest.raises(WeightFormatError) as exc:
        load_weights(p, TINY_SPEC)
    assert "fc2" in str(exc.value)  # names the layer the file lacks


def test_load_rejects_wrong_shape(tmp_path):
    other = NetworkSpec(
        [Conv2d(2, 3, 1), Relu(), Flatten(), FullyConnected(2)],
        input_shape=(8, 6, 1),
    )
    p = tmp_path / "w.nsw1"
    save_weights(init_weights(other, 2), p)
    with pytest.raises(WeightFormatError) as exc:
        load_weights(p, TINY_SPEC)
    assert "conv1" in str(exc.value)


def test_batch_forward_matches_single():
    rng = np.random.default_rng(29)
    weights = init_weights(TINY_SPEC, 29)
    batch = rng.standard_normal((4, 8, 6, 1))
    logits, entries = forward_batch(TINY_SPEC, weights, batch)
    for i in range(4):
        single_logits, single_trace = forward(TINY_SPEC, weights, batch[i])
        # batched matmuls may sum in a different order; allow rounding noise
        np.testing.assert_allclose(logits[i], single_logits, atol=1e-12)
        for (name, block), (s_name, s_vals) in zip(entries, single_trace.entries):
            assert name == s_name
            np.testing.assert_allclose(block[i], s_vals, atol=1e-12)
