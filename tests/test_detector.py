import numpy as np
import pytest

from voicetrace.backbone import (FullyConnected, NetworkSpec, WeightStore, init_weights, reference_spec,
                                 train_backbone)
from voicetrace.detector import (
    HIDDEN,
    DetectorModel,
    Standardizer,
    _bce_loss,
    detector_network,
    gradient_check,
    load_detector,
    predict,
    save_detector,
    score_batch,
    train_detector,
)
from voicetrace.errors import WeightFormatError
from voicetrace.nn import TrainConfig, glorot_uniform, sigmoid


def relu(x):
    return np.maximum(x, 0.0)


TINY = (4, 3, 3, 2)  # hidden widths; 50 parameters on two features


def _layer_widths(input_width, hidden=HIDDEN):
    """Input width, the four hidden widths, then the one logit."""
    return [input_width, *hidden, 1]


def _blobs(n_per_class=40, gap=4.0, seed=0):
    rng = np.random.default_rng(seed)
    real = rng.standard_normal((n_per_class, 2)) * 0.4
    fake = rng.standard_normal((n_per_class, 2)) * 0.4 + gap
    feats = np.vstack([real, fake])
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    return feats, labels


def test_spec_requires_four_hidden_layers():
    with pytest.raises(ValueError, match="five FC layers"):
        detector_network(8, hidden=(16, 8))
    with pytest.raises(ValueError, match="input_width must be positive"):
        detector_network(0)
    net = detector_network(8)
    assert [net.input_shape[0], *(shape[0] for shape in net.layer_shapes)] == [8, 256, 128, 64, 32, 1]
    assert _layer_widths(8) == [8, 256, 128, 64, 32, 1]


def _fit_backbone(config):
    feats, labels = _blobs(n_per_class=4)
    net = NetworkSpec([FullyConnected(3), FullyConnected(2)], input_shape=(2,))
    return train_backbone(net, feats, labels, config)[1]


def _fit_detector(config):
    feats, labels = _blobs(n_per_class=4)
    return train_detector(feats, labels, config, hidden=TINY).loss_log


@pytest.mark.parametrize("fit", [_fit_backbone, _fit_detector], ids=["backbone", "detector"])
def test_train_config_validation(fit):
    # a batch size below 1 used to take no step and report losses of 0.0, and the backbone's
    # config took a negative lr and a momentum of 1.5
    for bad in ({"lr": -1.0}, {"lr": -5.0, "momentum": 1.5}, {"momentum": 1.0}, {"momentum": -0.1},
                {"decay": -1e-6}, {"batch_size": 0}, {"batch_size": -1}, {"batch_size": -3}, {"epochs": -1}):
        with pytest.raises(ValueError):
            fit(TrainConfig(**{"epochs": 3, "seed": 0, **bad}))
    assert fit(TrainConfig(epochs=0, seed=0)) == []
    losses = fit(TrainConfig(epochs=3, seed=0, lr=0.0, momentum=0.0, batch_size=1))
    assert len(losses) == 3 and all(loss > 0 for loss in losses)


def test_separable_blobs_reach_full_accuracy():
    feats, labels = _blobs()
    cfg = TrainConfig(lr=0.05, epochs=200, batch_size=16, seed=2)
    model = train_detector(feats, labels, cfg, hidden=TINY)
    scores = score_batch(model, feats)
    assert np.mean((scores >= 0.5) == labels) == 1.0


def test_lr_zero_keeps_parameters_at_init():
    feats, labels = _blobs(n_per_class=10)
    frozen = train_detector(feats, labels, TrainConfig(lr=0.0, epochs=25, seed=7), hidden=TINY)
    init = train_detector(feats, labels, TrainConfig(lr=0.0, epochs=0, seed=7), hidden=TINY)
    for name in init.weights.tensors:
        assert np.array_equal(frozen.weights.tensors[name], init.weights.tensors[name])


def test_same_seed_bit_identical():
    feats, labels = _blobs(n_per_class=15)
    cfg = TrainConfig(lr=0.01, epochs=5, seed=11)
    a = train_detector(feats, labels, cfg, hidden=TINY)
    b = train_detector(feats, labels, cfg, hidden=TINY)
    assert a.loss_log == b.loss_log
    for name in a.weights.tensors:
        assert np.array_equal(a.weights.tensors[name], b.weights.tensors[name])


def test_loss_non_increasing_early():
    feats, labels = _blobs()
    model = train_detector(
        feats, labels, TrainConfig(lr=0.01, epochs=5, seed=3),
        hidden=TINY,
    )
    head = model.loss_log[:5]
    assert all(later <= earlier for earlier, later in zip(head, head[1:]))


def test_train_rejects_single_class():
    feats, _ = _blobs(n_per_class=5)
    with pytest.raises(ValueError):
        train_detector(feats, np.ones(feats.shape[0], dtype=int), TrainConfig(epochs=100, seed=0))


def _reference_train_detector(x, labels, config, hidden, dtype):
    """The detector's own five-layer FC loop, from before it ran on the backbone's engine,
    with inputs, parameters, velocity and gradients all in dtype."""
    rng = np.random.default_rng(config.seed)
    widths = _layer_widths(x.shape[1], hidden)
    x = x.astype(dtype)
    params = {}
    for i in range(5):
        w = glorot_uniform(rng, (widths[i], widths[i + 1]), widths[i], widths[i + 1])
        params[f"fc{i + 1}.weight"] = w.astype(np.float32).astype(dtype)
        params[f"fc{i + 1}.bias"] = np.zeros(widths[i + 1], dtype=dtype)
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    step = 0
    losses = []
    for _ in range(config.epochs):
        order = rng.permutation(len(x))
        total = 0.0
        for start in range(0, len(x), config.batch_size):
            take = order[start : start + config.batch_size]
            outs, cur = [], x[take]
            for i in range(5):
                cur = cur @ params[f"fc{i + 1}.weight"] + params[f"fc{i + 1}.bias"]
                if i < 4:
                    cur = relu(cur)
                outs.append(cur)
            loss, dcur = _bce_loss(outs[-1], labels[take])
            grads = {}
            for i in range(4, -1, -1):
                layer_in = x[take] if i == 0 else outs[i - 1]
                if i < 4:
                    dcur = dcur * (outs[i] > 0)
                grads[f"fc{i + 1}.weight"] = layer_in.T @ dcur
                grads[f"fc{i + 1}.bias"] = dcur.sum(axis=0)
                dcur = dcur @ params[f"fc{i + 1}.weight"].T
            lr_t = config.lr / (1.0 + config.decay * step)
            for key in params:
                velocity[key] = config.momentum * velocity[key] - lr_t * grads[key]
                params[key] = params[key] + velocity[key]
            step += 1
            total += loss * take.size
        losses.append(total / len(x))
    return {k: v.astype(np.float32) for k, v in params.items()}, losses


@pytest.mark.parametrize("width, hidden", [(2, TINY), (30, HIDDEN)], ids=["tiny", "default-hidden"])
def test_train_detector_matches_the_hand_rolled_reference(width, hidden):
    rng = np.random.default_rng(37)
    feats = rng.standard_normal((70, width))
    labels = (feats[:, 0] + 0.5 * rng.standard_normal(70) > 0).astype(int)
    std = Standardizer.fit(feats)
    cfg = TrainConfig(lr=0.02, momentum=0.9, decay=0.05, epochs=6, batch_size=16, seed=43)
    model = train_detector(feats, labels, cfg, hidden=hidden)
    # the model standardizes with the stats of its own train rows, bit for bit
    assert model.standardizer.mean.tobytes() == std.mean.tobytes()
    assert model.standardizer.std.tobytes() == std.std.tobytes()
    tensors, losses = _reference_train_detector(std.transform(feats), labels, cfg, hidden, np.float32)
    assert model.loss_log == losses
    assert list(model.weights.tensors) == list(tensors)
    for name, tensor in tensors.items():
        assert model.weights.tensors[name].dtype == np.float32
        assert np.array_equal(model.weights.tensors[name], tensor), name
    # the float64 loop is the oracle: float32 training must not move the loss curve visibly
    _, losses64 = _reference_train_detector(std.transform(feats), labels, cfg, hidden, np.float64)
    np.testing.assert_allclose(losses, losses64, rtol=1e-6, atol=0)


def test_fit_runs_in_float32_and_the_gradient_check_in_float64(monkeypatch, tmp_path):
    import sys

    from voicetrace import backbone

    seen = []

    def spy(net, params, batch, targets, head):
        loss, grads = real(net, params, batch, targets, head)
        velocity = sys._getframe(1).f_locals["velocity"]  # fit's own
        seen.append({batch.dtype, *(t.dtype for t in (*params.values(), *grads.values(),
                                                     *velocity.values()))})
        return loss, grads

    real = backbone._loss_and_grads
    feats, labels = _blobs(n_per_class=12)
    with monkeypatch.context() as patch:
        patch.setattr(backbone, "_loss_and_grads", spy)
        model = train_detector(feats, labels, TrainConfig(lr=0.05, epochs=3, batch_size=8, seed=3),
                               hidden=TINY)
    assert len(seen) == 9 and all(dtypes == {np.dtype(np.float32)} for dtypes in seen)
    assert {t.dtype for t in model.weights.tensors.values()} == {np.dtype(np.float32)}
    save_detector(model, tmp_path / "d.nsd")
    loaded = load_detector(tmp_path / "d.nsd")
    assert all(loaded.weights.tensors[k].tobytes() == t.tobytes() for k, t in model.weights.tensors.items())

    checked = []
    real_check = backbone._loss_and_grads

    def check_spy(net, params, batch, targets, head):
        checked.append({batch.dtype, *(t.dtype for t in params.values())})
        return real_check(net, params, batch, targets, head)

    monkeypatch.setattr(backbone, "_loss_and_grads", check_spy)
    assert gradient_check(model, feats[0], int(labels[0])) < 1e-4
    assert checked == [{np.dtype(np.float64)}]


def test_scoring_runs_on_the_stored_tensors_and_no_copy_can_go_stale(monkeypatch):
    import pickle

    from voicetrace import detector

    seen = []

    def spy(net, params, x, keep=None):
        seen.append(params)
        return real(net, params, x, keep)

    real = detector._run_layers
    monkeypatch.setattr(detector, "_run_layers", spy)
    feats, labels = _blobs(n_per_class=6)
    model = train_detector(feats, labels, TrainConfig(lr=0.05, epochs=2, seed=3), hidden=TINY)
    first, second = score_batch(model, feats), score_batch(model, feats)
    assert len(seen) == 2 and seen[0] is seen[1] is model.weights.tensors
    assert first.tobytes() == second.tobytes() and first.dtype == np.float64
    for name, tensor in model.weights.tensors.items():
        assert seen[0][name] is tensor and tensor.dtype == np.float32
    given = {k: t.copy() for k, t in model.weights.tensors.items()}
    rebuilt = DetectorModel(model.network, WeightStore(given), model.standardizer)
    assert all(t.flags.writeable for t in given.values())  # the store copied the caller's arrays
    backbone_weights = init_weights(reference_spec(4), 3)
    for protocol in (2, pickle.HIGHEST_PROTOCOL):
        back = pickle.loads(pickle.dumps(model, protocol=protocol))
        assert back.loss_log == model.loss_log and back.weights.tensors is not model.weights.tensors
        back_weights = pickle.loads(pickle.dumps(backbone_weights, protocol=protocol))
        assert list(back_weights.tensors) == list(backbone_weights.tensors)
        for name, tensor in backbone_weights.tensors.items():
            assert back_weights.tensors[name].dtype == np.float32
            assert back_weights.tensors[name].tobytes() == tensor.tobytes()
        for weights, name in ((model.weights, "fc1.weight"), (rebuilt.weights, "fc1.weight"),
                              (back.weights, "fc1.weight"), (back_weights, "conv1.weight")):
            with pytest.raises(ValueError, match="read-only"):
                weights.tensors[name].flat[0] = 1.0
        assert score_batch(back, feats).tobytes() == first.tobytes()


def _reference_sigmoid(x):
    """nn.sigmoid as it was when every caller passed float64."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_keeps_float32_and_its_float64_bytes():
    x32 = np.array([-1e4, -100.0, -1.0, -0.0, 0.0, 1.0, 100.0, 1e4], dtype=np.float32)
    with np.errstate(all="raise"):
        out = sigmoid(x32)
    assert out.dtype == np.float32
    assert out[0] == 0.0 and out[-1] == 1.0 and np.all(np.diff(out) >= 0)
    np.testing.assert_allclose(out, _reference_sigmoid(x32.astype(np.float64)), rtol=1e-6, atol=1e-30)

    x64 = np.concatenate([np.linspace(-800.0, 800.0, 4001), [-1e300, -0.0, 1e-300, np.inf, -np.inf]])
    with np.errstate(under="ignore"):
        want = _reference_sigmoid(x64)
    assert sigmoid(x64).dtype == np.float64
    assert sigmoid(x64).tobytes() == want.tobytes()


def test_zero_model_scores_half():
    widths = _layer_widths(2, TINY)
    tensors = {}
    for i in range(5):
        tensors[f"fc{i + 1}.weight"] = np.zeros((widths[i], widths[i + 1]), dtype=np.float32)
        tensors[f"fc{i + 1}.bias"] = np.zeros(widths[i + 1], dtype=np.float32)
    model = DetectorModel(detector_network(2, TINY), WeightStore(tensors),
                          Standardizer(np.zeros(2), np.ones(2)))
    pred = predict(model, np.array([3.0, -1.0]))
    assert pred.score == 0.5
    assert pred.label == "fake"  # threshold is closed at the boundary


def test_scores_stay_in_unit_interval():
    feats, labels = _blobs(n_per_class=10)
    model = train_detector(feats, labels, TrainConfig(lr=0.05, epochs=20, seed=5), hidden=TINY)
    rng = np.random.default_rng(5)
    wild = rng.standard_normal((50, 2)) * 100
    scores = score_batch(model, wild)
    assert np.all(scores >= 0.0) and np.all(scores <= 1.0)


def test_forward_matches_matrix_oracle():
    feats, labels = _blobs(n_per_class=10)
    std = Standardizer.fit(feats)
    model = train_detector(feats, labels, TrainConfig(lr=0.01, epochs=3, seed=13),
                           hidden=TINY)
    x = std.transform(feats[:7]).astype(np.float32)
    cur = x
    params = model.weights.tensors
    for i in range(1, 6):
        cur = cur @ params[f"fc{i}.weight"] + params[f"fc{i}.bias"]
        if i < 5:
            cur = relu(cur)
    expected = sigmoid(cur.ravel())
    np.testing.assert_allclose(score_batch(model, feats[:7]), expected, atol=1e-6)


def test_predict_rejects_width_mismatch():
    feats, labels = _blobs(n_per_class=5)
    model = train_detector(feats, labels, TrainConfig(epochs=1, seed=0, lr=1e-4), hidden=TINY)
    with pytest.raises(ValueError):
        predict(model, np.zeros(3))


def test_standardizer_constant_dimension():
    feats = np.column_stack([np.full(10, 7.0), np.arange(10, dtype=np.float64)])
    std = Standardizer.fit(feats)
    out = std.transform(feats)
    assert np.all(out[:, 0] == 0.0)


def test_standardizer_normalizes_train_split():
    rng = np.random.default_rng(17)
    feats = rng.standard_normal((200, 5)) * np.array([1, 10, 100, 0.1, 3]) + 7
    out = Standardizer.fit(feats).transform(feats)
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-6)
    np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-6)


def test_standardizer_train_stats_applied_to_test():
    rng = np.random.default_rng(19)
    train = rng.standard_normal((50, 3)) * 2 + 1
    test = rng.standard_normal((20, 3))
    std = Standardizer.fit(train)
    expected = (test - train.mean(axis=0)) / np.maximum(train.std(axis=0), 1e-8)
    np.testing.assert_allclose(std.transform(test), expected, rtol=1e-12)


def test_affine_feature_rescaling_keeps_labels():
    feats, labels = _blobs(seed=23)
    cfg = TrainConfig(lr=0.05, epochs=50, seed=23)
    base = train_detector(feats, labels, cfg, hidden=TINY)
    scale = np.array([3.5, 0.04])
    shift = np.array([-20.0, 5.0])
    moved = feats * scale + shift
    again = train_detector(moved, labels, cfg, hidden=TINY)
    base_scores = score_batch(base, feats)
    again_scores = score_batch(again, moved)
    np.testing.assert_allclose(base_scores, again_scores, atol=1e-9)
    assert np.array_equal(base_scores >= 0.5, again_scores >= 0.5)


def test_gradient_check_small_model():
    feats, labels = _blobs(n_per_class=8)
    model = train_detector(feats, labels, TrainConfig(lr=0.01, epochs=2, seed=29),
                           hidden=TINY)
    err = gradient_check(model, feats[0], label=0)
    assert err < 1e-4


def test_gradient_check_refuses_big_models():
    feats = np.random.default_rng(0).standard_normal((20, 36))
    labels = np.array([0, 1] * 10)
    model = train_detector(feats, labels, TrainConfig(epochs=1, seed=0, lr=1e-4))
    with pytest.raises(ValueError):
        gradient_check(model, feats[0], label=0)


def test_save_load_round_trip(tmp_path):
    feats, labels = _blobs(n_per_class=10)
    model = train_detector(feats, labels, TrainConfig(lr=0.01, epochs=3, seed=31),
                           hidden=TINY,
                           criterion="tkan", k=5)
    p = tmp_path / "d.nsd1"
    save_detector(model, p)
    back = load_detector(p)
    assert back.criterion == "tkan"
    assert back.k == 5
    assert back.network.layers == model.network.layers
    assert back.network.input_shape == model.network.input_shape == (2,)
    for name in model.weights.tensors:
        assert np.array_equal(back.weights.tensors[name], model.weights.tensors[name])
    # standardizer stats are stored as float32; a second round-trip is exact
    save_detector(back, tmp_path / "d2.nsd1")
    twice = load_detector(tmp_path / "d2.nsd1")
    assert np.array_equal(twice.standardizer.mean, back.standardizer.mean)
    assert np.array_equal(twice.standardizer.std, back.standardizer.std)
    np.testing.assert_allclose(score_batch(back, feats), score_batch(model, feats), atol=1e-5)
    assert np.array_equal(score_batch(back, feats), score_batch(twice, feats))


def test_load_rejects_corrupt_magic(tmp_path):
    feats, labels = _blobs(n_per_class=5)
    model = train_detector(feats, labels, TrainConfig(epochs=1, seed=0, lr=1e-4), hidden=TINY)
    p = tmp_path / "d.nsd1"
    save_detector(model, p)
    raw = bytearray(p.read_bytes())
    raw[0] ^= 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(WeightFormatError):
        load_detector(p)


def test_load_rejects_every_truncation_and_a_non_utf8_criterion(tmp_path):
    feats, labels = _blobs(n_per_class=5)
    model = train_detector(feats, labels, TrainConfig(epochs=1, seed=0, lr=1e-4), hidden=TINY,
                           criterion="acn")
    full = tmp_path / "d.nsd1"
    save_detector(model, full)
    raw = full.read_bytes()
    p = tmp_path / "cut.nsd1"
    for n in range(len(raw)):
        p.write_bytes(raw[:n])
        with pytest.raises(WeightFormatError):
            load_detector(p)
    assert raw[12:15] == b"acn"
    p.write_bytes(raw[:12] + b"\xff\xfe\xfd" + raw[15:])
    with pytest.raises(WeightFormatError):
        load_detector(p)


def test_load_rejects_missing_tensors(tmp_path):
    from voicetrace import nsw1
    import struct as _struct

    header = b"NSD1" + _struct.pack("<I", 1) + _struct.pack("<I", 0) + _struct.pack("<I", 0)
    body = nsw1.pack_tensors({"standardize.mean": np.zeros(2, np.float32),
                              "standardize.std": np.ones(2, np.float32),
                              "fc1.weight": np.zeros((2, 4), np.float32)})
    p = tmp_path / "bad.nsd1"
    p.write_bytes(header + body)
    with pytest.raises(WeightFormatError):
        load_detector(p)


@pytest.mark.parametrize("name, bad", [
    ("fc3.weight", lambda t: t.ravel()),
    ("fc2.bias", lambda t: t[:-1]),
    ("standardize.mean", lambda t: np.zeros(3, np.float32)),
    ("fc2.weight", lambda t: np.where(t == t.flat[0], np.float32(np.nan), t)),
    ("standardize.mean", lambda t: np.full_like(t, np.inf)),
    ("standardize.std", lambda t: np.zeros_like(t)),
], ids=["flat-weight", "short-bias", "wide-mean", "nan-weight", "inf-mean", "zero-std"])
def test_load_rejects_inconsistent_tensor_shapes(tmp_path, name, bad):
    from voicetrace import nsw1

    feats, labels = _blobs(n_per_class=5)
    model = train_detector(feats, labels, TrainConfig(epochs=1, seed=0, lr=1e-4), hidden=TINY)
    p = tmp_path / "d.nsd1"
    save_detector(model, p)
    raw = p.read_bytes()
    tensors = nsw1.read_tensor_stream(raw[16:], label="d")
    tensors[name] = bad(tensors[name])
    p.write_bytes(raw[:16] + nsw1.pack_tensors(tensors))
    with pytest.raises(WeightFormatError):
        load_detector(p)
