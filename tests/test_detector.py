import numpy as np
import pytest

from voicetrace.detector import (
    DetectorModel,
    DetectorSpec,
    Standardizer,
    TrainConfig,
    _bce_loss,
    gradient_check,
    load_detector,
    predict,
    save_detector,
    score_batch,
    train_detector,
)
from voicetrace.errors import WeightFormatError
from voicetrace.nn import glorot_uniform, relu, sigmoid

TINY_SPEC = DetectorSpec(2, hidden=(4, 3, 3, 2))  # 50 parameters


def _blobs(n_per_class=40, gap=4.0, seed=0):
    rng = np.random.default_rng(seed)
    real = rng.standard_normal((n_per_class, 2)) * 0.4
    fake = rng.standard_normal((n_per_class, 2)) * 0.4 + gap
    feats = np.vstack([real, fake])
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    return feats, labels


def test_spec_requires_four_hidden_layers():
    with pytest.raises(ValueError):
        DetectorSpec(8, hidden=(16, 8))
    assert DetectorSpec(8).layer_widths() == [8, 256, 128, 64, 32, 1]


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(momentum=1.0)


def test_separable_blobs_reach_full_accuracy():
    feats, labels = _blobs()
    std = Standardizer.fit(feats)
    cfg = TrainConfig(lr=0.05, epochs=200, batch_size=16, seed=2)
    model = train_detector(feats, labels, cfg, spec=TINY_SPEC, standardizer=std)
    scores = score_batch(model, feats)
    assert np.mean((scores >= 0.5) == labels) == 1.0


def test_lr_zero_keeps_parameters_at_init():
    feats, labels = _blobs(n_per_class=10)
    frozen = train_detector(feats, labels, TrainConfig(lr=0.0, epochs=25, seed=7), spec=TINY_SPEC)
    init = train_detector(feats, labels, TrainConfig(lr=0.0, epochs=0, seed=7), spec=TINY_SPEC)
    for name in init.tensors:
        assert np.array_equal(frozen.tensors[name], init.tensors[name])


def test_same_seed_bit_identical():
    feats, labels = _blobs(n_per_class=15)
    cfg = TrainConfig(lr=0.01, epochs=5, seed=11)
    a = train_detector(feats, labels, cfg, spec=TINY_SPEC)
    b = train_detector(feats, labels, cfg, spec=TINY_SPEC)
    assert a.loss_log == b.loss_log
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name])


def test_loss_non_increasing_early():
    feats, labels = _blobs()
    model = train_detector(
        feats, labels, TrainConfig(lr=0.01, epochs=5, seed=3),
        spec=TINY_SPEC, standardizer=Standardizer.fit(feats),
    )
    head = model.loss_log[:5]
    assert all(later <= earlier for earlier, later in zip(head, head[1:]))


def test_train_rejects_single_class():
    feats, _ = _blobs(n_per_class=5)
    with pytest.raises(ValueError):
        train_detector(feats, np.ones(feats.shape[0], dtype=int), TrainConfig())


def test_train_rejects_width_mismatch():
    feats, labels = _blobs(n_per_class=5)
    with pytest.raises(ValueError):
        train_detector(feats, labels, TrainConfig(), spec=DetectorSpec(3, hidden=(4, 3, 3, 2)))


def _reference_train_detector(x, labels, config, spec):
    """The detector's own five-layer FC loop, from before it ran on the backbone's engine."""
    rng = np.random.default_rng(config.seed)
    widths = spec.layer_widths()
    params = {}
    for i in range(5):
        w = glorot_uniform(rng, (widths[i], widths[i + 1]), widths[i], widths[i + 1])
        params[f"fc{i + 1}.weight"] = w.astype(np.float32).astype(np.float64)
        params[f"fc{i + 1}.bias"] = np.zeros(widths[i + 1])
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


@pytest.mark.parametrize("spec", [TINY_SPEC, DetectorSpec(30)], ids=["tiny", "default-hidden"])
def test_train_detector_matches_the_hand_rolled_reference(spec):
    rng = np.random.default_rng(37)
    feats = rng.standard_normal((70, spec.input_width))
    labels = (feats[:, 0] + 0.5 * rng.standard_normal(70) > 0).astype(int)
    std = Standardizer.fit(feats)
    cfg = TrainConfig(lr=0.02, momentum=0.9, decay=0.05, epochs=6, batch_size=16, seed=43)
    model = train_detector(feats, labels, cfg, spec=spec, standardizer=std)
    tensors, losses = _reference_train_detector(std.transform(feats), labels, cfg, spec)
    assert model.loss_log == losses
    assert list(model.tensors) == list(tensors)
    for name, tensor in tensors.items():
        assert model.tensors[name].dtype == np.float32
        assert np.array_equal(model.tensors[name], tensor), name


def test_zero_model_scores_half():
    widths = TINY_SPEC.layer_widths()
    tensors = {}
    for i in range(5):
        tensors[f"fc{i + 1}.weight"] = np.zeros((widths[i], widths[i + 1]), dtype=np.float32)
        tensors[f"fc{i + 1}.bias"] = np.zeros(widths[i + 1], dtype=np.float32)
    model = DetectorModel(TINY_SPEC, tensors, Standardizer.identity(2))
    pred = predict(model, np.array([3.0, -1.0]))
    assert pred.score == 0.5
    assert pred.label == "fake"  # threshold is closed at the boundary


def test_scores_stay_in_unit_interval():
    feats, labels = _blobs(n_per_class=10)
    model = train_detector(feats, labels, TrainConfig(lr=0.05, epochs=20, seed=5), spec=TINY_SPEC)
    rng = np.random.default_rng(5)
    wild = rng.standard_normal((50, 2)) * 100
    scores = score_batch(model, wild)
    assert np.all(scores >= 0.0) and np.all(scores <= 1.0)


def test_forward_matches_matrix_oracle():
    feats, labels = _blobs(n_per_class=10)
    std = Standardizer.fit(feats)
    model = train_detector(feats, labels, TrainConfig(lr=0.01, epochs=3, seed=13),
                           spec=TINY_SPEC, standardizer=std)
    x = std.transform(feats[:7])
    cur = x
    params = model.params64()
    for i in range(1, 6):
        cur = cur @ params[f"fc{i}.weight"] + params[f"fc{i}.bias"]
        if i < 5:
            cur = relu(cur)
    expected = sigmoid(cur.ravel())
    np.testing.assert_allclose(score_batch(model, feats[:7]), expected, atol=1e-6)


def test_predict_rejects_width_mismatch():
    feats, labels = _blobs(n_per_class=5)
    model = train_detector(feats, labels, TrainConfig(epochs=1), spec=TINY_SPEC)
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
    base = train_detector(feats, labels, cfg, spec=TINY_SPEC, standardizer=Standardizer.fit(feats))
    scale = np.array([3.5, 0.04])
    shift = np.array([-20.0, 5.0])
    moved = feats * scale + shift
    again = train_detector(moved, labels, cfg, spec=TINY_SPEC, standardizer=Standardizer.fit(moved))
    base_scores = score_batch(base, feats)
    again_scores = score_batch(again, moved)
    np.testing.assert_allclose(base_scores, again_scores, atol=1e-9)
    assert np.array_equal(base_scores >= 0.5, again_scores >= 0.5)


def test_gradient_check_small_model():
    feats, labels = _blobs(n_per_class=8)
    model = train_detector(feats, labels, TrainConfig(lr=0.01, epochs=2, seed=29),
                           spec=TINY_SPEC, standardizer=Standardizer.fit(feats))
    err = gradient_check(model, feats[0], label=0)
    assert err < 1e-4


def test_gradient_check_refuses_big_models():
    feats = np.random.default_rng(0).standard_normal((20, 36))
    labels = np.array([0, 1] * 10)
    model = train_detector(feats, labels, TrainConfig(epochs=1))
    with pytest.raises(ValueError):
        gradient_check(model, feats[0], label=0)


def test_save_load_round_trip(tmp_path):
    feats, labels = _blobs(n_per_class=10)
    model = train_detector(feats, labels, TrainConfig(lr=0.01, epochs=3, seed=31),
                           spec=TINY_SPEC, standardizer=Standardizer.fit(feats),
                           criterion="tkan", k=5)
    p = tmp_path / "d.nsd1"
    save_detector(model, p)
    back = load_detector(p)
    assert back.criterion == "tkan"
    assert back.k == 5
    assert back.spec == model.spec
    for name in model.tensors:
        assert np.array_equal(back.tensors[name], model.tensors[name])
    # standardizer stats are stored as float32; a second round-trip is exact
    save_detector(back, tmp_path / "d2.nsd1")
    twice = load_detector(tmp_path / "d2.nsd1")
    assert np.array_equal(twice.standardizer.mean, back.standardizer.mean)
    assert np.array_equal(twice.standardizer.std, back.standardizer.std)
    np.testing.assert_allclose(score_batch(back, feats), score_batch(model, feats), atol=1e-5)
    assert np.array_equal(score_batch(back, feats), score_batch(twice, feats))


def test_load_rejects_corrupt_magic(tmp_path):
    feats, labels = _blobs(n_per_class=5)
    model = train_detector(feats, labels, TrainConfig(epochs=1), spec=TINY_SPEC)
    p = tmp_path / "d.nsd1"
    save_detector(model, p)
    raw = bytearray(p.read_bytes())
    raw[0] ^= 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(WeightFormatError):
        load_detector(p)


def test_load_rejects_every_truncation_and_a_non_utf8_criterion(tmp_path):
    feats, labels = _blobs(n_per_class=5)
    model = train_detector(feats, labels, TrainConfig(epochs=1), spec=TINY_SPEC, criterion="acn")
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
], ids=["flat-weight", "short-bias", "wide-mean"])
def test_load_rejects_inconsistent_tensor_shapes(tmp_path, name, bad):
    from voicetrace import nsw1

    feats, labels = _blobs(n_per_class=5)
    model = train_detector(feats, labels, TrainConfig(epochs=1), spec=TINY_SPEC)
    p = tmp_path / "d.nsd1"
    save_detector(model, p)
    raw = p.read_bytes()
    tensors = nsw1.read_tensor_stream(raw[16:], label="d")
    tensors[name] = bad(tensors[name])
    p.write_bytes(raw[:16] + nsw1.pack_tensors(tensors))
    with pytest.raises(WeightFormatError):
        load_detector(p)
