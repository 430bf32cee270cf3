import re

import numpy as np
import pytest

from voicetrace.backbone import LayerTable
from voicetrace.errors import FeatureFormatError
from voicetrace.coverage import (
    ACN,
    TKAN,
    LayerThresholds,
    acn_features,
    calibrate_thresholds,
    load_thresholds,
    read_feature_csv,
    save_thresholds,
    tkan_features,
    write_feature_csv,
)
from voicetrace.pipeline import _TRACE_BLOCK


def _trace(layer_values):
    """A block trace of (name, values) layers; a layer given as one flat list is a block of one clip."""
    layers = [(name, np.atleast_2d(np.asarray(v, dtype=np.float64))) for name, v in layer_values]
    return LayerTable(np.concatenate([v for _, v in layers], axis=1),
                      tuple((name, v.shape[1]) for name, v in layers))


def _random_layers(rng, n, widths):
    """n clips of non-negative values per layer, one (name, (n, width) array) pair per width."""
    return [(f"l{j}", np.abs(rng.standard_normal((n, w)))) for j, w in enumerate(widths)]


def test_calibrate_two_trace_hand_case():
    th = calibrate_thresholds(_trace([("fc1", [[1.0, 3.0], [2.0, 2.0]])]))
    assert th.calibration_size == 2
    assert dict(th.deltas)["fc1"] == 2.0


def test_calibrate_single_trace_is_layer_mean():
    t = _trace([("conv1", [0.5, 1.5, 2.5]), ("fc1", [4.0])])
    th = calibrate_thresholds(t)
    assert th.calibration_size == 1
    assert dict(th.deltas)["conv1"] == pytest.approx(1.5)
    assert dict(th.deltas)["fc1"] == 4.0


def test_calibrate_matches_brute_force():
    rng = np.random.default_rng(41)
    layers = _random_layers(rng, 50, (7, 3, 12, 5))
    th = calibrate_thresholds(_trace(layers))
    assert th.calibration_size == 50
    for name, values in layers:
        total = 0.0
        count = 0
        for row in values:
            for v in row:
                total += float(v)
                count += 1
        assert dict(th.deltas)[name] == pytest.approx(total / count, rel=1e-9)


def test_calibrate_rejects_empty():
    with pytest.raises(ValueError):
        calibrate_thresholds(_trace([("fc1", np.zeros((0, 2))), ("fc2", np.zeros((0, 3)))]))
    with pytest.raises(ValueError):
        calibrate_thresholds(LayerTable(np.zeros((0, 0)), ()))


def test_calibrate_order_free():
    rng = np.random.default_rng(43)
    # values on a 1/64 grid sum exactly, so reordering cannot move a bit
    values = rng.integers(0, 200, (20, 9)) / 64.0
    forward = calibrate_thresholds(_trace([("l0", values)]))
    backward = calibrate_thresholds(_trace([("l0", values[::-1])]))
    assert forward.deltas == backward.deltas


def _clips(block):
    """The one-row slices of a block trace, in clip order."""
    return [LayerTable(block.values[i : i + 1], block.layout) for i in range(len(block.values))]


def _reference_calibrate(layers):
    """The per-clip loop calibrate ran before traces held a clip axis, over the layers' rows."""
    n = len(layers[0][1])
    sums = np.zeros(len(layers))
    for i in range(n):
        for j, (_, values) in enumerate(layers):
            sums[j] += float(np.sum(values[i]))
    return LayerThresholds(tuple((name, float(sums[j] / (n * values.shape[1])))
                                 for j, (name, values) in enumerate(layers)), n)


def _bits(thresholds):
    return [(name, delta.hex()) for name, delta in thresholds.deltas]


@pytest.fixture
def layers():
    """17 clips, one more than the pipeline's trace block, per layer of the stock layer widths."""
    rng = np.random.default_rng(71)
    widths = (16, 32, 64, 128, 64, 8)
    return [(f"l{j}", np.maximum(rng.standard_normal((_TRACE_BLOCK + 1, w)), 0.0)) for j, w in enumerate(widths)]


def test_batched_calibrate_equals_the_per_clip_loop_bitwise(layers):
    block = _trace(layers)
    batched = calibrate_thresholds(block)
    assert batched.calibration_size == _TRACE_BLOCK + 1
    assert block.layout == (("l0", 16), ("l1", 32), ("l2", 64), ("l3", 128), ("l4", 64), ("l5", 8))
    assert _bits(batched) == _bits(_reference_calibrate(layers))


def test_batched_features_equal_the_per_clip_features_bitwise(layers):
    """Each row of a block gives the features of its one-row slice, bit for bit."""
    block = _trace(layers)
    clips = _clips(block)
    th = calibrate_thresholds(block)
    for batched, single in ((acn_features(block, th), lambda c: acn_features(c, th)),
                            (tkan_features(block, k=5), lambda c: tkan_features(c, k=5))):
        per_clip = np.concatenate([single(c).values for c in clips])
        assert batched.values.shape == per_clip.shape == (_TRACE_BLOCK + 1, len(batched.column_names(ACN)))
        assert batched.values.dtype == np.float64
        assert np.array_equal(batched.values, per_clip)
        assert batched.layout == single(clips[0]).layout


def test_acn_hand_case():
    trace = _trace([("fc1", [0.5, 0.2])])
    th = LayerThresholds((("fc1", 0.3),), 1)
    fv = acn_features(trace, th)
    assert fv.values.tolist() == [[1.0]]


def test_acn_boundary_is_strict():
    trace = _trace([("fc1", [0.3, 0.3, 0.3])])
    th = LayerThresholds((("fc1", 0.3),), 1)
    assert acn_features(trace, th).values.tolist() == [[0.0]]


def test_acn_matches_elementwise_count():
    rng = np.random.default_rng(47)
    widths = (16, 32, 64, 128, 64, 8)
    layers = _random_layers(rng, 10, widths)
    th = calibrate_thresholds(_trace(layers))
    fv = acn_features(_trace(layers), th)
    assert fv.values.shape == (10, len(widths))
    for j, (name, values) in enumerate(layers):
        for i, row in enumerate(values):
            expected = sum(1 for v in row if v > dict(th.deltas)[name])
            assert fv.values[i, j] == expected


def test_acn_monotone_in_threshold():
    rng = np.random.default_rng(53)
    trace = _trace(_random_layers(rng, 1, (30,)))
    base = calibrate_thresholds(trace)
    prev = acn_features(trace, base).values[0, 0]
    for bump in (0.1, 0.3, 1.0, 3.0):
        higher = LayerThresholds((("l0", dict(base.deltas)["l0"] + bump),), 1)
        count = acn_features(trace, higher).values[0, 0]
        assert count <= prev
        prev = count


def test_acn_rejects_mismatched_thresholds():
    trace = _trace([("fc1", [1.0])])
    th = LayerThresholds((("other", 0.5),), 1)
    with pytest.raises(ValueError):
        acn_features(trace, th)


def test_tkan_hand_case():
    trace = _trace([("fc1", [0.1, 0.9, 0.5])])
    assert tkan_features(trace, k=2).values.tolist() == [[0.9, 0.5]]


def test_tkan_tie_case():
    trace = _trace([("fc1", [0.4, 0.4, 0.4])])
    assert tkan_features(trace, k=3).values.tolist() == [[0.4, 0.4, 0.4]]


def test_tkan_matches_full_sort():
    rng = np.random.default_rng(59)
    for _ in range(20):
        values = np.abs(rng.standard_normal(64))
        trace = _trace([("l0", values)])
        fv = tkan_features(trace, k=5)
        assert fv.values[0].tolist() == sorted(values, reverse=True)[:5]


def test_tkan_k_equals_width():
    rng = np.random.default_rng(61)
    values = np.abs(rng.standard_normal(9))
    fv = tkan_features(_trace([("l0", values)]), k=9)
    assert fv.values[0].tolist() == sorted(values, reverse=True)


def test_tkan_rejects_narrow_layer():
    trace = _trace([("conv1", [1.0, 2.0]), ("skinny", [1.0])])
    with pytest.raises(ValueError) as exc:
        tkan_features(trace, k=2)
    assert "skinny" in str(exc.value)


def test_tkan_rejects_bad_k():
    with pytest.raises(ValueError):
        tkan_features(_trace([("l0", [1.0, 2.0])]), k=0)


def test_tkan_permutation_invariant_for_distinct_values():
    rng = np.random.default_rng(67)
    values = rng.permutation(np.linspace(0.1, 6.4, 64))
    a = tkan_features(_trace([("l0", values)]), k=5)
    b = tkan_features(_trace([("l0", rng.permutation(values))]), k=5)
    assert a.values.tolist() == b.values.tolist()


def test_feature_layouts_and_column_names():
    trace = _trace([("conv1", [1.0, 2.0, 3.0]), ("fc1", [4.0, 5.0, 6.0])])
    th = calibrate_thresholds(trace)
    acn = acn_features(trace, th)
    assert acn.layout == (("conv1", 1), ("fc1", 1))
    assert acn.column_names(ACN) == ["conv1.acn", "fc1.acn"]
    tk = tkan_features(trace, k=2)
    assert tk.layout == (("conv1", 2), ("fc1", 2))
    assert tk.column_names(TKAN) == ["conv1.tkan1", "conv1.tkan2", "fc1.tkan1", "fc1.tkan2"]


def test_thresholds_json_round_trip(tmp_path):
    th = LayerThresholds((("conv1", 0.123456789012345), ("fc1", 2.5)), 40)
    p = tmp_path / "th.json"
    save_thresholds(th, p)
    back = load_thresholds(p)
    assert back == th


def test_feature_csv_round_trip(tmp_path):
    rng = np.random.default_rng(71)
    matrix = rng.standard_normal((6, 4))
    labels = ["real", "fake", "real", "fake", "real", "fake"]
    splits = ["train", "train", "val", "val", "test", "test"]
    cols = ["a.acn", "b.acn", "c.acn", "d.acn"]
    p = tmp_path / "f.csv"
    write_feature_csv(p, cols, labels, splits, matrix)
    got_cols, got_labels, got_splits, got_matrix = read_feature_csv(p)
    assert got_cols == cols
    assert got_labels == labels
    assert got_splits == splits
    assert np.array_equal(got_matrix, matrix)


@pytest.mark.parametrize("content", [
    b"",
    b"label,split,a.acn\nreal,train,abc\n",
    b"label,split,a.acn,b.acn\nreal,train,1.0,2.0\nfake,test,3.0\n",
    b"label,fold,a.acn\nreal,train,1.0\n",
    b"label,split\nreal,train\n",
    b"label,split,a.acn,\nreal,train,1.0,2.0\n",
    b"label,split,a.acn\nmaybe,train,1.0\n",
    b"label,split,a.acn\nreal,dev,1.0\n",
    b"label,split,a.acn\nreal,train,nan\n",
    b"label,split,a.acn\nreal,train,1.0\n\n",
    b"label,split,a.acn\nreal,train,\xff\n",
], ids=["empty", "non-numeric", "ragged", "bad-header", "no-columns", "unnamed-column",
        "unknown-label", "unknown-split", "nan-cell", "blank-line", "not-utf8"])
def test_read_feature_csv_rejects_malformed_tables(tmp_path, content):
    p = tmp_path / "f.csv"
    p.write_bytes(content)
    with pytest.raises(FeatureFormatError, match=re.escape(str(p))):
        read_feature_csv(p)


def test_read_feature_csv_header_only_is_an_empty_table(tmp_path):
    p = tmp_path / "f.csv"
    p.write_bytes(b"label,split,a.acn,b.acn\n")
    cols, labels, splits, matrix = read_feature_csv(p)
    assert cols == ["a.acn", "b.acn"] and labels == [] and splits == []
    assert matrix.shape == (0, 2)


def test_layer_table_is_plain_data():
    table = LayerTable(np.arange(12.0).reshape(2, 6), (("l0", 1), ("l1", 2), ("l2", 3)))
    assert table.layer_ids() == ["l0", "l1", "l2"]
    layers = list(table.layers())
    assert [(name, values.tolist()) for name, values in layers] == [
        ("l0", [[0.0], [6.0]]), ("l1", [[1.0, 2.0], [7.0, 8.0]]), ("l2", [[3.0, 4.0, 5.0], [9.0, 10.0, 11.0]])]
    assert all(np.shares_memory(values, table.values) for _, values in layers)  # views, not copies
    assert table.column_names("n") == ["l0.n", "l1.n1", "l1.n2", "l2.n1", "l2.n2", "l2.n3"]
