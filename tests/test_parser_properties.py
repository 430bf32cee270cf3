"""Property tests: every parser returns a valid object or raises its typed error.

Each parser is fed arbitrary bytes, truncations of a valid file, and
near-valid text built from the format's own tokens.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from voicetrace.corpus import LABELS, SPLITS  # noqa: E402
from voicetrace.coverage import (LayerThresholds, load_thresholds, read_feature_csv,  # noqa: E402
                                 save_thresholds, write_feature_csv)
from voicetrace.errors import FeatureFormatError, ThresholdsFormatError  # noqa: E402

_SETTINGS = settings(max_examples=200, deadline=None)


@pytest.fixture(scope="module")
def scratch_file():
    with tempfile.TemporaryDirectory() as root:
        yield Path(root) / "parsed"


def _written_bytes(write):
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "written"
        write(path)
        return path.read_bytes()


VALID_CSV = _written_bytes(lambda path: write_feature_csv(
    path, ["conv1.tkan1", "conv1.tkan2", "fc1.acn"], ["real", "fake", "real", "fake"],
    ["train", "val", "test", "train"], np.random.default_rng(5).standard_normal((4, 3))))
VALID_THRESHOLDS = _written_bytes(lambda path: save_thresholds(
    LayerThresholds((("conv1", 0.25), ("fc1", -1.5e-3)), 40), path))

_CSV_TOKENS = ["label", "split", "real", "fake", "train", "val", "test", "a.acn", "1.5", "-0.0",
               "1e308", "1e309", "nan", "inf", "abc", "", ",", ",", ",", "\n", "\n", "\r\n", " "]
_JSON_TOKENS = ['{', '}', '[', ']', ',', ':', '"thresholds"', '"calibration_size"', '"conv1"',
                '1', '0', '-3', '2.5', '1e400', '9' * 400, 'NaN', 'true', 'null', '"x"', ' ']


def _check_feature_table(result):
    names, labels, splits, matrix = result
    assert names and all(isinstance(n, str) and n for n in names)
    assert all(label in LABELS for label in labels)
    assert all(split in SPLITS for split in splits)
    assert isinstance(matrix, np.ndarray) and matrix.dtype == np.float64
    assert matrix.shape == (len(labels), len(names)) and len(splits) == len(labels)
    assert np.all(np.isfinite(matrix))


def _check_thresholds(result):
    assert isinstance(result, LayerThresholds)
    assert result.deltas and isinstance(result.calibration_size, int) and result.calibration_size >= 1
    for name, delta in result.deltas:
        assert isinstance(name, str) and isinstance(delta, float) and math.isfinite(delta)


def _parse(path, content, parser, error, check):
    path.write_bytes(content)
    try:
        result = parser(path)
    except error:
        return
    check(result)


@_SETTINGS
@given(st.one_of(st.binary(max_size=400),
                 st.integers(0, len(VALID_CSV)).map(lambda n: VALID_CSV[:n]),
                 st.lists(st.sampled_from(_CSV_TOKENS), max_size=40).map(lambda t: "".join(t).encode())))
def test_read_feature_csv_returns_a_table_or_feature_format_error(scratch_file, content):
    _parse(scratch_file, content, read_feature_csv, FeatureFormatError, _check_feature_table)


@_SETTINGS
@given(st.one_of(st.binary(max_size=400),
                 st.integers(0, len(VALID_THRESHOLDS)).map(lambda n: VALID_THRESHOLDS[:n]),
                 st.lists(st.sampled_from(_JSON_TOKENS), max_size=40).map(lambda t: "".join(t).encode())))
@example(b"[" * 100_000)
@example(b'{"calibration_size": 4, "thresholds": [["conv1", 1' + b"0" * 400 + b"]]}")
def test_load_thresholds_returns_thresholds_or_thresholds_format_error(scratch_file, content):
    _parse(scratch_file, content, load_thresholds, ThresholdsFormatError, _check_thresholds)


def test_valid_files_parse(scratch_file):
    scratch_file.write_bytes(VALID_CSV)
    _check_feature_table(read_feature_csv(scratch_file))
    scratch_file.write_bytes(VALID_THRESHOLDS)
    _check_thresholds(load_thresholds(scratch_file))
