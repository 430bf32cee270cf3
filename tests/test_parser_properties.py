"""Property tests: every parser returns a valid object or raises its typed error.

Each parser is fed arbitrary bytes, truncations of a valid file, byte
flips of a valid file, and near-valid text built from the format's own
tokens.
"""

import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from voicetrace import nsw1, pipeline  # noqa: E402
from voicetrace.audio import FLOAT32, PCM16, Waveform, load_wav, save_wav  # noqa: E402
from voicetrace.backbone import WeightStore  # noqa: E402
from voicetrace.corpus import LABELS, SPLITS, ManifestRecord, load_manifest, save_manifest  # noqa: E402
from voicetrace.coverage import (LayerThresholds, load_thresholds, read_feature_csv,  # noqa: E402
                                 save_thresholds, write_feature_csv)
from voicetrace.detector import (DetectorModel, Standardizer, detector_network, load_detector,  # noqa: E402
                                 save_detector)
from voicetrace.errors import (AudioFormatError, AudioParseError, ConfigError,  # noqa: E402
                               FeatureFormatError, ManifestError, ThresholdsFormatError,
                               WeightFormatError)

_SETTINGS = settings(max_examples=200, deadline=None)


_CLIPS = ("spk00/real_000.wav", "spk00/fake_000.wav", "spk01/real_000.wav")


@pytest.fixture(scope="module")
def scratch_file():
    """A file to parse, next to the clips a manifest may name."""
    with tempfile.TemporaryDirectory() as root:
        for rel in _CLIPS:
            (Path(root) / rel).parent.mkdir(exist_ok=True)
            (Path(root) / rel).write_bytes(b"")
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

_WAVE = Waveform(np.sin(np.arange(24) / 3.0) * 0.5, 16000)
VALID_WAVS = (_written_bytes(lambda path: save_wav(_WAVE, path, PCM16)),
              _written_bytes(lambda path: save_wav(_WAVE, path, FLOAT32)))
VALID_NSW1 = nsw1.pack_tensors({"conv1.weight": np.arange(8, dtype=np.float32).reshape(2, 2, 1, 2),
                                "fc1.bias": np.array([0.5, -1.0, 2.0], dtype=np.float32)})
_DETECTOR_NETWORK = detector_network(2, (3, 3, 2, 2))
VALID_DETECTOR = _written_bytes(lambda path: save_detector(DetectorModel(
    _DETECTOR_NETWORK,
    WeightStore({k: np.full(v, 0.25, dtype=np.float32)
                 for k, v in _DETECTOR_NETWORK.parameter_shapes().items()}),
    Standardizer(np.array([0.5, -0.5]), np.array([1.0, 2.0])), "tkan", 3), path))
VALID_CONFIG = json.dumps(pipeline.DEFAULT_CONFIG).encode()
VALID_MANIFEST = _written_bytes(lambda path: save_manifest(
    [ManifestRecord(rel, rel.split("/")[1].split("_")[0], rel.split("/")[0], split)
     for rel, split in zip(_CLIPS, ("train", "val", "test"))], path))


def _flip(valid, at, mask):
    return valid[:at] + bytes([valid[at] ^ mask]) + valid[at + 1 :]


def _damaged(*valid):
    """Arbitrary bytes, a truncation or a one-byte flip of one of the valid files."""
    return st.one_of(
        st.binary(max_size=400),
        st.sampled_from(valid).flatmap(lambda v: st.integers(0, len(v)).map(lambda n: v[:n])),
        st.sampled_from(valid).flatmap(
            lambda v: st.tuples(st.integers(0, len(v) - 1), st.integers(1, 255)).map(
                lambda t: _flip(v, *t))))


def _fmt_chunk(format_tag, channels, rate, bits):
    block = channels * bits // 8
    return b"fmt " + struct.pack("<IHHIIHH", 16, format_tag, channels, rate, rate * block, block, bits)


def _wav(fmt, payload):
    body = b"WAVE" + fmt + b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _nsw1(name: bytes, dims, payload=b""):
    return (nsw1.MAGIC + struct.pack("<III", 1, 1, len(name)) + name
            + struct.pack(f"<I{len(dims)}I", len(dims), *dims) + payload)


_MANIFEST_TOKENS = [*_CLIPS, "spk02/real_000.wav", "a" * 300, "", *LABELS, *SPLITS, "spk00", "spk01",
                    "x", "\t", "\t", "\t", "\n", "\n", "\r\n", "\x1c", " "]
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


def _check_config(result):
    assert isinstance(result, dict)
    assert pipeline._merge(pipeline.DEFAULT_CONFIG, result) == result  # every field passes its check


@_SETTINGS
@given(_damaged(VALID_CONFIG))
@example(b"\xff\xfe")  # not UTF-8
@example(b"[" * 100_000)  # nested past the recursion limit
def test_load_config_returns_a_config_or_config_error(scratch_file, content):
    _parse(scratch_file, content, pipeline.load_config, ConfigError, _check_config)


def _check_waveform(result):
    assert isinstance(result, Waveform) and result.sample_rate > 0
    assert result.samples.ndim == 1 and result.samples.dtype == np.float64
    assert np.all(np.isfinite(result.samples))


def _check_tensors(result):
    assert isinstance(result, dict)
    for name, tensor in result.items():
        assert isinstance(name, str) and isinstance(tensor, np.ndarray) and tensor.dtype == np.float32


def _check_detector(result):
    assert isinstance(result, DetectorModel) and isinstance(result.criterion, str)
    assert isinstance(result.k, int) and result.k >= 0
    assert isinstance(result.weights, WeightStore)
    _check_tensors(result.weights.tensors)
    result.weights.validate(result.network)
    width = result.network.input_shape
    assert result.standardizer.mean.shape == width and result.standardizer.std.shape == width
    assert all(np.all(np.isfinite(t)) for t in result.weights.tensors.values())
    assert np.all(np.isfinite(result.standardizer.mean)) and np.all(result.standardizer.std > 0)
    assert np.all(np.isfinite(result.standardizer.std))


def _check_manifest(root):
    def check(result):
        assert len({r.path for r in result}) == len(result)
        for record in result:
            assert isinstance(record, ManifestRecord)
            assert record.label in LABELS and record.split in SPLITS
            assert (root / record.path).is_file()
    return check


def _read_nsw1(path):
    return nsw1.read_tensor_stream(path.read_bytes())


PARSERS = {
    "wav": (load_wav, (AudioFormatError, AudioParseError), lambda root: _check_waveform, VALID_WAVS),
    "nsw1": (_read_nsw1, WeightFormatError, lambda root: _check_tensors, (VALID_NSW1,)),
    "nsd1": (load_detector, WeightFormatError, lambda root: _check_detector, (VALID_DETECTOR,)),
    "manifest": (load_manifest, ManifestError, _check_manifest, (VALID_MANIFEST,)),
}


def _parse_with(kind, path, content):
    parser, error, check, _ = PARSERS[kind]
    _parse(path, content, parser, error, check(path.parent))


@_SETTINGS
@given(_damaged(*VALID_WAVS))
@example(_wav(_fmt_chunk(1, 1, 0, 16), b"\0\0"))  # sample rate 0
@example(_wav(_fmt_chunk(3, 1, 16000, 32), struct.pack("<f", math.nan)))
@example(_wav(_fmt_chunk(3, 1, 16000, 32), struct.pack("<I", 0x7F800001)))  # signalling NaN
@example(_wav(_fmt_chunk(3, 2, 16000, 32), struct.pack("<ff", 0.5, math.inf)))
def test_load_wav_returns_a_waveform_or_an_audio_error(scratch_file, content):
    _parse_with("wav", scratch_file, content)


@_SETTINGS
@given(_damaged(VALID_NSW1))
@example(_nsw1(b"\xff\xfe", (1,), b"\0" * 4))  # tensor name not UTF-8
@example(_nsw1(b"w", (2**32 - 1, 2**31 + 5), b"\0" * 64))  # 4 * product wraps int64 to 16
@example(_nsw1(b"w", (0, 2**32 - 1, 2**32 - 1)))  # size 0, but numpy's size check overflows
@example(_nsw1(b"w", (1,) * 65, b"\0" * 4))  # more dims than numpy allows
def test_read_tensor_stream_returns_tensors_or_weight_format_error(scratch_file, content):
    _parse_with("nsw1", scratch_file, content)


@_SETTINGS
@given(_damaged(VALID_DETECTOR))
@example(VALID_DETECTOR.replace(b"fc1.bias", b"fc1.bia\xff"))
@example(VALID_DETECTOR[:-4] + struct.pack("<f", math.nan))  # the last std is NaN
def test_load_detector_returns_a_model_or_weight_format_error(scratch_file, content):
    _parse_with("nsd1", scratch_file, content)


@_SETTINGS
@given(st.one_of(_damaged(VALID_MANIFEST),
                 st.lists(st.sampled_from(_MANIFEST_TOKENS), max_size=40).map(lambda t: "".join(t).encode())))
@example(VALID_MANIFEST + b"spk\xff/real_001.wav\treal\tspk00\ttrain\n")
@example(b"a" * 300 + b"\treal\tspk00\ttrain\n")  # a file name too long to stat
@example(b"spk00\treal\tspk00\ttrain\n")  # a directory, not a clip
def test_load_manifest_returns_records_or_manifest_error(scratch_file, content):
    _parse_with("manifest", scratch_file, content)


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_every_truncation_of_a_valid_file(scratch_file, kind):
    for valid in PARSERS[kind][3]:
        for n in range(len(valid) + 1):
            _parse_with(kind, scratch_file, valid[:n])


def test_valid_files_parse(scratch_file):
    scratch_file.write_bytes(VALID_CSV)
    _check_feature_table(read_feature_csv(scratch_file))
    scratch_file.write_bytes(VALID_THRESHOLDS)
    _check_thresholds(load_thresholds(scratch_file))
    for valid in VALID_WAVS:
        scratch_file.write_bytes(valid)
        _check_waveform(load_wav(scratch_file))
    _check_tensors(nsw1.read_tensor_stream(VALID_NSW1))
    scratch_file.write_bytes(VALID_DETECTOR)
    _check_detector(load_detector(scratch_file))
    scratch_file.write_bytes(VALID_MANIFEST)
    assert len(load_manifest(scratch_file)) == len(_CLIPS)
    scratch_file.write_bytes(VALID_CONFIG)
    _check_config(pipeline.load_config(scratch_file))
