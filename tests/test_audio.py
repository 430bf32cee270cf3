import struct

import numpy as np
import pytest

from voicetrace.audio import (
    FLOAT32,
    PCM16,
    Waveform,
    fix_frame_count,
    hann_window,
    istft,
    load_wav,
    log_mel,
    mel_center_frequencies,
    rms,
    save_wav,
    stft,
)
from voicetrace.errors import AudioFormatError, AudioParseError


def _pcm16_file(path, words, sample_rate=16000, channels=1):
    body = np.asarray(words, dtype="<i2").tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, 1, channels, sample_rate, sample_rate * 2 * channels, 2 * channels, 16
    )
    header += b"data" + struct.pack("<I", len(body))
    path.write_bytes(header + body)


def test_load_pcm16_scaling(tmp_path):
    p = tmp_path / "a.wav"
    _pcm16_file(p, [0, 16384, -32768])
    w = load_wav(p)
    assert w.sample_rate == 16000
    assert np.array_equal(w.samples, [0.0, 0.5, -1.0])


def test_load_stereo_averages(tmp_path):
    p = tmp_path / "st.wav"
    # interleaved L/R: left 1.0 (clamps to 32767/32768), right 0.0
    _pcm16_file(p, [32767, 0], channels=2)
    w = load_wav(p)
    assert w.samples.size == 1
    assert w.samples[0] == pytest.approx(32767 / 32768 / 2)


def test_pcm16_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    for i in range(100):
        n = int(rng.integers(1, 400))
        w = Waveform(rng.uniform(-1.0, 1.0, n), int(rng.integers(8000, 48001)))
        p = tmp_path / f"r{i}.wav"
        save_wav(w, p, PCM16)
        first = load_wav(p)
        save_wav(first, tmp_path / "again.wav", PCM16)
        second = load_wav(tmp_path / "again.wav")
        # words are already quantized after the first pass, so the second
        # write must reproduce them exactly
        assert np.array_equal(first.samples, second.samples)
        assert first.sample_rate == w.sample_rate


def test_save_pcm16_clamps_and_scales(tmp_path):
    p = tmp_path / "c.wav"
    save_wav(Waveform(np.array([1.5, 0.5]), 8000), p, PCM16)
    raw = p.read_bytes()
    words = np.frombuffer(raw[44:], dtype="<i2")
    assert words[0] == 32767
    assert words[1] == 16384


def test_float32_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(257).astype(np.float32).astype(np.float64)
    p = tmp_path / "f.wav"
    save_wav(Waveform(x, 22050), p, FLOAT32)
    back = load_wav(p)
    assert back.sample_rate == 22050
    assert np.array_equal(back.samples, x)


def test_load_rejects_unsupported_depth(tmp_path):
    p = tmp_path / "bad.wav"
    body = bytes(6)
    header = b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 8000 * 3, 3, 24)
    header += b"data" + struct.pack("<I", len(body))
    p.write_bytes(header + body)
    with pytest.raises(AudioFormatError):
        load_wav(p)


def test_load_rejects_truncated_file(tmp_path):
    p = tmp_path / "trunc.wav"
    _pcm16_file(p, [0, 0, 0, 0])
    p.write_bytes(p.read_bytes()[:-3])
    with pytest.raises(AudioParseError):
        load_wav(p)


def test_load_rejects_non_riff(tmp_path):
    p = tmp_path / "noise.bin"
    p.write_bytes(b"\x00" * 64)
    with pytest.raises(AudioParseError):
        load_wav(p)


def test_rms_constant():
    assert rms(Waveform(np.full(100, 0.5), 16000)) == pytest.approx(0.5)


def test_rms_full_scale_sine():
    t = np.arange(16000) / 16000
    w = Waveform(np.sin(2 * np.pi * 100 * t), 16000)  # 100 whole periods
    assert rms(w) == pytest.approx(1 / np.sqrt(2), abs=1e-3)


def test_rms_matches_direct_sum():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, 1000)
    total = 0.0
    for v in x:
        total += v * v
    expected = (total / 1000) ** 0.5
    assert rms(Waveform(x, 16000)) == pytest.approx(expected, rel=1e-9)


def test_rms_empty_rejected():
    with pytest.raises(ValueError):
        rms(Waveform(np.array([]), 16000))


def test_rms_scales_linearly():
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, 313)
    for c in (-2.5, 0.0, 0.3):
        got = rms(Waveform(c * x, 16000))
        assert got == pytest.approx(abs(c) * rms(Waveform(x, 16000)), abs=1e-12)


def test_stft_tone_peak_at_bin_center():
    sr = 16000
    window = 512
    bin_hz = sr / window
    freq = 40 * bin_hz  # exactly at bin 40
    t = np.arange(sr) / sr
    spec = stft(Waveform(np.sin(2 * np.pi * freq * t), sr), window, 256)
    mags = np.abs(spec).mean(axis=0)
    peak = int(np.argmax(mags))
    assert peak == 40
    for off in (-2, 2):
        assert 20 * np.log10(mags[peak] / mags[peak + off]) >= 20.0


def test_stft_zero_signal():
    spec = stft(Waveform(np.zeros(2048), 16000), 512, 256)
    assert np.all(spec == 0)


def test_stft_parseval_per_frame():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(512)
    spec = stft(Waveform(x, 16000), 512, 512)
    windowed = x * hann_window(512)
    time_energy = np.sum(windowed**2)
    full = np.concatenate([spec[0], np.conj(spec[0][-2:0:-1])])
    freq_energy = np.sum(np.abs(full) ** 2) / 512
    assert freq_energy == pytest.approx(time_energy, rel=1e-6)


def test_stft_too_short_rejected():
    with pytest.raises(ValueError):
        stft(Waveform(np.zeros(100), 16000), 512, 256)


def test_istft_reconstruction():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(8000)
    spec = stft(Waveform(x, 16000), 1024, 256)
    y = istft(spec, 1024, 256, length=8000)
    # edges are attenuated by the synthesis window taper; compare the interior
    assert np.max(np.abs(x[1024:-1024] - y[1024:-1024])) < 1e-9


def test_log_mel_zero_signal_floor():
    fm = log_mel(Waveform(np.zeros(4000), 16000))
    assert np.all(fm.values == np.log(1e-6))


def test_log_mel_frame_count_formula():
    for n in (400, 401, 4000, 16000):
        fm = log_mel(Waveform(np.zeros(n), 16000))
        assert fm.frames == 1 + (n - 400) // 160


def test_log_mel_tone_hits_nearest_mel_bin():
    sr = 16000
    t = np.arange(sr) / sr
    fm = log_mel(Waveform(0.5 * np.sin(2 * np.pi * 1000 * t), sr))
    centers = mel_center_frequencies(sr, 64)
    expected_bin = int(np.argmin(np.abs(centers - 1000.0)))
    hot = int(np.argmax(fm.values.mean(axis=0)))
    assert hot == expected_bin


def test_log_mel_deterministic():
    rng = np.random.default_rng(8)
    x = rng.uniform(-0.5, 0.5, 6400)
    a = log_mel(Waveform(x, 16000))
    b = log_mel(Waveform(x.copy(), 16000))
    assert np.array_equal(a.values, b.values)


def test_fix_frame_count_pad_and_crop():
    rng = np.random.default_rng(12)
    fm = log_mel(Waveform(rng.uniform(-0.5, 0.5, 4000), 16000))
    padded = fix_frame_count(fm, 50)
    assert padded.frames == 50
    before = (50 - fm.frames) // 2
    assert np.all(padded.values[:before] == 0)
    assert np.array_equal(padded.values[before : before + fm.frames], fm.values)
    cropped = fix_frame_count(fm, 10)
    assert cropped.frames == 10
    start = (fm.frames - 10) // 2
    assert np.array_equal(cropped.values, fm.values[start : start + 10])
