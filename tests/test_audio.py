import struct

import numpy as np
import pytest

from voicetrace.audio import (
    FLOAT32,
    PCM16,
    Waveform,
    _next_pow2,
    _windowed_rfft,
    band_pass,
    hann_window,
    hz_to_mel,
    istft,
    load_wav,
    log_mel,
    mel_filterbank,
    mel_to_hz,
    rms,
    save_wav,
    stft,
)
from voicetrace.errors import AudioFormatError, AudioParseError


def _mel_center_frequencies(sample_rate, mel_bins):
    """Center frequency (Hz) of each triangular filter of mel_filterbank(sample_rate, _, mel_bins)."""
    return mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), mel_bins + 2))[1:-1]


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


def _reference_log_mel(w, target_frames, window_size=400, hop=160, mel_bins=64):
    """The per-clip frontend that log_mel replaced: log-mel, then center crop or zero pad."""
    # log_mel, with stft() inlined
    fft_size = _next_pow2(window_size)
    frames = np.lib.stride_tricks.sliding_window_view(w.samples, window_size)[::hop]
    spec = np.fft.rfft(frames * hann_window(window_size), n=fft_size, axis=1)
    power = np.square(np.abs(spec))
    fb = mel_filterbank(w.sample_rate, fft_size, mel_bins)
    energies = power @ fb.T
    values = np.log(energies + 1e-6)
    # fix_frame_count
    n = values.shape[0]
    if n == target_frames:
        return values
    if n > target_frames:
        start = (n - target_frames) // 2
        return values[start : start + target_frames]
    before = (target_frames - n) // 2
    after = target_frames - n - before
    return np.pad(values, ((before, after), (0, 0)))


def _clip(rng, n, sr=16000):
    return Waveform(rng.uniform(-0.5, 0.5, n), sr)


def _frames_of(n):
    return 1 + (n - 400) // 160


@pytest.mark.parametrize("n", [
    400, 1999, 4000,  # 1, 10 and 23 natural frames: 24, 20 and 13 pad rows before
    400 + 49 * 160 + 37,  # exactly 50
    400 + 51 * 160, 400 + 53 * 160, 400 + 53 * 160 + 159, 32000,  # crop starting at frame 1, 2, 2 and 74
])
def test_log_mel_matches_reference_bitwise(n):
    w = _clip(np.random.default_rng(n), n)
    assert np.array_equal(log_mel([w], 50)[0], _reference_log_mel(w, 50))


def test_log_mel_small_crop_matches_reference_to_rounding():
    # Below 19 kept rows OpenBLAS multiplies by the filterbank in its small-matrix
    # kernel, which rounds differently from the kernel that multiplied all the
    # natural rows; the speaker network needs 29 rows or more.
    w = _clip(np.random.default_rng(10), 4000)
    np.testing.assert_allclose(log_mel([w], 10)[0], _reference_log_mel(w, 10), rtol=1e-13, atol=0)


def test_log_mel_mixed_rate_block_matches_reference():
    rng = np.random.default_rng(31)
    block = [_clip(rng, 32000, 16000), _clip(rng, 22050, 22050), _clip(rng, 6000, 16000),
             _clip(rng, 44100, 22050)]
    out = log_mel(block, 200)
    assert out.shape == (4, 200, 64)
    for row, w in zip(out, block):
        assert np.array_equal(row, _reference_log_mel(w, 200))


@pytest.mark.parametrize("size", [1, 16])
def test_log_mel_block_matches_reference(size):
    rng = np.random.default_rng(size)
    block = [_clip(rng, int(n)) for n in rng.integers(400, 40000, size)]
    out = log_mel(block, 200)
    assert out.shape == (size, 200, 64)
    for row, w in zip(out, block):
        assert np.array_equal(row, _reference_log_mel(w, 200))


def test_log_mel_block_reuses_its_buffers_for_a_crop_then_a_shorter_padded_clip():
    # the second clip fills fewer rows of the shared buffers than the first left written
    rng = np.random.default_rng(37)
    block = [_clip(rng, 400 + 53 * 160 + 159), _clip(rng, 4000), _clip(rng, 400 + 49 * 160)]
    out = log_mel(block, 50)
    for row, w in zip(out, block):
        assert row.tobytes() == _reference_log_mel(w, 50).tobytes()


def test_log_mel_rejects_a_clip_shorter_than_one_window():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match="shorter than one window"):
        log_mel([_clip(rng, 4000), _clip(rng, 399)], 50)


def test_log_mel_rejects_a_hop_longer_than_the_window():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match="hop"):
        log_mel([_clip(rng, 4000)], 5, window_size=400, hop=500)


def test_log_mel_rejects_non_finite_output():
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        log_mel([Waveform(np.full(4000, 1e200), 16000)], 50)


def test_stft_zero_padded_fft_equals_rfft_with_n():
    rng = np.random.default_rng(5)
    x = rng.uniform(-0.5, 0.5, 4000)
    frames = np.lib.stride_tricks.sliding_window_view(x, 400)[::160]
    expected = np.fft.rfft(frames * hann_window(400), n=512, axis=1)
    assert np.array_equal(_windowed_rfft(x, hann_window(400), 160, 512), expected)


def test_log_mel_zero_signal_floor():
    out = log_mel([Waveform(np.zeros(4000), 16000)], _frames_of(4000))
    assert np.all(out == np.log(1e-6))


def test_log_mel_frame_count_formula():
    for n in (400, 401, 4000, 16000):
        # with one row to spare, only the last row is padding
        out = log_mel([Waveform(np.ones(n), 16000)], _frames_of(n) + 1)[0]
        assert np.all(out[:-1] != 0) and np.all(out[-1] == 0)


def test_log_mel_tone_hits_nearest_mel_bin():
    sr = 16000
    t = np.arange(sr) / sr
    out = log_mel([Waveform(0.5 * np.sin(2 * np.pi * 1000 * t), sr)], _frames_of(sr))[0]
    centers = _mel_center_frequencies(sr, 64)
    expected_bin = int(np.argmin(np.abs(centers - 1000.0)))
    hot = int(np.argmax(out.mean(axis=0)))
    assert hot == expected_bin


def test_log_mel_deterministic():
    rng = np.random.default_rng(8)
    x = rng.uniform(-0.5, 0.5, 6400)
    a = log_mel([Waveform(x, 16000)], 200)
    b = log_mel([Waveform(x.copy(), 16000)], 200)
    assert np.array_equal(a, b)


def test_log_mel_pad_and_crop_rows():
    rng = np.random.default_rng(12)
    w = Waveform(rng.uniform(-0.5, 0.5, 4000), 16000)
    n = _frames_of(4000)
    full = log_mel([w], n)[0]
    padded = log_mel([w], 50)[0]
    before = (50 - n) // 2
    assert np.all(padded[:before] == 0)
    assert np.array_equal(padded[before : before + n], full)
    assert np.all(padded[before + n :] == 0)
    cropped = log_mel([w], 10)[0]
    start = (n - 10) // 2
    np.testing.assert_allclose(cropped, full[start : start + 10], rtol=1e-13, atol=0)


# The FFT filters that band_pass replaced, kept as its references.
def _reference_lowpass(samples, sample_rate, cutoff_hz):
    spec = np.fft.rfft(samples)
    freqs = np.fft.rfftfreq(samples.size, 1.0 / sample_rate)
    spec[freqs > cutoff_hz] = 0.0
    return np.fft.irfft(spec, samples.size)


def _reference_highpass(samples, sample_rate, cutoff_hz):
    spec = np.fft.rfft(samples)
    freqs = np.fft.rfftfreq(samples.size, 1.0 / sample_rate)
    spec[freqs < cutoff_hz] = 0.0
    return np.fft.irfft(spec, samples.size)


def _reference_band_limit(samples, sr, cutoff_hz=3400.0):
    spec = np.fft.rfft(samples)
    freqs = np.fft.rfftfreq(samples.size, 1.0 / sr)
    spec[freqs > cutoff_hz] = 0.0
    return np.fft.irfft(spec, samples.size)


# every cut-off the corpus and the noise bank use, plus exact bin frequencies and the band edges
@pytest.mark.parametrize("cutoff", [0.0, 1.0, 250.0, 400.0, 600.0, 900.0, 1200.0, 1500.0,
                                    2000.0, 3400.0, 8000.0])
@pytest.mark.parametrize("n", [1, 2, 1001, 16000, 34048])
def test_band_pass_equals_the_filters_it_replaced_bitwise(n, cutoff):
    x = np.random.default_rng(n).standard_normal(n)
    assert np.array_equal(band_pass(x, 16000, high_hz=cutoff), _reference_lowpass(x, 16000, cutoff))
    assert np.array_equal(band_pass(x, 16000, low_hz=cutoff), _reference_highpass(x, 16000, cutoff))
    assert np.array_equal(band_pass(x, 16000, high_hz=cutoff), _reference_band_limit(x, 16000, cutoff))
