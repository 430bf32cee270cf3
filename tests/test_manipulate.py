import math
import re
import warnings

import numpy as np
import pytest

from voicetrace.audio import FLOAT32, Waveform, istft, load_wav, rms, save_wav, stft
from voicetrace.errors import AudioFormatError
from voicetrace.manipulate import (
    _BLOCK,
    _KAISER_BETA,
    _PHASES,
    _TAPS,
    NOISE_CLASSES,
    PAPER,
    STANDARD,
    STFT_HOP,
    STFT_WINDOW,
    Manipulation,
    _resample_by_ratio,
    apply_manipulation,
    generate_noise_bank,
    load_noise_bank,
    measure_snr,
)

SR = 16000


def _tone(freq, seconds=2.0, sr=SR, amp=0.5):
    t = np.arange(int(seconds * sr)) / sr
    return Waveform(amp * np.sin(2 * np.pi * freq * t), sr)


def _resample(w: Waveform, offset_hz: int) -> Waveform:
    return apply_manipulation([w], Manipulation("resample", offset_hz))[0]


def _pitch_shift(w: Waveform, n_steps: int) -> Waveform:
    return apply_manipulation([w], Manipulation("pitch", n_steps))[0]


def _time_stretch(w: Waveform, rate: float) -> Waveform:
    return apply_manipulation([w], Manipulation("speed", rate))[0]


def _mix_noise(signal: Waveform, noise: Waveform, target_snr_db: float, formula: str = PAPER) -> Waveform:
    bank = {"noise": noise}
    return apply_manipulation([signal], Manipulation("add_noise", target_snr_db, "noise"), bank, formula)[0]


def _dominant_hz(w: Waveform) -> float:
    spec = stft(w.samples, 4096, 1024)
    mags = np.abs(spec).mean(axis=0)
    return float(np.argmax(mags) * w.sample_rate / 4096)


def test_resample_identity_bit_exact():
    w = _tone(440)
    out = _resample(w, 0)
    assert out.sample_rate == SR
    assert np.array_equal(out.samples, w.samples)
    assert out.samples is not w.samples  # a copy, not an alias


def test_resample_preserves_tone():
    w = _tone(440)
    out = _resample(w, 400)
    assert out.sample_rate == 16400
    assert abs(_dominant_hz(out) - 440.0) <= 5.0


def test_resample_duration_scaling():
    w = _tone(300, seconds=2.0)
    for offset in (-400, -200, 200, 400):
        out = _resample(w, offset)
        expected = round(len(w) * (SR + offset) / SR)
        assert abs(len(out) - expected) <= 1


def test_resample_rejects_nonpositive_rate():
    w = _tone(100, seconds=0.1)
    with pytest.raises(ValueError):
        _resample(w, -SR)


def _reference_resample(samples, ratio):
    """The one-clip loop the resampler replaced, kept as the bit-exact reference."""
    n_in = samples.size
    n_out = int(round(n_in * ratio))
    cutoff = min(1.0, ratio)
    offsets = np.arange(-_TAPS, _TAPS + 2)
    out = np.empty(n_out, dtype=np.float64)
    for start in range(0, n_out, 8192):
        stop = min(start + 8192, n_out)
        pos = np.arange(start, stop, dtype=np.float64) / ratio
        idx = np.floor(pos).astype(np.int64)[:, None] + offsets[None, :]
        t = idx - pos[:, None]
        inside = np.abs(t) <= _TAPS
        arg = np.where(inside, 1.0 - (t / _TAPS) ** 2, 0.0)
        taper = np.where(inside, np.i0(_KAISER_BETA * np.sqrt(arg)) / np.i0(_KAISER_BETA), 0.0)
        kernel = cutoff * np.sinc(cutoff * t) * taper
        valid = (idx >= 0) & (idx < n_in)
        gathered = np.where(valid, samples[np.clip(idx, 0, n_in - 1)], 0.0)
        out[start:stop] = np.sum(gathered * kernel, axis=1)
    return out


# the default sweep's resample offsets at 16 kHz and its pitch steps
SWEEP_RATIOS = [(SR + off) / SR for off in (-400, -200, 200, 400)] + [
    2.0 ** (-steps / 12) for steps in (-4, -2, 2, 4)]


@pytest.mark.parametrize("ratio", SWEEP_RATIOS)
def test_resample_rows_match_one_clip_calls(ratio):
    # 10500 input samples give more than 8192 output samples at every ratio
    rows = np.random.default_rng(17).uniform(-0.5, 0.5, (2, 10500))
    together = _resample_by_ratio(rows, ratio)
    assert together.shape == (2, round(10500 * ratio)) and together.shape[1] > 8192
    for row, out in zip(rows, together):
        assert np.array_equal(out, _resample_by_ratio(row, ratio))
    assert np.max(np.abs(together[0] - _reference_resample(rows[0], ratio))) <= 2e-5


# 15600/16000 reaches every output length, with a cutoff below 1; 22050 -> 16000
# is what the noise-bank loader converts
@pytest.mark.parametrize("ratio, n_out", [(15600 / 16000, n) for n in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1)]
                         + [(16000 / 22050, 16000)])
def test_resample_block_edges_and_noise_bank_ratio_match_reference(ratio, n_out):
    n_in = next(n for n in range(1, 2 * n_out + 2) if round(n * ratio) == n_out)
    samples = np.random.default_rng(n_out).uniform(-0.5, 0.5, n_in)
    out = _resample_by_ratio(samples, ratio)
    assert out.shape == (n_out,)
    assert np.max(np.abs(out - _reference_resample(samples, ratio))) <= 2e-5


def _reference_blocked_resample(samples, ratio):
    """The blocked resampler before it formed |t| from frac(pos) and gathered taps through
    sliding windows: its output is the byte-exact reference for the one in use."""
    rows = np.atleast_2d(samples)
    n_in = rows.shape[1]
    n_out = int(round(n_in * ratio))
    cutoff = min(1.0, ratio)
    grid = np.arange(_TAPS * _PHASES + 1) / _PHASES
    table = np.zeros((_TAPS + 1) * _PHASES + 2)
    table[: grid.size] = (cutoff * np.sinc(cutoff * grid)
                          * np.i0(_KAISER_BETA * np.sqrt(1.0 - (grid / _TAPS) ** 2)) / np.i0(_KAISER_BETA))
    slope = np.diff(table)
    offsets = np.arange(-_TAPS, _TAPS + 2)
    padded = np.zeros((rows.shape[0], n_in + 2 * _TAPS + 1))
    padded[:, _TAPS : _TAPS + n_in] = rows
    out = np.empty((rows.shape[0], n_out), dtype=np.float64)
    for start in range(0, n_out, _BLOCK):
        stop = min(start + _BLOCK, n_out)
        pos = np.arange(start, stop, dtype=np.float64) / ratio
        idx = np.floor(pos).astype(np.int64)[:, None] + offsets
        phase = np.abs(idx - pos[:, None])
        phase *= _PHASES
        step = phase.astype(np.intp)
        phase -= step
        kernel = table[step]
        kernel += phase * slope[step]
        idx += _TAPS
        for row, dest in zip(padded, out):
            np.einsum("bk,bk->b", row[idx], kernel, out=dest[start:stop])
    return out if samples.ndim == 2 else out[0]


# the sweep's ratios on a block of clips, every block edge of the output, the noise-bank
# loader's 22050 -> 16000 on one clip, and a halving and a tripling
@pytest.mark.parametrize("ratio, rows, n_out", [(r, 3, 10500) for r in SWEEP_RATIOS]
                         + [(15600 / 16000, 1, n) for n in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3)]
                         + [(16000 / 22050, 0, 16000), (0.5, 2, 2000), (3.0, 2, 3000)])
def test_resample_matches_the_blocked_reference_byte_for_byte(ratio, rows, n_out):
    n_in = next(n for n in range(1, 2 * n_out + 2) if round(n * ratio) == n_out)
    rng = np.random.default_rng(n_out)
    samples = rng.uniform(-0.5, 0.5, (rows, n_in) if rows else n_in)
    out = _resample_by_ratio(samples, ratio)
    want = _reference_blocked_resample(samples, ratio)
    assert out.shape == want.shape and out.shape[-1] == n_out
    assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [Manipulation("resample", 200), Manipulation("pitch", 2)],
                         ids=["resample", "pitch"])
def test_apply_manipulation_mixed_clips_match_single_calls(m):
    rng = np.random.default_rng(23)
    shapes = [(SR, 4096), (SR, 5000), (8000, 4096), (SR, 4096), (SR, 5000)]
    waves = [Waveform(rng.uniform(-0.5, 0.5, n), sr) for sr, n in shapes]
    single = _resample if m.kind == "resample" else _pitch_shift
    outs = apply_manipulation(waves, m)
    assert len(outs) == len(waves)
    for w, out in zip(waves, outs):
        expected = single(w, int(m.magnitude))
        assert out.sample_rate == expected.sample_rate
        assert np.array_equal(out.samples, expected.samples)


def _reference_phase_vocoder(spec: np.ndarray, rate: float) -> np.ndarray:
    """The vocoder before it took each frame's magnitude and angle once."""
    n_frames, n_bins = spec.shape
    steps = np.arange(0.0, n_frames, rate)
    omega = 2.0 * np.pi * STFT_HOP * np.arange(n_bins) / STFT_WINDOW
    padded = np.vstack([spec, np.zeros((1, n_bins), dtype=spec.dtype)])
    out = np.empty((steps.size, n_bins), dtype=spec.dtype)
    phase = np.angle(padded[0])
    for i, step in enumerate(steps):
        p = int(step)
        alpha = step - p
        d0 = padded[p]
        d1 = padded[p + 1]
        mag = (1.0 - alpha) * np.abs(d0) + alpha * np.abs(d1)
        out[i] = mag * np.exp(1j * phase)
        dphase = np.angle(d1) - np.angle(d0) - omega
        dphase -= 2.0 * np.pi * np.round(dphase / (2.0 * np.pi))
        phase = phase + omega + dphase
    return out


def _reference_time_stretch(w: Waveform, rate: float) -> Waveform:
    """The single-clip stretch that apply_manipulation folded in, kept as the bit-exact reference."""
    rate = float(rate)
    if rate <= 0.0:
        raise ValueError("stretch rate must be positive")
    if rate == 1.0:
        return Waveform(w.samples.copy(), w.sample_rate)
    if len(w) < STFT_WINDOW:
        raise ValueError(f"signal shorter than one {STFT_WINDOW}-sample analysis window")
    spec = stft(w.samples, STFT_WINDOW, STFT_HOP)
    stretched = _reference_phase_vocoder(spec, rate)
    target = int(round(len(w) / rate))
    samples = istft(stretched, STFT_WINDOW, STFT_HOP, length=target)
    return Waveform(samples, w.sample_rate)


def _reference_pitch_group(waves, n_steps: int) -> list:
    """The per-group pitch shift that apply_manipulation folded in."""
    if n_steps == 0:
        return [Waveform(w.samples.copy(), w.sample_rate) for w in waves]
    rate = 2.0 ** (-float(n_steps) / 12)
    stretched = np.stack([_reference_time_stretch(w, rate).samples for w in waves])
    shifted = _resample_by_ratio(stretched, rate)
    n = len(waves[0])
    if shifted.shape[1] >= n:
        shifted = shifted[:, :n]
    else:
        shifted = np.concatenate([shifted, np.zeros((len(waves), n - shifted.shape[1]))], axis=1)
    return [Waveform(row, w.sample_rate) for row, w in zip(shifted, waves)]


def _reference_fit_to_length(noise: np.ndarray, n: int) -> np.ndarray:
    """Tile end-to-end when short, truncate from the start when long."""
    if noise.size >= n:
        return noise[:n]
    reps = math.ceil(n / noise.size)
    return np.tile(noise, reps)[:n]


def _reference_mix_noise(signal: Waveform, noise: Waveform, target_snr_db: float,
                         formula: str = PAPER) -> Waveform:
    """The single-clip mix that apply_manipulation folded in, kept as the bit-exact reference."""
    if signal.sample_rate != noise.sample_rate:
        raise ValueError(
            f"sample rates differ: signal {signal.sample_rate}, noise {noise.sample_rate}"
        )
    if formula not in (PAPER, STANDARD):
        raise ValueError(f"unknown SNR formula {formula!r}")
    fitted = _reference_fit_to_length(noise.samples, len(signal))
    rms_s = rms(signal.samples)
    rms_n = float(np.sqrt(np.mean(fitted**2)))
    if rms_s == 0.0:
        raise ValueError("silent signal: SNR undefined")
    if rms_n == 0.0:
        raise ValueError("silent noise: SNR undefined")
    divisor = 40.0 if formula == PAPER else 20.0
    c = (rms_s / rms_n) * 10.0 ** (-float(target_snr_db) / divisor)
    mixed = signal.samples + c * fitted
    if np.max(np.abs(mixed)) > 1.0:
        warnings.warn("mixed amplitude exceeds [-1, 1]; output left unclipped")
    return Waveform(mixed, signal.sample_rate)


def _interleaved_clips(rates=(SR, 22050)):
    """Clips that interleave the given sample rates and two lengths, each group held more than once."""
    rng = np.random.default_rng(29)
    shapes = [(rates[0], 4096), (rates[-1], 5000), (rates[0], 5000), (rates[-1], 4096),
              (rates[0], 4096), (rates[-1], 5000), (rates[0], 5000)]
    return [Waveform(rng.uniform(-0.5, 0.5, n), sr) for sr, n in shapes]


# longer than the 4096-sample clips and shorter than the 5000-sample ones: it is truncated and tiled
_NOISE = Waveform(np.random.default_rng(31).uniform(-0.5, 0.5, 4500), SR)


def _reference(w: Waveform, m: Manipulation, formula: str) -> Waveform:
    """One clip through the parent's single-clip path for m."""
    if m.kind == "resample":
        new_rate = w.sample_rate + int(m.magnitude)
        return Waveform(_resample_by_ratio(w.samples, new_rate / w.sample_rate), new_rate)
    if m.kind == "speed":
        return _reference_time_stretch(w, m.magnitude)
    if m.kind == "pitch":
        return _reference_pitch_group([w], int(m.magnitude))[0]
    return _reference_mix_noise(w, _NOISE, m.magnitude, formula)


# the SNR formula reaches only add_noise, so the other kinds run under the default one
ORACLE_CELLS = ([(Manipulation("resample", off), PAPER) for off in (-400, 200)]
                + [(Manipulation("speed", rate), PAPER) for rate in (0.5, 0.8, 1.2, 1.4, 2.0)]
                + [(Manipulation("pitch", steps), PAPER) for steps in (-4, 2, 12)]
                + [(Manipulation("add_noise", snr, "noise"), formula)
                   for snr in (25.0, 45.0, -20.0) for formula in (PAPER, STANDARD)])


@pytest.mark.parametrize("m, formula", ORACLE_CELLS,
                         ids=[f"{m.kind}{m.magnitude:g}-{formula}" for m, formula in ORACLE_CELLS])
def test_apply_manipulation_matches_the_single_clip_oracles_bitwise(m, formula):
    # the noise is at 16 kHz, so a noise cell mixes the 16 kHz clips: still two interleaved lengths
    waves = _interleaved_clips((SR,) if m.kind == "add_noise" else (SR, 22050))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the -20 dB mix clips; the warning is counted below
        outs = apply_manipulation(waves, m, {"noise": _NOISE}, formula)
        want = [_reference(w, m, formula) for w in waves]
    assert len(outs) == len(waves)
    for w, out, ref in zip(waves, outs, want):
        assert out.sample_rate == ref.sample_rate
        assert out.sample_rate == w.sample_rate + (int(m.magnitude) if m.kind == "resample" else 0)
        assert out.samples.tobytes() == ref.samples.tobytes()


def test_identity_cells_return_copies_of_every_clip_in_order():
    waves = _interleaved_clips()
    for m in (Manipulation("resample", 0), Manipulation("speed", 1.0), Manipulation("pitch", 0)):
        outs = apply_manipulation(waves, m)
        assert [out.sample_rate for out in outs] == [w.sample_rate for w in waves]
        for w, out in zip(waves, outs):
            assert out.samples.tobytes() == w.samples.tobytes()
            assert out.samples is not w.samples


def test_one_clipping_warning_per_clipped_clip():
    loud = Waveform(np.full(3000, 0.9), SR)
    quiet = Waveform(np.full(3000, 0.01), SR)
    noise = Waveform(np.tile([0.9, -0.9], 1500), SR)
    m = Manipulation("add_noise", -20.0, "noise")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outs = apply_manipulation([loud, quiet, loud, loud], m, {"noise": noise}, STANDARD)
    assert [str(w.message) for w in caught] == ["mixed amplitude exceeds [-1, 1]; output left unclipped"] * 3
    assert all(w.category is UserWarning for w in caught)
    assert [np.max(np.abs(out.samples)) > 1.0 for out in outs] == [True, False, True, True]


@pytest.mark.parametrize("m, bank, formula, message", [
    (Manipulation("resample", -SR), None, PAPER, "target sample rate 0 is not positive"),
    (Manipulation("speed", 0.0), None, PAPER, "stretch rate must be positive"),
    (Manipulation("speed", -1.5), None, PAPER, "stretch rate must be positive"),
    (Manipulation("add_noise", 30.0, "noise"), {"noise": Waveform(np.full(100, 0.3), 8000)}, PAPER,
     "sample rates differ: signal 16000, noise 8000"),
    (Manipulation("add_noise", 30.0, "noise"), {"noise": Waveform(np.full(100, 0.3), SR)}, "db",
     "unknown SNR formula 'db'"),
    (Manipulation("add_noise", 30.0, "noise"), None, PAPER, "add_noise manipulation needs a noise bank"),
], ids=["target-rate", "zero-stretch", "negative-stretch", "rate-mismatch", "formula", "no-bank"])
def test_every_check_keeps_its_message(m, bank, formula, message):
    w = Waveform(np.full(3000, 0.3), SR)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        apply_manipulation([w], m, bank, formula)


@pytest.mark.parametrize("kind, magnitude", [("speed", 0.8), ("pitch", 2)])
def test_stretching_a_clip_shorter_than_one_window_is_refused(kind, magnitude):
    short = Waveform(np.full(STFT_WINDOW - 1, 0.3), SR)
    with pytest.raises(ValueError, match=f"signal shorter than one {STFT_WINDOW}-sample analysis window"):
        apply_manipulation([Waveform(np.full(STFT_WINDOW, 0.3), SR), short], Manipulation(kind, magnitude))


def test_a_silent_signal_is_named_before_silent_noise():
    silent = Waveform(np.zeros(100), SR)
    m = Manipulation("add_noise", 30.0, "noise")
    with pytest.raises(ValueError, match="^silent signal: SNR undefined$"):
        apply_manipulation([silent], m, {"noise": silent})
    with pytest.raises(ValueError, match="^silent noise: SNR undefined$"):
        apply_manipulation([Waveform(np.full(100, 0.3), SR)], m, {"noise": silent})


def test_time_stretch_identity_bit_exact():
    w = _tone(440)
    out = _time_stretch(w, 1.0)
    assert np.array_equal(out.samples, w.samples)
    assert out.samples is not w.samples


def test_time_stretch_half_rate_doubles_length():
    w = _tone(440, seconds=2.0)
    out = _time_stretch(w, 0.5)
    assert abs(len(out) - 2 * len(w)) <= 512
    assert abs(_dominant_hz(out) - 440.0) <= 5.0


def test_time_stretch_double_rate_halves_length():
    w = _tone(250, seconds=2.0)
    out = _time_stretch(w, 2.0)
    assert abs(len(out) - len(w) // 2) <= 512


def test_time_stretch_rejects_short_input():
    with pytest.raises(ValueError):
        _time_stretch(Waveform(np.zeros(1000), SR), 0.5)


def test_pitch_shift_identity_bit_exact():
    w = _tone(440)
    out = _pitch_shift(w, 0)
    assert np.array_equal(out.samples, w.samples)


def test_pitch_shift_octave_up():
    out = _pitch_shift(_tone(440), 12)
    assert abs(_dominant_hz(out) - 880.0) <= 10.0


def test_pitch_shift_octave_down():
    out = _pitch_shift(_tone(440), -12)
    assert abs(_dominant_hz(out) - 220.0) <= 5.0


def test_pitch_shift_preserves_length_exactly():
    w = _tone(330, seconds=1.7)
    for steps in (-4, -2, 2, 4, 7):
        assert len(_pitch_shift(w, steps)) == len(w)


def test_mix_noise_scaling_constant_zero_db():
    signal = Waveform(np.full(SR, 0.2), SR)
    noise = Waveform(np.tile([0.1, -0.1], SR // 2), SR)
    mixed = _mix_noise(signal, noise, 0.0, PAPER)
    # rms ratio 2 and 10^0 = 1, so the noise is scaled by exactly 2
    np.testing.assert_allclose(mixed.samples - signal.samples, 2.0 * noise.samples, atol=1e-12)


def test_mix_noise_forty_db_scale():
    signal = Waveform(np.full(SR, 0.1), SR)
    noise = Waveform(np.tile([0.1, -0.1], SR // 2), SR)
    mixed = _mix_noise(signal, noise, 40.0, PAPER)
    np.testing.assert_allclose(mixed.samples - signal.samples, 0.1 * noise.samples, atol=1e-12)


def test_mix_noise_hits_target_snr():
    rng = np.random.default_rng(109)
    for _ in range(20):
        n = int(rng.integers(SR // 2, 2 * SR))
        signal = Waveform(rng.uniform(-0.5, 0.5, n), SR)
        noise = Waveform(rng.uniform(-0.5, 0.5, int(rng.integers(SR // 4, 2 * SR))), SR)
        for target in (25.0, 30.0, 35.0, 40.0, 45.0):
            for formula in (PAPER, STANDARD):
                mixed = _mix_noise(signal, noise, target, formula)
                added = Waveform(mixed.samples - signal.samples, SR)
                assert abs(measure_snr(signal, added, formula) - target) <= 0.01


def test_mix_noise_tiles_short_noise():
    signal = Waveform(np.full(10, 0.5), SR)
    noise = Waveform(np.array([0.4, -0.2, 0.1]), SR)
    mixed = _mix_noise(signal, noise, 20.0, STANDARD)
    added = mixed.samples - signal.samples
    tiled = np.tile(noise.samples, 4)[:10]
    np.testing.assert_allclose(added / added[0], tiled / tiled[0], atol=1e-12)


def test_mix_noise_truncates_long_noise():
    rng = np.random.default_rng(113)
    signal = Waveform(rng.uniform(-0.5, 0.5, 100), SR)
    noise = Waveform(rng.uniform(-0.5, 0.5, 500), SR)
    mixed = _mix_noise(signal, noise, 20.0, STANDARD)
    added = mixed.samples - signal.samples
    # the added component is proportional to the first 100 noise samples
    ratio = added / noise.samples[:100]
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)


def test_mix_noise_rejects_silence():
    live = Waveform(np.full(100, 0.3), SR)
    silent = Waveform(np.zeros(100), SR)
    with pytest.raises(ValueError):
        _mix_noise(silent, live, 30.0)
    with pytest.raises(ValueError):
        _mix_noise(live, silent, 30.0)


def test_mix_noise_rejects_rate_mismatch():
    a = Waveform(np.full(100, 0.3), 16000)
    b = Waveform(np.full(100, 0.3), 8000)
    with pytest.raises(ValueError):
        _mix_noise(a, b, 30.0)


def test_mix_noise_warns_but_never_clips():
    signal = Waveform(np.full(100, 0.9), SR)
    noise = Waveform(np.tile([0.9, -0.9], 50), SR)
    with pytest.warns(UserWarning):
        mixed = _mix_noise(signal, noise, -20.0, STANDARD)
    assert np.max(np.abs(mixed.samples)) > 1.0


def test_paper_formula_differs_from_standard():
    signal = Waveform(np.full(100, 0.2), SR)
    noise = Waveform(np.tile([0.1, -0.1], 50), SR)
    paper_mix = _mix_noise(signal, noise, 30.0, PAPER)
    std_mix = _mix_noise(signal, noise, 30.0, STANDARD)
    paper_c = (paper_mix.samples - signal.samples)[0] / noise.samples[0]
    std_c = (std_mix.samples - signal.samples)[0] / noise.samples[0]
    assert paper_c == pytest.approx(2.0 * 10 ** (-30 / 40))
    assert std_c == pytest.approx(2.0 * 10 ** (-30 / 20))


def test_manipulation_validation():
    with pytest.raises(ValueError):
        Manipulation("reverse", 1.0)
    with pytest.raises(ValueError):
        Manipulation("add_noise", 35.0)  # missing noise_id
    # resample and pitch apply whole Hz and whole semitones: 2.7 steps would run as 2
    for kind, magnitude in (("pitch", 2.7), ("pitch", 0.5), ("resample", 200.9), ("resample", float("nan"))):
        with pytest.raises(ValueError, match=f"{kind} needs a whole-number magnitude"):
            Manipulation(kind, magnitude)
    for kind, magnitude in (("pitch", -2.0), ("resample", 200), ("speed", 0.8), ("add_noise", 30.5)):
        assert Manipulation(kind, magnitude, "indoor_rain").magnitude == magnitude
    m = Manipulation("add_noise", 35.0, "indoor_rain")
    assert m.describe() == "add_noise:indoor_rain"
    assert not m.is_identity()


def test_manipulation_identity_flags():
    assert Manipulation("resample", 0).is_identity()
    assert Manipulation("speed", 1.0).is_identity()
    assert Manipulation("pitch", 0).is_identity()
    assert not Manipulation("resample", 200).is_identity()
    assert not Manipulation("speed", 1.2).is_identity()


def test_apply_manipulation_identities_bit_exact():
    w = _tone(440)
    for m in (Manipulation("resample", 0), Manipulation("speed", 1.0), Manipulation("pitch", 0)):
        out = apply_manipulation([w], m)[0]
        assert np.array_equal(out.samples, w.samples)


def test_apply_manipulation_noise_needs_bank():
    w = _tone(440)
    with pytest.raises(ValueError):
        apply_manipulation([w], Manipulation("add_noise", 35.0, "indoor_rain"))


def _save_bank(bank_dir, **kwargs):
    """generate_noise_bank's textures, saved as gen-data saves them: <noise_id>.wav in 32-bit float."""
    bank_dir.mkdir()
    for noise_id, w in generate_noise_bank(**kwargs).items():
        save_wav(w, bank_dir / f"{noise_id}.wav", bit_depth=FLOAT32)


def test_noise_bank_generation(tmp_path):
    bank_dir = tmp_path / "noise"
    _save_bank(bank_dir, sample_rate=SR, seconds=1.0, seed=7)
    files = sorted(p.name for p in bank_dir.glob("*.wav"))
    assert files == sorted(f"{tax}_{cls}.wav" for tax, cls in NOISE_CLASSES)
    assert len(files) == 12
    for p in bank_dir.glob("*.wav"):
        w = load_wav(p)
        assert w.sample_rate == SR
        assert len(w) == SR
        assert np.max(np.abs(w.samples)) == pytest.approx(0.5, abs=1e-6)


def test_noise_bank_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _save_bank(a, sample_rate=SR, seconds=0.5, seed=3)
    _save_bank(b, sample_rate=SR, seconds=0.5, seed=3)
    for pa in sorted(a.glob("*.wav")):
        pb = b / pa.name
        assert pa.read_bytes() == pb.read_bytes()


def test_noise_bank_loader_resamples(tmp_path):
    bank_dir = tmp_path / "noise8k"
    _save_bank(bank_dir, sample_rate=8000, seconds=0.5, seed=5)
    bank = load_noise_bank(bank_dir, working_rate=SR)
    assert len(sorted(bank)) == 12
    for nid in sorted(bank):
        w = bank[nid]
        assert w.sample_rate == SR
        assert abs(len(w) - 8000) <= 1  # 0.5 s at the working rate


def test_noise_bank_missing_id(tmp_path):
    bank_dir = tmp_path / "noise"
    _save_bank(bank_dir, sample_rate=SR, seconds=0.25, seed=1)
    bank = load_noise_bank(bank_dir, working_rate=SR)
    with pytest.raises(KeyError):
        bank["indoor_vacuum"]


@pytest.mark.parametrize("samples", [np.zeros(0), np.zeros(800)], ids=["empty", "silent"])
def test_load_noise_bank_refuses_a_wav_with_no_nonzero_sample(tmp_path, samples):
    bank_dir = tmp_path / "noise"
    _save_bank(bank_dir, sample_rate=SR, seconds=0.25, seed=1)
    bad = bank_dir / "outdoor_rain.wav"
    save_wav(Waveform(samples, 8000), bad, bit_depth=FLOAT32)  # refused before it is resampled
    message = f"{bad}: noise of {samples.size} samples, none of them nonzero, so no SNR can be set"
    with pytest.raises(AudioFormatError, match=f"^{re.escape(message)}$"):
        load_noise_bank(bank_dir, working_rate=SR)


def test_load_noise_bank_rejects_empty_dir(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ValueError):
        load_noise_bank(empty)


def test_measure_snr_consistency():
    signal = Waveform(np.full(1000, 0.4), SR)
    noise = Waveform(np.tile([0.2, -0.2], 500), SR)
    assert measure_snr(signal, noise, PAPER) == pytest.approx(40 * np.log10(2.0))
    assert measure_snr(signal, noise, STANDARD) == pytest.approx(20 * np.log10(2.0))
