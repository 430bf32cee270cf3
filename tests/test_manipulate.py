import numpy as np
import pytest

from voicetrace.audio import Waveform, load_wav, rms, stft
from voicetrace.manipulate import (
    _BLOCK,
    _KAISER_BETA,
    _PHASES,
    _TAPS,
    NOISE_CLASSES,
    PAPER,
    STANDARD,
    Manipulation,
    _resample_by_ratio,
    apply_manipulation,
    generate_noise_bank,
    load_noise_bank,
    measure_snr,
    mix_noise,
    time_stretch,
)

SR = 16000


def _tone(freq, seconds=2.0, sr=SR, amp=0.5):
    t = np.arange(int(seconds * sr)) / sr
    return Waveform(amp * np.sin(2 * np.pi * freq * t), sr)


def _resample(w: Waveform, offset_hz: int) -> Waveform:
    return apply_manipulation([w], Manipulation("resample", offset_hz))[0]


def _pitch_shift(w: Waveform, n_steps: int) -> Waveform:
    return apply_manipulation([w], Manipulation("pitch", n_steps))[0]


def _dominant_hz(w: Waveform) -> float:
    spec = stft(w, 4096, 1024)
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


def test_time_stretch_identity_bit_exact():
    w = _tone(440)
    out = time_stretch(w, 1.0)
    assert np.array_equal(out.samples, w.samples)
    assert out.samples is not w.samples


def test_time_stretch_half_rate_doubles_length():
    w = _tone(440, seconds=2.0)
    out = time_stretch(w, 0.5)
    assert abs(len(out) - 2 * len(w)) <= 512
    assert abs(_dominant_hz(out) - 440.0) <= 5.0


def test_time_stretch_double_rate_halves_length():
    w = _tone(250, seconds=2.0)
    out = time_stretch(w, 2.0)
    assert abs(len(out) - len(w) // 2) <= 512


def test_time_stretch_rejects_short_input():
    with pytest.raises(ValueError):
        time_stretch(Waveform(np.zeros(1000), SR), 0.5)


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
    mixed = mix_noise(signal, noise, 0.0, PAPER)
    # rms ratio 2 and 10^0 = 1, so the noise is scaled by exactly 2
    np.testing.assert_allclose(mixed.samples - signal.samples, 2.0 * noise.samples, atol=1e-12)


def test_mix_noise_forty_db_scale():
    signal = Waveform(np.full(SR, 0.1), SR)
    noise = Waveform(np.tile([0.1, -0.1], SR // 2), SR)
    mixed = mix_noise(signal, noise, 40.0, PAPER)
    np.testing.assert_allclose(mixed.samples - signal.samples, 0.1 * noise.samples, atol=1e-12)


def test_mix_noise_hits_target_snr():
    rng = np.random.default_rng(109)
    for _ in range(20):
        n = int(rng.integers(SR // 2, 2 * SR))
        signal = Waveform(rng.uniform(-0.5, 0.5, n), SR)
        noise = Waveform(rng.uniform(-0.5, 0.5, int(rng.integers(SR // 4, 2 * SR))), SR)
        for target in (25.0, 30.0, 35.0, 40.0, 45.0):
            for formula in (PAPER, STANDARD):
                mixed = mix_noise(signal, noise, target, formula)
                added = Waveform(mixed.samples - signal.samples, SR)
                assert abs(measure_snr(signal, added, formula) - target) <= 0.01


def test_mix_noise_tiles_short_noise():
    signal = Waveform(np.full(10, 0.5), SR)
    noise = Waveform(np.array([0.4, -0.2, 0.1]), SR)
    mixed = mix_noise(signal, noise, 20.0, STANDARD)
    added = mixed.samples - signal.samples
    tiled = np.tile(noise.samples, 4)[:10]
    np.testing.assert_allclose(added / added[0], tiled / tiled[0], atol=1e-12)


def test_mix_noise_truncates_long_noise():
    rng = np.random.default_rng(113)
    signal = Waveform(rng.uniform(-0.5, 0.5, 100), SR)
    noise = Waveform(rng.uniform(-0.5, 0.5, 500), SR)
    mixed = mix_noise(signal, noise, 20.0, STANDARD)
    added = mixed.samples - signal.samples
    # the added component is proportional to the first 100 noise samples
    ratio = added / noise.samples[:100]
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)


def test_mix_noise_rejects_silence():
    live = Waveform(np.full(100, 0.3), SR)
    silent = Waveform(np.zeros(100), SR)
    with pytest.raises(ValueError):
        mix_noise(silent, live, 30.0)
    with pytest.raises(ValueError):
        mix_noise(live, silent, 30.0)


def test_mix_noise_rejects_rate_mismatch():
    a = Waveform(np.full(100, 0.3), 16000)
    b = Waveform(np.full(100, 0.3), 8000)
    with pytest.raises(ValueError):
        mix_noise(a, b, 30.0)


def test_mix_noise_warns_but_never_clips():
    signal = Waveform(np.full(100, 0.9), SR)
    noise = Waveform(np.tile([0.9, -0.9], 50), SR)
    with pytest.warns(UserWarning):
        mixed = mix_noise(signal, noise, -20.0, STANDARD)
    assert np.max(np.abs(mixed.samples)) > 1.0


def test_paper_formula_differs_from_standard():
    signal = Waveform(np.full(100, 0.2), SR)
    noise = Waveform(np.tile([0.1, -0.1], 50), SR)
    paper_mix = mix_noise(signal, noise, 30.0, PAPER)
    std_mix = mix_noise(signal, noise, 30.0, STANDARD)
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


def test_noise_bank_generation(tmp_path):
    bank_dir = tmp_path / "noise"
    generate_noise_bank(bank_dir, sample_rate=SR, seconds=1.0, seed=7)
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
    generate_noise_bank(a, sample_rate=SR, seconds=0.5, seed=3)
    generate_noise_bank(b, sample_rate=SR, seconds=0.5, seed=3)
    for pa in sorted(a.glob("*.wav")):
        pb = b / pa.name
        assert pa.read_bytes() == pb.read_bytes()


def test_noise_bank_loader_resamples(tmp_path):
    bank_dir = tmp_path / "noise8k"
    generate_noise_bank(bank_dir, sample_rate=8000, seconds=0.5, seed=5)
    bank = load_noise_bank(bank_dir, working_rate=SR)
    assert len(bank.ids()) == 12
    for nid in bank.ids():
        w = bank.get(nid)
        assert w.sample_rate == SR
        assert abs(len(w) - 8000) <= 1  # 0.5 s at the working rate


def test_noise_bank_missing_id(tmp_path):
    bank_dir = tmp_path / "noise"
    generate_noise_bank(bank_dir, sample_rate=SR, seconds=0.25, seed=1)
    bank = load_noise_bank(bank_dir, working_rate=SR)
    with pytest.raises(KeyError):
        bank.get("indoor_vacuum")


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
