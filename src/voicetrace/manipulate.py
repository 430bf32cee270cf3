"""Voice conversions and SNR-controlled additive noise.

Three conversions (resampling, speed, pitch) plus noise mixing at a
target signal-to-noise ratio. Identity parameters (offset 0, rate 1.0,
n_steps 0) return the input samples bit-for-bit. Everything here is
deterministic; there is no internal randomness outside the explicit
noise-bank generator seeds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import FLOAT32, Waveform, istft, load_wav, rms, save_wav, stft

STFT_WINDOW = 2048
STFT_HOP = 512

PAPER = "paper"
STANDARD = "standard"

# Kaiser-windowed sinc interpolation: 32 taps each side of the output
# position, measured in input samples.
_TAPS = 32
_KAISER_BETA = 8.0
# The taper evaluates I0 at beta * sqrt(arg) with 0 <= arg <= 1, so beta <= 8
# keeps every argument on the x <= 8 branch of numpy's i0, the only one
# _i0_in_place reproduces.
assert _KAISER_BETA <= 8.0
_I0_BETA = float(np.i0(_KAISER_BETA))
# Cephes' Chebyshev coefficients for exp(-x) I0(x) on [0, 8], as np.i0 uses them.
_I0_COEFFS = (
    -4.41534164647933937950e-18, 3.33079451882223809783e-17, -2.43127984654795469359e-16,
    1.71539128555513303061e-15, -1.16853328779934516808e-14, 7.67618549860493561688e-14,
    -4.85644678311192946090e-13, 2.95505266312963983461e-12, -1.72682629144155570723e-11,
    9.67580903537323691224e-11, -5.18979560163526290666e-10, 2.65982372468238665035e-9,
    -1.30002500998624804212e-8, 6.04699502254191894932e-8, -2.67079385394061173391e-7,
    1.11738753912010371815e-6, -4.41673835845875056359e-6, 1.64484480707288970893e-5,
    -5.75419501008210370398e-5, 1.88502885095841655729e-4, -5.76375574538582365885e-4,
    1.63947561694133579842e-3, -4.32430999505057594430e-3, 1.05464603945949983183e-2,
    -2.37374148058994688156e-2, 4.93052842396707084878e-2, -9.49010970480476444210e-2,
    1.71620901522208775349e-1, -3.04682672343198398683e-1, 6.76795274409476084995e-1,
)
# Output positions per kernel block: six float64 buffers of 512 x 66 take
# 1.6 MB, so a block's working set stays in a 2 MB L2 cache.
_BLOCK = 512

NOISE_CLASSES = (
    ("indoor", "breathing"),
    ("indoor", "footsteps"),
    ("indoor", "laughing"),
    ("indoor", "mouse-click"),
    ("indoor", "keyboard-type"),
    ("indoor", "clock-tick"),
    ("outdoor", "engine"),
    ("outdoor", "train"),
    ("outdoor", "fireworks"),
    ("outdoor", "rain"),
    ("outdoor", "wind"),
    ("outdoor", "thunderstorm"),
)


def _i0_in_place(x: np.ndarray, scratch) -> np.ndarray:
    """Overwrite x, all of it in [0, 8], with np.i0(x), bit for bit.

    np.i0's x <= 8 branch, exp(x) * chbevl(x/2 - 2), with the same
    operations in the same order, but into four preallocated arrays shaped
    like x (scratch) instead of a fresh temporary per step.
    """
    y, b0, b1, b2 = scratch
    np.divide(x, 2.0, out=y)
    np.subtract(y, 2, out=y)
    b0.fill(_I0_COEFFS[0])
    b1.fill(0.0)
    for a in _I0_COEFFS[1:]:
        # b0 <- y*b0 - b1 + a, written over the retired b2
        np.multiply(y, b0, out=b2)
        np.subtract(b2, b1, out=b2)
        np.add(b2, a, out=b2)
        b0, b1, b2 = b2, b0, b1
    np.subtract(b0, b2, out=b1)
    np.multiply(b1, 0.5, out=b1)
    np.exp(x, out=x)
    return np.multiply(x, b1, out=x)


def _resample_by_ratio(samples: np.ndarray, ratio: float) -> np.ndarray:
    """Windowed-sinc rate conversion; output length round(len * ratio).

    samples is one clip, or a (clips, samples) array converted row by row.
    The Kaiser-sinc kernel depends only on the input length and the ratio.
    It is built in blocks of _BLOCK output positions, in place, in six
    buffers allocated once per call, and each block is applied to every row
    before the next is built. Every step repeats np.sinc's and np.i0's
    operations in their order, so each kernel element, and so each output
    sample, is bit-identical to building the kernel with those functions,
    and each row to converting it alone.
    """
    rows = np.atleast_2d(samples)
    n_in = rows.shape[1]
    n_out = int(round(n_in * ratio))
    if n_out < 1:
        raise ValueError("resampling ratio leaves no output samples")
    cutoff = min(1.0, ratio)
    offsets = np.arange(-_TAPS, _TAPS + 2)
    out = np.empty((rows.shape[0], n_out), dtype=np.float64)
    buffers = np.empty((6, min(_BLOCK, n_out), offsets.size))
    mask_buffer = np.empty(buffers.shape[1:], dtype=bool)
    for start in range(0, n_out, _BLOCK):
        stop = min(start + _BLOCK, n_out)
        t, taper, *scratch = buffers[:, : stop - start]
        mask = mask_buffer[: stop - start]
        pos = np.arange(start, stop, dtype=np.float64) / ratio
        idx = np.floor(pos).astype(np.int64)[:, None] + offsets[None, :]
        np.subtract(idx, pos[:, None], out=t)
        # taper: I0(beta * sqrt(1 - (t/taps)^2)) / I0(beta), and 0 where mask (|t| > taps)
        np.abs(t, out=taper)
        np.greater(taper, _TAPS, out=mask)
        np.divide(t, _TAPS, out=taper)
        np.square(taper, out=taper)
        np.subtract(1.0, taper, out=taper)
        np.copyto(taper, 0.0, where=mask)
        np.sqrt(taper, out=taper)
        np.multiply(_KAISER_BETA, taper, out=taper)
        _i0_in_place(taper, scratch)
        np.divide(taper, _I0_BETA, out=taper)
        np.copyto(taper, 0.0, where=mask)
        # kernel: cutoff * sinc(cutoff * t) * taper, sinc as sin(pi x) / (pi x) with eps for 0
        np.multiply(cutoff, t, out=t)
        np.multiply(np.pi, t, out=t)
        np.equal(t, 0.0, out=mask)
        np.copyto(t, np.finfo(np.float64).eps, where=mask)
        sine = scratch[0]
        np.sin(t, out=sine)
        np.divide(sine, t, out=t)
        np.multiply(cutoff, t, out=t)
        kernel = np.multiply(t, taper, out=t)
        valid = (idx >= 0) & (idx < n_in)
        idx = np.clip(idx, 0, n_in - 1)
        for row, dest in zip(rows, out):
            gathered = np.where(valid, row[idx], 0.0)
            dest[start:stop] = np.sum(gathered * kernel, axis=1)
    return out if samples.ndim == 2 else out[0]


def _per_group(waves, convert) -> list:
    """Apply convert to each group of clips sharing (sample_rate, length);
    results in input order."""
    groups = {}
    for i, w in enumerate(waves):
        groups.setdefault((w.sample_rate, len(w)), []).append(i)
    out = [None] * len(waves)
    for members in groups.values():
        for i, result in zip(members, convert([waves[i] for i in members])):
            out[i] = result
    return out


def _resample_group(waves, offset_hz: int) -> list:
    """resample() for clips that share one sample rate and length."""
    offset_hz = int(offset_hz)
    rate = waves[0].sample_rate
    new_rate = rate + offset_hz
    if new_rate <= 0:
        raise ValueError(f"target sample rate {new_rate} is not positive")
    if offset_hz == 0:
        return [Waveform(w.samples.copy(), rate) for w in waves]
    rows = _resample_by_ratio(np.stack([w.samples for w in waves]), new_rate / rate)
    return [Waveform(row, new_rate) for row in rows]


def resample(w: Waveform, offset_hz: int) -> Waveform:
    """Rate conversion to sample_rate + offset_hz; the output carries the new rate."""
    return _resample_group([w], offset_hz)[0]


def _phase_vocoder(spec: np.ndarray, rate: float) -> np.ndarray:
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


def time_stretch(w: Waveform, rate: float) -> Waveform:
    """Phase-vocoder stretch; output has exactly round(len/rate) samples."""
    rate = float(rate)
    if rate <= 0.0:
        raise ValueError("stretch rate must be positive")
    if rate == 1.0:
        return Waveform(w.samples.copy(), w.sample_rate)
    if len(w) < STFT_WINDOW:
        raise ValueError(f"signal shorter than one {STFT_WINDOW}-sample analysis window")
    spec = stft(w, STFT_WINDOW, STFT_HOP)
    stretched = _phase_vocoder(spec, rate)
    target = int(round(len(w) / rate))
    samples = istft(stretched, STFT_WINDOW, STFT_HOP, length=target)
    return Waveform(samples, w.sample_rate)


def _pitch_group(waves, n_steps: int, bins_per_octave: int = 12) -> list:
    """pitch_shift() for clips that share one sample rate and length: each
    clip is stretched on its own, then the group is resampled at once."""
    if bins_per_octave < 1:
        raise ValueError("bins_per_octave must be positive")
    if n_steps == 0:
        return [Waveform(w.samples.copy(), w.sample_rate) for w in waves]
    rate = 2.0 ** (-float(n_steps) / bins_per_octave)
    stretched = np.stack([time_stretch(w, rate).samples for w in waves])
    shifted = _resample_by_ratio(stretched, rate)
    n = len(waves[0])
    if shifted.shape[1] >= n:
        shifted = shifted[:, :n]
    else:
        shifted = np.concatenate([shifted, np.zeros((len(waves), n - shifted.shape[1]))], axis=1)
    return [Waveform(row, w.sample_rate) for row, w in zip(shifted, waves)]


def pitch_shift(w: Waveform, n_steps: int, bins_per_octave: int = 12) -> Waveform:
    """Shift pitch by n_steps semitones; duration and rate are preserved."""
    return _pitch_group([w], n_steps, bins_per_octave)[0]


def _fit_to_length(noise: np.ndarray, n: int) -> np.ndarray:
    """Tile end-to-end when short, truncate from the start when long."""
    if noise.size >= n:
        return noise[:n]
    reps = math.ceil(n / noise.size)
    return np.tile(noise, reps)[:n]


def mix_noise(signal: Waveform, noise: Waveform, target_snr_db: float, formula: str = PAPER) -> Waveform:
    """Add noise scaled so the chosen SNR formula hits target_snr_db.

    `paper` measures SNR as 40*log10(rms_signal/rms_noise); `standard`
    uses the usual divisor of 20. The mix is never clipped, only warned
    about when it leaves [-1, 1].
    """
    if signal.sample_rate != noise.sample_rate:
        raise ValueError(
            f"sample rates differ: signal {signal.sample_rate}, noise {noise.sample_rate}"
        )
    if formula not in (PAPER, STANDARD):
        raise ValueError(f"unknown SNR formula {formula!r}")
    fitted = _fit_to_length(noise.samples, len(signal))
    rms_s = rms(signal)
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


def measure_snr(signal: Waveform, scaled_noise: Waveform, formula: str = PAPER) -> float:
    """SNR of already-mixed components under the chosen formula, in dB."""
    divisor = 40.0 if formula == PAPER else 20.0
    return divisor * math.log10(rms(signal) / rms(scaled_noise))


@dataclass(frozen=True)
class Manipulation:
    """One attack: kind resample/speed/pitch takes a magnitude; add_noise
    additionally names a bank entry and reads magnitude as target SNR dB."""

    kind: str
    magnitude: float
    noise_id: str = ""

    def __post_init__(self):
        if self.kind not in ("resample", "speed", "pitch", "add_noise"):
            raise ValueError(f"unknown manipulation kind {self.kind!r}")
        if self.kind == "add_noise" and not self.noise_id:
            raise ValueError("add_noise needs a noise_id")

    def describe(self) -> str:
        return f"add_noise:{self.noise_id}" if self.kind == "add_noise" else self.kind

    def is_identity(self) -> bool:
        if self.kind == "resample":
            return self.magnitude == 0
        if self.kind == "speed":
            return self.magnitude == 1.0
        if self.kind == "pitch":
            return self.magnitude == 0
        return False


def apply_manipulation(waves, m: Manipulation, bank=None, formula: str = PAPER) -> list:
    """Apply one manipulation to a list of clips; results in input order.

    Resample and pitch convert each group of clips sharing a sample rate
    and length in one resampler call, so the group shares its kernels.
    """
    if m.kind == "resample":
        return _per_group(waves, lambda group: _resample_group(group, int(m.magnitude)))
    if m.kind == "speed":
        return [time_stretch(w, m.magnitude) for w in waves]
    if m.kind == "pitch":
        return _per_group(waves, lambda group: _pitch_group(group, int(m.magnitude)))
    if bank is None:
        raise ValueError("add_noise manipulation needs a noise bank")
    return [mix_noise(w, bank.get(m.noise_id), m.magnitude, formula) for w in waves]


@dataclass(frozen=True)
class NoiseBank:
    entries: dict

    def get(self, noise_id: str) -> Waveform:
        try:
            return self.entries[noise_id]
        except KeyError:
            raise KeyError(f"noise bank has no entry {noise_id!r}") from None

    def ids(self) -> list:
        return sorted(self.entries)


def load_noise_bank(directory, working_rate: int = 16000) -> NoiseBank:
    """Read every WAV in a directory, resampling to the working rate."""
    directory = Path(directory)
    entries = {}
    for path in sorted(directory.glob("*.wav")):
        w = load_wav(path)
        if w.sample_rate != working_rate:
            samples = _resample_by_ratio(w.samples, working_rate / w.sample_rate)
            w = Waveform(samples, working_rate)
        entries[path.stem] = w
    if not entries:
        raise ValueError(f"no WAV files found in {directory}")
    return NoiseBank(entries)


def _lowpass(rng_noise: np.ndarray, sample_rate: int, cutoff_hz: float) -> np.ndarray:
    spec = np.fft.rfft(rng_noise)
    freqs = np.fft.rfftfreq(rng_noise.size, 1.0 / sample_rate)
    spec[freqs > cutoff_hz] = 0.0
    return np.fft.irfft(spec, rng_noise.size)


def _highpass(rng_noise: np.ndarray, sample_rate: int, cutoff_hz: float) -> np.ndarray:
    spec = np.fft.rfft(rng_noise)
    freqs = np.fft.rfftfreq(rng_noise.size, 1.0 / sample_rate)
    spec[freqs < cutoff_hz] = 0.0
    return np.fft.irfft(spec, rng_noise.size)


def _bursts(rng: np.random.Generator, n: int, sample_rate: int, rate_hz: float,
            burst_len: float, jitter: float = 0.3) -> np.ndarray:
    """Decaying broadband bursts at roughly rate_hz events per second."""
    out = np.zeros(n)
    period = sample_rate / rate_hz
    t = 0.0
    burst_n = max(8, int(burst_len * sample_rate))
    decay = np.exp(-np.arange(burst_n) / (0.2 * burst_n))
    while t < n:
        start = int(t)
        seg = min(burst_n, n - start)
        if seg > 0:
            out[start : start + seg] += rng.standard_normal(seg) * decay[:seg]
        t += period * (1.0 + jitter * (rng.random() - 0.5))
    return out


def _synth_noise(tag: str, rng: np.random.Generator, n: int, sr: int) -> np.ndarray:
    tt = np.arange(n) / sr
    white = rng.standard_normal(n)
    if tag == "breathing":
        envelope = 0.55 + 0.45 * np.sin(2.0 * np.pi * 0.3 * tt)
        return _lowpass(white, sr, 900.0) * envelope
    if tag == "footsteps":
        return _bursts(rng, n, sr, 1.8, 0.06)
    if tag == "laughing":
        buzz = np.sign(np.sin(2.0 * np.pi * 190.0 * tt))
        envelope = np.clip(np.sin(2.0 * np.pi * 4.5 * tt), 0.0, None)
        return buzz * envelope + 0.2 * _lowpass(white, sr, 2000.0)
    if tag == "mouse-click":
        return _bursts(rng, n, sr, 2.5, 0.004)
    if tag == "keyboard-type":
        return _bursts(rng, n, sr, 7.0, 0.01, jitter=0.8)
    if tag == "clock-tick":
        return _bursts(rng, n, sr, 1.0, 0.008, jitter=0.0)
    if tag == "engine":
        rumble = np.sin(2.0 * np.pi * 42.0 * tt) + 0.5 * np.sin(2.0 * np.pi * 84.0 * tt + 0.7)
        return rumble + 0.3 * _lowpass(white, sr, 400.0)
    if tag == "train":
        clatter = 0.5 + 0.5 * np.square(np.sin(2.0 * np.pi * 2.0 * tt))
        return _lowpass(white, sr, 1500.0) * clatter
    if tag == "fireworks":
        return _bursts(rng, n, sr, 0.7, 0.35, jitter=0.9)
    if tag == "rain":
        return _highpass(white, sr, 1200.0)
    if tag == "wind":
        wander = 0.6 + 0.4 * np.sin(2.0 * np.pi * 0.17 * tt + 1.1)
        return _lowpass(white, sr, 600.0) * wander
    if tag == "thunderstorm":
        rumble = _lowpass(_bursts(rng, n, sr, 0.5, 0.8, jitter=0.6), sr, 250.0)
        return rumble + 0.15 * _highpass(white, sr, 1500.0)
    raise ValueError(f"unknown noise class {tag!r}")


def generate_noise_bank(directory, sample_rate: int = 16000, seconds: float = 3.0,
                        seed: int = 7) -> NoiseBank:
    """Write 12 deterministic synthetic stand-in textures as <taxonomy>_<class>.wav."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    n = int(round(seconds * sample_rate))
    entries = {}
    for index, (taxonomy, tag) in enumerate(NOISE_CLASSES):
        rng = np.random.default_rng((seed, index))
        samples = _synth_noise(tag, rng, n, sample_rate)
        samples = 0.5 * samples / np.max(np.abs(samples))
        w = Waveform(samples, sample_rate)
        save_wav(w, directory / f"{taxonomy}_{tag}.wav", bit_depth=FLOAT32)
        entries[f"{taxonomy}_{tag}"] = w
    return NoiseBank(entries)
