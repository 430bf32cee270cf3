"""Voice conversions and SNR-controlled additive noise.

Three conversions (resampling, speed, pitch) plus noise mixing at a
target signal-to-noise ratio, all through apply_manipulation. Identity
parameters (offset 0, rate 1.0, n_steps 0) return the input samples bit
for bit; any other manipulation goes to one converter per kind, once per
group of clips sharing a sample rate and length. Everything here is
deterministic; there is no internal randomness outside the explicit
noise-bank generator seeds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import FLOAT32, Waveform, band_pass, istft, load_wav, rms, save_wav, stft
from .errors import AudioFormatError

STFT_WINDOW = 2048
STFT_HOP = 512

PAPER = "paper"
STANDARD = "standard"

# Kaiser-windowed sinc interpolation: 32 taps each side of the output
# position, measured in input samples.
_TAPS = 32
_KAISER_BETA = 8.0
# Kernel table steps per input sample.
_PHASES = 1024
# Output positions per kernel block.
_BLOCK = 512

NOISE_SECONDS = 3.0  # the length of each noise-bank texture

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


def _resample_by_ratio(samples: np.ndarray, ratio: float) -> np.ndarray:
    """Windowed-sinc rate conversion; output length round(len * ratio).

    samples is one clip, or a (clips, samples) array converted row by row.
    The kernel, cutoff * sinc(cutoff * t) * Kaiser(t) with cutoff =
    min(1, ratio) and t in input samples, is zero for |t| > _TAPS. Once per
    call it is sampled for t >= 0 at _PHASES steps per input sample, and
    each tap reads that table at |t| * _PHASES with linear interpolation,
    as in Smith's bandlimited interpolation
    (https://ccrma.stanford.edu/~jos/resample/). For |t| <= _TAPS a read is
    within pi^2 cutoff^3 / (24 _PHASES^2) <= 4e-7 of the closed-form kernel
    (the interpolation error bound h^2/8 * max|kernel''|). In the one step
    past |t| = _TAPS it falls linearly to zero from kernel(_TAPS), at most
    1 / (32 pi I0(beta)) = 2.4e-5, where the closed form drops at once.
    The kernel is built in blocks of _BLOCK output positions, and each block
    is applied to every row before the next is built, so each row is
    bit-identical to converting it alone.
    """
    rows = np.atleast_2d(samples)
    n_in = rows.shape[1]
    n_out = int(round(n_in * ratio))
    if n_out < 1:
        raise ValueError("resampling ratio leaves no output samples")
    cutoff = min(1.0, ratio)
    # |t| reaches _TAPS + 1, so the table runs one sample past the taps, in zeros
    grid = np.arange(_TAPS * _PHASES + 1) / _PHASES
    table = np.zeros((_TAPS + 1) * _PHASES + 2)
    table[: grid.size] = (cutoff * np.sinc(cutoff * grid)
                          * np.i0(_KAISER_BETA * np.sqrt(1.0 - (grid / _TAPS) ** 2)) / np.i0(_KAISER_BETA))
    slope = np.diff(table)
    scaled_offsets = np.arange(-_TAPS, _TAPS + 2) * float(_PHASES)
    # floor(pos) lies in [0, n_in - 1], so taps reach from -_TAPS to n_in + _TAPS; window j of a
    # padded row holds the taps of every position with floor(pos) == j
    padded = np.zeros((rows.shape[0], n_in + 2 * _TAPS + 1))
    padded[:, _TAPS : _TAPS + n_in] = rows
    windows = np.lib.stride_tricks.sliding_window_view(padded, scaled_offsets.size, axis=1)
    out = np.empty((rows.shape[0], n_out), dtype=np.float64)
    for start in range(0, n_out, _BLOCK):
        stop = min(start + _BLOCK, n_out)
        pos = np.arange(start, stop, dtype=np.float64) / ratio
        first = np.floor(pos)
        # table position |t| * _PHASES, split into its step and the fraction past it; frac(pos) is
        # exact and _PHASES a power of two, so this rounds as |floor(pos) + offset - pos| * _PHASES
        phase = np.subtract.outer((pos - first) * _PHASES, scaled_offsets)
        np.abs(phase, out=phase)
        step = phase.astype(np.intp)
        phase -= step
        kernel = table[step]
        kernel += phase * slope[step]
        first = first.astype(np.intp)
        for row, dest in zip(windows, out):
            np.einsum("bk,bk->b", row[first], kernel, out=dest[start:stop])
    return out if samples.ndim == 2 else out[0]


def _phase_vocoder(spec: np.ndarray, rate: float) -> np.ndarray:
    n_frames, n_bins = spec.shape
    steps = np.arange(0.0, n_frames, rate)
    omega = 2.0 * np.pi * STFT_HOP * np.arange(n_bins) / STFT_WINDOW
    padded = np.vstack([spec, np.zeros((1, n_bins), dtype=spec.dtype)])
    mags = np.abs(padded)
    angles = np.angle(padded)
    out = np.empty((steps.size, n_bins), dtype=spec.dtype)
    phase = angles[0]
    for i, step in enumerate(steps):
        p = int(step)
        alpha = step - p
        mag = (1.0 - alpha) * mags[p] + alpha * mags[p + 1]
        out[i] = mag * np.exp(1j * phase)
        dphase = angles[p + 1] - angles[p] - omega
        dphase -= 2.0 * np.pi * np.round(dphase / (2.0 * np.pi))
        phase = phase + omega + dphase
    return out


def _stretch(samples: np.ndarray, rate: float) -> np.ndarray:
    """Phase-vocoder stretch of one clip; output has exactly round(len/rate) samples."""
    if samples.size < STFT_WINDOW:
        raise ValueError(f"signal shorter than one {STFT_WINDOW}-sample analysis window")
    stretched = _phase_vocoder(stft(samples, STFT_WINDOW, STFT_HOP), rate)
    return istft(stretched, STFT_WINDOW, STFT_HOP, length=int(round(samples.size / rate)))


def _pitch(clips, n_steps: int) -> np.ndarray:
    """Shift pitch by n_steps semitones, keeping the length, for clips of one length: each clip
    is stretched on its own, then the block is resampled at once and cropped or zero-padded."""
    rate = 2.0 ** (-float(n_steps) / 12)
    shifted = _resample_by_ratio(np.stack([_stretch(c, rate) for c in clips]), rate)
    n = clips[0].size
    if shifted.shape[1] >= n:
        return shifted[:, :n]
    return np.concatenate([shifted, np.zeros((len(clips), n - shifted.shape[1]))], axis=1)


def _mix(samples: np.ndarray, fitted: np.ndarray, rms_n: float, target_snr_db: float,
         formula: str) -> np.ndarray:
    """samples plus fitted noise (of RMS rms_n) scaled so the formula's SNR hits target_snr_db;
    never clipped, only warned about when it leaves [-1, 1]."""
    rms_s = rms(samples)
    if rms_s == 0.0:
        raise ValueError("silent signal: SNR undefined")
    if rms_n == 0.0:
        raise ValueError("silent noise: SNR undefined")
    divisor = 40.0 if formula == PAPER else 20.0
    c = (rms_s / rms_n) * 10.0 ** (-float(target_snr_db) / divisor)
    mixed = samples + c * fitted
    if np.max(np.abs(mixed)) > 1.0:
        warnings.warn("mixed amplitude exceeds [-1, 1]; output left unclipped")
    return mixed


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
        if self.kind in ("resample", "pitch") and self.magnitude % 1:
            # applied as whole Hz and whole semitones; a fraction would be dropped unreported
            raise ValueError(f"{self.kind} needs a whole-number magnitude, got {self.magnitude!r}")

    def describe(self) -> str:
        return f"add_noise:{self.noise_id}" if self.kind == "add_noise" else self.kind

    def is_identity(self) -> bool:
        # resample offset 0 Hz, speed rate 1.0, pitch 0 semitones; no SNR leaves a clip as it is
        return self.magnitude == {"resample": 0, "speed": 1.0, "pitch": 0}.get(self.kind)


def apply_manipulation(waves, m: Manipulation, bank=None, formula: str = PAPER) -> list:
    """Apply one manipulation to a list of clips; results in input order.

    An identity manipulation returns copies, bit for bit. Otherwise the clips are grouped by
    (sample_rate, length) and each group is converted once: resample resamples the stacked
    group in one call, so it shares the kernels; speed stretches each clip; pitch stretches
    each clip and resamples the group in one call; add_noise fits the noise to the group's
    length and takes its RMS once, then mixes each clip.
    """
    if m.is_identity():
        return [Waveform(w.samples.copy(), w.sample_rate) for w in waves]
    if m.kind == "speed" and m.magnitude <= 0:
        raise ValueError("stretch rate must be positive")
    if m.kind == "add_noise":
        if bank is None:
            raise ValueError("add_noise manipulation needs a noise bank")
        if formula not in (PAPER, STANDARD):
            raise ValueError(f"unknown SNR formula {formula!r}")
        noise = bank.get(m.noise_id)
    groups = {}
    for i, w in enumerate(waves):
        groups.setdefault((w.sample_rate, len(w)), []).append(i)
    out = [None] * len(waves)
    for (rate, n), members in groups.items():
        clips = [waves[i].samples for i in members]
        if m.kind == "resample":
            new_rate = rate + int(m.magnitude)
            if new_rate <= 0:
                raise ValueError(f"target sample rate {new_rate} is not positive")
            rows = _resample_by_ratio(np.stack(clips), new_rate / rate)
            rate = new_rate
        elif m.kind == "speed":
            rows = [_stretch(c, float(m.magnitude)) for c in clips]
        elif m.kind == "pitch":
            rows = _pitch(clips, int(m.magnitude))
        else:
            if rate != noise.sample_rate:
                raise ValueError(f"sample rates differ: signal {rate}, noise {noise.sample_rate}")
            fitted = np.resize(noise.samples, n)  # tiled end to end when short, truncated when long
            rms_n = rms(fitted)
            rows = [_mix(c, fitted, rms_n, m.magnitude, formula) for c in clips]
        for i, row in zip(members, rows):
            out[i] = Waveform(row, rate)
    return out


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
    """Read every WAV in a directory, resampling to the working rate; an empty or all-zero WAV
    raises AudioFormatError, since no SNR can be set with it."""
    directory = Path(directory)
    entries = {}
    for path in sorted(directory.glob("*.wav")):
        w = load_wav(path)
        if not np.any(w.samples):
            raise AudioFormatError(f"{path}: noise of {len(w)} samples, none of them nonzero, so no SNR can be set")
        if w.sample_rate != working_rate:
            samples = _resample_by_ratio(w.samples, working_rate / w.sample_rate)
            w = Waveform(samples, working_rate)
        entries[path.stem] = w
    if not entries:
        raise ValueError(f"no WAV files found in {directory}")
    return NoiseBank(entries)


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
        return band_pass(white, sr, high_hz=900.0) * envelope
    if tag == "footsteps":
        return _bursts(rng, n, sr, 1.8, 0.06)
    if tag == "laughing":
        buzz = np.sign(np.sin(2.0 * np.pi * 190.0 * tt))
        envelope = np.clip(np.sin(2.0 * np.pi * 4.5 * tt), 0.0, None)
        return buzz * envelope + 0.2 * band_pass(white, sr, high_hz=2000.0)
    if tag == "mouse-click":
        return _bursts(rng, n, sr, 2.5, 0.004)
    if tag == "keyboard-type":
        return _bursts(rng, n, sr, 7.0, 0.01, jitter=0.8)
    if tag == "clock-tick":
        return _bursts(rng, n, sr, 1.0, 0.008, jitter=0.0)
    if tag == "engine":
        rumble = np.sin(2.0 * np.pi * 42.0 * tt) + 0.5 * np.sin(2.0 * np.pi * 84.0 * tt + 0.7)
        return rumble + 0.3 * band_pass(white, sr, high_hz=400.0)
    if tag == "train":
        clatter = 0.5 + 0.5 * np.square(np.sin(2.0 * np.pi * 2.0 * tt))
        return band_pass(white, sr, high_hz=1500.0) * clatter
    if tag == "fireworks":
        return _bursts(rng, n, sr, 0.7, 0.35, jitter=0.9)
    if tag == "rain":
        return band_pass(white, sr, low_hz=1200.0)
    if tag == "wind":
        wander = 0.6 + 0.4 * np.sin(2.0 * np.pi * 0.17 * tt + 1.1)
        return band_pass(white, sr, high_hz=600.0) * wander
    if tag == "thunderstorm":
        rumble = band_pass(_bursts(rng, n, sr, 0.5, 0.8, jitter=0.6), sr, high_hz=250.0)
        return rumble + 0.15 * band_pass(white, sr, low_hz=1500.0)
    raise ValueError(f"unknown noise class {tag!r}")


def generate_noise_bank(directory, sample_rate: int = 16000, seconds: float = NOISE_SECONDS,
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
