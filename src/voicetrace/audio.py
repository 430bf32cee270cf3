"""WAV I/O and core DSP: RMS, STFT/ISTFT, and the log-mel frontend.

All operations are pure functions; waveforms are immutable value objects.
Only RIFF/WAVE files holding 16-bit PCM or 32-bit IEEE float, mono or
stereo, are accepted. Anything else is rejected loudly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AudioFormatError, AudioParseError

PCM16 = "pcm16"
FLOAT32 = "float32"

_WAVE_FORMAT_PCM = 1
_WAVE_FORMAT_IEEE_FLOAT = 3


@dataclass(frozen=True)
class Waveform:
    """Mono audio: float64 samples (nominally in [-1, 1]) plus a sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("waveform samples must be one-dimensional")
        if samples.size and not np.all(np.isfinite(samples)):
            raise ValueError("waveform contains non-finite samples")
        rate = int(self.sample_rate)
        if rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {rate}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", rate)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass(frozen=True)
class FeatureMap:
    """Log-mel energies, one row per frame, plus the framing parameters."""

    values: np.ndarray
    window_size: int
    hop: int
    mel_bins: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("feature map values must be 2-D (frames x bins)")
        if not np.all(np.isfinite(values)):
            raise ValueError("feature map contains non-finite values")
        object.__setattr__(self, "values", values)

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def bins(self) -> int:
        return self.values.shape[1]


def load_wav(path) -> Waveform:
    """Read a RIFF/WAVE file into a mono Waveform.

    16-bit PCM words map to [-1, 1) by dividing by 32768; 32-bit float
    samples are taken as-is. Stereo is averaged to mono. Unsupported
    codecs or bit depths raise AudioFormatError; a truncated or
    structurally broken container raises AudioParseError.
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise AudioParseError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body_start = pos + 8
        if body_start + size > len(data):
            raise AudioParseError(
                f"{path}: chunk {chunk_id!r} declares {size} bytes but file ends early"
            )
        if chunk_id == b"fmt ":
            if size < 16:
                raise AudioParseError(f"{path}: fmt chunk too short ({size} bytes)")
            fmt = struct.unpack_from("<HHIIHH", data, body_start)
        elif chunk_id == b"data":
            payload = data[body_start : body_start + size]
        pos = body_start + size + (size & 1)  # chunks are word-aligned

    if fmt is None:
        raise AudioParseError(f"{path}: missing fmt chunk")
    if payload is None:
        raise AudioParseError(f"{path}: missing data chunk")

    audio_format, channels, sample_rate, _, _, bits = fmt
    if channels not in (1, 2):
        raise AudioFormatError(f"{path}: unsupported channel count {channels}")
    if audio_format == _WAVE_FORMAT_PCM and bits == 16:
        frame_bytes = 2 * channels
        if len(payload) % frame_bytes:
            raise AudioParseError(f"{path}: data chunk is not whole 16-bit frames")
        samples = np.frombuffer(payload, dtype="<i2").astype(np.float64) / 32768.0
    elif audio_format == _WAVE_FORMAT_IEEE_FLOAT and bits == 32:
        frame_bytes = 4 * channels
        if len(payload) % frame_bytes:
            raise AudioParseError(f"{path}: data chunk is not whole 32-bit frames")
        samples = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    else:
        raise AudioFormatError(
            f"{path}: unsupported encoding (format tag {audio_format}, {bits}-bit); "
            "only 16-bit PCM and 32-bit IEEE float are accepted"
        )

    if channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    return Waveform(samples, sample_rate)


def _quantize_pcm16(samples: np.ndarray) -> np.ndarray:
    # round half away from zero, then clamp to the int16 range
    scaled = samples * 32768.0
    words = np.where(scaled >= 0, np.floor(scaled + 0.5), np.ceil(scaled - 0.5))
    return np.clip(words, -32768, 32767).astype("<i2")


def save_wav(w: Waveform, path, bit_depth: str = PCM16) -> None:
    """Write a mono RIFF/WAVE file as 16-bit PCM or 32-bit IEEE float."""
    if bit_depth == PCM16:
        body = _quantize_pcm16(w.samples).tobytes()
        format_tag, bits = _WAVE_FORMAT_PCM, 16
    elif bit_depth == FLOAT32:
        body = w.samples.astype("<f4").tobytes()
        format_tag, bits = _WAVE_FORMAT_IEEE_FLOAT, 32
    else:
        raise ValueError(f"bit_depth must be {PCM16!r} or {FLOAT32!r}, got {bit_depth!r}")

    block_align = bits // 8
    header = b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH",
        16,
        format_tag,
        1,
        w.sample_rate,
        w.sample_rate * block_align,
        block_align,
        bits,
    )
    header += b"data" + struct.pack("<I", len(body))
    Path(path).write_bytes(header + body)


def rms(w: Waveform) -> float:
    """Root mean square of the samples: sqrt(mean(samples^2))."""
    if len(w) == 0:
        raise ValueError("rms of an empty waveform is undefined")
    return float(np.sqrt(np.mean(np.square(w.samples))))


def hann_window(size: int) -> np.ndarray:
    # periodic Hann: exact COLA at hop = size/4 and size/2
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(size) / size)


def _as_samples(w) -> np.ndarray:
    if isinstance(w, Waveform):
        return w.samples
    return np.asarray(w, dtype=np.float64)


def stft(w, window_size: int, hop: int, fft_size: int | None = None) -> np.ndarray:
    """Hann-windowed one-sided STFT, shape (frames, fft_size//2 + 1).

    Frames start at sample 0 with no centering; the trailing partial
    window is dropped. fft_size must be a power of two and defaults to
    window_size; a larger fft_size zero-pads each windowed frame.
    """
    samples = _as_samples(w)
    if fft_size is None:
        fft_size = window_size
    if fft_size < window_size or fft_size & (fft_size - 1):
        raise ValueError(f"fft_size must be a power of two >= window_size, got {fft_size}")
    if not 1 <= hop <= window_size:
        raise ValueError(f"hop must be in [1, window_size], got {hop}")
    if samples.size < window_size:
        raise ValueError(
            f"signal of {samples.size} samples is shorter than one window ({window_size})"
        )
    frames = np.lib.stride_tricks.sliding_window_view(samples, window_size)[::hop]
    return np.fft.rfft(frames * hann_window(window_size), n=fft_size, axis=1)


def istft(spec: np.ndarray, window_size: int, hop: int, length: int | None = None) -> np.ndarray:
    """Overlap-add inverse of stft() with Hann synthesis windowing.

    Output is trimmed or zero-padded to `length` when given.
    """
    spec = np.asarray(spec)
    if spec.ndim != 2:
        raise ValueError("spectrogram must be 2-D (frames x bins)")
    fft_size = 2 * (spec.shape[1] - 1)
    if fft_size < window_size:
        raise ValueError("spectrogram bins inconsistent with window_size")
    window = hann_window(window_size)
    frames = np.fft.irfft(spec, n=fft_size, axis=1)[:, :window_size] * window

    n_frames = spec.shape[0]
    span = (n_frames - 1) * hop + window_size
    out = np.zeros(span)
    norm = np.zeros(span)
    win_sq = window * window
    for t in range(n_frames):
        start = t * hop
        out[start : start + window_size] += frames[t]
        norm[start : start + window_size] += win_sq
    out /= np.maximum(norm, 1e-12)

    if length is not None:
        if length <= span:
            out = out[:length]
        else:
            out = np.concatenate([out, np.zeros(length - span)])
    return out


def hz_to_mel(hz):
    """HTK mel scale."""
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (np.power(10.0, np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(
    sample_rate: int, fft_size: int, mel_bins: int, fmin: float = 0.0, fmax: float | None = None
) -> np.ndarray:
    """Triangular HTK-mel filterbank, shape (mel_bins, fft_size//2 + 1), peak 1."""
    if fmax is None:
        fmax = sample_rate / 2.0
    edges = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), mel_bins + 2))
    bin_freqs = np.arange(fft_size // 2 + 1) * (sample_rate / fft_size)
    lower = edges[:-2, None]
    center = edges[1:-1, None]
    upper = edges[2:, None]
    rising = (bin_freqs[None, :] - lower) / (center - lower)
    falling = (upper - bin_freqs[None, :]) / (upper - center)
    return np.clip(np.minimum(rising, falling), 0.0, None)


def mel_center_frequencies(sample_rate: int, mel_bins: int, fmin: float = 0.0, fmax: float | None = None) -> np.ndarray:
    """Center frequency (Hz) of each triangular mel filter."""
    if fmax is None:
        fmax = sample_rate / 2.0
    edges = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), mel_bins + 2))
    return edges[1:-1]


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def log_mel(w: Waveform, window_size: int = 400, hop: int = 160, mel_bins: int = 64) -> FeatureMap:
    """Log mel-energy frontend: |STFT|^2 -> triangular mel filterbank -> log(x + 1e-6).

    Frames use the window_size/hop grid; each windowed frame is
    zero-padded to the next power of two for the FFT.
    """
    fft_size = _next_pow2(window_size)
    spec = stft(w, window_size, hop, fft_size=fft_size)
    power = np.square(np.abs(spec))
    fb = mel_filterbank(w.sample_rate, fft_size, mel_bins)
    energies = power @ fb.T
    return FeatureMap(np.log(energies + 1e-6), window_size, hop, mel_bins)


def fix_frame_count(fm: FeatureMap, target_frames: int) -> FeatureMap:
    """Center-crop or zero-pad a FeatureMap to exactly target_frames rows."""
    if target_frames <= 0:
        raise ValueError("target_frames must be positive")
    n = fm.frames
    if n == target_frames:
        return fm
    if n > target_frames:
        start = (n - target_frames) // 2
        values = fm.values[start : start + target_frames]
    else:
        before = (target_frames - n) // 2
        after = target_frames - n - before
        values = np.pad(fm.values, ((before, after), (0, 0)))
    return FeatureMap(values, fm.window_size, fm.hop, fm.mel_bins)
