"""WAV I/O and core DSP: RMS, an FFT band filter, STFT/ISTFT, and the log-mel frontend.

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
# The most data bytes a WAV can hold: its byte rate, data size and RIFF size (36 + data) are u32.
WAV_MAX_DATA = 0xFFFFFFFF - 36

# The log-mel frontend's analysis grid: 25 ms windows every 10 ms at 16 kHz.
WINDOW = 400
HOP = 160


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
    if sample_rate == 0:
        raise AudioFormatError(f"{path}: sample rate is 0")
    if audio_format == _WAVE_FORMAT_PCM and bits == 16:
        frame_bytes = 2 * channels
        if len(payload) % frame_bytes:
            raise AudioParseError(f"{path}: data chunk is not whole 16-bit frames")
        samples = np.frombuffer(payload, dtype="<i2").astype(np.float64) / 32768.0
    elif audio_format == _WAVE_FORMAT_IEEE_FLOAT and bits == 32:
        frame_bytes = 4 * channels
        if len(payload) % frame_bytes:
            raise AudioParseError(f"{path}: data chunk is not whole 32-bit frames")
        raw = np.frombuffer(payload, dtype="<f4")
        # checked before the cast: casting a signalling NaN raises numpy's invalid flag
        if not np.all(np.isfinite(raw)):
            raise AudioFormatError(f"{path}: float samples include NaN or infinity")
        samples = raw.astype(np.float64)
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


def rms(samples: np.ndarray) -> float:
    """Root mean square of samples: sqrt(mean(samples^2))."""
    if samples.size == 0:
        raise ValueError("rms of an empty waveform is undefined")
    return float(np.sqrt(np.mean(np.square(samples))))


def band_pass(samples: np.ndarray, sample_rate: int, low_hz: float = 0.0,
              high_hz: float = np.inf) -> np.ndarray:
    """Zero every FFT bin below low_hz or above high_hz; the cut-offs themselves pass."""
    spec = np.fft.rfft(samples)
    freqs = np.fft.rfftfreq(samples.size, 1.0 / sample_rate)
    spec[(freqs < low_hz) | (freqs > high_hz)] = 0.0
    return np.fft.irfft(spec, samples.size)


def hann_window(size: int) -> np.ndarray:
    # periodic Hann: exact COLA at hop = size/4 and size/2
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(size) / size)


def stft(samples: np.ndarray, window_size: int, hop: int) -> np.ndarray:
    """Hann-windowed one-sided STFT, shape (frames, window_size//2 + 1).

    Frames start at sample 0 with no centering; the trailing partial
    window is dropped.
    """
    if not 1 <= hop <= window_size:
        raise ValueError(f"hop must be in [1, window_size], got {hop}")
    if samples.size < window_size:
        raise ValueError(
            f"signal of {samples.size} samples is shorter than one window ({window_size})"
        )
    frames = np.lib.stride_tricks.sliding_window_view(samples, window_size)[::hop]
    return np.fft.rfft(frames * hann_window(window_size), axis=1)


def _windowed_rfft(samples: np.ndarray, window: np.ndarray, hop: int, scratch: np.ndarray) -> np.ndarray:
    """rfft of the windowed frames, each zero-padded to the width of scratch, whose rows hold them;
    the columns past the window must be zero."""
    frames = np.lib.stride_tricks.sliding_window_view(samples, window.size)[::hop]
    padded = scratch[: frames.shape[0]]
    np.multiply(frames, window, out=padded[:, : window.size])
    return np.fft.rfft(padded, axis=1)


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


def mel_filterbank(sample_rate: int, fft_size: int, mel_bins: int) -> np.ndarray:
    """Triangular HTK-mel filterbank from 0 Hz to Nyquist, shape (mel_bins, fft_size//2 + 1), peak 1."""
    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), mel_bins + 2))
    bin_freqs = np.arange(fft_size // 2 + 1) * (sample_rate / fft_size)
    lower = edges[:-2, None]
    center = edges[1:-1, None]
    upper = edges[2:, None]
    rising = (bin_freqs[None, :] - lower) / (center - lower)
    falling = (upper - bin_freqs[None, :]) / (upper - center)
    return np.clip(np.minimum(rising, falling), 0.0, None)


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def log_mel(waves, frames: int, mel_bins: int = 64) -> np.ndarray:
    """Log mel-energy maps of a block of waveforms, shape (len(waves), frames, mel_bins).

    Each map is |STFT|^2 -> triangular mel filterbank -> log(x + 1e-6) on the
    WINDOW/HOP grid, every windowed frame zero-padded to the next power
    of two for the FFT. A clip with n = 1 + (len - WINDOW) // HOP frames
    is center-cropped to `frames` rows (first kept frame (n - frames) // 2) or
    zero-padded ((frames - n) // 2 rows before it). The block's clips share one frame, power and
    energy buffer, and each multiplies only its own min(n, frames) rows by the filterbank.
    """
    if frames <= 0:
        raise ValueError("frames must be positive")
    fft_size = _next_pow2(WINDOW)
    window = hann_window(WINDOW)
    banks = {}
    out = np.zeros((len(waves), frames, mel_bins))
    padded = np.zeros((frames, fft_size))
    power = np.empty((frames, fft_size // 2 + 1))
    energies = np.empty((frames, mel_bins))
    for row, w in zip(out, waves):
        samples = w.samples
        if samples.size < WINDOW:
            raise ValueError(f"signal of {samples.size} samples is shorter than one window ({WINDOW})")
        n = 1 + (samples.size - WINDOW) // HOP
        if n > frames:
            start = (n - frames) // 2 * HOP
            samples = samples[start : start + (frames - 1) * HOP + WINDOW]
        m = min(n, frames)
        first = (frames - m) // 2
        if w.sample_rate not in banks:
            banks[w.sample_rate] = mel_filterbank(w.sample_rate, fft_size, mel_bins).T
        np.abs(_windowed_rfft(samples, window, HOP, padded), out=power[:m])
        np.square(power[:m], out=power[:m])
        np.matmul(power[:m], banks[w.sample_rate], out=energies[:m])
        energies[:m] += 1e-6
        np.log(energies[:m], out=row[first : first + m])
    if not np.all(np.isfinite(out)):
        raise ValueError("feature map contains non-finite values")
    return out
