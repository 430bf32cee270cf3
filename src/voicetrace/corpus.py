"""Deterministic synthetic voice corpus for desk-scale experiments.

"Real" clips are seeded harmonic stacks with vibrato, formant-like band
emphasis and a pink-noise floor. "Fake" clips come from the same
generator with a synthesis artifact applied; the default quantizes
per-frame STFT phase to 16 levels, which leaves a frame-rate
interference fingerprint similar in spirit to vocoder artifacts.
Every clip is a pure function of (corpus seed, speaker, class, clip).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import Waveform, istft, save_wav, stft
from .errors import ManifestError

REAL = "real"
FAKE = "fake"
LABELS = (REAL, FAKE)
SPLITS = ("train", "val", "test")

ARTIFACTS = ("phase_quantization", "band_limit", "harmonic_jitter")

# Artifact STFT framing: short frames at 50% overlap, with the phase wheel
# collapsed to two positions, make the overlap-add recombination interfere
# and fill the gaps between harmonics with frame-rate sidebands. The clip
# loudness is re-matched afterwards, so only the spectral texture changes.
_ART_WINDOW = 256
_ART_HOP = 128
_PHASE_LEVELS = 2

# Pink-noise floor of the clean renders, relative to unit harmonic peak.
_NOISE_FLOOR = 0.002

# Both classes are rendered with this many extra samples on each side
# and center-cropped, so the artifact's analysis edges never reach the
# saved clip and cropping treats the classes identically.
_EDGE_MARGIN = 2 * _ART_WINDOW


@dataclass(frozen=True)
class CorpusSpec:
    num_speakers: int = 8
    clips_per_speaker: int = 40
    clip_seconds: float = 2.0
    sample_rate: int = 16000
    seed: int = 42
    fake_artifact: str = "phase_quantization"

    def __post_init__(self):
        if self.num_speakers < 2:
            raise ValueError("need at least two speakers")
        if self.clips_per_speaker < 5:
            raise ValueError("need at least five clips per speaker for a 60/20/20 split")
        if self.fake_artifact not in ARTIFACTS:
            raise ValueError(f"unknown artifact {self.fake_artifact!r}, pick one of {ARTIFACTS}")


@dataclass(frozen=True)
class ManifestRecord:
    path: str
    label: str
    speaker_id: str
    split: str


def _pink_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    spec = np.fft.rfft(rng.standard_normal(n))
    freqs = np.arange(spec.size, dtype=np.float64)
    freqs[0] = 1.0
    pink = np.fft.irfft(spec / np.sqrt(freqs), n)
    return pink / np.max(np.abs(pink))


@dataclass(frozen=True)
class _SpeakerVoice:
    f0: float
    formants: tuple
    vibrato_hz: float
    vibrato_depth: float


def _speaker_voice(seed: int, speaker: int) -> _SpeakerVoice:
    rng = np.random.default_rng((seed, 1000 + speaker))
    return _SpeakerVoice(
        f0=float(rng.uniform(100.0, 300.0)),
        formants=(float(rng.uniform(400.0, 1100.0)), float(rng.uniform(1400.0, 3200.0))),
        vibrato_hz=float(rng.uniform(4.0, 7.0)),
        vibrato_depth=float(rng.uniform(0.001, 0.003)),
    )


def _render_clip(voice: _SpeakerVoice, rng: np.random.Generator, n: int, sr: int,
                 harmonic_jitter: float = 0.0) -> np.ndarray:
    t = np.arange(n) / sr
    f0 = voice.f0 * (1.0 + rng.uniform(-0.06, 0.06))
    vib_phase = rng.uniform(0.0, 2.0 * np.pi)
    inst_f0 = f0 * (1.0 + voice.vibrato_depth * np.sin(2.0 * np.pi * voice.vibrato_hz * t + vib_phase))
    base_phase = 2.0 * np.pi * np.cumsum(inst_f0) / sr

    n_harm = max(3, int(6800.0 / f0))
    clip = np.zeros(n)
    for h in range(1, n_harm + 1):
        freq = h * f0
        amp = 1.0 / h
        for center, gain, width in ((voice.formants[0], 3.0, 320.0), (voice.formants[1], 2.0, 520.0)):
            amp *= 1.0 + gain * np.exp(-(((freq - center) / width) ** 2))
        detune = 1.0 + harmonic_jitter * rng.uniform(-1.0, 1.0)
        clip += amp * np.sin(h * detune * base_phase + rng.uniform(0.0, 2.0 * np.pi))

    syllable = 0.65 + 0.35 * np.sin(2.0 * np.pi * rng.uniform(2.5, 4.0) * t + rng.uniform(0.0, 2.0 * np.pi))
    clip *= syllable
    fade = min(n // 20, int(0.05 * sr))
    ramp = np.linspace(0.0, 1.0, fade)
    clip[:fade] *= ramp
    clip[-fade:] *= ramp[::-1]

    clip = clip / np.max(np.abs(clip))
    clip += _NOISE_FLOOR * _pink_noise(rng, n)
    return 0.35 * clip


def _quantize_phase(samples: np.ndarray, sr: int) -> np.ndarray:
    spec = stft(Waveform(samples, sr), _ART_WINDOW, _ART_HOP)
    step = 2.0 * np.pi / _PHASE_LEVELS
    phase = np.round(np.angle(spec) / step) * step
    doctored = np.abs(spec) * np.exp(1j * phase)
    return istft(doctored, _ART_WINDOW, _ART_HOP, length=samples.size)


def _band_limit(samples: np.ndarray, sr: int, cutoff_hz: float = 3400.0) -> np.ndarray:
    spec = np.fft.rfft(samples)
    freqs = np.fft.rfftfreq(samples.size, 1.0 / sr)
    spec[freqs > cutoff_hz] = 0.0
    return np.fft.irfft(spec, samples.size)


def _synth_clip(spec: CorpusSpec, speaker: int, label: str, clip: int) -> np.ndarray:
    """Render one clip; fakes run the configured artifact and keep the
    pre-artifact RMS so loudness never separates the classes."""
    voice = _speaker_voice(spec.seed, speaker)
    class_idx = LABELS.index(label)
    rng = np.random.default_rng((spec.seed, speaker, class_idx, clip))
    n = int(round(spec.clip_seconds * spec.sample_rate)) + 2 * _EDGE_MARGIN

    jitter = 0.018 if (label == FAKE and spec.fake_artifact == "harmonic_jitter") else 0.0
    samples = _render_clip(voice, rng, n, spec.sample_rate, harmonic_jitter=jitter)
    clean = samples[_EDGE_MARGIN : n - _EDGE_MARGIN]

    if label == FAKE and spec.fake_artifact != "harmonic_jitter":
        if spec.fake_artifact == "phase_quantization":
            doctored = _quantize_phase(samples, spec.sample_rate)
        else:
            doctored = _band_limit(samples, spec.sample_rate)
        # compare loudness on the kept region only: the overlap-add edges
        # of a phase-doctored reconstruction are unreliable, which is why
        # they are rendered into the margin and discarded
        doctored = doctored[_EDGE_MARGIN : n - _EDGE_MARGIN]
        reference_rms = float(np.sqrt(np.mean(clean**2)))
        return doctored * (reference_rms / float(np.sqrt(np.mean(doctored**2))))

    return clean


def _split_of(clip: int, clips_per_speaker: int) -> str:
    n_train = int(clips_per_speaker * 0.6)
    n_val = int(clips_per_speaker * 0.2)
    if clip < n_train:
        return "train"
    if clip < n_train + n_val:
        return "val"
    return "test"


def generate_corpus(spec: CorpusSpec, out_dir) -> list:
    """Write WAVs plus manifest.tsv under out_dir; returns the records."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for speaker in range(spec.num_speakers):
        speaker_id = f"spk{speaker:02d}"
        (out_dir / speaker_id).mkdir(exist_ok=True)
        for label in LABELS:
            for clip in range(spec.clips_per_speaker):
                samples = _synth_clip(spec, speaker, label, clip)
                rel = f"{speaker_id}/{label}_{clip:03d}.wav"
                save_wav(Waveform(samples, spec.sample_rate), out_dir / rel)
                records.append(ManifestRecord(rel, label, speaker_id,
                                              _split_of(clip, spec.clips_per_speaker)))
    save_manifest(records, out_dir / "manifest.tsv")
    return records


def save_manifest(records, path) -> None:
    lines = [f"{r.path}\t{r.label}\t{r.speaker_id}\t{r.split}" for r in records]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def load_manifest(path, check_paths: bool = True) -> list:
    """Parse and validate a manifest; errors carry 1-based line numbers."""
    path = Path(path)
    root = path.parent
    records = []
    seen = set()
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        fields = line.split("\t")
        if len(fields) != 4:
            raise ManifestError(f"expected 4 tab-separated fields, got {len(fields)}", line=lineno)
        rel, label, speaker_id, split = fields
        if label not in LABELS:
            raise ManifestError(f"bad label {label!r}", line=lineno)
        if split not in SPLITS:
            raise ManifestError(f"bad split {split!r}", line=lineno)
        if rel in seen:
            raise ManifestError(f"duplicate path {rel!r}", line=lineno)
        if check_paths and not (root / rel).exists():
            raise ManifestError(f"referenced file missing: {rel}", line=lineno)
        seen.add(rel)
        records.append(ManifestRecord(rel, label, speaker_id, split))
    return records
