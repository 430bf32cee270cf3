"""Deterministic synthetic voice corpus for desk-scale experiments.

"Real" clips are seeded harmonic stacks with vibrato, formant-like band
emphasis and a pink-noise floor. "Fake" clips come from the same
generator with a synthesis artifact applied; the default quantizes
per-frame STFT phase to two levels, which leaves a frame-rate
interference fingerprint similar in spirit to vocoder artifacts.
Every clip is a pure function of (corpus seed, speaker, class, clip).

The harmonic stack sum_h a_h sin(h theta(t) + phi_h) is the imaginary part
of a polynomial in the phasor z(t) = exp(i theta(t)), so a clip makes one
complex exp and then two in-place complex array ops per harmonic (Horner's
rule) instead of one sine per harmonic. The harmonic_jitter fakes detune
every harmonic by its own factor; their harmonics are not powers of one
phasor, so they keep one sine per harmonic.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import Waveform, band_pass, istft, rms, save_wav, stft
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
    """The corpus section of the config plus the seed. It checks no field:
    pipeline.load_config checks every config field before a spec is built."""

    num_speakers: int
    clips_per_speaker: int
    clip_seconds: float
    sample_rate: int
    seed: int
    fake_artifact: str

    @property
    def clip_samples(self) -> int:
        return int(round(self.clip_seconds * self.sample_rate))


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
    harmonics = []  # (amp, detune, phase) of harmonics 1..n_harm, drawn in that order
    for h in range(1, n_harm + 1):
        freq = h * f0
        amp = 1.0 / h
        for center, gain, width in ((voice.formants[0], 3.0, 320.0), (voice.formants[1], 2.0, 520.0)):
            amp *= 1.0 + gain * np.exp(-(((freq - center) / width) ** 2))
        detune = 1.0 + harmonic_jitter * rng.uniform(-1.0, 1.0)
        harmonics.append((amp, detune, rng.uniform(0.0, 2.0 * np.pi)))

    if harmonic_jitter:
        # detuned harmonics are not powers of one phasor: one sine each
        clip = np.zeros(n)
        for h, (amp, detune, phase) in enumerate(harmonics, start=1):
            clip += amp * np.sin(h * detune * base_phase + phase)
    else:
        # sum_h a_h sin(h theta + phi_h) = Im(sum_h c_h z^h), with z = exp(i theta) and
        # c_h = a_h exp(i phi_h), evaluated by Horner's rule as z (c_1 + z (c_2 + ... + z c_H));
        # it moves a render by under 1e-12, far below the PCM16 step of 3.1e-5
        coeffs = [amp * np.exp(1j * phase) for amp, _, phase in harmonics]
        z = np.exp(1j * base_phase)
        acc = np.full(n, coeffs[-1])
        for c in coeffs[-2::-1]:
            acc *= z
            acc += c
        acc *= z
        clip = acc.imag.copy()

    syllable = 0.65 + 0.35 * np.sin(2.0 * np.pi * rng.uniform(2.5, 4.0) * t + rng.uniform(0.0, 2.0 * np.pi))
    clip *= syllable
    fade = min(n // 20, int(0.05 * sr))
    ramp = np.linspace(0.0, 1.0, fade)
    clip[:fade] *= ramp
    clip[n - fade:] *= ramp[::-1]

    clip = clip / np.max(np.abs(clip))
    clip += _NOISE_FLOOR * _pink_noise(rng, n)
    return 0.35 * clip


def _quantize_phase(samples: np.ndarray) -> np.ndarray:
    spec = stft(samples, _ART_WINDOW, _ART_HOP)
    step = 2.0 * np.pi / _PHASE_LEVELS
    phase = np.round(np.angle(spec) / step) * step
    doctored = np.abs(spec) * np.exp(1j * phase)
    return istft(doctored, _ART_WINDOW, _ART_HOP, length=samples.size)


def _synth_clip(spec: CorpusSpec, speaker: int, label: str, clip: int) -> np.ndarray:
    """Render one clip; fakes run the configured artifact and keep the
    pre-artifact RMS so loudness never separates the classes."""
    voice = _speaker_voice(spec.seed, speaker)
    class_idx = LABELS.index(label)
    rng = np.random.default_rng((spec.seed, speaker, class_idx, clip))
    n = spec.clip_samples + 2 * _EDGE_MARGIN

    jitter = 0.018 if (label == FAKE and spec.fake_artifact == "harmonic_jitter") else 0.0
    samples = _render_clip(voice, rng, n, spec.sample_rate, harmonic_jitter=jitter)
    clean = samples[_EDGE_MARGIN : n - _EDGE_MARGIN]

    if label == FAKE and spec.fake_artifact != "harmonic_jitter":
        if spec.fake_artifact == "phase_quantization":
            doctored = _quantize_phase(samples)
        else:
            doctored = band_pass(samples, spec.sample_rate, high_hz=3400.0)
        # compare loudness on the kept region only: the overlap-add edges
        # of a phase-doctored reconstruction are unreliable, which is why
        # they are rendered into the margin and discarded
        doctored = doctored[_EDGE_MARGIN : n - _EDGE_MARGIN]
        return doctored * (rms(clean) / rms(doctored))

    return clean


def _split_of(clip: int, clips_per_speaker: int) -> str:
    n_train = int(clips_per_speaker * 0.6)
    n_val = int(clips_per_speaker * 0.2)
    if clip < n_train:
        return "train"
    if clip < n_train + n_val:
        return "val"
    return "test"


def generate_corpus(spec: CorpusSpec, out_dir, map_fn=map) -> list:
    """Write the train and test WAVs under out_dir; returns their records, which save_manifest writes.

    The indexes _split_of puts in val, which no stage reads, are skipped; every other clip keeps
    its index, file name and seed. Each clip is rendered and saved as one task of
    map_fn(task, clips), which must return results in input order (a pool may run the tasks)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    kept = [c for c in range(spec.clips_per_speaker) if _split_of(c, spec.clips_per_speaker) != "val"]
    clips = []
    for speaker in range(spec.num_speakers):
        (out_dir / f"spk{speaker:02d}").mkdir(exist_ok=True)
        clips += [(speaker, label, clip) for label in LABELS for clip in kept]

    def render(item):
        speaker, label, clip = item
        speaker_id = f"spk{speaker:02d}"
        rel = f"{speaker_id}/{label}_{clip:03d}.wav"
        save_wav(Waveform(_synth_clip(spec, speaker, label, clip), spec.sample_rate), out_dir / rel)
        return ManifestRecord(rel, label, speaker_id, _split_of(clip, spec.clips_per_speaker))

    return list(map_fn(render, clips))


def save_manifest(records, path) -> None:
    lines = [f"{r.path}\t{r.label}\t{r.speaker_id}\t{r.split}" for r in records]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _is_file(path: Path) -> bool:
    try:
        return path.is_file()
    except OSError:  # a name the file system cannot hold, e.g. a component over 255 bytes
        return False


def load_manifest(path, check_paths: bool = True) -> list:
    """Parse and validate a manifest; each error names the file and its 1-based line."""
    path = Path(path)
    root = path.parent
    records = []
    seen = set()
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path} is not UTF-8 text (byte {exc.start})") from exc

    def bad(detail):  # names the line the loop below is at
        return ManifestError(f"{path} line {lineno}: {detail}")

    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split("\t")
        if len(fields) != 4:
            raise bad(f"expected 4 tab-separated fields, got {len(fields)}")
        rel, label, speaker_id, split = fields
        if label not in LABELS:
            raise bad(f"bad label {label!r}")
        if split not in SPLITS:
            raise bad(f"bad split {split!r}")
        if rel in seen:
            raise bad(f"duplicate path {rel!r}")
        if check_paths and not _is_file(root / rel):
            raise bad(f"referenced file missing: {rel}")
        seen.add(rel)
        records.append(ManifestRecord(rel, label, speaker_id, split))
    return records
