import dataclasses
import hashlib
import json

import numpy as np
import pytest

from voicetrace import corpus
from voicetrace.audio import Waveform, load_wav, rms, save_wav
from voicetrace.corpus import (
    _EDGE_MARGIN,
    _NOISE_FLOOR,
    CorpusSpec,
    ManifestRecord,
    _pink_noise,
    _render_clip,
    _speaker_voice,
    _SpeakerVoice,
    generate_corpus,
    load_manifest,
    save_manifest,
)
from voicetrace.errors import ConfigError, ManifestError
from voicetrace.pipeline import load_config

SMALL = CorpusSpec(num_speakers=3, clips_per_speaker=10, clip_seconds=0.6, sample_rate=16000, seed=11,
                   fake_artifact="phase_quantization")


def _tree_digest(root):
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def _load_corpus_config(tmp_path, fields):
    """load_config over a file setting these CorpusSpec fields (seed at the top level)."""
    doc = {"corpus": {k: v for k, v in fields.items() if k != "seed"}}
    if "seed" in fields:
        doc["seed"] = fields["seed"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return load_config(path)


def test_spec_validation(tmp_path):
    with pytest.raises(ValueError):
        _load_corpus_config(tmp_path, {"num_speakers": 1})
    with pytest.raises(ValueError):
        _load_corpus_config(tmp_path, {"clips_per_speaker": 4})
    with pytest.raises(ValueError):
        _load_corpus_config(tmp_path, {"fake_artifact": "gan_vocoder"})


@pytest.mark.parametrize("fields, named", [
    ({"num_speakers": 1}, "corpus.num_speakers"),
    ({"num_speakers": "8"}, "corpus.num_speakers"),
    ({"num_speakers": True}, "corpus.num_speakers"),
    ({"clips_per_speaker": 4}, "corpus.clips_per_speaker"),
    ({"sample_rate": 0}, "corpus.sample_rate"),
    ({"sample_rate": 16000.0}, "corpus.sample_rate"),
    ({"seed": -1}, "seed"),
    ({"clip_seconds": 0}, "corpus.clip_seconds"),
    ({"clip_seconds": -1}, "corpus.clip_seconds"),
    ({"clip_seconds": float("nan")}, "corpus.clip_seconds"),
    ({"clip_seconds": "2"}, "corpus.clip_seconds"),
    ({"fake_artifact": "gan_vocoder"}, "corpus.fake_artifact"),
])
def test_spec_validation_names_the_field(tmp_path, fields, named):
    path = tmp_path / "config.json"
    with pytest.raises(ConfigError) as exc:
        _load_corpus_config(tmp_path, fields)
    assert str(exc.value).startswith(f"{path}: {named} ")


def _reference_render_clip(voice, rng, n, sr, harmonic_jitter=0.0):
    """_render_clip as it was before the Horner sum: one np.sin per harmonic."""
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


# Speaker f0 is drawn from [100, 300] Hz and each clip moves it by up to 6%.
# Seed 34 draws f0 = 94.3 Hz from a 100 Hz voice: 72 harmonics, the most any
# corpus clip has; seed 4 draws 316 Hz from a 300 Hz voice: 21 harmonics.
@pytest.mark.parametrize("voice_f0, rng_seed, harmonics", [(100.0, 34, 72), (300.0, 4, 21)])
def test_horner_render_matches_per_harmonic_sines(voice_f0, rng_seed, harmonics):
    voice = _SpeakerVoice(f0=voice_f0, formants=(700.0, 2300.0), vibrato_hz=5.5, vibrato_depth=0.003)
    f0 = voice_f0 * (1.0 + np.random.default_rng(rng_seed).uniform(-0.06, 0.06))
    assert int(6800.0 / f0) == harmonics
    n = 32000 + 2 * _EDGE_MARGIN
    ours = _render_clip(voice, np.random.default_rng(rng_seed), n, 16000)
    ref = _reference_render_clip(voice, np.random.default_rng(rng_seed), n, 16000)
    assert np.max(np.abs(ours - ref)) <= 1e-11


def test_harmonic_jitter_render_is_the_per_harmonic_sum():
    for speaker in range(3):
        voice = _speaker_voice(5, speaker)
        ours = _render_clip(voice, np.random.default_rng((5, speaker)), 9000, 16000, harmonic_jitter=0.018)
        ref = _reference_render_clip(voice, np.random.default_rng((5, speaker)), 9000, 16000,
                                     harmonic_jitter=0.018)
        assert np.array_equal(ours, ref)


@pytest.mark.parametrize("artifact", ["phase_quantization", "band_limit", "harmonic_jitter"])
def test_corpus_bytes_equal_the_per_harmonic_render(tmp_path, monkeypatch, artifact):
    spec = CorpusSpec(num_speakers=3, clips_per_speaker=5, clip_seconds=0.5, sample_rate=16000, seed=23,
                      fake_artifact=artifact)
    generate_corpus(spec, tmp_path / "horner")
    monkeypatch.setattr(corpus, "_render_clip", _reference_render_clip)
    generate_corpus(spec, tmp_path / "reference")
    assert _tree_digest(tmp_path / "horner") == _tree_digest(tmp_path / "reference")


def test_render_below_20_hz_has_no_fade():
    # at 10 Hz the 50 ms fade rounds to zero samples, so no sample is faded
    voice = _speaker_voice(3, 0)
    clip = _render_clip(voice, np.random.default_rng(0), 2000, 10)
    assert clip.shape == (2000,)
    assert np.all(np.isfinite(clip))
    assert clip[0] != 0.0 and clip[-1] != 0.0


def test_generation_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate_corpus(SMALL, a)
    generate_corpus(SMALL, b)
    assert _tree_digest(a) == _tree_digest(b)


def test_seed_changes_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate_corpus(SMALL, a)
    generate_corpus(dataclasses.replace(SMALL, seed=12), b)
    assert _tree_digest(a) != _tree_digest(b)


def test_counts_and_split_arithmetic(tmp_path):
    records = generate_corpus(SMALL, tmp_path)
    # 3 speakers x 2 classes x 10 clips, of which the 2 in the val block are not rendered
    assert len(records) == 48
    assert len(list(tmp_path.rglob("*.wav"))) == 48
    by_split = {"train": 0, "val": 0, "test": 0}
    for r in records:
        by_split[r.split] += 1
    assert by_split == {"train": 36, "val": 0, "test": 12}


def test_splits_stratified_per_speaker_and_class(tmp_path):
    records = generate_corpus(SMALL, tmp_path)
    cells = {}
    for r in records:
        cells.setdefault((r.speaker_id, r.label), []).append(r.split)
    for splits in cells.values():
        assert splits.count("train") == 6
        assert splits.count("val") == 0
        assert splits.count("test") == 2


def test_no_clip_of_the_val_block_is_written_or_listed(tmp_path):
    generate_corpus(SMALL, tmp_path)
    listed = load_manifest(tmp_path / "manifest.tsv")
    # 10 clips per speaker: indexes 0-5 are train, 6-7 the val block, 8-9 test
    val_block = {f"{label}_{clip:03d}.wav" for label in ("real", "fake") for clip in (6, 7)}
    assert {p.name for p in tmp_path.rglob("*.wav")}.isdisjoint(val_block)
    assert {r.path.split("/")[1] for r in listed}.isdisjoint(val_block)
    assert {int(r.path[-7:-4]) for r in listed} == {0, 1, 2, 3, 4, 5, 8, 9}


def test_every_listed_clip_is_the_render_at_its_own_index(tmp_path):
    # skipping the val block renumbers nothing: each clip keeps the generator of its index
    records = generate_corpus(SMALL, tmp_path / "corpus")
    for rec in records:
        speaker, clip = int(rec.speaker_id[3:]), int(rec.path[-7:-4])
        alone = tmp_path / "alone.wav"
        save_wav(Waveform(corpus._synth_clip(SMALL, speaker, rec.label, clip), SMALL.sample_rate), alone)
        assert (tmp_path / "corpus" / rec.path).read_bytes() == alone.read_bytes(), rec.path


def test_fakes_differ_but_match_loudness(tmp_path):
    # every fake is rescaled to the loudness of its own pre-artifact
    # rendering, so signal level carries no class information
    records = generate_corpus(SMALL, tmp_path)
    sr = SMALL.sample_rate
    n = int(round(SMALL.clip_seconds * sr)) + 2 * _EDGE_MARGIN
    checked = 0
    for rec in records:
        if rec.label != "fake":
            continue
        speaker = int(rec.speaker_id[3:])
        clip = int(rec.path[-7:-4])
        voice = _speaker_voice(SMALL.seed, speaker)
        rng = np.random.default_rng((SMALL.seed, speaker, 1, clip))
        clean = _render_clip(voice, rng, n, sr)[_EDGE_MARGIN : n - _EDGE_MARGIN]
        fake = load_wav(tmp_path / rec.path)
        assert not np.array_equal(clean, fake.samples)
        # PCM16 quantization is the only slack left after the exact rescale
        assert rms(fake) == pytest.approx(float(np.sqrt(np.mean(clean**2))), rel=1e-3)
        checked += 1
    assert checked == 24


def test_loudness_does_not_separate_classes(tmp_path):
    records = generate_corpus(SMALL, tmp_path)
    levels = {"real": [], "fake": []}
    for rec in records:
        levels[rec.label].append(rms(load_wav(tmp_path / rec.path)))
    ratio = np.mean(levels["fake"]) / np.mean(levels["real"])
    assert 0.8 < ratio < 1.25


def test_alternative_artifacts_generate(tmp_path):
    for artifact in ("band_limit", "harmonic_jitter"):
        spec = CorpusSpec(num_speakers=2, clips_per_speaker=5, clip_seconds=0.5, sample_rate=16000,
                          seed=9, fake_artifact=artifact)
        out = tmp_path / artifact
        records = generate_corpus(spec, out)
        assert len(records) == 16
        fakes = [r for r in records if r.label == "fake"]
        w = load_wav(out / fakes[0].path)
        assert np.all(np.isfinite(w.samples))


def test_band_limit_removes_high_band(tmp_path):
    spec = CorpusSpec(num_speakers=2, clips_per_speaker=5, clip_seconds=0.5, sample_rate=16000,
                      seed=9, fake_artifact="band_limit")
    records = generate_corpus(spec, tmp_path)
    fake = next(r for r in records if r.label == "fake")
    w = load_wav(tmp_path / fake.path)
    # taper before the FFT so the abrupt clip boundaries do not leak
    # broadband energy into the band the artifact removed
    tapered = w.samples * np.hanning(len(w))
    spectrum = np.abs(np.fft.rfft(tapered))
    freqs = np.fft.rfftfreq(len(w), 1.0 / w.sample_rate)
    high = spectrum[freqs > 4000].sum()
    low = spectrum[freqs <= 3400].sum()
    assert high < 0.01 * low


def test_manifest_round_trip(tmp_path):
    records = generate_corpus(SMALL, tmp_path)
    manifest = tmp_path / "manifest.tsv"
    assert manifest.exists()
    back = load_manifest(manifest)
    assert back == records


def test_manifest_empty_file_is_valid(tmp_path):
    p = tmp_path / "manifest.tsv"
    p.write_text("")
    assert load_manifest(p) == []


def test_manifest_rejects_case_mismatched_label(tmp_path):
    p = tmp_path / "manifest.tsv"
    p.write_text("a.wav\treal\ts0\ttrain\nb.wav\tFake\ts0\ttrain\n")
    with pytest.raises(ManifestError) as exc:
        load_manifest(p, check_paths=False)
    assert "line 2" in str(exc.value)
    assert "Fake" in str(exc.value)


def test_manifest_rejects_bad_split(tmp_path):
    p = tmp_path / "manifest.tsv"
    p.write_text("a.wav\treal\ts0\tholdout\n")
    with pytest.raises(ManifestError) as exc:
        load_manifest(p, check_paths=False)
    assert "line 1" in str(exc.value)


def test_manifest_rejects_duplicate_path(tmp_path):
    p = tmp_path / "manifest.tsv"
    p.write_text("a.wav\treal\ts0\ttrain\na.wav\tfake\ts0\ttrain\n")
    with pytest.raises(ManifestError) as exc:
        load_manifest(p, check_paths=False)
    assert "line 2" in str(exc.value)
    assert "duplicate" in str(exc.value)


def test_manifest_rejects_wrong_field_count(tmp_path):
    p = tmp_path / "manifest.tsv"
    p.write_text("a.wav\treal\ts0\n")
    with pytest.raises(ManifestError) as exc:
        load_manifest(p, check_paths=False)
    assert str(exc.value) == f"{p} line 1: expected 4 tab-separated fields, got 3"


def test_manifest_checks_referenced_files(tmp_path):
    p = tmp_path / "manifest.tsv"
    p.write_text("ghost.wav\treal\ts0\ttrain\n")
    with pytest.raises(ManifestError) as exc:
        load_manifest(p)
    assert "ghost.wav" in str(exc.value)
    assert load_manifest(p, check_paths=False)[0].path == "ghost.wav"


def test_save_manifest_format(tmp_path):
    p = tmp_path / "m.tsv"
    save_manifest([ManifestRecord("x/y.wav", "fake", "spk01", "val")], p)
    assert p.read_text() == "x/y.wav\tfake\tspk01\tval\n"
