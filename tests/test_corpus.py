import hashlib

import numpy as np
import pytest

from voicetrace.audio import load_wav, rms
from voicetrace.corpus import (
    _EDGE_MARGIN,
    CorpusSpec,
    ManifestRecord,
    _render_clip,
    _speaker_voice,
    generate_corpus,
    load_manifest,
    save_manifest,
)
from voicetrace.errors import ManifestError

SMALL = CorpusSpec(num_speakers=3, clips_per_speaker=10, clip_seconds=0.6, seed=11)


def _tree_digest(root):
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_spec_validation():
    with pytest.raises(ValueError):
        CorpusSpec(num_speakers=1)
    with pytest.raises(ValueError):
        CorpusSpec(clips_per_speaker=4)
    with pytest.raises(ValueError):
        CorpusSpec(fake_artifact="gan_vocoder")


def test_generation_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate_corpus(SMALL, a)
    generate_corpus(SMALL, b)
    assert _tree_digest(a) == _tree_digest(b)


def test_seed_changes_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate_corpus(SMALL, a)
    generate_corpus(CorpusSpec(num_speakers=3, clips_per_speaker=10, clip_seconds=0.6, seed=12), b)
    assert _tree_digest(a) != _tree_digest(b)


def test_counts_and_split_arithmetic(tmp_path):
    records = generate_corpus(SMALL, tmp_path)
    # 3 speakers x 10 clips x 2 classes
    assert len(records) == 60
    assert len(list(tmp_path.rglob("*.wav"))) == 60
    by_split = {"train": 0, "val": 0, "test": 0}
    for r in records:
        by_split[r.split] += 1
    assert by_split == {"train": 36, "val": 12, "test": 12}


def test_splits_stratified_per_speaker_and_class(tmp_path):
    records = generate_corpus(SMALL, tmp_path)
    cells = {}
    for r in records:
        cells.setdefault((r.speaker_id, r.label), []).append(r.split)
    for splits in cells.values():
        assert splits.count("train") == 6
        assert splits.count("val") == 2
        assert splits.count("test") == 2


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
    assert checked == 30


def test_loudness_does_not_separate_classes(tmp_path):
    records = generate_corpus(SMALL, tmp_path)
    levels = {"real": [], "fake": []}
    for rec in records:
        levels[rec.label].append(rms(load_wav(tmp_path / rec.path)))
    ratio = np.mean(levels["fake"]) / np.mean(levels["real"])
    assert 0.8 < ratio < 1.25


def test_alternative_artifacts_generate(tmp_path):
    for artifact in ("band_limit", "harmonic_jitter"):
        spec = CorpusSpec(num_speakers=2, clips_per_speaker=5, clip_seconds=0.5,
                          seed=9, fake_artifact=artifact)
        out = tmp_path / artifact
        records = generate_corpus(spec, out)
        assert len(records) == 20
        fakes = [r for r in records if r.label == "fake"]
        w = load_wav(out / fakes[0].path)
        assert np.all(np.isfinite(w.samples))


def test_band_limit_removes_high_band(tmp_path):
    spec = CorpusSpec(num_speakers=2, clips_per_speaker=5, clip_seconds=0.5,
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
    assert "4" in str(exc.value)


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
