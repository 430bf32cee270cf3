"""Acceptance gate: one test per release criterion, each printing a verdict line.

The end-to-end experiment (criteria 6-8) drives the real CLI at the default
configuration, so this module doubles as a worked example of the pipeline.
"""

import csv
import hashlib
import json
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from voicetrace.audio import Waveform, load_wav, save_wav
from voicetrace.backbone import (
    Conv2d,
    FullyConnected,
    LayerTable,
    NetworkSpec,
    gradient_check as backbone_gradient_check,
    init_weights,
    load_weights,
    save_weights,
)
from voicetrace.cli import main
from voicetrace.corpus import ManifestRecord, load_manifest, save_manifest
from voicetrace.coverage import acn_features, calibrate_thresholds, tkan_features
from voicetrace.detector import (
    gradient_check as detector_gradient_check,
    train_detector,
)
from voicetrace.manipulate import (
    Manipulation,
    apply_manipulation,
    measure_snr,
)
from voicetrace.metrics import average_precision, eer, roc_auc
from voicetrace.nn import TrainConfig

SR = 16000

TINY = {
    "corpus": {"num_speakers": 3, "clips_per_speaker": 10, "clip_seconds": 0.6},
    "frontend": {"mel_bins": 32, "frames": 60},
    "backbone": {"epochs": 2},
    "coverage": {"k": 3},
    "detector": {"epochs": 25},
    "sweep": {
        "resample_offsets": [0],
        "speed_rates": [1.0],
        "pitch_steps": [0],
        "snrs_db": [35],
        "sample_per_class": 2,
    },
}

CHAIN = ("gen-data", "train-backbone", "calibrate", "extract", "train-detector", "eval")


@pytest.fixture
def verdict(capsys):
    def emit(num, name, ok, detail=""):
        tail = f" [{detail}]" if detail else ""
        line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}{tail}"
        with capsys.disabled():
            print(line)
        assert ok, line

    return emit


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept") / "run"
    started = time.perf_counter()
    for stage in CHAIN:
        assert main([stage, "--out", str(out), "--seed", "42"]) == 0, stage
    return out, time.perf_counter() - started


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tree_digest(root):
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_criterion_1_coverage_oracles(verdict):
    started = time.perf_counter()
    rng = np.random.default_rng(401)
    layout = (("conv1", 16), ("conv2", 32), ("fc1", 24), ("fc2", 8))
    layers = [rng.random((50, width)) for _, width in layout]  # the oracles read these, not the table
    block = LayerTable(np.concatenate(layers, axis=1), layout)

    ok = True
    thresholds = calibrate_thresholds(block)
    ok &= thresholds.calibration_size == 50
    for index, values in enumerate(layers):
        total, count = 0.0, 0
        for row in values:
            for value in row:
                total += float(value)
                count += 1
        mean = total / count
        ok &= abs(thresholds.deltas[index][1] - mean) <= 1e-9 * abs(mean)

    got = acn_features(block, thresholds).values
    expected = np.asarray(
        [
            [float(sum(1 for v in values[clip] if float(v) > delta))
             for values, (_, delta) in zip(layers, thresholds.deltas)]
            for clip in range(50)
        ]
    )
    ok &= np.array_equal(got, expected)

    got = tkan_features(block, k=5).values
    expected = np.asarray(
        [
            np.concatenate([sorted(values[clip], reverse=True)[:5] for values in layers])
            for clip in range(50)
        ]
    )
    ok &= np.array_equal(got, expected)

    elapsed = time.perf_counter() - started
    ok &= elapsed < 5.0
    verdict(1, "coverage oracles", ok, f"50-clip block trace, elapsed={elapsed:.2f}s")


def test_criterion_2_gradient_checks(verdict):
    started = time.perf_counter()
    netspec = NetworkSpec(
        [Conv2d(3, 3, 2), Conv2d(4, 2, 1), FullyConnected(6), FullyConnected(3)],
        input_shape=(8, 6, 1),
    )
    weights = init_weights(netspec, seed=5)
    rng = np.random.default_rng(6)
    backbone_err = backbone_gradient_check(netspec, weights, rng.normal(size=(8, 6, 1)), label=1)

    x = np.vstack([rng.normal(-1.0, 0.4, (20, 2)), rng.normal(1.0, 0.4, (20, 2))])
    y = np.concatenate([np.zeros(20, dtype=int), np.ones(20, dtype=int)])
    model = train_detector(
        x, y, TrainConfig(lr=0.05, epochs=10, batch_size=8, seed=3),
        hidden=(4, 3, 3, 2),
    )
    detector_err = detector_gradient_check(model, x[0], label=0)

    elapsed = time.perf_counter() - started
    ok = backbone_err < 1e-4 and detector_err < 1e-4 and elapsed < 60.0
    verdict(2, "gradient checks", ok,
            f"backbone={backbone_err:.2e} detector={detector_err:.2e} elapsed={elapsed:.1f}s")


def _mix_noise(signal, noise, target_snr_db, formula):
    bank = {"noise": noise}
    return apply_manipulation([signal], Manipulation("add_noise", target_snr_db, "noise"), bank, formula)[0]


def _time_stretch(w, rate):
    return apply_manipulation([w], Manipulation("speed", rate))[0]


def test_criterion_3_snr_exactness(verdict):
    rng = np.random.default_rng(77)
    targets = (25.0, 30.0, 35.0, 40.0, 45.0)
    worst = 0.0
    for i in range(100):
        n_signal = int(rng.integers(1200, 4000))
        n_noise = int(rng.integers(300, 6000))
        signal = Waveform(rng.normal(0.0, 0.1, n_signal), SR)
        noise = Waveform(rng.normal(0.0, 0.05, n_noise), SR)
        target = targets[i % len(targets)]
        mixed = _mix_noise(signal, noise, target, formula="paper")
        added = Waveform(mixed.samples - signal.samples, SR)
        measured = measure_snr(signal, added, formula="paper")
        worst = max(worst, abs(measured - target))
    ok = worst <= 0.01
    verdict(3, "SNR exactness", ok, f"100 triples, worst |error|={worst:.2e} dB")


def test_criterion_4_dsp_sanity(verdict):
    t = np.arange(SR) / SR
    tone = Waveform(0.5 * np.sin(2.0 * np.pi * 440.0 * t), SR)

    shifted = apply_manipulation([tone], Manipulation("pitch", 12))[0]
    spectrum = np.abs(np.fft.rfft(shifted.samples * np.hanning(len(shifted))))
    dominant = np.fft.rfftfreq(len(shifted), 1.0 / SR)[int(np.argmax(spectrum))]
    pitch_ok = abs(dominant - 880.0) <= 10.0

    stretched = _time_stretch(tone, 0.5)
    stretch_ok = abs(len(stretched) - 2 * len(tone)) <= 512

    identity_ok = True
    for m in (Manipulation("resample", 0.0), Manipulation("speed", 1.0), Manipulation("pitch", 0.0)):
        out = apply_manipulation([tone], m)[0]
        identity_ok &= np.array_equal(out.samples, tone.samples)
        identity_ok &= out.sample_rate == tone.sample_rate

    ok = pitch_ok and stretch_ok and identity_ok
    verdict(4, "DSP sanity", ok,
            f"+12 semitones -> {dominant:.1f} Hz, 0.5x len {len(tone)}->{len(stretched)}")


def _mann_whitney_auc(labels, scores):
    pos = [s for y, s in zip(labels, scores) if y == 1]
    neg = [s for y, s in zip(labels, scores) if y == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def _prefix_ap(labels, scores):
    pairs = sorted(zip(scores, labels), key=lambda t: -t[0])
    n_pos = sum(y for _, y in pairs)
    ap = 0.0
    prev_recall = 0.0
    i = 0
    while i < len(pairs):
        j = i
        while j < len(pairs) and pairs[j][0] == pairs[i][0]:
            j += 1
        tp = sum(y for _, y in pairs[:j])
        recall = tp / n_pos
        ap += (recall - prev_recall) * (tp / j)
        prev_recall = recall
        i = j
    return ap


def _threshold_sweep_eer(labels, scores):
    """Sweep every distinct threshold, then solve the FPR/FNR crossing."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    points = [(0.0, 1.0)]
    for t in sorted(set(scores), reverse=True):
        pred = scores >= t
        fp = int(np.sum(pred & (labels == 0)))
        fn = int(np.sum(~pred & (labels == 1)))
        points.append((fp / n_neg, fn / n_pos))
    for (f0, g0), (f1, g1) in zip(points, points[1:]):
        d0, d1 = f0 - g0, f1 - g1
        if d0 == 0.0:
            return f0
        if d0 < 0.0 <= d1:
            if d1 == d0:
                return f0
            alpha = -d0 / (d1 - d0)
            return f0 + alpha * (f1 - f0)
    return points[-1][0]


def test_criterion_5_metric_oracles(verdict):
    rng = np.random.default_rng(55)
    worst_auc = worst_eer = 0.0
    ap_exact = True
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 11))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            continue
        # a coarse score grid forces plenty of ties
        scores = rng.choice(np.linspace(0.0, 1.0, 5), size=n)
        worst_auc = max(worst_auc, abs(roc_auc(labels, scores) - _mann_whitney_auc(labels, scores)))
        worst_eer = max(worst_eer, abs(eer(labels, scores) - _threshold_sweep_eer(labels, scores)))
        ap_exact &= average_precision(labels, scores) == _prefix_ap(labels, scores)
        checked += 1
    ok = worst_auc <= 1e-12 and worst_eer <= 1e-9 and ap_exact
    verdict(5, "metric oracles", ok,
            f"200 sets, auc dev={worst_auc:.1e}, eer dev={worst_eer:.1e}, ap exact={ap_exact}")


def test_criterion_6_end_to_end_ordering(full_run, verdict):
    out, elapsed = full_run
    rows = {r["criterion"]: r for r in csv.DictReader((out / "eval_report.csv").read_text(encoding="utf-8").splitlines())}
    acn_auc = float(rows["acn"]["auc"])
    tkan_auc = float(rows["tkan"]["auc"])
    ok = tkan_auc >= 0.95 and acn_auc >= 0.85 and tkan_auc > acn_auc and elapsed <= 600.0
    verdict(6, "end-to-end ordering", ok,
            f"acn auc={acn_auc:.4f} tkan auc={tkan_auc:.4f} elapsed={elapsed:.0f}s")


def test_criterion_7_sweep_completeness_and_identity(full_run, verdict):
    out, _ = full_run
    assert main(["sweep", "--out", str(out), "--seed", "42", "--jobs", "4"]) == 0
    rows = list(csv.DictReader((out / "sweep_report.csv").read_text(encoding="utf-8").splitlines()))
    ok = len(rows) == 152

    identity = (("resample", 0.0), ("speed", 1.0), ("pitch", 0.0))
    baseline = {r["criterion"]: r for r in rows if r["manipulation"] == "none"}
    for criterion in ("acn", "tkan"):
        cells = [r for r in rows if r["criterion"] == criterion and r["manipulation"] != "none"]
        ok &= len(cells) == 75
        kinds = {}
        for r in cells:
            kinds[r["manipulation"].split(":")[0]] = kinds.get(r["manipulation"].split(":")[0], 0) + 1
        ok &= kinds == {"resample": 5, "speed": 5, "pitch": 5, "add_noise": 60}
        for r in cells:
            if (r["manipulation"], float(r["magnitude"])) in identity:
                ref = baseline[criterion]
                for metric in ("acc", "auc", "f1", "ap", "fpr", "fnr", "eer"):
                    ok &= abs(float(r[metric]) - float(ref[metric])) <= 1e-12

    failures = (out / "sweep_failures.csv").read_text().strip().splitlines()
    ok &= failures == ["cell,manipulation,magnitude,error"]
    verdict(7, "sweep completeness and identity", ok,
            f"{len(rows)} rows, failures={len(failures) - 1}")


def test_criterion_8_determinism(full_run, verdict, tmp_path):
    out, _ = full_run
    config_path = tmp_path / "tiny.json"
    config_path.write_text(json.dumps(TINY), encoding="utf-8")

    runs = []
    for jobs, name in ((1, "a"), (3, "b")):
        run_dir = tmp_path / name
        for stage in CHAIN + ("sweep",):
            rc = main([stage, "--config", str(config_path), "--out", str(run_dir),
                       "--seed", "9", "--jobs", str(jobs)])
            assert rc == 0, stage
        runs.append(run_dir)

    ok = True
    for rel in ("eval_report.csv", "backbone.nsw1", "thresholds.json", "traces.csv",
                "features_acn.csv", "features_tkan.csv",
                "detector_acn.nsd1", "detector_tkan.nsd1",
                "sweep_report.csv", "sweep_long.csv", "sweep_failures.csv"):
        ok &= _sha(runs[0] / rel) == _sha(runs[1] / rel)
    ok &= _tree_digest(runs[0] / "corpus") == _tree_digest(runs[1] / "corpus")

    # full-scale spot checks: rerunning stages in place must not move a byte
    before = {rel: _sha(out / rel) for rel in
              ("thresholds.json", "features_acn.csv", "features_tkan.csv", "eval_report.csv")}
    for stage in ("calibrate", "extract", "eval"):
        assert main([stage, "--out", str(out), "--seed", "42", "--jobs", "4"]) == 0
    after = {rel: _sha(out / rel) for rel in before}
    ok &= before == after

    fresh = tmp_path / "fresh"
    assert main(["gen-data", "--out", str(fresh), "--seed", "42"]) == 0
    ok &= _tree_digest(fresh / "corpus") == _tree_digest(out / "corpus")

    verdict(8, "determinism", ok, "tiny chain jobs 1 vs 3, plus full-scale stage reruns")


def test_criterion_9_format_round_trips(verdict, tmp_path):
    rng = np.random.default_rng(90)
    ok = True

    netspec = NetworkSpec(
        [Conv2d(3, 3, 2), FullyConnected(4)], input_shape=(6, 5, 1)
    )
    weights = init_weights(netspec, seed=11)
    save_weights(weights, tmp_path / "w.nsw1")
    loaded = load_weights(tmp_path / "w.nsw1", netspec)
    for key, tensor in weights.tensors.items():
        ok &= np.array_equal(loaded.tensors[key], tensor)
        ok &= loaded.tensors[key].dtype == np.float32

    words = rng.integers(-32768, 32768, 4000)
    wave = Waveform(words / 32768.0, SR)
    save_wav(wave, tmp_path / "a.wav")
    back = load_wav(tmp_path / "a.wav")
    ok &= np.array_equal(back.samples, wave.samples)
    save_wav(back, tmp_path / "b.wav")
    ok &= (tmp_path / "a.wav").read_bytes() == (tmp_path / "b.wav").read_bytes()

    records = [
        ManifestRecord("spk00/real_000.wav", "real", "spk00", "train"),
        ManifestRecord("spk00/fake_000.wav", "fake", "spk00", "val"),
        ManifestRecord("spk01/real_001.wav", "real", "spk01", "test"),
    ]
    save_manifest(records, tmp_path / "manifest.tsv")
    ok &= load_manifest(tmp_path / "manifest.tsv", check_paths=False) == records

    verdict(9, "format round-trips", ok, "nsw1 weights, pcm16 wav, manifest")


def test_the_readme_library_use_block_scores_a_clip_of_the_default_chain(full_run, capsys):
    out, _ = full_run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Library use\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "runs/demo" in block
    exec(compile(block.replace("runs/demo", str(out)), "README.md", "exec"), {})
    printed = capsys.readouterr().out
    match = re.fullmatch(r"Prediction\(score=(\S+), label='(real|fake)'\)\n", printed)
    assert match, printed
    assert 0.0 <= float(match[1]) <= 1.0
