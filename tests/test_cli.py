import contextlib
import csv
import dataclasses
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from voicetrace import nsw1, pipeline
from voicetrace.audio import Waveform, load_wav, save_wav
from voicetrace.backbone import WeightStore, load_weights, reference_spec
from voicetrace.cli import main
from voicetrace.corpus import FAKE, REAL, CorpusSpec, ManifestRecord, load_manifest
from voicetrace.coverage import calibrate_thresholds, save_thresholds
from voicetrace.detector import save_detector, train_detector
from voicetrace.errors import ConfigError, StageError
from voicetrace.nn import TrainConfig
from voicetrace.pipeline import config_digest, load_config

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
        "snrs_db": [],
        "sample_per_class": 2,
    },
}

STAGES = ("gen-data", "train-backbone", "calibrate", "extract",
          "train-detector", "eval", "sweep", "export-features")

ARTIFACTS = ("eval_report.csv", "backbone.nsw1", "thresholds.json", "traces.csv",
             "features_acn.csv", "features_tkan.csv",
             "detector_acn.nsd1", "detector_tkan.nsd1",
             "sweep_report.csv", "sweep_long.csv", "sweep_failures.csv",
             "export/traces.csv", "export/features_acn.csv")


def _write_config(dir_path, overrides=None):
    cfg = json.loads(json.dumps(TINY))
    for key, value in (overrides or {}).items():
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    path = dir_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def _run_chain(out_dir, config_path, jobs=1):
    for stage in STAGES:
        rc = main([stage, "--config", str(config_path), "--out", str(out_dir),
                   "--seed", "7", "--jobs", str(jobs)])
        assert rc == 0, f"stage {stage} failed"


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    root = tmp_path_factory.mktemp("chain")
    config_path = _write_config(root)
    out = root / "run"
    _run_chain(out, config_path, jobs=1)
    return out, config_path


def test_chain_writes_all_artifacts(chain):
    out, _ = chain
    for rel in ARTIFACTS:
        assert (out / rel).exists(), rel
    # 3 speakers x 2 classes x 10 clips, less the 2 of each 10 in the unrendered val block
    assert len(list((out / "corpus").rglob("*.wav"))) == 48
    assert len(list((out / "noise").glob("*.wav"))) == 12


def test_eval_report_covers_both_criteria(chain):
    out, _ = chain
    rows = list(csv.DictReader((out / "eval_report.csv").read_text(encoding="utf-8").splitlines()))
    assert [r["criterion"] for r in rows] == ["acn", "tkan"]
    for row in rows:
        assert row["dataset"] == "test"
        assert row["manipulation"] == "none"
        for metric in ("acc", "auc", "f1", "ap", "fpr", "fnr", "eer"):
            assert 0.0 <= float(row[metric]) <= 1.0


def test_sweep_identity_cells_match_baseline_exactly(chain):
    out, _ = chain
    rows = list(csv.DictReader((out / "sweep_report.csv").read_text(encoding="utf-8").splitlines()))
    # 2 baseline rows plus 3 identity cells for each criterion
    assert len(rows) == 8
    baseline = {r["criterion"]: r for r in rows if r["manipulation"] == "none"}
    cells = [r for r in rows if r["manipulation"] != "none"]
    assert len(cells) == 6
    for row in cells:
        ref = baseline[row["criterion"]]
        for metric in ("acc", "auc", "f1", "ap", "fpr", "fnr", "eer"):
            assert row[metric] == ref[metric]
    failures = (out / "sweep_failures.csv").read_text().strip().splitlines()
    assert failures == ["cell,manipulation,magnitude,error"]
    assert not (out / "sweep").exists()


def _wav_tree_digest(root):
    """One SHA-256 over every WAV's relative path and content digest, in path order."""
    tree = hashlib.sha256()
    for path in sorted(root.rglob("*.wav")):
        tree.update(f"{path.relative_to(root).as_posix()}\t{_sha(path)}\n".encode())
    return tree.hexdigest()


def test_rerun_with_more_jobs_is_byte_identical(chain, tmp_path):
    out, config_path = chain
    again = tmp_path / "again"
    _run_chain(again, config_path, jobs=3)
    for rel in (*ARTIFACTS, "corpus/manifest.tsv"):
        assert _sha(out / rel) == _sha(again / rel), rel
    assert _wav_tree_digest(out / "corpus") == _wav_tree_digest(again / "corpus")


DETECTOR_FILES = ("detector_acn.nsd1", "detector_tkan.nsd1", "audit_train_detector.json")


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _within(seconds):
    """Raise TimeoutError in the block if it runs longer than seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_train_detector_writes_the_same_bytes_at_one_and_two_jobs(chain, tmp_path):
    out, config_path = chain
    part = tmp_path / "run"
    shutil.copytree(out, part)
    written = {}
    for jobs in ("1", "2"):
        assert main(["train-detector", "--config", str(config_path), "--out", str(part),
                     "--seed", "7", "--jobs", jobs]) == 0
        written[jobs] = {rel: (part / rel).read_bytes() for rel in DETECTOR_FILES}
    assert written["1"] == written["2"]
    for rel in DETECTOR_FILES[:2]:
        assert written["2"][rel] == (out / rel).read_bytes(), rel


def _fit_pids(chain, tmp_path, monkeypatch, jobs, criterion="both"):
    """Run cmd_train_detector at jobs on a copy of the chain; return {criterion: the pid its fit
    ran in}."""
    out, config_path = chain
    part = tmp_path / "run"
    shutil.copytree(out, part)
    pids = tmp_path / "pids"
    real = pipeline.train_detector

    def recording(*args, criterion="", **kwargs):
        with open(pids, "a", encoding="utf-8") as fh:
            fh.write(f"{criterion} {os.getpid()}\n")
        return real(*args, criterion=criterion, **kwargs)

    monkeypatch.setattr(pipeline, "train_detector", recording)
    cfg = load_config(config_path, seed=7, out_dir=str(part))
    cfg["coverage"]["criterion"] = criterion
    with _within(120):
        models = pipeline.cmd_train_detector(cfg, jobs)
    _assert_no_child_left()
    assert sorted(models) == (["acn", "tkan"] if criterion == "both" else [criterion])
    lines = [line.split() for line in pids.read_text(encoding="utf-8").splitlines()]
    assert len(lines) == len(models)  # one fit per criterion
    return {fitted: int(pid) for fitted, pid in lines}


def test_train_detector_fits_in_children_that_are_gone_when_it_returns(chain, tmp_path, monkeypatch):
    # the stage fits acn itself while one forked child fits tkan
    pids = _fit_pids(chain, tmp_path, monkeypatch, 2)
    assert pids["acn"] == os.getpid() != pids["tkan"]
    with pytest.raises(ProcessLookupError):
        os.kill(pids["tkan"], 0)


@pytest.mark.parametrize("jobs, criterion, fork", [(1, "both", True), (2, "acn", True), (2, "both", False)],
                         ids=["one-job", "one-criterion", "no-fork"])
def test_train_detector_fits_in_its_own_process_at_one_job_one_criterion_or_without_fork(
        chain, tmp_path, monkeypatch, jobs, criterion, fork):
    if not fork:
        monkeypatch.delattr(os, "fork")
    criteria = ["acn", "tkan"] if criterion == "both" else [criterion]
    assert _fit_pids(chain, tmp_path, monkeypatch, jobs, criterion) == dict.fromkeys(criteria, os.getpid())


def _train_detector_in_a_changed_run(chain, tmp_path, monkeypatch, fake, jobs):
    """Run train-detector at jobs with train_detector replaced by fake, on a copy of the chain
    whose config trains other detectors; return (rc, the copy). No child may be left."""
    out, _ = chain
    part = tmp_path / "run"
    shutil.copytree(out, part)
    cfg = _write_config(tmp_path, {"detector.epochs": 3})
    monkeypatch.setattr(pipeline, "train_detector", fake)
    with _within(120):
        rc = main(["train-detector", "--config", str(cfg), "--out", str(part), "--seed", "7",
                   "--jobs", str(jobs)])
    _assert_no_child_left()
    return rc, part


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failed_fit_writes_no_detector_and_no_audit(chain, tmp_path, capsys, monkeypatch, jobs):
    out, _ = chain
    real = pipeline.train_detector

    def tkan_fails(*args, criterion="", **kwargs):
        if criterion == "tkan":
            raise ValueError("boom")
        return real(*args, criterion=criterion, **kwargs)

    if jobs == 1:  # the in-process fit lets the error through
        with pytest.raises(ValueError, match="boom"):
            _train_detector_in_a_changed_run(chain, tmp_path, monkeypatch, tkan_fails, jobs)
        part = tmp_path / "run"
    else:
        rc, part = _train_detector_in_a_changed_run(chain, tmp_path, monkeypatch, tkan_fails, jobs)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("voicetrace: train-detector: the tkan fit failed: ValueError: boom")
        assert "Traceback" not in err
    for rel in DETECTOR_FILES:
        assert (part / rel).read_bytes() == (out / rel).read_bytes(), rel


def test_a_fit_that_fails_in_the_stage_process_raises_as_at_one_job(chain, tmp_path, monkeypatch):
    out, _ = chain
    real = pipeline.train_detector

    def acn_fails(*args, criterion="", **kwargs):
        if criterion == "acn":
            raise ValueError("boom")
        return real(*args, criterion=criterion, **kwargs)

    with pytest.raises(ValueError, match="boom"):
        _train_detector_in_a_changed_run(chain, tmp_path, monkeypatch, acn_fails, 2)
    _assert_no_child_left()  # the tkan child was killed and reaped
    for rel in DETECTOR_FILES:
        assert (tmp_path / "run" / rel).read_bytes() == (out / rel).read_bytes(), rel


def test_a_fit_killed_by_a_signal_exits_2_naming_train_detector(chain, tmp_path, capsys, monkeypatch):
    out, _ = chain
    me, real = os.getpid(), pipeline.train_detector

    def killed_in_a_child(*args, **kwargs):
        if os.getpid() != me:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args, **kwargs)

    rc, part = _train_detector_in_a_changed_run(chain, tmp_path, monkeypatch, killed_in_a_child, 2)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("voicetrace: train-detector: the tkan fit was killed by signal 9 ")
    assert "Traceback" not in err
    for rel in DETECTOR_FILES:
        assert (part / rel).read_bytes() == (out / rel).read_bytes(), rel


def _with_a_nan(store):
    """A copy of store whose fc1.weight holds a NaN."""
    tensors = store.as_float64()
    tensors["fc1.weight"][0, 0] = np.nan
    return WeightStore(tensors)


def test_a_backbone_that_trains_to_a_weight_that_is_not_finite_is_not_saved(chain, tmp_path, capsys,
                                                                           monkeypatch):
    out, config_path = chain
    part = tmp_path / "diverged"
    shutil.copytree(out, part)
    outputs = ("backbone.nsw1", "audit_train_backbone.json")
    for name in outputs:
        (part / name).unlink()
    real = pipeline.train_backbone

    def diverges(*args, **kwargs):
        store, losses = real(*args, **kwargs)
        return _with_a_nan(store), losses

    monkeypatch.setattr(pipeline, "train_backbone", diverges)
    rc = main(["train-backbone", "--config", str(config_path), "--out", str(part), "--seed", "7"])
    assert rc == 2
    assert capsys.readouterr().err == ("voicetrace: train-backbone: the trained backbone's tensor 'fc1.weight' "
                                       "holds a value that is not finite; nothing was saved\n")
    assert not any((part / name).exists() for name in outputs)


def test_a_held_out_clip_that_fails_to_decode_leaves_the_old_backbone(chain, tmp_path, capsys, monkeypatch):
    out, _ = chain
    part = tmp_path / "held_out"
    shutil.copytree(out, part)
    held = [r for r in load_manifest(part / "corpus/manifest.tsv") if r.split == "test" and r.label == REAL]
    clip = part / "corpus" / held[-1].path
    clip.write_bytes(b"RIFF")

    def never(*args, **kwargs):
        raise AssertionError("the backbone was trained before the held-out clips were decoded")

    monkeypatch.setattr(pipeline, "train_backbone", never)  # they decode before the fit
    # a config that would train a backbone of other bytes than the chain's
    config_path = _write_config(tmp_path, {"backbone.epochs": 3})
    rc = main(["train-backbone", "--config", str(config_path), "--out", str(part), "--seed", "7"])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith(f"voicetrace: train-backbone: {clip}: not a RIFF/WAVE file")
    for name in ("backbone.nsw1", "audit_train_backbone.json"):
        assert (part / name).read_bytes() == (out / name).read_bytes(), name


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_detector_that_trains_to_a_weight_that_is_not_finite_saves_no_detector(chain, tmp_path, capsys,
                                                                                monkeypatch, jobs):
    out, _ = chain
    real = pipeline.train_detector

    def tkan_diverges(*args, criterion="", **kwargs):
        model = real(*args, criterion=criterion, **kwargs)
        return dataclasses.replace(model, weights=_with_a_nan(model.weights)) if criterion == "tkan" else model

    rc, part = _train_detector_in_a_changed_run(chain, tmp_path, monkeypatch, tkan_diverges, jobs)
    assert rc == 2
    assert capsys.readouterr().err == ("voicetrace: train-detector: the trained tkan detector's tensor "
                                       "'fc1.weight' holds a value that is not finite; nothing was saved\n")
    for rel in DETECTOR_FILES:  # neither the acn detector, which trained, nor the audit was written
        assert (part / rel).read_bytes() == (out / rel).read_bytes(), rel


def test_export_features_match_extract_output(chain):
    out, _ = chain
    assert (out / "export/features_acn.csv").read_bytes() == (out / "features_acn.csv").read_bytes()
    assert (out / "export/features_tkan.csv").read_bytes() == (out / "features_tkan.csv").read_bytes()
    header = (out / "export/traces.csv").read_text(encoding="utf-8").splitlines()[0].split(",")
    assert header[:2] == ["label", "split"]
    assert len((out / "export/traces.csv").read_text(encoding="utf-8").splitlines()) == 49


def test_extract_and_export_read_the_calibrated_traces_without_tracing(chain, tmp_path, monkeypatch):
    out, config_path = chain
    assert (out / "export/traces.csv").read_bytes() == (out / "traces.csv").read_bytes()
    part = tmp_path / "from_traces"
    shutil.copytree(out, part)
    shutil.rmtree(part / "export")
    for rel in ("features_acn.csv", "features_tkan.csv", "backbone.nsw1"):
        (part / rel).unlink()

    def no_tracing(*args, **kwargs):
        raise AssertionError("a clip was decoded or traced")

    monkeypatch.setattr(pipeline, "load_wav", no_tracing)
    monkeypatch.setattr(pipeline, "forward_batch", no_tracing)
    for stage in ("extract", "export-features"):
        assert main([stage, "--config", str(config_path), "--out", str(part), "--seed", "7"]) == 0, stage
    for rel in ("features_acn.csv", "features_tkan.csv", "export/traces.csv",
                "export/features_acn.csv", "export/features_tkan.csv"):
        assert _sha(part / rel) == _sha(out / rel), rel


def _drop_last_row(text):
    return "".join(text.splitlines(keepends=True)[:-1])


def _swap_two_labels(text):
    lines = text.splitlines(keepends=True)
    real = next(i for i, line in enumerate(lines) if line.startswith("real,"))
    fake = next(i for i, line in enumerate(lines) if line.startswith("fake,"))
    lines[real], lines[fake] = "fake," + lines[real][5:], "real," + lines[fake][5:]
    return "".join(lines)


@pytest.mark.parametrize("damage", [_drop_last_row, _swap_two_labels], ids=["missing-row", "swapped-labels"])
def test_feature_csv_whose_rows_are_not_the_manifests_makes_export_exit_2_naming_extract(chain, tmp_path,
                                                                                       capsys, damage):
    out, config_path = chain
    part = tmp_path / "stale_features"
    shutil.copytree(out, part)
    shutil.rmtree(part / "export")
    csv_path = part / "features_tkan.csv"
    csv_path.write_text(damage(csv_path.read_text(encoding="utf-8")), encoding="utf-8")
    rc = main(["export-features", "--config", str(config_path), "--out", str(part), "--seed", "7"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"voicetrace: export-features: {csv_path} holds ")
    assert err.rstrip().endswith("; rerun the extract stage")
    assert "Traceback" not in err
    assert not (part / "export").exists()


def test_calibrated_thresholds_equal_those_of_the_train_clips_traced_alone(chain, tmp_path):
    # calibrate traces the whole manifest in blocks; a clip's row must not depend on its block
    out, config_path = chain
    cfg = load_config(config_path, seed=7, out_dir=str(out))
    records = load_manifest(out / "corpus/manifest.tsv")
    netspec = pipeline._network_for(records, cfg)
    weights = load_weights(out / "backbone.nsw1", netspec)
    train = [out / "corpus" / r.path for r in records if r.split == "train"]
    assert len(train) < len(records)
    trace = pipeline._trace(pipeline._Stage(cfg, "calibrate"), netspec, weights, train, cfg["frontend"], 1,
                            lambda block: [load_wav(f) for f in block])
    save_thresholds(calibrate_thresholds(trace), tmp_path / "thresholds.json")
    assert (tmp_path / "thresholds.json").read_bytes() == (out / "thresholds.json").read_bytes()


def _drop_last_clip(part, traces):
    """A user manifest without the manifest's last clip; traces.csv still holds that clip."""
    lines = (part / "corpus/manifest.tsv").read_text(encoding="utf-8").splitlines()
    manifest = part / "corpus/user_manifest.tsv"
    manifest.write_text("".join(f"{line}\n" for line in lines[:-1]), encoding="utf-8")
    return {"manifest": str(manifest)}


def _truncate_last_row(part, traces):
    text = traces.read_text(encoding="utf-8")
    last = text.splitlines()[-1]
    traces.write_text(text[: len(text) - 1 - len(last) // 2], encoding="utf-8")
    return {}


def _non_numeric_trace_cell(part, traces):
    traces.write_text(_non_numeric_cell(traces.read_text(encoding="utf-8")), encoding="utf-8")
    return {}


def _rename_a_layer(part, traces):
    traces.write_text(traces.read_text(encoding="utf-8").replace(",conv1.n", ",convX.n"), encoding="utf-8")
    return {}


@pytest.mark.parametrize("damage", [_drop_last_clip, _truncate_last_row, _non_numeric_trace_cell,
                                    _rename_a_layer],
                         ids=["manifest-without-a-clip", "truncated-row", "non-numeric-cell", "other-layers"])
def test_traces_that_do_not_match_the_run_exit_2_naming_calibrate(chain, tmp_path, capsys, damage):
    out, _ = chain
    part = tmp_path / "bad_traces"
    shutil.copytree(out, part)
    cfg = _write_config(tmp_path, damage(part, part / "traces.csv"))
    for stage in ("extract", "export-features"):
        rc = main([stage, "--config", str(cfg), "--out", str(part), "--seed", "7"])
        err = capsys.readouterr().err
        assert rc == 2, stage
        assert err.startswith(f"voicetrace: {stage}: ")
        assert str(part / "traces.csv") in err and "rerun the calibrate stage" in err
        assert "Traceback" not in err


def test_audit_files_record_config_digest_and_hashes(chain):
    out, config_path = chain
    cfg = load_config(config_path, seed=7, out_dir=str(out))
    expected = config_digest(cfg)
    for stage in STAGES:
        audit_path = out / f"audit_{stage.replace('-', '_')}.json"
        assert audit_path.exists(), stage
        audit = json.loads(audit_path.read_text())
        assert audit["stage"] == stage
        assert audit["seed"] == 7
        assert audit["config_sha256"] == expected
        assert "timestamp" not in audit_path.read_text()
    eval_audit = json.loads((out / "audit_eval.json").read_text())
    recorded = eval_audit["outputs"][str(out / "eval_report.csv")]
    assert recorded == _sha(out / "eval_report.csv")


def test_the_config_digest_leaves_out_the_output_directory_and_nothing_else(chain, tmp_path):
    out, config_path = chain
    recorded = json.loads((out / "audit_eval.json").read_text())["config_sha256"]
    moved = load_config(config_path, seed=7, out_dir=str(tmp_path / "moved"))
    assert config_digest(moved) == recorded  # a moved or copied run directory is not stale
    assert config_digest(load_config(config_path, seed=8, out_dir=str(out))) != recorded
    other = _write_config(tmp_path, {"detector.epochs": TINY["detector"]["epochs"] + 1})
    assert config_digest(load_config(other, seed=7, out_dir=str(out))) != recorded


def test_each_audit_lists_exactly_the_files_its_stage_wrote(tmp_path):
    # every file a stage adds or changes, but the corpus clips, which no audit lists, and its own audit
    out = tmp_path / "run"
    config_path = _write_config(tmp_path)
    before = {}
    for stage in STAGES:
        assert main([stage, "--config", str(config_path), "--out", str(out), "--seed", "7", "--jobs", "2"]) == 0
        after = {p: _sha(p) for p in out.rglob("*") if p.is_file()}
        audit_path = out / f"audit_{stage.replace('-', '_')}.json"
        wrote = {p for p, digest in after.items() if before.get(p) != digest and p != audit_path
                 and not (p.suffix == ".wav" and out / "corpus" in p.parents)}
        assert json.loads(audit_path.read_text())["outputs"] == {str(p): after[p] for p in wrote}, stage
        before = after


def test_each_audit_lists_every_input_its_stage_reads(chain):
    out, _ = chain
    manifest, backbone, thresholds = out / "corpus/manifest.tsv", out / "backbone.nsw1", out / "thresholds.json"
    traces = out / "traces.csv"
    features = [out / "features_acn.csv", out / "features_tkan.csv"]
    detectors = [out / "detector_acn.nsd1", out / "detector_tkan.nsd1"]
    noise = sorted((out / "noise").glob("*.wav"))
    assert len(noise) == 12
    expected = {
        "gen-data": [],
        "train-backbone": [manifest],
        "calibrate": [manifest, backbone],
        "extract": [manifest, thresholds, traces],
        "train-detector": features,
        "eval": [*features, *detectors],
        "sweep": [manifest, backbone, thresholds, *detectors, *noise],
        "export-features": [manifest, traces, *features],
    }
    for stage, inputs in expected.items():
        audit = json.loads((out / f"audit_{stage.replace('-', '_')}.json").read_text())
        assert audit["inputs"] == {str(p): _sha(p) for p in inputs}, stage
    sweep = json.loads((out / "audit_sweep.json").read_text())
    assert sorted(sweep["frozen_hashes"]) == sorted(str(p) for p in [backbone, thresholds, *detectors])


def test_extract_without_thresholds_names_calibrate(chain, tmp_path, capsys):
    out, config_path = chain
    part = tmp_path / "partial"
    part.mkdir()
    shutil.copytree(out / "corpus", part / "corpus")
    shutil.copy(out / "backbone.nsw1", part / "backbone.nsw1")
    rc = main(["extract", "--config", str(config_path), "--out", str(part), "--seed", "7"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "calibrate" in err

    # the top-k criterion needs no thresholds, so it runs from the same state once the traces are there
    shutil.copy(out / "traces.csv", part / "traces.csv")
    tkan_cfg = _write_config(tmp_path, {"coverage.criterion": "tkan"})
    rc = main(["extract", "--config", str(tkan_cfg), "--out", str(part), "--seed", "7"])
    assert rc == 0
    assert (part / "features_tkan.csv").exists()
    assert not (part / "features_acn.csv").exists()


def test_truncated_backbone_exits_2_naming_the_stage(chain, tmp_path, capsys):
    out, config_path = chain
    part = tmp_path / "truncated"
    part.mkdir()
    shutil.copytree(out / "corpus", part / "corpus")
    raw = (out / "backbone.nsw1").read_bytes()
    (part / "backbone.nsw1").write_bytes(raw[: len(raw) // 2])
    rc = main(["calibrate", "--config", str(config_path), "--out", str(part), "--seed", "7"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("voicetrace: calibrate: ")
    assert str(part / "backbone.nsw1") in err and "truncated" in err
    assert "rerun the train-backbone stage" in err


@pytest.mark.parametrize("stage, name, producer", [("calibrate", "backbone.nsw1", "train-backbone"),
                                                   ("extract", "traces.csv", "calibrate")])
def test_a_directory_where_an_input_belongs_exits_2_naming_its_producer(chain, tmp_path, capsys,
                                                                        stage, name, producer):
    out, config_path = chain
    part = tmp_path / "run"
    shutil.copytree(out, part)
    (part / name).unlink()
    (part / name).mkdir()
    rc = main([stage, "--config", str(config_path), "--out", str(part), "--seed", "7"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"voicetrace: {stage}: {part / name} is not a file; rerun the {producer} stage")
    assert "Traceback" not in err


def test_empty_manifest_exits_2_naming_gen_data(chain, tmp_path, capsys):
    out, config_path = chain
    part = tmp_path / "empty_manifest"
    part.mkdir()
    shutil.copytree(out / "corpus", part / "corpus")
    shutil.copy(out / "backbone.nsw1", part / "backbone.nsw1")
    manifest = part / "corpus" / "manifest.tsv"
    manifest.write_bytes(b"")
    rc = main(["calibrate", "--config", str(config_path), "--out", str(part), "--seed", "7"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"voicetrace: calibrate: {manifest} lists no clips; rerun the gen-data stage")
    assert "Traceback" not in err


@pytest.mark.parametrize("stage", ["eval", "sweep"])
def test_truncated_detector_exits_2_naming_train_detector(chain, tmp_path, capsys, stage):
    out, config_path = chain
    part = tmp_path / "truncated"
    shutil.copytree(out, part)
    detector = part / "detector_acn.nsd1"
    detector.write_bytes(detector.read_bytes()[:38])
    rc = main([stage, "--config", str(config_path), "--out", str(part), "--seed", "7"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"voicetrace: {stage}: {detector}: truncated at byte ")
    assert err.rstrip().endswith("; rerun the train-detector stage")


def test_malformed_manifest_line_exits_2_naming_gen_data(chain, tmp_path, capsys):
    out, config_path = chain
    part = tmp_path / "bad_manifest"
    shutil.copytree(out, part)
    manifest = part / "corpus" / "manifest.tsv"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    manifest.write_text("".join(f"{line}\n" for line in lines) + "spk00/real_000.wav\treal\n",
                        encoding="utf-8")
    for stage in ("train-backbone", "calibrate", "extract", "sweep", "export-features"):
        rc = main([stage, "--config", str(config_path), "--out", str(part), "--seed", "7"])
        err = capsys.readouterr().err
        assert rc == 2, stage
        assert err.startswith(f"voicetrace: {stage}: {manifest} line {len(lines) + 1}: "
                              f"expected 4 tab-separated fields, got 2; rerun the gen-data stage")
        assert "Traceback" not in err


@pytest.mark.parametrize("content", [
    b'{"thresholds": []}',
    b"[]",
    b"\x00\xff not json",
    b'{"calibration_size": 4, "thresholds": [["conv1", "high"]]}',
], ids=["empty-thresholds", "top-level-list", "not-json", "non-numeric-delta"])
def test_malformed_thresholds_exit_2_naming_calibrate(chain, tmp_path, capsys, content):
    out, config_path = chain
    part = tmp_path / "bad_thresholds"
    part.mkdir()
    shutil.copytree(out / "corpus", part / "corpus")
    shutil.copy(out / "backbone.nsw1", part / "backbone.nsw1")
    (part / "thresholds.json").write_bytes(content)
    rc = main(["extract", "--config", str(config_path), "--out", str(part), "--seed", "7"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("voicetrace: extract: ")
    assert "rerun the calibrate stage" in err


def test_thresholds_for_other_layers_exit_2_naming_calibrate(chain, tmp_path, capsys):
    out, config_path = chain
    part = tmp_path / "other_layers"
    part.mkdir()
    shutil.copytree(out / "corpus", part / "corpus")
    shutil.copy(out / "backbone.nsw1", part / "backbone.nsw1")
    doc = json.loads((out / "thresholds.json").read_text(encoding="utf-8"))
    assert doc["thresholds"][0][0] == "conv1"
    doc["thresholds"][0][0] = "convX"
    (part / "thresholds.json").write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["extract", "--config", str(config_path), "--out", str(part), "--seed", "7"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("voicetrace: extract: ")
    assert "'convX'" in err and "rerun the calibrate stage" in err
    assert not (part / "features_acn.csv").exists()


@pytest.mark.parametrize("stage", ["calibrate", "train-backbone", "sweep"])
def test_clip_shorter_than_one_window_exits_2_naming_the_file(chain, tmp_path, capsys, stage):
    out, config_path = chain
    part = tmp_path / "short_clip"
    shutil.copytree(out, part)
    # a real test clip: train-backbone's held-out check and the sweep sample both read it
    record = next(r for r in load_manifest(part / "corpus" / "manifest.tsv")
                  if r.split == "test" and r.label == REAL)
    clip = part / "corpus" / record.path
    save_wav(Waveform(np.zeros(100), load_wav(clip).sample_rate), clip)
    rc = main([stage, "--config", str(config_path), "--out", str(part), "--seed", "7"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"voicetrace: {stage}: ")
    assert str(clip) in err and "100 samples" in err
    assert "Traceback" not in err


def _non_numeric_cell(text):
    lines = text.splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",abc"
    return "\n".join(lines) + "\n"


def _ragged_row(text):
    lines = text.splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]
    return "\n".join(lines) + "\n"


def _bad_header(text):
    return text.replace("label,split,", "label,fold,", 1)


@pytest.mark.parametrize("damage", [_non_numeric_cell, _ragged_row, lambda text: "", _bad_header],
                         ids=["non-numeric-cell", "ragged-row", "empty-file", "bad-header"])
def test_malformed_feature_csv_exits_2_naming_extract(chain, tmp_path, capsys, damage):
    out, config_path = chain
    part = tmp_path / "bad_features"
    shutil.copytree(out, part)
    csv_path = part / "features_tkan.csv"
    csv_path.write_text(damage(csv_path.read_text(encoding="utf-8")), encoding="utf-8")
    for stage in ("train-detector", "eval"):
        rc = main([stage, "--config", str(config_path), "--out", str(part), "--seed", "7"])
        err = capsys.readouterr().err
        assert rc == 2, stage
        assert err.startswith(f"voicetrace: {stage}: ")
        assert "features_tkan.csv" in err and "rerun the extract stage" in err


def test_detector_trained_at_another_k_exits_2_naming_train_detector(chain, tmp_path, capsys):
    out, config_path = chain
    part = tmp_path / "stale"
    shutil.copytree(out, part)
    # a TKAN detector for 6 layers x k=5 features, left behind for this k=3 run
    feats = np.random.default_rng(0).standard_normal((20, 30))
    stale = train_detector(feats, np.array([0, 1] * 10), TrainConfig(epochs=1, seed=0, lr=1e-4),
                           criterion="tkan", k=5)
    save_detector(stale, part / "detector_tkan.nsd1")
    for stage in ("eval", "sweep"):
        rc = main([stage, "--config", str(config_path), "--out", str(part), "--seed", "7"])
        err = capsys.readouterr().err
        assert rc == 2, stage
        assert err.startswith(f"voicetrace: {stage}: ")
        assert "k=5 on 30 features" in err and "k=3 on 18" in err
        assert "rerun the train-detector stage" in err


def test_sweep_failure_with_comma_stays_one_csv_field(chain, tmp_path, monkeypatch):
    out, _ = chain
    part = tmp_path / "failing"
    shutil.copytree(out, part)
    config_path = _write_config(tmp_path, {"sweep.speed_rates": [1.1]})  # an identity cell calls nothing
    real = pipeline.apply_manipulation

    def failing(waves, m, *args, **kwargs):
        if m.kind == "speed":
            raise ValueError("a, b")
        return real(waves, m, *args, **kwargs)

    monkeypatch.setattr(pipeline, "apply_manipulation", failing)
    rc = main(["sweep", "--config", str(config_path), "--out", str(part), "--seed", "7"])
    assert rc == 0
    with open(part / "sweep_failures.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["cell", "manipulation", "magnitude", "error"],
                    ["1", "speed", "1.1", "ValueError: a, b"]]


def test_a_noise_id_with_a_comma_stays_one_field_of_sweep_long(chain, tmp_path):
    out, _ = chain
    part = tmp_path / "comma"
    shutil.copytree(out, part)
    (part / "noise" / "outdoor_rain.wav").rename(part / "noise" / "outdoor_rain,heavy.wav")
    config_path = _write_config(tmp_path, {"sweep.snrs_db": [45]})  # no mix clips at 45 dB
    rc = main(["sweep", "--config", str(config_path), "--out", str(part), "--seed", "7"])
    assert rc == 0
    with open(part / "sweep_long.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["dataset", "criterion", "manipulation", "magnitude", "metric", "value"]
    # the baseline, 3 identity cells and 12 noise cells, for 2 criteria and 7 metrics
    assert len(rows) == 1 + 16 * 2 * 7
    assert all(len(row) == 6 for row in rows)
    named = [row for row in rows if row[2] == "add_noise:outdoor_rain,heavy"]
    assert len(named) == 2 * 7
    with open(part / "sweep_report.csv", newline="", encoding="utf-8") as fh:
        report = list(csv.DictReader(fh))
    assert sum(r["manipulation"] == "add_noise:outdoor_rain,heavy" for r in report) == 2


@pytest.mark.parametrize("wave, refusal", [
    (Waveform(np.zeros(0), 16000), "noise of 0 samples, none of them nonzero, so no SNR can be set"),
    (Waveform(np.zeros(1600), 16000), "noise of 1600 samples, none of them nonzero, so no SNR can be set"),
    (None, "not a RIFF/WAVE file"),
    # one sample at 48 kHz rounds to none at the 16 kHz working rate
    (Waveform(np.full(1, 0.5), 48000),
     "noise of 1 samples at 48000 Hz: resampling ratio leaves no output samples"),
], ids=["empty", "silent", "undecodable", "no-sample-at-the-working-rate"])
def test_an_empty_silent_or_undecodable_noise_wav_exits_2_writing_no_report(chain, tmp_path, capsys,
                                                                           wave, refusal):
    out, _ = chain
    part = tmp_path / "run"
    shutil.copytree(out, part)
    for name in (*SWEEP_FILES, "audit_sweep.json"):
        (part / name).unlink()
    bad = part / "noise" / "outdoor_rain.wav"
    if wave is None:
        bad.write_bytes(b"RIFF")
    else:
        save_wav(wave, bad)
    config_path = _write_config(tmp_path, {"sweep.snrs_db": [30]})
    rc = main(["sweep", "--config", str(config_path), "--out", str(part), "--seed", "7"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"voicetrace: sweep: {bad}: {refusal}")
    assert err.endswith("; rerun the gen-data stage\n")
    assert "Traceback" not in err
    assert not any((part / name).exists() for name in (*SWEEP_FILES, "audit_sweep.json"))


def test_sweep_decodes_each_sampled_clip_once_and_shares_it_read_only(chain, tmp_path, monkeypatch):
    out, _ = chain
    part = tmp_path / "shared"
    shutil.copytree(out, part)
    # cells 0-4: resample 0, speed 0.9, 1.0, 1.1, pitch 0; at two jobs the child holds 1 and 3
    config_path = _write_config(tmp_path, {"sweep.speed_rates": [0.9, 1.0, 1.1]})
    calls = tmp_path / "calls"  # one line per call, from whichever process made it
    loaded, first = [], []  # first: this process's arrays in its first manipulation call
    real_load, real_apply = pipeline.load_wav, pipeline.apply_manipulation

    def counting_load(path):
        loaded.append(real_load(path))
        with open(calls, "a", encoding="utf-8") as fh:
            fh.write(f"load {os.getpid()} {path}\n")
        return loaded[-1]

    def recording_apply(waves, m, *args, **kwargs):
        samples = [w.samples for w in waves]
        first[:] = first or samples
        shared = len(samples) == len(first) and all(a is b for a, b in zip(samples, first))
        read_only = not any(a.flags.writeable for a in samples)
        addresses = ",".join(str(a.__array_interface__["data"][0]) for a in samples)
        with open(calls, "a", encoding="utf-8") as fh:
            fh.write(f"apply {os.getpid()} {m.describe()}:{m.magnitude!r} {shared} {read_only} {addresses}\n")
        return real_apply(waves, m, *args, **kwargs)

    monkeypatch.setattr(pipeline, "load_wav", counting_load)
    monkeypatch.setattr(pipeline, "apply_manipulation", recording_apply)
    with _within(120):
        rc = main(["sweep", "--config", str(config_path), "--out", str(part), "--seed", "7", "--jobs", "2"])
    _assert_no_child_left()
    assert rc == 0
    lines = [line.split() for line in calls.read_text(encoding="utf-8").splitlines()]
    loads = [line[1:] for line in lines if line[0] == "load"]
    applies = [line[1:] for line in lines if line[0] == "apply"]
    sampled = 2 * TINY["sweep"]["sample_per_class"]
    assert len(loaded) == len(loads) == len({path for _, path in loads}) == sampled
    assert {int(pid) for pid, _ in loads} == {os.getpid()}  # decoded once, before the fork
    # one call per non-identity cell, both in the one child, each on the arrays decoded here
    assert sorted(cell for _, cell, *_ in applies) == ["speed:0.9", "speed:1.1"]
    assert len({pid for pid, *_ in applies}) == 1 and int(applies[0][0]) != os.getpid()
    decoded = ",".join(str(w.samples.__array_interface__["data"][0]) for w in loaded)
    assert all(rest == ["True", "True", decoded] for _, _, *rest in applies)


SWEEP_FILES = ("sweep_report.csv", "sweep_long.csv", "sweep_failures.csv")


@pytest.mark.parametrize("jobs, fork", [(2, True), (3, True), (2, False)], ids=["two-jobs", "three-jobs",
                                                                              "two-jobs-no-fork"])
def test_a_sweep_in_forked_workers_writes_the_bytes_of_one_job(chain, tmp_path, monkeypatch, jobs, fork):
    out, _ = chain
    # 17 cells: resample 0, speed 0.9, 1.0, 1.1, pitch 0, and 12 noise textures at 40 dB
    config_path = _write_config(tmp_path, {"sweep.speed_rates": [0.9, 1.0, 1.1], "sweep.snrs_db": [40]})
    written = {}
    for run_jobs in (1, jobs):
        part = tmp_path / f"jobs{run_jobs}"
        shutil.copytree(out, part)
        if run_jobs > 1 and not fork:
            monkeypatch.delattr(os, "fork")
        with _within(120):
            rc = main(["sweep", "--config", str(config_path), "--out", str(part), "--seed", "7",
                       "--jobs", str(run_jobs)])
        _assert_no_child_left()
        assert rc == 0
        written[run_jobs] = {name: (part / name).read_bytes() for name in SWEEP_FILES}
    assert written[1] == written[jobs]
    assert written[1]["sweep_failures.csv"] == b"cell,manipulation,magnitude,error\n"
    assert len(written[1]["sweep_report.csv"].decode().splitlines()) == 1 + 2 * (1 + 17)


def test_a_frozen_model_that_changes_during_the_sweep_leaves_no_report(chain, tmp_path, capsys, monkeypatch):
    out, config_path = chain
    part = tmp_path / "changed"
    shutil.copytree(out, part)
    for name in (*SWEEP_FILES, "audit_sweep.json"):
        (part / name).unlink()
    calls, real = [], pipeline.score_batch

    def changes_the_acn_detector(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:  # the first cell's, after the baseline's two
            with open(part / "detector_acn.nsd1", "ab") as fh:
                fh.write(b"\0")
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "score_batch", changes_the_acn_detector)
    rc = main(["sweep", "--config", str(config_path), "--out", str(part), "--seed", "7", "--jobs", "1"])
    assert rc == 2
    assert capsys.readouterr().err == "voicetrace: sweep: frozen model artifacts changed during the sweep\n"
    assert not any((part / name).exists() for name in (*SWEEP_FILES, "audit_sweep.json"))


def test_a_cell_that_raises_in_a_sweep_worker_is_a_failure_row(chain, tmp_path, monkeypatch):
    out, _ = chain
    part = tmp_path / "failing"
    shutil.copytree(out, part)
    config_path = _write_config(tmp_path, {"sweep.speed_rates": [1.1]})  # cell 1, the child's
    me, real = os.getpid(), pipeline.apply_manipulation

    def failing_in_a_child(waves, m, *args, **kwargs):
        if os.getpid() != me:
            raise ValueError(f"{m.kind} in a worker")
        return real(waves, m, *args, **kwargs)

    monkeypatch.setattr(pipeline, "apply_manipulation", failing_in_a_child)
    with _within(120):
        rc = main(["sweep", "--config", str(config_path), "--out", str(part), "--seed", "7", "--jobs", "2"])
    _assert_no_child_left()
    assert rc == 0
    with open(part / "sweep_failures.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["cell", "manipulation", "magnitude", "error"],
                    ["1", "speed", "1.1", "ValueError: speed in a worker"]]


def test_a_sweep_worker_killed_by_a_signal_exits_2_naming_the_sweep(chain, tmp_path, capsys, monkeypatch):
    out, _ = chain
    part = tmp_path / "killed"
    shutil.copytree(out, part)
    for name in (*SWEEP_FILES, "audit_sweep.json"):
        (part / name).unlink()
    config_path = _write_config(tmp_path, {"sweep.speed_rates": [1.1]})
    me, real = os.getpid(), pipeline.apply_manipulation

    def killed_in_a_child(*args, **kwargs):
        if os.getpid() != me:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "apply_manipulation", killed_in_a_child)
    with _within(120):
        rc = main(["sweep", "--config", str(config_path), "--out", str(part), "--seed", "7", "--jobs", "2"])
    _assert_no_child_left()
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("voicetrace: sweep: the worker for cells 1 was killed by signal 9 ")
    assert "Traceback" not in err
    assert not any((part / name).exists() for name in (*SWEEP_FILES, "audit_sweep.json"))


def test_an_exception_in_the_stage_processes_cells_kills_and_reaps_the_sweep_workers(chain, tmp_path,
                                                                                     monkeypatch):
    out, _ = chain
    part = tmp_path / "interrupted"
    shutil.copytree(out, part)
    # cells 0-4: resample 0, speed 0.9, 1.1, 1.2, pitch 0; at three jobs the stage holds 0 and 3
    config_path = _write_config(tmp_path, {"sweep.speed_rates": [0.9, 1.1, 1.2]})
    me = os.getpid()

    class Interrupted(BaseException):  # escapes the cell's isolation, as a KeyboardInterrupt would
        pass

    def stalls_in_a_child_and_raises_here(*args, **kwargs):
        if os.getpid() != me:
            time.sleep(600)
        raise Interrupted

    monkeypatch.setattr(pipeline, "apply_manipulation", stalls_in_a_child_and_raises_here)
    with _within(60), pytest.raises(Interrupted):
        main(["sweep", "--config", str(config_path), "--out", str(part), "--seed", "7", "--jobs", "3"])
    _assert_no_child_left()  # both stalled workers were killed, then reaped


_STAGE_THAT_STALLS = """
import os, sys, time
from voicetrace import pipeline

def work(item):
    if item == 0:  # the stage's own item
        time.sleep(600)
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        fh.write(str(os.getpid()))
    time.sleep(1)
    return bytes(1 << 20)  # more than a pipe holds

pipeline._map_in_children(None, work, [0, 1], 2, str)
"""


def _alive(pid):
    """Whether pid runs; a zombie, which no parent may reap here, counts as gone."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


_STAGE_AND_WORKER_THAT_STALL = """
import os, sys, time
from voicetrace import pipeline

def work(item):
    if item == 1:  # the worker's item
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            fh.write(str(os.getpid()))
    time.sleep(600)

pipeline._map_in_children(None, work, [0, 1], 2, str)
"""


def _kill_the_stage_once_its_worker_runs(script, tmp_path):
    """Run script as a stage, SIGKILL it once its worker wrote its pid file, and return that pid."""
    pid_file = tmp_path / "worker"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(pipeline.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    stage = subprocess.Popen([sys.executable, "-c", script, str(pid_file)], env=env)
    try:
        deadline = time.monotonic() + 60
        while not (pid_file.exists() and pid_file.read_text(encoding="utf-8")):
            assert time.monotonic() < deadline, "the worker never started"
            time.sleep(0.05)
        return int(pid_file.read_text(encoding="utf-8"))
    finally:
        stage.kill()
        stage.wait(timeout=60)


def _gone_within(pid, seconds):
    """Whether pid is gone within seconds; a pid still running then is killed."""
    deadline = time.monotonic() + seconds
    while _alive(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    running = _alive(pid)
    if running:
        os.kill(pid, signal.SIGKILL)
    return not running


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_a_worker_whose_stage_was_killed_exits_instead_of_blocking_on_its_send(tmp_path):
    worker = _kill_the_stage_once_its_worker_runs(_STAGE_THAT_STALLS, tmp_path)
    # no process holds the read end of its pipe, so the send fails if nothing killed it first
    assert _gone_within(worker, 30)


@pytest.mark.skipif(not sys.platform.startswith("linux") or not Path("/proc/self/stat").exists(),
                    reason="the kernel kills a worker with its stage on Linux; reads /proc")
def test_a_worker_dies_with_its_killed_stage_while_its_own_item_still_runs(tmp_path):
    worker = _kill_the_stage_once_its_worker_runs(_STAGE_AND_WORKER_THAT_STALL, tmp_path)
    assert _gone_within(worker, 5)


@pytest.mark.parametrize("stage, outputs", [("calibrate", ("traces.csv", "thresholds.json", "audit_calibrate.json")),
                                             ("sweep", (*SWEEP_FILES, "audit_sweep.json"))])
def test_a_backbone_that_is_not_finite_exits_2_naming_train_backbone(chain, tmp_path, capsys, stage, outputs):
    out, config_path = chain
    part = tmp_path / "nan_backbone"
    shutil.copytree(out, part)
    for name in outputs:
        (part / name).unlink(missing_ok=True)
    tensors = nsw1.read_tensor_stream((part / "backbone.nsw1").read_bytes())
    tensors = {name: tensor.copy() for name, tensor in tensors.items()}
    tensors["fc1.weight"][0, 0] = np.nan
    (part / "backbone.nsw1").write_bytes(nsw1.pack_tensors(tensors))
    rc = main([stage, "--config", str(config_path), "--out", str(part), "--seed", "7"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"voicetrace: {stage}: {part / 'backbone.nsw1'}: tensor 'fc1.weight' ")
    assert err.rstrip().endswith("; rerun the train-backbone stage")
    assert not any((part / name).exists() for name in outputs)


@pytest.mark.parametrize("stage, outputs, traced", [
    ("calibrate", ("traces.csv", "thresholds.json", "audit_calibrate.json"), lambda r: True),
    ("train-backbone", ("backbone.nsw1", "audit_train_backbone.json"),
     lambda r: r.split == "train" and r.label == REAL),
], ids=["calibrate", "train-backbone"])
def test_a_clip_that_fails_to_decode_in_a_worker_exits_2_as_at_one_job(chain, tmp_path, capsys, stage, outputs,
                                                                        traced):
    out, config_path = chain
    part = tmp_path / "damaged_clip"
    shutil.copytree(out, part)
    for name in outputs:
        (part / name).unlink()
    # the first clip of the stage's second block of clips, which a forked worker decodes at two jobs
    record = [r for r in load_manifest(part / "corpus/manifest.tsv") if traced(r)][pipeline._TRACE_BLOCK]
    clip = part / "corpus" / record.path
    clip.write_bytes(b"RIFF")
    ran = []
    for jobs in ("1", "2"):
        rc = main([stage, "--config", str(config_path), "--out", str(part), "--seed", "7", "--jobs", jobs])
        ran.append((rc, capsys.readouterr().err))
    assert ran[0] == ran[1]
    rc, err = ran[1]
    assert rc == 2 and err.startswith(f"voicetrace: {stage}: {clip}: ") and err.count("\n") == 1
    assert err.endswith("; rerun the gen-data stage\n")
    assert not any((part / name).exists() for name in outputs)
    _assert_no_child_left()


def test_of_two_clips_that_fail_to_decode_the_first_in_manifest_order_is_named_at_any_jobs(chain, tmp_path,
                                                                                           capsys):
    out, config_path = chain
    part = tmp_path / "damaged_clips"
    shutil.copytree(out, part)
    outputs = ("traces.csv", "thresholds.json", "audit_calibrate.json")
    for name in outputs:
        (part / name).unlink()
    # the first clips of the second and third of the three clip blocks: at two jobs a forked worker
    # decodes the second, and the stage the first and the third
    records = load_manifest(part / "corpus/manifest.tsv")
    first, second = (part / "corpus" / records[block * pipeline._TRACE_BLOCK].path for block in (1, 2))
    for clip in (first, second):
        clip.write_bytes(b"RIFF")
    ran = []
    for jobs in ("1", "2", "3"):
        rc = main(["calibrate", "--config", str(config_path), "--out", str(part), "--seed", "7", "--jobs", jobs])
        ran.append((rc, capsys.readouterr().err))
        _assert_no_child_left()
    assert ran[0] == ran[1] == ran[2]
    rc, err = ran[0]
    assert rc == 2 and err.startswith(f"voicetrace: calibrate: {first}: ") and err.count("\n") == 1
    assert not any((part / name).exists() for name in outputs)


def _shards(held):
    return "the shard of items " + ", ".join(map(str, held))


@pytest.mark.parametrize("failing, raised, match", [
    ({1, 2}, StageError, "the shard of items 1, 3 failed: ValueError: item 1$"),  # a worker's item first
    ({2, 3}, ValueError, "^item 2$"),  # the stage's second item before the worker's second
], ids=["worker-first", "stage-first"])
def test_the_failure_of_the_lowest_item_is_raised_whichever_shard_meets_it(tmp_path, failing, raised, match):
    stage = pipeline._Stage(load_config(out_dir=tmp_path), "calibrate")

    def work(item):
        if item in failing:
            raise ValueError(f"item {item}")
        return item

    with pytest.raises(ValueError, match=f"^item {min(failing)}$"):  # one job meets the lowest first
        pipeline._map_in_children(stage, work, [0, 1, 2, 3], 1, _shards)
    with _within(60), pytest.raises(raised, match=match):
        pipeline._map_in_children(stage, work, [0, 1, 2, 3], 2, _shards)
    _assert_no_child_left()


def test_a_failure_at_the_first_item_is_raised_without_waiting_for_the_workers():
    me = os.getpid()

    def work(item):
        if os.getpid() != me:
            time.sleep(600)
        raise ValueError(f"item {item}")

    with _within(60), pytest.raises(ValueError, match="^item 0$"):
        pipeline._map_in_children(None, work, [0, 1, 2], 3, _shards)
    _assert_no_child_left()  # both stalled workers were killed, then reaped


def test_gen_data_writes_under_its_output_directory_and_leaves_a_configured_bank_and_manifest_alone(tmp_path):
    bank = tmp_path / "bank"
    bank.mkdir()
    user_wav = bank / "indoor_breathing.wav"  # a name gen-data's own bank also writes
    save_wav(Waveform(np.linspace(-0.5, 0.5, 4000), 16000), user_wav)
    before = user_wav.read_bytes()
    manifest = tmp_path / "mine.tsv"
    manifest.write_text("the user's manifest\n", encoding="utf-8")
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, {"noise_bank": str(bank), "manifest": str(manifest)})
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(bank.iterdir()) == [user_wav] and user_wav.read_bytes() == before
    assert manifest.read_text(encoding="utf-8") == "the user's manifest\n"
    # no later stage would read a corpus or bank of its own, so none is written: no corpus/, no noise/
    assert sorted(out.iterdir()) == [out / "audit_gen_data.json"]
    audit = json.loads((out / "audit_gen_data.json").read_text())
    assert (audit["outputs"], audit["clips"], audit["noise_classes"]) == ({}, 0, [])


@pytest.mark.parametrize("configured, written", [("manifest", "noise"), ("noise_bank", "corpus")])
def test_gen_data_writes_only_the_corpus_or_bank_that_the_config_does_not_name(tmp_path, configured, written):
    user = tmp_path / "mine"
    user.mkdir()  # gen-data reads neither, so it need not hold a valid manifest or bank
    out, default = tmp_path / "run", tmp_path / "default"
    for run, overrides in ((out, {configured: str(user)}), (default, {})):
        assert main(["gen-data", "--config", str(_write_config(tmp_path, overrides)), "--out", str(run)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(["audit_gen_data.json", written])
    assert not any(user.iterdir())
    tree = {p.relative_to(out): p.read_bytes() for p in (out / written).rglob("*") if p.is_file()}
    assert tree == {p.relative_to(default): p.read_bytes() for p in (default / written).rglob("*") if p.is_file()}
    audit, full = (json.loads((run / "audit_gen_data.json").read_text()) for run in (out, default))
    assert audit["outputs"] == {str(out / Path(p).relative_to(default)): digest
                                for p, digest in full["outputs"].items() if default / written in Path(p).parents}
    assert len(audit["outputs"]) == (12 if written == "noise" else 1)  # the bank, or the manifest but no clip
    assert audit["clips"] == (full["clips"] if written == "corpus" else 0)
    assert audit["noise_classes"] == (full["noise_classes"] if written == "noise" else [])


def test_a_clip_path_that_cannot_be_written_in_a_gen_data_worker_exits_2_as_at_one_job(tmp_path, capsys):
    out = tmp_path / "run"
    # gen-data renders spk00's clips first, real then fake; at two jobs a worker renders the odd ones
    blocker = out / "corpus" / "spk00" / f"{REAL}_001.wav"
    blocker.mkdir(parents=True)
    ran = []
    for jobs in ("1", "2"):
        rc = main(["gen-data", "--config", str(_write_config(tmp_path)), "--out", str(out), "--jobs", jobs])
        ran.append((rc, capsys.readouterr().err))
    assert ran[0] == ran[1]
    rc, err = ran[1]
    assert rc == 2 and err.startswith(f"voicetrace: gen-data: cannot write {blocker}: ") and err.count("\n") == 1
    assert not (out / "corpus" / "manifest.tsv").exists() and not (out / "audit_gen_data.json").exists()
    _assert_no_child_left()


def test_sweep_identity_cells_reuse_the_baseline_rows_without_manipulating(chain, tmp_path, monkeypatch):
    out, config_path = chain
    part = tmp_path / "identity"
    shutil.copytree(out, part)
    calls = []
    monkeypatch.setattr(pipeline, "apply_manipulation", lambda *args, **kwargs: calls.append(args))
    rc = main(["sweep", "--config", str(config_path), "--out", str(part), "--seed", "7"])
    assert rc == 0 and calls == []
    rows = list(csv.reader((part / "sweep_report.csv").read_text(encoding="utf-8").splitlines()))[1:]
    baseline = {r[1]: r[4:] for r in rows if r[2] == "none"}
    cells = [r for r in rows if r[2] != "none"]
    assert sorted((r[2], r[3]) for r in cells) == sorted(2 * [("resample", "0.0"), ("speed", "1.0"),
                                                              ("pitch", "0.0")])
    assert len(baseline) == 2 and all(r[4:] == baseline[r[1]] for r in cells)
    assert (part / "sweep_report.csv").read_bytes() == (out / "sweep_report.csv").read_bytes()


def _run_with_manifest_without(chain, tmp_path, drop):
    """A copy of the chain's run, a user manifest without the records drop picks, and its config."""
    out, _ = chain
    part = tmp_path / "run"
    shutil.copytree(out, part)
    lines = (part / "corpus" / "manifest.tsv").read_text(encoding="utf-8").splitlines()
    manifest = part / "corpus" / "user_manifest.tsv"
    manifest.write_text("".join(f"{line}\n" for line in lines if not drop(ManifestRecord(*line.split("\t")))),
                        encoding="utf-8")
    return part, manifest, _write_config(tmp_path, {"manifest": str(manifest)})


@pytest.mark.parametrize("drop, stages", [
    (lambda r: r.label == FAKE and r.split == "test", ["eval", "sweep"]),
    (lambda r: r.label == FAKE and r.split == "train", ["train-detector"]),
    (lambda r: r.split == "train" and r.speaker_id != "spk00", ["train-backbone"]),
], ids=["no-fake-test-clips", "no-fake-train-clips", "one-train-speaker"])
def test_a_split_that_lacks_a_class_exits_2_naming_the_manifest(chain, tmp_path, capsys, drop, stages):
    part, manifest, cfg = _run_with_manifest_without(chain, tmp_path, drop)
    # the traces, and the feature CSVs that train-detector and eval read, follow the manifest
    for stage in ("calibrate", "extract"):
        assert main([stage, "--config", str(cfg), "--out", str(part), "--seed", "7"]) == 0
    capsys.readouterr()
    for stage in stages:
        rc = main([stage, "--config", str(cfg), "--out", str(part), "--seed", "7"])
        err = capsys.readouterr().err
        assert rc == 2, stage
        assert err.startswith(f"voicetrace: {stage}: ")
        assert str(manifest) in err and "needs at least two; fix the manifest" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("files", [[], ["notes.txt"]], ids=["empty-directory", "no-wav-files"])
def test_noise_bank_without_wav_files_exits_2(chain, tmp_path, capsys, files):
    out, _ = chain
    part = tmp_path / "run"
    shutil.copytree(out, part)
    bank = tmp_path / "bank"
    bank.mkdir()
    for name in files:
        (bank / name).write_text("not audio", encoding="utf-8")
    cfg = _write_config(tmp_path, {"noise_bank": str(bank)})
    rc = main(["sweep", "--config", str(cfg), "--out", str(part), "--seed", "7"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"voicetrace: sweep: missing noise bank {bank} ")
    assert "Traceback" not in err


def _undecodable_bank_wav(path, part):
    path.mkdir(parents=True)
    (path / "rain.wav").write_bytes(b"RIFF")


def _undecodable_clip_under_manifest(path, part):
    """part's corpus, listed by a manifest at path, with the first clip of its second block, which a
    forked worker decodes at two jobs, cut to 4 bytes; returns that clip."""
    shutil.copytree(part / "corpus", path.parent)
    (path.parent / "manifest.tsv").rename(path)
    clip = path.parent / load_manifest(path)[pipeline._TRACE_BLOCK].path
    clip.write_bytes(b"RIFF")
    return clip


# a configured input, missing or bad, is named with its config field, since gen-data never writes there;
# make(path, run directory) returns the file {bad} names
@pytest.mark.parametrize("field, stage, jobs, make, refusal", [
    ("manifest", "calibrate", "1", lambda path, part: None, "missing {path}"),
    ("noise_bank", "sweep", "1", lambda path, part: path.mkdir(parents=True),
     "missing noise bank {path} (no *.wav files)"),
    ("noise_bank", "sweep", "1", lambda path, part: (path / "rain.wav").mkdir(parents=True),
     "{path}/rain.wav is not a file"),
    ("noise_bank", "sweep", "1", _undecodable_bank_wav, "{path}/rain.wav: not a RIFF/WAVE file"),
    ("manifest", "calibrate", "1", _undecodable_clip_under_manifest, "{bad}: not a RIFF/WAVE file"),
    ("manifest", "calibrate", "2", _undecodable_clip_under_manifest, "{bad}: not a RIFF/WAVE file"),
], ids=["missing-manifest", "empty-bank", "directory-in-bank", "undecodable-bank-wav",
        "undecodable-clip-1-job", "undecodable-clip-2-jobs"])
def test_a_configured_input_that_is_missing_names_its_config_field_not_gen_data(chain, tmp_path, capsys, field,
                                                                                stage, jobs, make, refusal):
    out, _ = chain
    part = tmp_path / "run"
    shutil.copytree(out, part)
    path = tmp_path / "nowhere" / field
    bad = make(path, part)
    cfg = _write_config(tmp_path, {field: str(path)})
    rc = main([stage, "--config", str(cfg), "--out", str(part), "--seed", "7", "--jobs", jobs])
    assert rc == 2
    assert capsys.readouterr().err == (f"voicetrace: {stage}: {refusal.format(path=path, bad=bad)}; "
                                       f"fix the config's {field} field or what it names\n")
    _assert_no_child_left()


def test_single_criterion_run_reports_only_that_criterion(chain, tmp_path):
    out, _ = chain
    part = tmp_path / "acn_only"
    part.mkdir()
    shutil.copytree(out / "corpus", part / "corpus")
    shutil.copy(out / "backbone.nsw1", part / "backbone.nsw1")
    shutil.copy(out / "thresholds.json", part / "thresholds.json")
    shutil.copy(out / "traces.csv", part / "traces.csv")
    cfg = _write_config(tmp_path, {"coverage.criterion": "acn"})
    for stage in ("extract", "train-detector", "eval"):
        assert main([stage, "--config", str(cfg), "--out", str(part), "--seed", "7"]) == 0
    rows = list(csv.DictReader((part / "eval_report.csv").read_text(encoding="utf-8").splitlines()))
    assert [r["criterion"] for r in rows] == ["acn"]
    assert not (part / "features_tkan.csv").exists()


def test_eval_before_extract_exits_2(tmp_path, capsys):
    config_path = _write_config(tmp_path)
    rc = main(["eval", "--config", str(config_path), "--out", str(tmp_path / "empty")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "extract" in err


def test_unknown_config_field_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"detecto": {"epochs": 5}}', encoding="utf-8")
    rc = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error" in err
    assert "detecto" in err


# a removed field stays listed: an old config that sets it must be refused by name
_REMOVED_FIELDS = {"coverage.normalize_acn": False, "coverage.calibration_classes": "real",
                   "frontend.window": 400, "frontend.hop": 160, "backbone.lr": 0.01,
                   "backbone.momentum": 0.9, "backbone.batch_size": 32, "detector.lr": 3e-4,
                   "detector.momentum": 0.9, "detector.decay": 1e-6, "detector.batch_size": 32}


@pytest.mark.parametrize("field", _REMOVED_FIELDS)
def test_a_config_that_sets_a_removed_field_exits_2(tmp_path, capsys, field):
    config_path = _write_config(tmp_path, {field: _REMOVED_FIELDS[field]})
    rc = main(["gen-data", "--config", str(config_path), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"unknown field '{field}'" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("user_value", [None, "2"], ids=["unset", "set-by-the-user"])
def test_the_cli_pins_blas_to_one_thread_unless_the_user_set_a_count(user_value):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(pipeline.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    if user_value is not None:
        env["OPENBLAS_NUM_THREADS"] = user_value
    shown = subprocess.run([sys.executable, "-c", "import voicetrace.cli, os; "
                            "print(os.environ['OPENBLAS_NUM_THREADS'])"],
                           env=env, capture_output=True, text=True, check=True, timeout=120).stdout
    assert shown == f"{user_value or 1}\n"


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_exits_2_naming_the_flag(tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exited:
        main(["gen-data", "--out", str(tmp_path / "run"), "--jobs", jobs])
    err = capsys.readouterr().err
    assert exited.value.code == 2
    assert "--jobs" in err and f"must be at least 1, got {jobs}" in err
    assert not (tmp_path / "run").exists()


def test_the_readme_smaller_experiment_config_fits_its_network(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("A smaller experiment, for example:", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "config.json"
    path.write_text(block, encoding="utf-8")
    cfg = load_config(path)
    spec = reference_spec(cfg["corpus"]["num_speakers"],
                          (cfg["frontend"]["frames"], cfg["frontend"]["mel_bins"], 1))
    assert cfg["coverage"]["k"] <= min(width for _, _, width in spec.monitored_layers())


def test_invalid_json_config_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"corpus": ', encoding="utf-8")
    rc = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "invalid JSON" in err


@pytest.mark.parametrize("content", [b"\xff\xfe", b"[" * 100_000], ids=["not-utf8", "deeply-nested"])
def test_config_that_is_no_json_text_exits_2_naming_the_file(tmp_path, capsys, content):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    rc = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"voicetrace: config error: {path}: invalid JSON")
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["a-regular-file", "beneath-a-regular-file"])
def test_gen_data_out_that_cannot_be_a_directory_exits_2_naming_it(tmp_path, capsys, below):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory", encoding="utf-8")
    out = blocker / below if below else blocker
    rc = main(["gen-data", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"voicetrace: gen-data: cannot create the output directory {out}: ")
    assert "Traceback" not in err
    assert blocker.read_text(encoding="utf-8") == "not a directory"


@pytest.mark.parametrize("name", ["corpus", "noise"])
def test_gen_data_into_a_regular_file_named_corpus_or_noise_exits_2_naming_it(tmp_path, capsys, name):
    out = tmp_path / "run"
    out.mkdir()
    blocker = out / name
    blocker.write_text("not a directory", encoding="utf-8")
    rc = main(["gen-data", "--config", str(_write_config(tmp_path)), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"voicetrace: gen-data: cannot write {blocker}: ")
    assert "Traceback" not in err
    assert blocker.read_text(encoding="utf-8") == "not a directory"


def test_bad_criterion_value_exits_2(tmp_path, capsys):
    config_path = _write_config(tmp_path, {"coverage.criterion": "acorn"})
    rc = main(["gen-data", "--config", str(config_path), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "acorn" in err


@pytest.mark.parametrize("overrides, flags, named", [
    ({"corpus.num_speakers": 1}, [], "corpus.num_speakers"),
    ({"corpus.clips_per_speaker": 2}, [], "corpus.clips_per_speaker"),
    ({"corpus.fake_artifact": "nope"}, [], "corpus.fake_artifact"),
    ({"corpus.num_speakers": "8"}, [], "corpus.num_speakers"),
    ({"corpus.sample_rate": 0}, [], "corpus.sample_rate"),
    ({"corpus.clip_seconds": -1}, [], "corpus.clip_seconds"),
    ({"seed": -1}, [], "seed"),
    ({}, ["--seed", "-1"], "seed"),
    ({"corpus.clip_seconds": 0}, [], "corpus.clip_seconds"),
    # 0.02 s is 320 samples at 16 kHz, shorter than the 400-sample window
    ({"corpus.clip_seconds": 0.02}, [], "corpus.clip_seconds"),
    ({"corpus.clip_seconds": 1e305}, [], "corpus.clip_seconds"),
    # fields that passed gen-data and then crashed a later stage (the first two are removed now,
    # and refused as unknown)
    ({"frontend.hop": 0}, [], "frontend.hop"),
    ({"backbone.batch_size": 0}, [], "backbone.batch_size"),
    ({"frontend.frames": 10}, [], "frontend.frames"),
    ({"coverage.k": "5"}, [], "coverage.k"),
    # a WAV's byte rate and sizes are u32: a 3 s float32 noise texture takes 12 bytes per Hz, and
    # 2,147,483,630 16-bit samples are 36 bytes too many
    ({"corpus.sample_rate": 2_500_000_000, "corpus.clip_seconds": 1e-6}, [], "corpus.sample_rate"),
    ({"corpus.sample_rate": 357_913_939}, [], "corpus.sample_rate"),
    ({"corpus.clip_seconds": 1e6}, [], "corpus.clip_seconds"),
    ({"corpus.clip_seconds": 134_217.726875}, [], "corpus.clip_seconds"),
])
def test_bad_corpus_config_exits_2_naming_the_field(tmp_path, capsys, monkeypatch, overrides, flags, named):
    def rendering(*args, **kwargs):
        raise AssertionError("gen-data ran on a config that load_config should refuse")

    monkeypatch.setattr(pipeline, "generate_corpus", rendering)  # some of these values would exhaust memory
    config_path = _write_config(tmp_path, overrides)
    rc = main(["gen-data", "--config", str(config_path), "--out", str(tmp_path / "run"), *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert named in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("field, values", [("pitch_steps", [-2, 2.7]), ("pitch_steps", [0.5]),
                                           ("resample_offsets", [200.9, 400])])
def test_a_fractional_pitch_step_or_resample_offset_exits_2_before_gen_data(tmp_path, capsys, monkeypatch,
                                                                           field, values):
    def rendering(*args, **kwargs):
        raise AssertionError("gen-data ran on a config that load_config should refuse")

    monkeypatch.setattr(pipeline, "generate_corpus", rendering)
    config_path = _write_config(tmp_path, {f"sweep.{field}": values})
    rc = main(["gen-data", "--config", str(config_path), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"voicetrace: config error: sweep.{field} must hold whole numbers")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("rates", [[0.0, 1.2], [0.9, -0.5]])
def test_a_speed_rate_of_zero_or_below_exits_2_before_gen_data(tmp_path, capsys, monkeypatch, rates):
    def rendering(*args, **kwargs):
        raise AssertionError("gen-data ran on a config that load_config should refuse")

    monkeypatch.setattr(pipeline, "generate_corpus", rendering)
    config_path = _write_config(tmp_path, {"sweep.speed_rates": rates})
    rc = main(["gen-data", "--config", str(config_path), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("voicetrace: config error: sweep.speed_rates must hold rates > 0, got ")
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_whole_valued_floats_and_fractional_speeds_and_snrs_load(tmp_path):
    sweep = {"pitch_steps": [-2.0, 3], "resample_offsets": [-200.0], "speed_rates": [0.85],
             "snrs_db": [27.5]}
    cfg = load_config(_write_config(tmp_path, {f"sweep.{k}": v for k, v in sweep.items()}))
    assert {k: cfg["sweep"][k] for k in sweep} == sweep
    assert [m.magnitude for m in pipeline.sweep_cells(cfg, ["hum"])] == [-200.0, 0.85, -2.0, 3.0, 27.5]


@pytest.mark.parametrize("corpus", [{"sample_rate": 357_913_938}, {"clip_seconds": 134_217.7268125}],
                         ids=["noise-bank-wavs", "clips"])
def test_a_config_at_the_largest_wav_size_loads(tmp_path, corpus):
    # 12 bytes per Hz, or 2,147,483,629 16-bit samples, leave exactly the 36 header bytes
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"corpus": corpus}), encoding="utf-8")
    assert load_config(path)["corpus"] == {**pipeline.DEFAULT_CONFIG["corpus"], **corpus}


@pytest.mark.parametrize("stage, blocked", [("export-features", "export"), ("eval", "eval_report.csv"),
                                            ("extract", "features_acn.csv")])
def test_an_output_that_cannot_be_written_exits_2_naming_it(chain, tmp_path, capsys, stage, blocked):
    out, config_path = chain
    part = tmp_path / "run"
    shutil.copytree(out, part)
    target = part / blocked
    if target.is_dir():  # a regular file where a directory belongs
        shutil.rmtree(target)
        target.write_text("not a directory", encoding="utf-8")
    else:  # a directory where a file belongs
        target.unlink()
        target.mkdir()
    rc = main([stage, "--config", str(config_path), "--out", str(part), "--seed", "7"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"voicetrace: {stage}: {target}: ")
    assert "Traceback" not in err


def _leaves(node, trail=""):
    for key, value in node.items():
        where = f"{trail}.{key}" if trail else key
        yield from _leaves(value, where) if isinstance(value, dict) else [where]


def _of_default_type(value, default):
    if isinstance(default, (bool, str, list)) or isinstance(value, bool):
        return type(value) is type(default)
    if isinstance(default, int):
        return isinstance(value, int)
    return isinstance(value, (int, float)) and value == value  # a float field takes any finite number


@pytest.mark.parametrize("value", ["x", 0, -1, float("nan"), [], True, None, 1.5], ids=repr)
@pytest.mark.parametrize("field", [*_leaves(pipeline.DEFAULT_CONFIG), *_REMOVED_FIELDS])
def test_every_config_field_is_loaded_or_refused_by_name(tmp_path, field, value):
    node = doc = {}
    default = pipeline.DEFAULT_CONFIG
    parts = field.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        default = default[part]
    node[parts[-1]] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        cfg = load_config(path)
    except ConfigError as exc:
        assert field in str(exc)
    else:
        assert _of_default_type(value, default[parts[-1]]), "a value of the wrong type was accepted"
        assert cfg == pipeline._merge(pipeline.DEFAULT_CONFIG, doc)  # stored as given


def test_every_field_limit_names_a_config_leaf():
    # a removed knob must not leave its bound behind
    assert set(pipeline._LIMITS) <= set(_leaves(pipeline.DEFAULT_CONFIG))


@pytest.mark.parametrize("section, spec", [("corpus", CorpusSpec), ("backbone", TrainConfig),
                                           ("detector", TrainConfig)])
def test_each_config_section_holds_its_dataclass_fields_but_seed(section, spec):
    # the stages build each as spec(**cfg[section], seed=cfg["seed"]); a field the config sets
    # has its default in DEFAULT_CONFIG alone, and every other field keeps the dataclass's
    required = sorted(f.name for f in dataclasses.fields(spec) if f.default is dataclasses.MISSING)
    assert sorted([*pipeline.DEFAULT_CONFIG[section], "seed"]) == required


@pytest.mark.parametrize("stage", ["extract", "export-features"])
def test_k_above_the_narrowest_layer_exits_2_before_tracing(chain, tmp_path, capsys, monkeypatch, stage):
    out, _ = chain
    part = tmp_path / "run"
    part.mkdir()
    shutil.copytree(out / "corpus", part / "corpus")
    shutil.copy(out / "backbone.nsw1", part / "backbone.nsw1")
    shutil.copy(out / "thresholds.json", part / "thresholds.json")
    shutil.copy(out / "traces.csv", part / "traces.csv")
    # three speakers give the logit layer three neurons, fewer than k=5; with a user manifest
    # load_config cannot know the speakers, so each stage that reads them refuses k
    cfg = _write_config(tmp_path, {"coverage.k": 5, "manifest": str(part / "corpus" / "manifest.tsv")})
    monkeypatch.setattr(pipeline, "load_wav", None)  # any traced clip would raise
    if stage == "extract":
        monkeypatch.setattr(pipeline, "read_feature_csv", None)  # so would reading traces.csv
    rc = main([stage, "--config", str(cfg), "--out", str(part), "--seed", "7"])
    err = capsys.readouterr().err
    assert rc == 2
    if stage == "extract":
        assert "coverage.k" in err
    else:  # export-features computes no features: it copies extract's, and there are none yet
        assert err.startswith(f"voicetrace: {stage}: missing {part / 'features_acn.csv'}; "
                              f"run the extract stage first")
    assert "Traceback" not in err
    assert sorted(p.name for p in part.iterdir()) == ["backbone.nsw1", "corpus", "thresholds.json",
                                                      "traces.csv"]

    acn_only = _write_config(tmp_path, {"coverage.k": 5, "coverage.criterion": "acn"})
    monkeypatch.undo()
    for run in dict.fromkeys(["extract", stage]):
        assert main([run, "--config", str(acn_only), "--out", str(part), "--seed", "7"]) == 0, run


def test_k_above_a_user_manifests_speakers_exits_2_at_train_backbone(chain, tmp_path, capsys):
    out, _ = chain
    part = tmp_path / "run"
    part.mkdir()
    shutil.copytree(out / "corpus", part / "corpus")
    # the user manifest names three speakers, so the logit layer has three neurons, fewer than k=5
    cfg = _write_config(tmp_path, {"coverage.k": 5, "manifest": str(part / "corpus" / "manifest.tsv")})
    rc = main(["train-backbone", "--config", str(cfg), "--out", str(part), "--seed", "7"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("voicetrace: config error: coverage.k 5 exceeds the 3 neurons of the "
                          "narrowest monitored layer")
    assert sorted(p.name for p in part.iterdir()) == ["corpus"]

    acn_only = _write_config(tmp_path, {"coverage.k": 5, "coverage.criterion": "acn",
                                        "manifest": str(part / "corpus" / "manifest.tsv")})
    assert main(["train-backbone", "--config", str(acn_only), "--out", str(part), "--seed", "7"]) == 0
    assert (part / "backbone.nsw1").read_bytes() == (out / "backbone.nsw1").read_bytes()


@pytest.mark.parametrize("criterion", ["tkan", "both"])
def test_k_above_the_speaker_count_exits_2_at_gen_data_writing_nothing(tmp_path, capsys, criterion):
    # three speakers give the logit layer three neurons, fewer than k=4
    cfg = _write_config(tmp_path, {"coverage.k": 4, "coverage.criterion": criterion})
    rc = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("voicetrace: config error: coverage.k 4 exceeds the 3 neurons of the "
                          "narrowest monitored layer")
    assert not (tmp_path / "run").exists()
    acn_only = _write_config(tmp_path, {"coverage.k": 4, "coverage.criterion": "acn"})
    assert main(["gen-data", "--config", str(acn_only), "--out", str(tmp_path / "run")]) == 0


@pytest.mark.parametrize("per_class", [1, 2, 3, 4, 5])
def test_sweep_sample_takes_each_class_round_robin_over_speakers(per_class):
    # three speakers with two test clips per class, listed speaker by speaker but not in id order
    records = [ManifestRecord(f"spk{s:02d}/{label}_{c:03d}.wav", label, f"spk{s:02d}", split)
               for s in (2, 0, 1) for label in (REAL, FAKE)
               for c, split in enumerate(("train", "test", "test", "val"))]
    sample = pipeline._sample_records(records, per_class)
    assert sample == [r for r in records if r in sample]  # manifest order
    for label in (REAL, FAKE):
        picked = [r for r in sample if r.label == label]
        assert len({r.speaker_id for r in picked}) == min(per_class, 3)
        round_robin = [f"spk{s:02d}/{label}_{c:03d}.wav" for c in (1, 2) for s in (0, 1, 2)]
        assert {r.path for r in picked} == set(round_robin[:per_class])


def test_seed_flag_changes_generated_bytes(tmp_path, capsys):
    config_path = _write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-data", "--config", str(config_path), "--out", str(a), "--seed", "1"]) == 0
    assert capsys.readouterr().out.strip() == f"gen-data: done ({a})"
    assert main(["gen-data", "--config", str(config_path), "--out", str(b), "--seed", "2"]) == 0
    digests = []
    for root in (a, b):
        h = hashlib.sha256()
        for p in sorted((root / "corpus").rglob("*.wav")):
            h.update(p.read_bytes())
        digests.append(h.hexdigest())
    assert digests[0] != digests[1]
