import csv
import hashlib
import json
import shutil

import numpy as np
import pytest

from voicetrace import pipeline
from voicetrace.cli import main
from voicetrace.detector import TrainConfig, save_detector, train_detector
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

ARTIFACTS = ("eval_report.csv", "backbone.nsw1", "thresholds.json",
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
    assert len(list((out / "corpus").rglob("*.wav"))) == 60
    assert len(list((out / "noise").glob("*.wav"))) == 12


def test_eval_report_covers_both_criteria(chain):
    out, _ = chain
    rows = list(csv.DictReader(open(out / "eval_report.csv")))
    assert [r["criterion"] for r in rows] == ["acn", "tkan"]
    for row in rows:
        assert row["dataset"] == "test"
        assert row["manipulation"] == "none"
        for metric in ("acc", "auc", "f1", "ap", "fpr", "fnr", "eer"):
            assert 0.0 <= float(row[metric]) <= 1.0


def test_sweep_identity_cells_match_baseline_exactly(chain):
    out, _ = chain
    rows = list(csv.DictReader(open(out / "sweep_report.csv")))
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
    for index in range(3):
        assert (out / "sweep" / f"cell_{index:03d}.csv").exists()


def test_rerun_with_more_jobs_is_byte_identical(chain, tmp_path):
    out, config_path = chain
    again = tmp_path / "again"
    _run_chain(again, config_path, jobs=3)
    for rel in ARTIFACTS:
        assert _sha(out / rel) == _sha(again / rel), rel


def test_export_features_match_extract_output(chain):
    out, _ = chain
    assert (out / "export/features_acn.csv").read_bytes() == (out / "features_acn.csv").read_bytes()
    assert (out / "export/features_tkan.csv").read_bytes() == (out / "features_tkan.csv").read_bytes()
    header = open(out / "export/traces.csv").readline().strip().split(",")
    assert header[:2] == ["label", "split"]
    assert len(open(out / "export/traces.csv").readlines()) == 61


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

    # the top-k criterion needs no thresholds, so it runs from the same state
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
    assert "truncated" in err


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


def test_detector_trained_at_another_k_exits_2_naming_train_detector(chain, tmp_path, capsys):
    out, config_path = chain
    part = tmp_path / "stale"
    shutil.copytree(out, part)
    # a TKAN detector for 6 layers x k=5 features, left behind for this k=3 run
    feats = np.random.default_rng(0).standard_normal((20, 30))
    stale = train_detector(feats, np.array([0, 1] * 10), TrainConfig(epochs=1), criterion="tkan", k=5)
    save_detector(stale, part / "detector_tkan.nsd1")
    for stage in ("eval", "sweep"):
        rc = main([stage, "--config", str(config_path), "--out", str(part), "--seed", "7"])
        err = capsys.readouterr().err
        assert rc == 2, stage
        assert err.startswith(f"voicetrace: {stage}: ")
        assert "k=5 on 30 features" in err and "k=3 on 18" in err
        assert "rerun the train-detector stage" in err


def test_sweep_failure_with_comma_stays_one_csv_field(chain, tmp_path, monkeypatch):
    out, config_path = chain
    part = tmp_path / "failing"
    shutil.copytree(out, part)
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
                    ["1", "speed", "1.0", "ValueError: a, b"]]


def test_single_criterion_run_reports_only_that_criterion(chain, tmp_path):
    out, _ = chain
    part = tmp_path / "acn_only"
    part.mkdir()
    shutil.copytree(out / "corpus", part / "corpus")
    shutil.copy(out / "backbone.nsw1", part / "backbone.nsw1")
    shutil.copy(out / "thresholds.json", part / "thresholds.json")
    cfg = _write_config(tmp_path, {"coverage.criterion": "acn"})
    for stage in ("extract", "train-detector", "eval"):
        assert main([stage, "--config", str(cfg), "--out", str(part), "--seed", "7"]) == 0
    rows = list(csv.DictReader(open(part / "eval_report.csv")))
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


def test_invalid_json_config_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"corpus": ', encoding="utf-8")
    rc = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "invalid JSON" in err


def test_bad_criterion_value_exits_2(tmp_path, capsys):
    config_path = _write_config(tmp_path, {"coverage.criterion": "acorn"})
    rc = main(["gen-data", "--config", str(config_path), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "acorn" in err


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
