"""The three benchmark workloads: their configs, stages and output checks.

Every workload uses the default frontend, network and batch sizes. Fakes
carry the `band_limit` artifact: at the corpus sizes one run can afford, a
working detector separates it with test AUC near 1 on every seed, so the
AUC metrics guard detection quality without spreading from seed to seed
(the default `phase_quantization` artifact spreads by 10-30% at these
sizes). Each workload's inputs are produced in set-up, the stages under
test run in timed passes.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from voicetrace import pipeline
from voicetrace.corpus import load_manifest
from voicetrace.metrics import read_report

TRAIN_CHAIN = ("gen-data", "train-backbone", "calibrate", "extract", "train-detector", "eval")
MODELS = ("gen-data", "train-backbone", "calibrate", "extract", "train-detector")
CRITERIA = ("acn", "tkan")
IDENTITY = {"resample": 0.0, "speed": 1.0, "pitch": 0.0}


@dataclass(frozen=True)
class Workload:
    name: str
    setup_stages: tuple
    pass_stages: tuple
    config: dict
    # a pass may be rerun in place; train starts each pass from an empty run directory
    fresh_pass: bool = False


def _config(speakers, clips, backbone_epochs, detector_epochs, **extra):
    cfg = {
        "corpus": {"num_speakers": speakers, "clips_per_speaker": clips, "fake_artifact": "band_limit"},
        "backbone": {"epochs": backbone_epochs},
        "detector": {"epochs": detector_epochs},
    }
    cfg.update(extra)
    return cfg


WORKLOADS = {
    # the only workload that trains: corpus rendering, backbone SGD and detector SGD
    # take comparable shares of a pass; never runs a manipulation. Rendering time
    # follows each speaker's random pitch (up to 3x apart), so three rounds average it out.
    "train": Workload("train", (), TRAIN_CHAIN, _config(8, 5, 12, 500), fresh_pass=True),
    # inference only, manipulation-bound: all 75 cells over 4 sampled test clips
    # (300 manipulated clips), cells spread over the thread pool
    "sweep": Workload("sweep", MODELS, ("sweep",),
                      _config(8, 5, 4, 300, sweep={"sample_per_class": 2})),
    # backbone forward, WAV decode, log-mel and feature CSVs over the whole corpus,
    # with no training and no DSP attacks; extract and export-features trace it twice
    "score": Workload("score", MODELS, ("calibrate", "extract", "eval", "export-features"),
                      _config(8, 10, 2, 100)),
}

# Smallest config every stage accepts (k=5 needs 5 speakers, a split 5 clips); used to warm
# up before timing and by the smoke test.
TINY = _config(5, 5, 1, 5, sweep={"sample_per_class": 1, "resample_offsets": [0, 200],
                                  "speed_rates": [1.0, 1.2], "pitch_steps": [0, 2],
                                  "snrs_db": [30]})


def write_config(workload: Workload, round_dir: Path, seed: int, tiny: bool = False) -> dict:
    """Write the generated config the program reads, and load it back through the program."""
    round_dir.mkdir(parents=True, exist_ok=True)
    cfg = copy.deepcopy(TINY if tiny else workload.config)
    cfg["seed"] = seed
    cfg["out_dir"] = str(round_dir / "run")
    path = round_dir / "config.json"
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return pipeline.load_config(path)


def stage_function(stage: str):
    return getattr(pipeline, "cmd_" + stage.replace("-", "_"))


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def artifact_hashes(cfg: dict) -> dict:
    """SHA-256 of every file under the run directory; the corpus and noise WAVs fold into one digest each."""
    out = Path(cfg["out_dir"])
    hashes = {}
    folded = {"corpus": hashlib.sha256(), "noise": hashlib.sha256()}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out).as_posix()
        digest = sha256(path)
        top = rel.split("/", 1)[0]
        if path.suffix == ".wav" and top in folded:
            folded[top].update(f"{rel}\t{digest}\n".encode())
        else:
            hashes[rel] = digest
    for top, h in folded.items():
        hashes[f"{top}/*.wav"] = h.hexdigest()
    return hashes


def frozen_hashes(cfg: dict) -> dict:
    paths = pipeline.RunPaths(cfg)
    frozen = [paths.backbone, paths.thresholds, *(paths.detector(c) for c in CRITERIA)]
    return {str(p): sha256(p) for p in frozen}


def _report_aucs(rows) -> tuple:
    return tuple(next(r.auc for r in rows if r.criterion == c) for c in CRITERIA)


def aucs(workload: Workload, cfg: dict) -> tuple:
    """(ACN, TKAN) test AUC; on sweep the mean over the manipulation cells."""
    paths = pipeline.RunPaths(cfg)
    if workload.name != "sweep":
        return _report_aucs(read_report(paths.eval_report))
    cells = [r for r in read_report(paths.sweep_report) if r.manipulation != "none"]
    return tuple(sum(r.auc for r in cells if r.criterion == c) / (len(cells) / len(CRITERIA))
                 for c in CRITERIA)


def _check_train(cfg: dict, frozen_before) -> dict:
    paths = pipeline.RunPaths(cfg)
    rows = read_report(paths.eval_report)
    audits_ok = True
    for stage in TRAIN_CHAIN:
        audit_path = paths.audit(stage)
        if not audit_path.exists():
            audits_ok = False
            continue
        audit = json.loads(audit_path.read_text(encoding="utf-8"))
        audits_ok &= audit["stage"] == stage and all(
            sha256(p) == h for p, h in audit["outputs"].items())
    return {
        "eval_rows": sorted(r.criterion for r in rows) == sorted(CRITERIA),
        "audits": audits_ok,
    }


def _metric_values(row) -> tuple:
    return (row.acc, row.auc, row.f1, row.ap, row.fpr, row.fnr, row.eer)


def _check_sweep(cfg: dict, frozen_before) -> dict:
    paths = pipeline.RunPaths(cfg)
    rows = read_report(paths.sweep_report)
    audit = json.loads(paths.audit("sweep").read_text(encoding="utf-8"))
    bank_ids = sorted(p.stem for p in paths.noise_dir.glob("*.wav"))
    expected_cells = len(pipeline.sweep_cells(cfg, bank_ids))
    baseline = {r.criterion: _metric_values(r) for r in rows if r.manipulation == "none"}
    identity = [r for r in rows if IDENTITY.get(r.manipulation) == r.magnitude]
    failures = paths.sweep_failures.read_text(encoding="utf-8").splitlines()
    return {
        "cells": audit["cells"] == expected_cells
        and len(rows) == len(CRITERIA) * (1 + expected_cells),
        "no_failed_cells": audit["failed_cells"] == 0 and len(failures) == 1,
        "identity_cells": len(identity) == len(CRITERIA) * len(IDENTITY)
        and all(_metric_values(r) == baseline[r.criterion] for r in identity),
        "frozen_hashes": frozen_hashes(cfg) == frozen_before == audit["frozen_hashes"],
    }


def _check_score(cfg: dict, frozen_before) -> dict:
    paths = pipeline.RunPaths(cfg)
    manifest_rows = len(load_manifest(paths.manifest))
    checks = {}
    for c in CRITERIA:
        extracted = paths.features(c).read_bytes()
        exported = (paths.export_dir / f"features_{c}.csv").read_bytes()
        checks[f"{c}_csv_identical"] = extracted == exported
        checks[f"{c}_rows"] = extracted.count(b"\n") - 1 == manifest_rows
    checks["eval_rows"] = sorted(r.criterion for r in read_report(paths.eval_report)) == sorted(CRITERIA)
    return checks


CHECKS = {"train": _check_train, "sweep": _check_sweep, "score": _check_score}


def output_checks(workload: Workload, cfg: dict, frozen_before) -> dict:
    """Check name -> passed, for the outputs of the last pass."""
    return CHECKS[workload.name](cfg, frozen_before)
