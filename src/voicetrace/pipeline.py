"""Staged experiment pipeline behind the CLI.

Each stage reads artifacts written by earlier stages, writes its own
under the output directory, and drops an audit JSON holding the config
digest, the seed, and input/output content hashes. Nothing records wall
time, so reruns with the same config and seed are byte-identical.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .audio import Waveform, fix_frame_count, load_wav, log_mel
from .backbone import (ActivationTrace, BackboneTrainConfig, NetworkSpec, WeightStore,
                       classify, forward_batch, load_weights, reference_spec,
                       save_weights, train_backbone)
from .corpus import FAKE, REAL, CorpusSpec, generate_corpus, load_manifest
from .coverage import (ACN, TKAN, acn_features, calibrate_thresholds, load_thresholds,
                       read_feature_csv, save_thresholds, tkan_features, write_feature_csv)
from .detector import Standardizer, TrainConfig, load_detector, save_detector, score_batch, train_detector
from .errors import ConfigError, StageError
from .manipulate import Manipulation, apply_manipulation, generate_noise_bank, load_noise_bank
from .metrics import MetricRow, compute_all, write_report

_TRACE_BLOCK = 16

DEFAULT_CONFIG = {
    "seed": 42,
    "out_dir": "runs/default",
    "manifest": "",
    "noise_bank": "",
    "snr_formula": "paper",
    "corpus": {
        "num_speakers": 8,
        "clips_per_speaker": 40,
        "clip_seconds": 2.0,
        "sample_rate": 16000,
        "fake_artifact": "phase_quantization",
    },
    "frontend": {"window": 400, "hop": 160, "mel_bins": 64, "frames": 200},
    "backbone": {"lr": 0.01, "momentum": 0.9, "epochs": 15, "batch_size": 32},
    "coverage": {
        "criterion": "both",
        "k": 5,
        "calibration_classes": "both",
        "normalize_acn": False,
    },
    "detector": {"lr": 3e-4, "momentum": 0.9, "decay": 1e-6, "epochs": 3000, "batch_size": 32},
    "sweep": {
        "resample_offsets": [-400, -200, 0, 200, 400],
        "speed_rates": [0.5, 0.8, 1.0, 1.2, 1.4],
        "pitch_steps": [-4, -2, 0, 2, 4],
        "snrs_db": [25, 30, 35, 40, 45],
        "sample_per_class": 8,
    },
}


def _merge(defaults: dict, override: dict, trail: str = "") -> dict:
    merged = copy.deepcopy(defaults)
    for key, value in override.items():
        where = f"{trail}.{key}" if trail else key
        if key not in defaults:
            raise ConfigError(f"unknown field {where!r}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"field {where!r} must be an object")
            merged[key] = _merge(defaults[key], value, where)
        else:
            merged[key] = value
    return merged


def load_config(path=None, seed=None, out_dir=None) -> dict:
    """Defaults, overlaid with the JSON file, then the CLI overrides."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            user = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(user, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        try:
            cfg = _merge(cfg, user)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if seed is not None:
        cfg["seed"] = int(seed)
    if out_dir is not None:
        cfg["out_dir"] = str(out_dir)
    _validate(cfg)
    return cfg


def _validate(cfg: dict) -> None:
    if cfg["coverage"]["criterion"] not in (ACN, TKAN, "both"):
        raise ConfigError(f"coverage.criterion must be acn, tkan or both, got {cfg['coverage']['criterion']!r}")
    if cfg["coverage"]["calibration_classes"] not in ("both", "real"):
        raise ConfigError("coverage.calibration_classes must be 'both' or 'real'")
    if cfg["snr_formula"] not in ("paper", "standard"):
        raise ConfigError(f"snr_formula must be 'paper' or 'standard', got {cfg['snr_formula']!r}")
    if cfg["coverage"]["k"] < 1:
        raise ConfigError("coverage.k must be positive")
    if cfg["sweep"]["sample_per_class"] < 0:
        raise ConfigError("sweep.sample_per_class must be >= 0 (0 means all)")


def config_digest(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class RunPaths:
    """All artifact locations derived from one output directory."""

    def __init__(self, cfg: dict):
        self.out = Path(cfg["out_dir"])
        self.corpus_dir = self.out / "corpus"
        self.manifest = Path(cfg["manifest"]) if cfg["manifest"] else self.corpus_dir / "manifest.tsv"
        self.noise_dir = Path(cfg["noise_bank"]) if cfg["noise_bank"] else self.out / "noise"
        self.backbone = self.out / "backbone.nsw1"
        self.thresholds = self.out / "thresholds.json"
        self.eval_report = self.out / "eval_report.csv"
        self.sweep_dir = self.out / "sweep"
        self.sweep_report = self.out / "sweep_report.csv"
        self.sweep_long = self.out / "sweep_long.csv"
        self.sweep_failures = self.out / "sweep_failures.csv"
        self.export_dir = self.out / "export"

    def features(self, criterion: str) -> Path:
        return self.out / f"features_{criterion}.csv"

    def detector(self, criterion: str) -> Path:
        return self.out / f"detector_{criterion}.nsd1"

    def audit(self, stage: str) -> Path:
        return self.out / f"audit_{stage.replace('-', '_')}.json"


def _criteria(cfg: dict):
    chosen = cfg["coverage"]["criterion"]
    return [ACN, TKAN] if chosen == "both" else [chosen]


def _sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_audit(paths: RunPaths, stage: str, cfg: dict, inputs, outputs, extra=None) -> None:
    audit = {
        "stage": stage,
        "config_sha256": config_digest(cfg),
        "seed": cfg["seed"],
        "inputs": {str(p): _sha256_file(p) for p in inputs},
        "outputs": {str(p): _sha256_file(p) for p in outputs},
    }
    if extra:
        audit.update(extra)
    _write_json(paths.audit(stage), audit)


def _require(path, stage: str, producer: str) -> None:
    if not Path(path).exists():
        raise StageError(stage, f"missing {path}; run the {producer} stage first")


def _records_and_root(paths: RunPaths, stage: str):
    _require(paths.manifest, stage, "gen-data")
    return load_manifest(paths.manifest), paths.manifest.parent


def _network_for(records, cfg: dict) -> NetworkSpec:
    speakers = sorted({r.speaker_id for r in records})
    fcfg = cfg["frontend"]
    return reference_spec(len(speakers), (fcfg["frames"], fcfg["mel_bins"], 1))


def _prepare_map(w: Waveform, fcfg: dict):
    fm = log_mel(w, fcfg["window"], fcfg["hop"], fcfg["mel_bins"])
    return fix_frame_count(fm, fcfg["frames"])


def _blocks(items, size=_TRACE_BLOCK):
    return [items[i : i + size] for i in range(0, len(items), size)]


def _ordered_map(work, items, jobs: int):
    """Apply work to each item, pooled but order-preserving."""
    if jobs <= 1 or len(items) <= 1:
        return [work(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(work, items))


def _feature_array(files, fcfg: dict, jobs: int) -> np.ndarray:
    def work(block):
        return np.stack([_prepare_map(load_wav(f), fcfg).values[:, :, None] for f in block])

    parts = _ordered_map(work, _blocks(list(files)), jobs)
    return np.concatenate(parts, axis=0)


def _trace_batch(netspec: NetworkSpec, weights: WeightStore, waveforms, fcfg: dict):
    batch = np.stack([_prepare_map(w, fcfg).values[:, :, None] for w in waveforms])
    _, entries = forward_batch(netspec, weights, batch)
    return [
        ActivationTrace(tuple((name, np.asarray(vals[i])) for name, vals in entries))
        for i in range(len(waveforms))
    ]


def _traces_for_files(netspec, weights, files, fcfg, jobs=1, manipulation=None, bank=None, formula="paper"):
    def work(block):
        waves = [load_wav(f) for f in block]
        if manipulation is not None:
            waves = apply_manipulation(waves, manipulation, bank, formula)
        return _trace_batch(netspec, weights, waves, fcfg)

    parts = _ordered_map(work, _blocks(list(files)), jobs)
    return [t for part in parts for t in part]


# --- stages -----------------------------------------------------------


def cmd_gen_data(cfg: dict, jobs: int = 1):
    """Write the synthetic corpus plus the 12-texture noise bank."""
    paths = RunPaths(cfg)
    paths.out.mkdir(parents=True, exist_ok=True)
    c = cfg["corpus"]
    cspec = CorpusSpec(c["num_speakers"], c["clips_per_speaker"], c["clip_seconds"],
                       c["sample_rate"], cfg["seed"], c["fake_artifact"])
    records = generate_corpus(cspec, paths.corpus_dir)
    bank = generate_noise_bank(paths.noise_dir, c["sample_rate"], seed=cfg["seed"] + 1)
    noise_files = sorted(paths.noise_dir.glob("*.wav"))
    _write_audit(paths, "gen-data", cfg, inputs=[],
                 outputs=[paths.manifest, *noise_files],
                 extra={"clips": len(records), "noise_classes": bank.ids()})
    return records


def cmd_train_backbone(cfg: dict, jobs: int = 1):
    """Train the speaker network on real train-split clips."""
    paths = RunPaths(cfg)
    records, root = _records_and_root(paths, "train-backbone")
    train_real = [r for r in records if r.split == "train" and r.label == REAL]
    if not train_real:
        raise StageError("train-backbone", "manifest has no real train-split clips")
    speakers = sorted({r.speaker_id for r in records})
    index = {s: i for i, s in enumerate(speakers)}
    netspec = _network_for(records, cfg)

    feats = _feature_array([root / r.path for r in train_real], cfg["frontend"], jobs)
    labels = np.asarray([index[r.speaker_id] for r in train_real])
    b = cfg["backbone"]
    store, losses = train_backbone(netspec, feats, labels, BackboneTrainConfig(
        lr=b["lr"], momentum=b["momentum"], epochs=b["epochs"],
        batch_size=b["batch_size"], seed=cfg["seed"]))
    save_weights(store, paths.backbone)

    held = [r for r in records if r.split == "test" and r.label == REAL]
    accuracy = None
    if held:
        held_feats = _feature_array([root / r.path for r in held], cfg["frontend"], jobs)
        predicted = classify(netspec, store, held_feats)
        truth = np.asarray([index[r.speaker_id] for r in held])
        accuracy = float(np.mean(predicted == truth))
    _write_audit(paths, "train-backbone", cfg, inputs=[paths.manifest], outputs=[paths.backbone],
                 extra={"epoch_losses": losses, "holdout_speaker_accuracy": accuracy})
    return store


def cmd_calibrate(cfg: dict, jobs: int = 1):
    """Average train-split activations into per-layer thresholds."""
    paths = RunPaths(cfg)
    records, root = _records_and_root(paths, "calibrate")
    _require(paths.backbone, "calibrate", "train-backbone")
    netspec = _network_for(records, cfg)
    weights = load_weights(paths.backbone, netspec)

    keep_fake = cfg["coverage"]["calibration_classes"] == "both"
    cal = [r for r in records if r.split == "train" and (keep_fake or r.label == REAL)]
    if not cal:
        raise StageError("calibrate", "no train-split clips to calibrate on")
    traces = _traces_for_files(netspec, weights, [root / r.path for r in cal], cfg["frontend"], jobs)
    thresholds = calibrate_thresholds(traces)
    save_thresholds(thresholds, paths.thresholds)
    _write_audit(paths, "calibrate", cfg, inputs=[paths.manifest, paths.backbone],
                 outputs=[paths.thresholds], extra={"calibration_clips": len(cal)})
    return thresholds


def _features_matrix(traces, criterion: str, cfg: dict, thresholds=None):
    if criterion == ACN:
        vecs = [acn_features(t, thresholds, cfg["coverage"]["normalize_acn"]) for t in traces]
    else:
        vecs = [tkan_features(t, cfg["coverage"]["k"]) for t in traces]
    return np.stack([v.values for v in vecs]), vecs[0].column_names(criterion)


def cmd_extract(cfg: dict, jobs: int = 1):
    """Trace every manifest clip and write per-criterion feature CSVs."""
    paths = RunPaths(cfg)
    records, root = _records_and_root(paths, "extract")
    _require(paths.backbone, "extract", "train-backbone")
    criteria = _criteria(cfg)
    thresholds = None
    if ACN in criteria:
        if not paths.thresholds.exists():
            raise StageError("extract",
                             f"ACN features need {paths.thresholds}; run the calibrate stage first")
        thresholds = load_thresholds(paths.thresholds)

    netspec = _network_for(records, cfg)
    weights = load_weights(paths.backbone, netspec)
    traces = _traces_for_files(netspec, weights, [root / r.path for r in records], cfg["frontend"], jobs)

    outputs = []
    for criterion in criteria:
        matrix, names = _features_matrix(traces, criterion, cfg, thresholds)
        write_feature_csv(paths.features(criterion), names,
                          [r.label for r in records], [r.split for r in records], matrix)
        outputs.append(paths.features(criterion))
    inputs = [paths.manifest, paths.backbone] + ([paths.thresholds] if thresholds else [])
    _write_audit(paths, "extract", cfg, inputs=inputs, outputs=outputs,
                 extra={"rows": len(records), "criteria": criteria})
    return outputs


def _read_split(path, split: str):
    names, labels, splits, matrix = read_feature_csv(path)
    keep = [i for i, s in enumerate(splits) if s == split]
    y = np.asarray([1 if labels[i] == FAKE else 0 for i in keep])
    return matrix[keep], y


def _current_detector(paths: RunPaths, cfg: dict, criterion: str, stage: str, width: int):
    """The criterion's detector, refused when trained under another k or feature width."""
    path = paths.detector(criterion)
    _require(path, stage, "train-detector")
    model = load_detector(path)
    k = cfg["coverage"]["k"] if criterion == TKAN else 0
    if (model.criterion, model.k, model.spec.input_width) != (criterion, k, width):
        raise StageError(stage, f"{path} was trained for {model.criterion!r} k={model.k} on "
                                f"{model.spec.input_width} features, but this run needs {criterion!r} "
                                f"k={k} on {width}; rerun the train-detector stage")
    return model


def cmd_train_detector(cfg: dict, jobs: int = 1):
    paths = RunPaths(cfg)
    models = {}
    losses = {}
    for criterion in _criteria(cfg):
        feats = paths.features(criterion)
        _require(feats, "train-detector", "extract")
        x_train, y_train = _read_split(feats, "train")
        standardizer = Standardizer.fit(x_train)
        d = cfg["detector"]
        model = train_detector(
            x_train, y_train,
            TrainConfig(lr=d["lr"], momentum=d["momentum"], decay=d["decay"],
                        epochs=d["epochs"], batch_size=d["batch_size"], seed=cfg["seed"]),
            standardizer=standardizer, criterion=criterion,
            k=cfg["coverage"]["k"] if criterion == TKAN else 0)
        save_detector(model, paths.detector(criterion))
        models[criterion] = model
        losses[criterion] = model.loss_log
    _write_audit(paths, "train-detector", cfg,
                 inputs=[paths.features(c) for c in models],
                 outputs=[paths.detector(c) for c in models],
                 extra={"epoch_losses": losses})
    return models


def cmd_eval(cfg: dict, jobs: int = 1):
    """Score the test split with the frozen detectors; one report row per criterion."""
    paths = RunPaths(cfg)
    rows = []
    for criterion in _criteria(cfg):
        feats = paths.features(criterion)
        _require(feats, "eval", "extract")
        x_test, y_test = _read_split(feats, "test")
        model = _current_detector(paths, cfg, criterion, "eval", x_test.shape[1])
        scores = score_batch(model, x_test)
        rows.append(MetricRow.from_metrics("test", criterion, "none", 0.0,
                                           compute_all(y_test, scores)))
    write_report(paths.eval_report, rows)
    _write_audit(paths, "eval", cfg,
                 inputs=[p for c in _criteria(cfg) for p in (paths.features(c), paths.detector(c))],
                 outputs=[paths.eval_report])
    return rows


def sweep_cells(cfg: dict, noise_ids) -> list:
    """The full manipulation grid, in report order."""
    sw = cfg["sweep"]
    cells = [Manipulation("resample", float(v)) for v in sw["resample_offsets"]]
    cells += [Manipulation("speed", float(v)) for v in sw["speed_rates"]]
    cells += [Manipulation("pitch", float(v)) for v in sw["pitch_steps"]]
    for noise_id in sorted(noise_ids):
        cells += [Manipulation("add_noise", float(snr), noise_id) for snr in sw["snrs_db"]]
    return cells


def _sample_records(records, per_class: int):
    test = [r for r in records if r.split == "test"]
    if per_class <= 0:
        return test
    picked = []
    counts = {REAL: 0, FAKE: 0}
    for r in test:
        if counts[r.label] < per_class:
            counts[r.label] += 1
            picked.append(r)
    return picked


def _atomic_write_report(path: Path, rows) -> None:
    tmp = path.with_name(path.name + ".tmp")
    write_report(tmp, rows)
    os.replace(tmp, path)


def cmd_sweep(cfg: dict, jobs: int = 1):
    """Run every manipulation cell against frozen models; continue past cell failures."""
    paths = RunPaths(cfg)
    records, root = _records_and_root(paths, "sweep")
    _require(paths.backbone, "sweep", "train-backbone")
    criteria = _criteria(cfg)
    netspec = _network_for(records, cfg)
    n_layers = len(netspec.monitored_layers())
    detectors = {c: _current_detector(paths, cfg, c, "sweep",
                                      n_layers * (cfg["coverage"]["k"] if c == TKAN else 1))
                 for c in criteria}
    thresholds = None
    if ACN in criteria:
        _require(paths.thresholds, "sweep", "calibrate")
        thresholds = load_thresholds(paths.thresholds)
    if not paths.noise_dir.exists():
        raise StageError("sweep", f"missing noise bank {paths.noise_dir}; run the gen-data stage first")

    frozen = [paths.backbone] + [paths.detector(c) for c in criteria]
    if thresholds is not None:
        frozen.append(paths.thresholds)
    hashes_before = {str(p): _sha256_file(p) for p in frozen}

    weights = load_weights(paths.backbone, netspec)
    bank = load_noise_bank(paths.noise_dir, cfg["corpus"]["sample_rate"])
    sample = _sample_records(records, cfg["sweep"]["sample_per_class"])
    if not sample:
        raise StageError("sweep", "manifest has no test-split clips")
    files = [root / r.path for r in sample]
    y_true = np.asarray([1 if r.label == FAKE else 0 for r in sample])
    formula = cfg["snr_formula"]
    cells = sweep_cells(cfg, bank.ids())
    paths.sweep_dir.mkdir(parents=True, exist_ok=True)

    def evaluate(manipulation, tag: str):
        traces = _traces_for_files(netspec, weights, files, cfg["frontend"], jobs=1,
                                   manipulation=manipulation, bank=bank, formula=formula)
        rows = []
        for criterion in criteria:
            matrix, _ = _features_matrix(traces, criterion, cfg, thresholds)
            scores = score_batch(detectors[criterion], matrix)
            name = manipulation.describe() if manipulation else "none"
            magnitude = manipulation.magnitude if manipulation else 0.0
            rows.append(MetricRow.from_metrics(tag, criterion, name, magnitude,
                                               compute_all(y_true, scores)))
        return rows

    baseline_rows = evaluate(None, "test")
    _atomic_write_report(paths.sweep_dir / "baseline.csv", baseline_rows)

    def run_cell(indexed):
        index, manipulation = indexed
        try:
            rows = evaluate(manipulation, "test")
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            return index, None, f"{type(exc).__name__}: {exc}"
        _atomic_write_report(paths.sweep_dir / f"cell_{index:03d}.csv", rows)
        return index, rows, None

    results = _ordered_map(run_cell, list(enumerate(cells)), jobs)

    merged = list(baseline_rows)
    failures = []
    for index, rows, error in sorted(results, key=lambda r: r[0]):
        if error is None:
            merged.extend(rows)
        else:
            cell = cells[index]
            failures.append((index, cell.describe(), cell.magnitude, error))
    write_report(paths.sweep_report, merged)

    with open(paths.sweep_long, "w", newline="", encoding="utf-8") as fh:
        fh.write("dataset,criterion,manipulation,magnitude,metric,value\n")
        for row in merged:
            for metric in ("acc", "auc", "f1", "ap", "fpr", "fnr", "eer"):
                fh.write(f"{row.dataset},{row.criterion},{row.manipulation},"
                         f"{row.magnitude!r},{metric},{getattr(row, metric)!r}\n")
    with open(paths.sweep_failures, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cell", "manipulation", "magnitude", "error"])
        for index, name, magnitude, error in failures:
            writer.writerow([index, name, repr(magnitude), error.replace("\n", " ")])

    hashes_after = {str(p): _sha256_file(p) for p in frozen}
    if hashes_after != hashes_before:
        raise StageError("sweep", "frozen model artifacts changed during the sweep")
    _write_audit(paths, "sweep", cfg,
                 inputs=frozen + [paths.manifest],
                 outputs=[paths.sweep_report, paths.sweep_long, paths.sweep_failures],
                 extra={"cells": len(cells), "failed_cells": len(failures),
                        "sampled_clips": len(sample), "frozen_hashes": hashes_before})
    return merged, failures


def cmd_export_features(cfg: dict, jobs: int = 1):
    """Raw traces plus per-criterion features as labeled CSVs for plotting."""
    paths = RunPaths(cfg)
    records, root = _records_and_root(paths, "export-features")
    _require(paths.backbone, "export-features", "train-backbone")
    criteria = _criteria(cfg)
    thresholds = None
    if ACN in criteria:
        _require(paths.thresholds, "export-features", "calibrate")
        thresholds = load_thresholds(paths.thresholds)

    netspec = _network_for(records, cfg)
    weights = load_weights(paths.backbone, netspec)
    traces = _traces_for_files(netspec, weights, [root / r.path for r in records], cfg["frontend"], jobs)
    paths.export_dir.mkdir(parents=True, exist_ok=True)

    raw_names = []
    for layer_id, width in zip(traces[0].layer_ids(), traces[0].widths()):
        raw_names.extend(f"{layer_id}.n{i + 1}" for i in range(width))
    raw_matrix = np.stack([np.concatenate([vals for _, vals in t.entries]) for t in traces])
    outputs = [paths.export_dir / "traces.csv"]
    write_feature_csv(outputs[0], raw_names, [r.label for r in records],
                      [r.split for r in records], raw_matrix)
    for criterion in criteria:
        matrix, names = _features_matrix(traces, criterion, cfg, thresholds)
        out = paths.export_dir / f"features_{criterion}.csv"
        write_feature_csv(out, names, [r.label for r in records], [r.split for r in records], matrix)
        outputs.append(out)
    inputs = [paths.manifest, paths.backbone] + ([paths.thresholds] if thresholds else [])
    _write_audit(paths, "export-features", cfg, inputs=inputs, outputs=outputs,
                 extra={"rows": len(records)})
    return outputs
