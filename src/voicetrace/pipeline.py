"""Staged experiment pipeline behind the CLI.

Each stage reads artifacts written by earlier stages, writes its own
under the output directory, and drops an audit JSON holding the config
digest, the seed, and input/output content hashes. Nothing records wall
time, so reruns with the same config and seed are byte-identical. Inputs but
corpus clips pass through `_Stage.need`, and outputs but corpus clips through
`_Stage.output`; the audit lists both. A missing or damaged input, a clip
(decoded only under `_map_blocks`) included, stops its stage with a StageError
whose remedy, from `_Stage.remedy`, names the stage or config field to fix.
The corpus is traced once per chain: calibrate writes every clip's layer
activations to traces.csv; extract reads them there, and export-features copies them.
"""

from __future__ import annotations

import copy
import csv
import ctypes
import hashlib
import json
import math
import os
import pickle
import shutil
import signal
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor  # noqa: F401 - perfbench's tracer reads it (ROADMAP item 1, step 2)
from pathlib import Path

import numpy as np

from .audio import FLOAT32, WAV_MAX_DATA, WINDOW, load_wav, log_mel, save_wav
from .backbone import (LayerTable, NetworkSpec, WeightStore, classify, forward_batch,
                       load_weights, reference_spec, save_weights, train_backbone)
from .corpus import ARTIFACTS, FAKE, REAL, CorpusSpec, generate_corpus, load_manifest, save_manifest
from .coverage import (ACN, TKAN, _is_number, acn_features, calibrate_thresholds, load_thresholds,
                       read_feature_csv, save_thresholds, tkan_features, write_feature_csv)
from .detector import load_detector, save_detector, score_batch, train_detector
from .errors import AudioFormatError, ConfigError, FeatureFormatError, FormatError, StageError, WeightFormatError
from .manipulate import NOISE_SECONDS, Manipulation, apply_manipulation, generate_noise_bank, load_noise_bank
from .metrics import REPORT_COLUMNS, MetricRow, compute_all, write_report
from .nn import TrainConfig

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
    "frontend": {"mel_bins": 64, "frames": 200},
    "backbone": {"epochs": 15},
    "coverage": {"criterion": "both", "k": 5},
    "detector": {"epochs": 3000},
    "sweep": {
        "resample_offsets": [-400, -200, 0, 200, 400],
        "speed_rates": [0.5, 0.8, 1.0, 1.2, 1.4],
        "pitch_steps": [-4, -2, 0, 2, 4],
        "snrs_db": [25, 30, 35, 40, 45],
        "sample_per_class": 8,
    },
}


# Every field must have its default's type (an int refuses bools and floats, a float takes
# any finite number, a list holds finite numbers). A number must be positive, and a str
# may be any text, unless listed here with its [low, high) bounds or its allowed values.
_LIMITS = {
    "seed": (0, math.inf),
    "snr_formula": ("paper", "standard"),
    "corpus.num_speakers": (2, math.inf),
    # five clips per speaker is the fewest the 60/20/20 numbering can hold; the val block is not rendered
    "corpus.clips_per_speaker": (5, math.inf),
    "corpus.fake_artifact": ARTIFACTS,
    "coverage.criterion": (ACN, TKAN, "both"),
    "sweep.sample_per_class": (0, math.inf),  # 0 samples every test clip
}


def _check_field(where: str, value, default) -> None:
    limit = _LIMITS.get(where)
    if isinstance(default, (bool, str)):
        ok = type(value) is type(default) and (limit is None or value in limit)
        want = f"one of {limit}" if limit else f"a {type(default).__name__}"
    elif isinstance(default, list):
        ok, want = isinstance(value, list) and all(map(_is_number, value)), "a list of finite numbers"
    else:
        integral = isinstance(default, int)
        ok = _is_number(value) and (isinstance(value, int) or not integral)
        ok = ok and (limit[0] <= value < limit[1] if limit else value > 0)
        want = ("an integer" if integral else "a number") + (" in [%s, %s)" % limit if limit else " > 0")
    if not ok:
        raise ConfigError(f"{where} must be {want}, got {value!r}")


def _merge(defaults: dict, override: dict, trail: str = "") -> dict:
    merged = dict(defaults)
    for key, value in override.items():
        where = f"{trail}.{key}" if trail else key
        if key not in defaults:
            raise ConfigError(f"unknown field {where!r}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"field {where!r} must be an object")
            merged[key] = _merge(defaults[key], value, where)
        else:
            _check_field(where, value, defaults[key])
            merged[key] = value
    return merged


def load_config(path=None, seed=None, out_dir=None) -> dict:
    """Defaults, overlaid with the JSON file, then the CLI overrides; every field is checked."""
    cfg = DEFAULT_CONFIG
    if path is not None:
        try:
            user = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, deep nesting
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(user, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        try:
            cfg = _merge(cfg, user)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    cfg = copy.deepcopy(cfg)  # _merge shares the fields it did not override with DEFAULT_CONFIG
    if seed is not None:
        _check_field("seed", seed, DEFAULT_CONFIG["seed"])
        cfg["seed"] = seed
    if out_dir is not None:
        cfg["out_dir"] = str(out_dir)
    _validate(cfg)
    return cfg


def _validate(cfg: dict) -> None:
    """The checks that join fields; each field alone was checked as it was merged."""
    c, f = cfg["corpus"], cfg["frontend"]
    if not _is_number(c["clip_seconds"] * c["sample_rate"]):
        raise ConfigError(f"corpus.clip_seconds {c['clip_seconds']!r} gives too many samples to count")
    if 4 * max(c["sample_rate"], round(NOISE_SECONDS * c["sample_rate"])) > WAV_MAX_DATA:
        raise ConfigError(f"corpus.sample_rate {c['sample_rate']} overflows the noise-bank WAVs' u32 sizes")
    clip_samples = CorpusSpec(**c, seed=cfg["seed"]).clip_samples
    if clip_samples < WINDOW:
        # every stage after gen-data refuses a clip shorter than one analysis window
        raise ConfigError(f"corpus.clip_seconds gives {clip_samples}-sample clips at corpus.sample_rate "
                          f"{c['sample_rate']}, shorter than one {WINDOW}-sample analysis window")
    if 2 * clip_samples > WAV_MAX_DATA:
        raise ConfigError(f"corpus.clip_seconds gives {clip_samples}-sample clips, too long for a WAV")
    for field in ("resample_offsets", "pitch_steps"):  # the sweep applies whole Hz and whole semitones
        for value in cfg["sweep"][field]:
            if value % 1:
                raise ConfigError(f"sweep.{field} must hold whole numbers, got {value!r}")
    for value in cfg["sweep"]["speed_rates"]:  # a stretch needs a positive rate
        if value <= 0:
            raise ConfigError(f"sweep.speed_rates must hold rates > 0, got {value!r}")
    try:
        spec = reference_spec(c["num_speakers"], (f["frames"], f["mel_bins"], 1))
    except ValueError as exc:
        raise ConfigError(f"frontend.frames by frontend.mel_bins is too small an input ({exc})") from exc
    if not cfg["manifest"]:  # a user manifest's speakers set the logit width; train-backbone checks k then
        _check_k(cfg, spec)


def config_digest(cfg: dict) -> str:
    """SHA-256 of the config without out_dir, so a run directory that moves keeps its digest."""
    canon = json.dumps({k: v for k, v in cfg.items() if k != "out_dir"}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class RunPaths:
    """All artifact locations derived from one output directory."""

    def __init__(self, cfg: dict):
        self.out = Path(cfg["out_dir"])
        self.corpus_dir = self.out / "corpus"
        self.manifest = Path(cfg["manifest"]) if cfg["manifest"] else self.corpus_dir / "manifest.tsv"
        self.noise_dir = Path(cfg["noise_bank"]) if cfg["noise_bank"] else self.out / "noise"
        self.configured = {Path(cfg[field]): field for field in ("manifest", "noise_bank") if cfg[field]}
        self.backbone = self.out / "backbone.nsw1"
        self.thresholds = self.out / "thresholds.json"
        self.traces = self.out / "traces.csv"
        self.eval_report = self.out / "eval_report.csv"
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


def _check_k(cfg: dict, netspec: NetworkSpec) -> None:
    """Refuse a TKAN k above the width of the narrowest monitored layer."""
    k, narrowest = cfg["coverage"]["k"], min(width for _, _, width in netspec.monitored_layers())
    if TKAN in _criteria(cfg) and k > narrowest:
        raise ConfigError(f"coverage.k {k} exceeds the {narrowest} neurons of the "
                          f"narrowest monitored layer; lower coverage.k or use more speakers")


def _sha256s(files) -> dict:
    return {str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in files}


class _Stage:
    """One run of a named stage. Each input passes through need(), which refuses a missing or damaged
    file by naming the stage that writes it, and each output through output(); both record it for the audit."""

    def __init__(self, cfg: dict, name: str):
        self.cfg, self.name = cfg, name
        self.paths = RunPaths(cfg)
        self.inputs, self.outputs = [], []

    def error(self, msg: str) -> StageError:
        return StageError(self.name, msg)

    def remedy(self, path: Path, producer: str):
        """(what to do about a missing input at path, about a bad one): fix the config field that
        sets path or its directory, since no stage writes there, else run producer."""
        field = self.paths.configured.get(path, self.paths.configured.get(path.parent))
        if field:
            return (f"fix the config's {field} field or what it names",) * 2
        return f"run the {producer} stage first", f"rerun the {producer} stage"

    def need(self, path, producer: str, load, *args):
        """load(path, *args); a missing file, a directory, or a file whose format load refuses
        names its remedy. Every input but the corpus clips is read here."""
        path = Path(path)
        first, again = self.remedy(path, producer)
        if not path.exists():
            raise self.error(f"missing {path}; {first}")
        if not path.is_file():
            raise self.error(f"{path} is not a file; {again}")
        self.inputs.append(path)
        try:
            return load(path, *args)
        except FormatError as exc:
            raise self.error(f"{exc}; {again}") from exc

    def require_two(self, what: str, found) -> None:
        """Refuse clips that hold fewer than two distinct labels or speakers, naming the manifest."""
        found = sorted(set(found))
        if len(found) < 2:
            raise self.error(f"{what} in {self.paths.manifest} are {found}, but {self.name} needs "
                             f"at least two; fix the manifest")

    def records(self):
        """The manifest's records, refused when it lists no clip, and the directory their paths
        are relative to."""
        records = self.need(self.paths.manifest, "gen-data", load_manifest)
        if not records:
            raise self.error(f"{self.paths.manifest} lists no clips; "
                             f"{self.remedy(self.paths.manifest, 'gen-data')[1]}")
        return records, self.paths.manifest.parent

    def thresholds(self, netspec: NetworkSpec):
        """The calibrated thresholds, refused unless they name the backbone's monitored layers."""
        thresholds = self.need(self.paths.thresholds, "calibrate", load_thresholds)
        layers = [name for _, name, _ in netspec.monitored_layers()]
        if thresholds.layer_ids() != layers:
            raise self.error(f"{self.paths.thresholds} holds thresholds for layers {thresholds.layer_ids()}, "
                             f"but the backbone monitors {layers}; rerun the calibrate stage")
        return thresholds

    def manifest_rows(self, path, records):
        """A feature-format CSV's columns and matrix, refused unless its rows are the manifest's
        clips, in manifest order; a loader for need."""
        columns, labels, splits, matrix = read_feature_csv(path)
        if (labels, splits) != ([r.label for r in records], [r.split for r in records]):
            raise FeatureFormatError(f"{path} holds {len(labels)} clips that are not the {len(records)} "
                                     f"clips of {self.paths.manifest}")
        return columns, matrix

    def trace(self, netspec: NetworkSpec, records) -> LayerTable:
        """Every manifest clip's activations from traces.csv, refused unless its columns are the
        backbone's monitored neurons and its rows the manifest's clips, in manifest order."""
        path = self.paths.traces
        columns, matrix = self.need(path, "calibrate", self.manifest_rows, records)
        trace = LayerTable(matrix, tuple((name, width) for _, name, width in netspec.monitored_layers()))
        if columns != trace.column_names("n"):
            raise self.error(f"the columns of {path} are not the neurons of the monitored layers "
                             f"{list(trace.layout)}; rerun the calibrate stage")
        return trace

    def split(self, criterion: str, split: str):
        """One split's rows of the criterion's feature CSV and their labels, fake as 1."""
        _, labels, splits, matrix = self.need(self.paths.features(criterion), "extract", read_feature_csv)
        keep = [i for i, s in enumerate(splits) if s == split]
        self.require_two(f"the labels of the {split}-split clips", [labels[i] for i in keep])
        return matrix[keep], np.asarray([1 if labels[i] == FAKE else 0 for i in keep])

    def detector(self, criterion: str, width: int):
        """The criterion's detector, refused when trained under another k or feature width."""
        model = self.need(self.paths.detector(criterion), "train-detector", load_detector)
        k = self.cfg["coverage"]["k"] if criterion == TKAN else 0
        if (model.criterion, model.k, model.network.input_shape) != (criterion, k, (width,)):
            raise self.error(f"{self.paths.detector(criterion)} was trained for {model.criterion!r} "
                             f"k={model.k} on {model.network.input_shape[0]} features, but this run needs "
                             f"{criterion!r} k={k} on {width}; rerun the train-detector stage")
        return model

    def trained(self, store: WeightStore, network: NetworkSpec, what: str) -> None:
        """Refuse trained weights that validate refuses, a diverged fit's NaN among them, before any is saved."""
        try:
            store.validate(network)
        except WeightFormatError as exc:
            raise self.error(f"the trained {what}'s {exc}; nothing was saved") from exc

    def output(self, path, write, *args) -> None:
        """write(path, *args), then record path for the audit."""
        write(path, *args)
        self.outputs.append(path)

    def audit(self, **extra) -> None:
        """Write the stage's audit: the config digest, the seed, and the SHA-256 of every input
        need read (no corpus clip is one) and of every file output wrote."""
        audit = {"stage": self.name, "config_sha256": config_digest(self.cfg), "seed": self.cfg["seed"],
                 "inputs": _sha256s(self.inputs), "outputs": _sha256s(self.outputs), **extra}
        self.paths.audit(self.name).write_text(json.dumps(audit, sort_keys=True, indent=2) + "\n",
                                               encoding="utf-8")


def _network_for(records, cfg: dict) -> NetworkSpec:
    fcfg = cfg["frontend"]
    return reference_spec(len({r.speaker_id for r in records}), (fcfg["frames"], fcfg["mel_bins"], 1))


def _load_clips(paths) -> list:
    """A block's corpus clips, in order, refused at the first that does not decode or is shorter
    than one analysis window; called only in _map_blocks' work, which names the remedy."""
    waves = []
    for path in paths:
        w = load_wav(path)
        if len(w) < WINDOW:
            raise AudioFormatError(f"{path}: {len(w)} samples, shorter than one {WINDOW}-sample analysis window")
        waves.append(w)
    return waves


def _network_input(waves, fcfg: dict) -> np.ndarray:
    """A block's (clips, frames, mel_bins, 1) network input from one log-mel call."""
    return log_mel(waves, fcfg["frames"], mel_bins=fcfg["mel_bins"])[..., None]


def _map_in_children(stage: _Stage, work, items, jobs: int, held) -> list:
    """work(item) for each item, in item order: the one parallel path, run by gen-data's clips,
    train-backbone's and calibrate's clip blocks, train-detector's fits and the sweep's cells.
    At jobs >= 2 the items are dealt into n = min(jobs, len(items)) shards, items[j::n]: shard 0
    runs here, and each other shard in a forked child that starts from the loaded interpreter and
    what the caller built; threads would serialize work's small numpy calls on the interpreter
    lock. A shard stops at its first failing item; the failure at the lowest index is raised, as
    at jobs 1, and no child whose first item lies past a known failure is waited for. Every child
    is reaped, and all are killed first if an exception leaves; on Linux a child also dies with its
    stage. A FormatError or OSError from a child is raised here as itself; any other failure, or a
    dead child, raises a StageError naming held(the positions in items of its shard)."""
    n = min(jobs, len(items))
    if n <= 1 or not hasattr(os, "fork"):
        return [work(item) for item in items]

    def run_shard(j):
        results = []
        for index in range(j, len(items), n):
            try:
                results.append(work(items[index]))
            except Exception as exc:  # noqa: BLE001 - raised once no earlier item can fail
                child_text = j > 0 and not isinstance(exc, (FormatError, OSError))  # sent as text, not pickled
                return None, (index, f"{type(exc).__name__}: {exc}" if child_text else exc)
        return results, None

    ends, live = [], []  # each child's pipe adds its read end, then its write end
    stage_pid = os.getpid()
    try:
        for j in range(1, n):
            ends += [open(end, mode) for end, mode in zip(os.pipe(), ("rb", "wb"))]
            pid = os.fork()
            if pid == 0:
                try:  # never return into the caller's stack or flush its stdio
                    if sys.platform.startswith("linux"):
                        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
                        if os.getppid() != stage_pid:  # the stage died before the prctl
                            os._exit(1)
                    for end in ends[:-1]:  # so a send fails, not blocks, once the stage is gone
                        end.close()
                    pickle.dump(run_shard(j), ends[-1], protocol=pickle.HIGHEST_PROTOCOL)
                    ends[-1].close()
                    os._exit(0)
                finally:
                    os._exit(1)
            live.append(pid)
            ends[-1].close()
        reports = [run_shard(0)]  # (results, None) or (None, (index, error)) per shard, in shard order
        for j, (pid, pipe) in enumerate(zip(list(live), ends[::2]), 1):
            if any(failed and failed[0] < j for _, failed in reports):  # no later shard holds an earlier item
                break
            data, code = pipe.read(), os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            live.remove(pid)
            if code != 0:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise stage.error(f"{held(range(j, len(items), n))} {how} before sending its results")
            reports.append(pickle.loads(data))
        failures = [failed for _, failed in reports if failed]
        if failures:
            index, error = min(failures, key=lambda failed: failed[0])
            held_by = held(range(index % n, len(items), n))
            raise error if isinstance(error, BaseException) else stage.error(f"{held_by} failed: {error}")
        return [reports[i % n][0][i // n] for i in range(len(items))]
    finally:
        for pid in live:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for end in ends:
            end.close()


def _map_blocks(stage: _Stage, work, items, jobs: int) -> list:
    """work(block) for each _TRACE_BLOCK-item block of items, in order, through _map_in_children.
    Every corpus clip is decoded in such a work, so a FormatError, which crosses from a child as
    itself, is a clip that fails and leaves as a StageError naming the manifest's remedy."""
    blocks = [items[i : i + _TRACE_BLOCK] for i in range(0, len(items), _TRACE_BLOCK)]
    try:
        return _map_in_children(stage, work, blocks, jobs,
                                lambda held: f"the worker for clip blocks {', '.join(map(str, held))}")
    except FormatError as exc:
        raise stage.error(f"{exc}; {stage.remedy(stage.paths.manifest, 'gen-data')[1]}") from exc


def _feature_array(stage: _Stage, files, fcfg: dict, jobs: int) -> np.ndarray:
    blocks = _map_blocks(stage, lambda block: _network_input(_load_clips(block), fcfg), files, jobs)
    return np.concatenate(blocks, axis=0)


def _trace(stage: _Stage, netspec: NetworkSpec, weights: WeightStore, items, fcfg: dict, jobs: int, waves_of):
    """One trace of items, one row per item in item order; traced in blocks, and waves_of maps a
    block to its waveforms."""
    def work(block):
        return forward_batch(netspec, weights, _network_input(waves_of(block), fcfg))[1]

    parts = _map_blocks(stage, work, items, jobs)
    return LayerTable(np.concatenate([part.values for part in parts]), parts[0].layout)


# --- stages -----------------------------------------------------------


def cmd_gen_data(cfg: dict, jobs: int = 1):
    """Write the corpus and manifest, and the noise bank, under out_dir; each unless the config names one."""
    stage = _Stage(cfg, "gen-data")
    paths = stage.paths
    try:
        paths.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # --out names a file, or a path beneath one
        raise stage.error(f"cannot create the output directory {paths.out}: {exc.strerror or exc}") from exc
    records, bank = [], {}
    try:
        if not cfg["manifest"]:
            records = generate_corpus(CorpusSpec(**cfg["corpus"], seed=cfg["seed"]), paths.corpus_dir,
                                      map_fn=lambda render, clips: _map_in_children(stage, render, clips, jobs,
                                          lambda held: f"the worker for shard {held[0]} ({len(held)} clips)"))
            stage.output(paths.manifest, lambda path: save_manifest(records, path))
        if not cfg["noise_bank"]:
            bank = generate_noise_bank(cfg["corpus"]["sample_rate"], seed=cfg["seed"] + 1)
            paths.noise_dir.mkdir(parents=True, exist_ok=True)
            for i, wave in bank.items():
                stage.output(paths.noise_dir / f"{i}.wav", lambda path: save_wav(wave, path, bit_depth=FLOAT32))
    except OSError as exc:  # e.g. a regular file where the corpus or noise bank needs a directory
        raise stage.error(f"cannot write {exc.filename or paths.out}: {exc.strerror or exc}") from exc
    stage.audit(clips=len(records), noise_classes=sorted(bank))


def cmd_train_backbone(cfg: dict, jobs: int = 1):
    """Train the speaker network on real train-split clips."""
    stage = _Stage(cfg, "train-backbone")
    records, root = stage.records()
    train_real = [r for r in records if r.split == "train" and r.label == REAL]
    stage.require_two("the speakers of the real train-split clips", [r.speaker_id for r in train_real])
    speakers = sorted({r.speaker_id for r in records})
    index = {s: i for i, s in enumerate(speakers)}
    netspec = _network_for(records, cfg)
    _check_k(cfg, netspec)

    held = [r for r in records if r.split == "test" and r.label == REAL]
    # the held-out clips decode with the train clips, so one that fails costs no training and saves nothing
    both = _feature_array(stage, [root / r.path for r in train_real + held], cfg["frontend"], jobs)
    feats, held_feats = both[: len(train_real)], both[len(train_real) :]
    labels = np.asarray([index[r.speaker_id] for r in train_real])
    store, losses = train_backbone(netspec, feats, labels, TrainConfig(**cfg["backbone"], seed=cfg["seed"]))
    stage.trained(store, netspec, "backbone")

    accuracy = None
    if held:
        predicted = classify(netspec, store, held_feats)
        truth = np.asarray([index[r.speaker_id] for r in held])
        accuracy = float(np.mean(predicted == truth))
    stage.output(stage.paths.backbone, lambda path: save_weights(store, path))
    stage.audit(epoch_losses=losses, holdout_speaker_accuracy=accuracy)
    return store


def cmd_calibrate(cfg: dict, jobs: int = 1):
    """Trace every manifest clip once into traces.csv, and average the train-split activations
    of both classes into per-layer thresholds."""
    stage = _Stage(cfg, "calibrate")
    paths = stage.paths
    records, root = stage.records()
    netspec = _network_for(records, cfg)
    weights = stage.need(paths.backbone, "train-backbone", load_weights, netspec)

    cal = [i for i, r in enumerate(records) if r.split == "train"]
    if not cal:
        raise stage.error("no train-split clips to calibrate on")
    trace = _trace(stage, netspec, weights, [root / r.path for r in records], cfg["frontend"], jobs,
                   _load_clips)
    stage.output(paths.traces, write_feature_csv, trace.column_names("n"), [r.label for r in records],
                 [r.split for r in records], trace.values)
    # blocks are cut from manifest order at every --jobs, so these rows and thresholds do not depend on it
    thresholds = calibrate_thresholds(LayerTable(trace.values[cal], trace.layout))
    stage.output(paths.thresholds, lambda path: save_thresholds(thresholds, path))
    stage.audit(calibration_clips=len(cal))
    return thresholds


def cmd_extract(cfg: dict, jobs: int = 1):
    """Write per-criterion feature CSVs from calibrate's traces.csv; nothing is traced here."""
    stage = _Stage(cfg, "extract")
    records, _ = stage.records()
    netspec = _network_for(records, cfg)
    _check_k(cfg, netspec)
    criteria, k = _criteria(cfg), cfg["coverage"]["k"]
    thresholds = stage.thresholds(netspec) if ACN in criteria else None
    trace = stage.trace(netspec, records)

    for criterion in criteria:
        feats = acn_features(trace, thresholds) if criterion == ACN else tkan_features(trace, k)
        stage.output(stage.paths.features(criterion), write_feature_csv, feats.column_names(criterion),
                     [r.label for r in records], [r.split for r in records], feats.values)
    stage.audit(rows=len(records), criteria=criteria)


def cmd_train_detector(cfg: dict, jobs: int = 1):
    """Fit one detector per criterion on the train split, then save the detectors and the audit.

    At jobs >= 2 the tkan fit runs in a forked child while acn fits here; every path calls the
    same train_detector, so the bytes agree, and nothing is written unless every fit succeeded."""
    stage = _Stage(cfg, "train-detector")
    criteria = _criteria(cfg)
    train = {c: stage.split(c, "train") for c in criteria}
    config = TrainConfig(**cfg["detector"], seed=cfg["seed"], lr=3e-4, decay=1e-6)

    def fit(criterion):
        x_train, y_train = train[criterion]
        return train_detector(x_train, y_train, config, criterion=criterion,
                              k=cfg["coverage"]["k"] if criterion == TKAN else 0)

    models = dict(zip(criteria, _map_in_children(
        stage, fit, criteria, jobs, lambda held: f"the {' and '.join(criteria[i] for i in held)} fit")))
    for criterion, model in models.items():
        stage.trained(model.weights, model.network, f"{criterion} detector")
    for criterion, model in models.items():
        stage.output(stage.paths.detector(criterion), lambda path: save_detector(model, path))
    stage.audit(epoch_losses={c: m.loss_log for c, m in models.items()})
    return models


def cmd_eval(cfg: dict, jobs: int = 1):
    """Score the test split with the frozen detectors; one report row per criterion."""
    stage = _Stage(cfg, "eval")
    rows = []
    for criterion in _criteria(cfg):
        x_test, y_test = stage.split(criterion, "test")
        scores = score_batch(stage.detector(criterion, x_test.shape[1]), x_test)
        rows.append(MetricRow.from_metrics("test", criterion, "none", 0.0,
                                           compute_all(y_test, scores)))
    stage.output(stage.paths.eval_report, write_report, rows)
    stage.audit()
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
    """per_class test clips of each class, taken round-robin over the sorted speaker ids
    (manifest order within a speaker), returned in manifest order; 0 takes every test clip."""
    test = [r for r in records if r.split == "test"]
    if per_class <= 0:
        return test
    picked = []
    for label in (REAL, FAKE):
        seen = Counter()
        ranked = []  # (the clip's rank within its speaker, speaker, manifest index)
        for i, r in enumerate(test):
            if r.label == label:
                ranked.append((seen[r.speaker_id], r.speaker_id, i))
                seen[r.speaker_id] += 1
        picked += [i for _, _, i in sorted(ranked)[:per_class]]
    return [test[i] for i in sorted(picked)]


def _write_rows(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_sweep(cfg: dict, jobs: int = 1):
    """Run every manipulation cell against frozen models; continue past cell failures."""
    stage = _Stage(cfg, "sweep")
    paths = stage.paths
    records, root = stage.records()
    netspec = _network_for(records, cfg)
    weights = stage.need(paths.backbone, "train-backbone", load_weights, netspec)
    criteria, k = _criteria(cfg), cfg["coverage"]["k"]
    n_layers = len(netspec.monitored_layers())
    detectors = {c: stage.detector(c, n_layers * (k if c == TKAN else 1)) for c in criteria}
    thresholds = stage.thresholds(netspec) if ACN in criteria else None
    noise_files = sorted(paths.noise_dir.glob("*.wav"))  # a path that is no directory globs to nothing
    if not noise_files:
        raise stage.error(f"missing noise bank {paths.noise_dir} (no *.wav files); "
                          f"{stage.remedy(paths.noise_dir, 'gen-data')[0]}")
    bank = {p.stem: stage.need(p, "gen-data", load_noise_bank, cfg["corpus"]["sample_rate"]) for p in noise_files}

    frozen = [paths.backbone] + [paths.detector(c) for c in criteria]
    if thresholds is not None:
        frozen.append(paths.thresholds)
    hashes_before = _sha256s(frozen)

    sample = _sample_records(records, cfg["sweep"]["sample_per_class"])
    stage.require_two("the labels of the sampled test-split clips", [r.label for r in sample])
    waves = [w for block in _map_blocks(stage, _load_clips, [root / r.path for r in sample], 1) for w in block]
    for w in waves:
        w.samples.flags.writeable = False  # every cell manipulates these same clips
    y_true = np.asarray([1 if r.label == FAKE else 0 for r in sample])
    formula = cfg["snr_formula"]
    cells = sweep_cells(cfg, sorted(bank))

    baseline = _trace(stage, netspec, weights, waves, cfg["frontend"], 1, list)

    def evaluate(manipulation):
        trace = baseline  # an identity cell returns its clips bit for bit, so it reuses this trace
        if manipulation is not None and not manipulation.is_identity():
            trace = _trace(stage, netspec, weights, waves, cfg["frontend"], 1,
                           lambda block: apply_manipulation(block, manipulation, bank, formula))
        rows = []
        for criterion in criteria:
            feats = acn_features(trace, thresholds) if criterion == ACN else tkan_features(trace, k)
            scores = score_batch(detectors[criterion], feats.values)
            name = manipulation.describe() if manipulation else "none"
            magnitude = manipulation.magnitude if manipulation else 0.0
            rows.append(MetricRow.from_metrics("test", criterion, name, magnitude,
                                               compute_all(y_true, scores)))
        return rows

    def run_cell(manipulation):
        try:
            return evaluate(manipulation), None
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            return None, f"{type(exc).__name__}: {exc}"

    merged = evaluate(None)
    failures = []
    done = _map_in_children(stage, run_cell, cells, jobs,
                            lambda held: f"the worker for cells {', '.join(map(str, held))}")
    for index, (cell, (rows, error)) in enumerate(zip(cells, done)):
        if error is None:
            merged.extend(rows)
        else:
            failures.append((index, cell.describe(), cell.magnitude, error))
    if _sha256s(frozen) != hashes_before:  # before any report is written, so none reflects the changed models
        raise stage.error("frozen model artifacts changed during the sweep")
    stage.output(paths.sweep_report, write_report, merged)
    stage.output(paths.sweep_long, _write_rows, [*REPORT_COLUMNS[:4], "metric", "value"],
                 ([row.dataset, row.criterion, row.manipulation, repr(row.magnitude), metric,
                   repr(getattr(row, metric))] for row in merged for metric in REPORT_COLUMNS[4:]))
    stage.output(paths.sweep_failures, _write_rows, ["cell", "manipulation", "magnitude", "error"],
                 ([i, name, repr(m), error.replace("\n", " ")] for i, name, m, error in failures))
    stage.audit(cells=len(cells), failed_cells=len(failures), sampled_clips=len(sample), frozen_hashes=hashes_before)
    return merged, failures


def cmd_export_features(cfg: dict, jobs: int = 1):
    """Copy calibrate's traces.csv and extract's feature CSVs to export/ once each matches the manifest."""
    stage = _Stage(cfg, "export-features")
    paths = stage.paths
    records, _ = stage.records()
    stage.trace(_network_for(records, cfg), records)
    features = [paths.features(criterion) for criterion in _criteria(cfg)]
    for path in features:
        stage.need(path, "extract", stage.manifest_rows, records)
    paths.export_dir.mkdir(parents=True, exist_ok=True)
    for path in [paths.traces, *features]:
        stage.output(paths.export_dir / path.name, lambda dest: shutil.copyfile(path, dest))
    stage.audit(rows=len(records))
