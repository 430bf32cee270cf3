"""In-memory span tracer for the voicetrace benchmark.

The tracer wraps the functions that `voicetrace.pipeline` and
`voicetrace.manipulate` look up in their own module namespaces, so the
program's source is never edited. Each call becomes a span (name, start,
end, parent, thread); counts are kept next to the spans. Nothing is
written until the benchmark ends. A layer's self time is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

from voicetrace import manipulate, pipeline


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    phase: str


class Tracer:
    """Spans and counts of one run; safe to use from pool threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.wav_paths: dict[str, set] = defaultdict(set)
        self.phase = ""  # "setup" or "pass"; spans and counts are kept apart by phase
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Record one span; parent defaults to the innermost open span of this thread."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent, threading.get_ident(),
                                       self.phase))

    def add(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[self.phase][name] += n

    def saw_wav(self, path) -> None:
        with self._lock:
            self.wav_paths[self.phase].add(str(path))

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps({
            "spans": [asdict(s) for s in self.spans],
            "counts": {phase: dict(c) for phase, c in self.counts.items()},
        }) + "\n", encoding="utf-8")


def _steps(n_rows: int, config) -> int:
    return config.epochs * math.ceil(n_rows / config.batch_size)


def _pool_class(tracer: Tracer):
    """ThreadPoolExecutor whose tasks are spans parented to the submitter's span."""

    class TracedPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            self._opened = time.perf_counter()

        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()

            def task():
                with tracer.span("pipeline.pool_task", parent=parent):
                    return fn(*args, **kwargs)

            return super().submit(task)

        def shutdown(self, wait=True, **kwargs):
            super().shutdown(wait, **kwargs)
            tracer.add("pipeline.pool_capacity_s", (time.perf_counter() - self._opened) * self._max_workers)

    return TracedPool


def _wrap(tracer: Tracer, func, name, counter=None):
    """name is a span name, or a callable mapping the call's arguments to one."""

    def wrapped(*args, **kwargs):
        span_name = name(*args, **kwargs) if callable(name) else name
        with tracer.span(span_name):
            result = func(*args, **kwargs)
        tracer.add(span_name + ".calls")
        if counter is not None:
            counter(result, *args, **kwargs)
        return result

    return wrapped


def _patches(tracer: Tracer):
    """(module, attribute, replacement) for every wrapped call site."""
    add = tracer.add

    def on_corpus(records, *a, **k):
        add("corpus.clips", len(records))

    def on_wav(_, path, *a, **k):
        tracer.saw_wav(path)

    def on_backbone_train(_, spec, features, labels, config):
        add("backbone.train.steps", _steps(len(features), config))

    def on_forward(_, spec, weights, batch):
        add("backbone.forward.clips", len(batch))
        add("pipeline.clips_traced", len(batch))

    def on_classify(_, spec, weights, batch):
        add("backbone.forward.clips", len(batch))

    def on_csv_write(_, path, *a, **k):
        add("coverage.csv_write.bytes", Path(path).stat().st_size)

    def on_detector_train(_, features, labels, config, *a, **k):
        add("detector.train.steps", _steps(len(features), config))

    def manipulation_name(w, m, *a, **k):
        if m.is_identity():
            add("manipulate.identity_calls")
        return f"manipulate.{m.kind}"

    p = pipeline
    table = [
        (p, "generate_corpus", "corpus.generate", on_corpus),
        (p, "generate_noise_bank", "manipulate.noise_bank", None),
        (p, "load_noise_bank", "manipulate.noise_bank", None),
        (p, "load_wav", "audio.load_wav", on_wav),
        (manipulate, "load_wav", "audio.load_wav", None),
        (p, "log_mel", "audio.log_mel", None),
        (p, "train_backbone", "backbone.train", on_backbone_train),
        (p, "forward_batch", "backbone.forward", on_forward),
        (p, "classify", "backbone.forward", on_classify),
        (p, "calibrate_thresholds", "coverage.calibrate", None),
        (p, "acn_features", "coverage.acn", None),
        (p, "tkan_features", "coverage.tkan", None),
        (p, "write_feature_csv", "coverage.csv_write", on_csv_write),
        (p, "read_feature_csv", "coverage.csv_read", None),
        (p, "train_detector", "detector.train", on_detector_train),
        (p, "score_batch", "detector.score", None),
        (p, "apply_manipulation", manipulation_name, None),
        (p, "compute_all", "metrics.compute_all", None),
        (p, "write_report", "metrics.write_report", None),
    ]
    patches = [(mod, attr, _wrap(tracer, getattr(mod, attr), name, counter))
               for mod, attr, name, counter in table]
    patches.append((p, "ThreadPoolExecutor", _pool_class(tracer)))
    return patches


@contextmanager
def installed(tracer: Tracer):
    """Route the program's calls through the tracer for the duration of the block."""
    patches = _patches(tracer)
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, replacement in patches:
            setattr(mod, attr, replacement)
        yield tracer
    finally:
        for mod, attr, original in saved:
            setattr(mod, attr, original)


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.id] = (s.end - s.start) - covered
    return out


STAGES = ("gen-data", "train-backbone", "calibrate", "extract", "train-detector", "eval",
          "sweep", "export-features")
SETUP_STAGES = STAGES[:5]
MANIPULATIONS = ("resample", "speed", "pitch", "add_noise")
TIMED_LAYERS = ("corpus.generate", "audio.load_wav", "audio.log_mel", "backbone.train",
                "backbone.forward", "coverage.calibrate", "coverage.acn", "coverage.tkan",
                "coverage.csv_write", "coverage.csv_read", "detector.train", "detector.score",
                *(f"manipulate.{kind}" for kind in MANIPULATIONS), "manipulate.noise_bank",
                "metrics.compute_all", "metrics.write_report")
CALL_COUNTS = ("audio.load_wav", "audio.log_mel", "detector.score", "metrics.compute_all",
               *(f"manipulate.{kind}" for kind in MANIPULATIONS))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics of the traced passes, each per pass; setup.stage.* per set-up."""
    spans = [s for s in tracer.spans if s.phase == "pass"]
    own = self_times(spans)
    busy = defaultdict(float)
    for s in spans:
        busy[s.name] += (s.end - s.start) if s.name.startswith("pipeline.stage.") else own[s.id]
    setup = defaultdict(float)
    for s in tracer.spans:
        if s.phase == "setup" and s.name.startswith("pipeline.stage."):
            setup[s.name] += s.end - s.start
    c = tracer.counts["pass"]
    m = {}
    for stage in STAGES:
        m[f"pipeline.stage.{stage}_s"] = busy[f"pipeline.stage.{stage}"] / passes
    for stage in SETUP_STAGES:
        m[f"setup.stage.{stage}_s"] = setup[f"pipeline.stage.{stage}"] / passes
    m["pipeline.clips_traced"] = c["pipeline.clips_traced"] / passes
    m["pipeline.trace_passes"] = _ratio(c["pipeline.clips_traced"], len(tracer.wav_paths["pass"]))
    m["pipeline.pool_busy_frac"] = _ratio(
        sum(s.end - s.start for s in spans if s.name == "pipeline.pool_task"),
        c["pipeline.pool_capacity_s"])
    for layer in TIMED_LAYERS:
        m[f"{layer}_s"] = busy[layer] / passes
    for layer in CALL_COUNTS:
        m[f"{layer}.calls"] = c[f"{layer}.calls"] / passes
    m["corpus.clips"] = c["corpus.clips"] / passes
    m["corpus.ms_per_clip"] = 1000 * _ratio(busy["corpus.generate"], c["corpus.clips"])
    m["backbone.train.steps"] = c["backbone.train.steps"] / passes
    m["backbone.train.ms_per_step"] = 1000 * _ratio(busy["backbone.train"], c["backbone.train.steps"])
    m["backbone.forward.clips"] = c["backbone.forward.clips"] / passes
    m["backbone.forward.ms_per_clip"] = 1000 * _ratio(busy["backbone.forward"],
                                                      c["backbone.forward.clips"])
    m["coverage.csv_write.bytes"] = c["coverage.csv_write.bytes"] / passes
    m["detector.train.steps"] = c["detector.train.steps"] / passes
    m["detector.train.ms_per_step"] = 1000 * _ratio(busy["detector.train"], c["detector.train.steps"])
    manipulations = sum(c[f"manipulate.{kind}.calls"] for kind in MANIPULATIONS)
    m["manipulate.identity_calls"] = c["manipulate.identity_calls"] / passes
    m["manipulate.useful_frac"] = _ratio(manipulations - c["manipulate.identity_calls"], manipulations)
    m["manipulate.mix_clipped"] = c["manipulate.mix_clipped"] / passes
    return m
