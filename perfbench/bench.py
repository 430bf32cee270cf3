"""Run one workload: warm up, then per round a timed set-up and timed passes.

Round r uses seed `seed * rounds + r`, so one run averages its metrics
over several corpora and times set-up several times. Set-up repeats until
it has taken MIN_SETUP_S, so a set-up of milliseconds is timed as the
median of many. Passes repeat on the round's inputs until the round has
spent `seconds / rounds` in them; every repeat must reproduce the first
pass's artifacts byte for byte. With `--trace 1` set-up is traced and each
round adds one traced pass; the per-layer metrics come from those.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
import warnings
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

import tracing
from tracing import Tracer
from workloads import (CRITERIA, WORKLOADS, aucs, artifact_hashes, frozen_hashes, output_checks,
                       stage_function, write_config)

CLIP_WARNING = "mixed amplitude exceeds"
ROUNDS = 3
MIN_SETUP_S = 0.1


class Run:
    """Operation counts, failures and clipped mixes of one benchmark process."""

    def __init__(self, jobs: int):
        self.jobs = jobs
        self.attempted = 0
        self.failures: list[str] = []
        self.clipped = 0
        self.tracer: Tracer | None = None
        self._lock = threading.Lock()

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"perfbench: FAILED {what}", file=sys.stderr)

    def on_clip(self) -> None:
        with self._lock:
            self.clipped += 1
        if self.tracer is not None:
            self.tracer.add("manipulate.mix_clipped")

    def stage(self, stage: str, cfg: dict) -> bool:
        """Run one pipeline stage; sweep cells count as operations of their own."""
        self.attempted += 1
        span = self.tracer.span(f"pipeline.stage.{stage}") if self.tracer else nullcontext()
        try:
            with span:
                result = stage_function(stage)(cfg, jobs=self.jobs)
        except Exception:  # noqa: BLE001 - a failed stage is counted, the run goes on
            traceback.print_exc()
            self.fail(f"stage {stage} (seed {cfg['seed']})")
            return False
        if stage == "sweep":
            rows, failed_cells = result
            self.attempted += len(rows) // len(CRITERIA) - 1 + len(failed_cells)
            for index, name, magnitude, error in failed_cells:
                self.fail(f"sweep cell {index} {name} {magnitude!r}: {error}")
        return True

    def stages(self, stages, cfg: dict) -> bool:
        return all(self.stage(s, cfg) for s in stages)

    def check(self, name: str, passed: bool) -> None:
        self.attempted += 1
        if not passed:
            self.fail(f"check {name}")


@contextmanager
def counting_clip_warnings(run: Run):
    """Count mix_noise's clipping warnings instead of printing them, from every thread."""
    with warnings.catch_warnings():
        original = warnings.showwarning
        warnings.filterwarnings("always", message=CLIP_WARNING, category=UserWarning)

        def show(message, category, filename, lineno, file=None, line=None):
            if issubclass(category, UserWarning) and str(message).startswith(CLIP_WARNING):
                run.on_clip()
            else:
                original(message, category, filename, lineno, file, line)

        warnings.showwarning = show
        yield


@contextmanager
def traced(run: Run, tracer: Tracer, phase: str):
    run.tracer, tracer.phase = tracer, phase
    try:
        with tracing.installed(tracer), tracer.span(f"phase.{phase}"):
            yield
    finally:
        run.tracer, tracer.phase = None, ""


def machine_facts(args, jobs: int, pinned: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        **pinned,
        "jobs": jobs,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac") or name.startswith("auc_") or name in ("ok_rate", "pipeline.trace_passes",
                                                                      "trace.stage_coverage"):
        return "ratio"
    if ".ms_per_" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def stage_coverage(tracer: Tracer) -> float:
    """Share of the traced passes' wall time that their stage spans cover."""
    passes = {s.id: s.end - s.start for s in tracer.spans if s.name == "phase.pass"}
    covered = sum(s.end - s.start for s in tracer.spans
                  if s.parent in passes and s.name.startswith("pipeline.stage."))
    return covered / sum(passes.values()) if passes else 0.0


def run_benchmark(args, root: Path, jobs: int, pinned: dict) -> int:
    workload = WORKLOADS[args.workload]
    rounds = 1 if args.tiny else ROUNDS
    work = root / ".perfbench" / "work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    results_dir = root / ".perfbench" / "results"
    run = Run(jobs)
    tracer = Tracer()
    setup_times, pass_times, traced_times, round_aucs, rounds_out = [], [], [], [], []
    try:
        with counting_clip_warnings(run):
            if not args.tiny:
                warm = write_config(workload, work / "warmup", args.seed, tiny=True)
                run.stages(workload.setup_stages + workload.pass_stages, warm)

            for r in range(rounds):
                seed = args.seed * rounds + r
                round_dir = work / f"round{r}"
                repeats = []
                while not repeats or (ok and sum(repeats) < MIN_SETUP_S):
                    start = time.perf_counter()
                    with traced(run, tracer, "setup") if args.trace else nullcontext():
                        cfg = write_config(workload, round_dir, seed, tiny=args.tiny)
                        ok = run.stages(workload.setup_stages, cfg)
                    repeats.append(time.perf_counter() - start)
                setup_times.append(statistics.median(repeats))
                if not ok:
                    continue
                frozen = frozen_hashes(cfg) if workload.setup_stages else None

                spent, hashes, passes = 0.0, None, []
                while ok and (hashes is None or spent < args.seconds / rounds):
                    if workload.fresh_pass and hashes is not None:
                        shutil.rmtree(cfg["out_dir"])
                    start = time.perf_counter()
                    ok = run.stages(workload.pass_stages, cfg)
                    elapsed = time.perf_counter() - start
                    if not ok:
                        break
                    passes.append(elapsed)
                    spent += elapsed
                    produced = artifact_hashes(cfg)
                    if hashes is None:
                        hashes = produced
                    else:
                        run.check(f"{workload.name}.repeat_identical (seed {seed})", produced == hashes)
                if ok and args.trace:
                    if workload.fresh_pass:
                        shutil.rmtree(cfg["out_dir"])
                    start = time.perf_counter()
                    with traced(run, tracer, "pass"):
                        ok = run.stages(workload.pass_stages, cfg)
                    traced_times.append(time.perf_counter() - start)
                    if ok:
                        run.check(f"{workload.name}.traced_identical (seed {seed})",
                                  artifact_hashes(cfg) == hashes)
                if passes:
                    pass_times.append(statistics.median(passes))
                if not ok:
                    continue

                try:
                    checks = output_checks(workload, cfg, frozen)
                    round_aucs.append(aucs(workload, cfg))
                except (OSError, ValueError, KeyError, StopIteration) as exc:
                    checks = {f"readable_outputs: {type(exc).__name__}: {exc}": False}
                for name, passed in checks.items():
                    run.check(f"{workload.name}.{name} (seed {seed})", passed)
                rounds_out.append({"seed": seed, "pass_s": passes, "checks": checks,
                                   "artifacts_sha256": hashes})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(run.failures)
    attempted = max(run.attempted, 1)
    error_rate = failed / attempted
    if args.trace:
        metrics = tracing.layer_metrics(tracer, max(len(traced_times), 1))
        metrics["trace.overhead_s"] = _median(traced_times) - _median(pass_times)
        metrics["trace.stage_coverage"] = stage_coverage(tracer)
    else:
        metrics = {
            "setup_s": _median(setup_times),
            "wall_s": _mean(pass_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "auc_acn": _mean([a for a, _ in round_aucs]),
            "auc_tkan": _mean([t for _, t in round_aucs]),
            "ok_rate": 1.0 - error_rate,
        }

    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps({
        "facts": machine_facts(args, jobs, pinned),
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "error_rate": error_rate,
        "failures": run.failures,
        "mix_clipped": run.clipped,
        "setup_s": setup_times,
        "pass_s": pass_times,
        "traced_pass_s": traced_times,
        "aucs": round_aucs,
        "rounds": rounds_out,
    }, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        tracer.dump(results_dir / f"{stem}-spans.json")

    for name in sorted(metrics):
        print(f"{name:40s} {metrics[name]:14.6f} {unit_of(name)}")
    print(f"{'error_rate':40s} {error_rate:14.6f} ratio  ({failed} of {attempted} operations failed)")
    for failure in run.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0
