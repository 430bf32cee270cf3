"""voicetrace benchmark: one workload per process, metrics as JSON on the last line.

    python3 perfbench/run.py --workload {train,sweep,score} --seed N --seconds S --trace {0,1}

Run from the root of a voicetrace checkout; the program is imported from
its `src/`. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JOBS = 2  # worker threads; with BLAS pinned to one thread, never more compute threads than cores
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
M_ARENA_MAX = -8  # glibc mallopt parameter


def limit_malloc_arenas() -> int | None:
    """One glibc malloc arena for all threads, set before any thread starts.

    With one arena per thread, peak RSS depends on which pool thread freed
    which buffer and spreads by about 10% between identical runs; with one it
    repeats within a few percent, at no measured cost in time.
    """
    try:
        return 1 if ctypes.CDLL(None).mallopt(M_ARENA_MAX, 1) == 1 else None
    except (OSError, AttributeError):
        return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "sweep", "score"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float,
                        help="timed pass time to accumulate, split evenly over the rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from an extra traced pass per round")
    parser.add_argument("--tiny", action="store_true",
                        help="one round of the smallest config, no warm-up (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "voicetrace" / "pipeline.py").is_file():
        print(f"perfbench: no voicetrace sources under {src}; run from a voicetrace checkout",
              file=sys.stderr)
        return 2
    for name in BLAS_ENV:  # must precede the first numpy import
        os.environ[name] = BLAS_THREADS
    pinned = {"blas_threads": int(BLAS_THREADS), "malloc_arena_max": limit_malloc_arenas()}
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from bench import run_benchmark

    return run_benchmark(args, root=ROOT, jobs=JOBS, pinned=pinned)


if __name__ == "__main__":
    raise SystemExit(main())
