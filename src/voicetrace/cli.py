"""Command-line entry point wiring the pipeline stages to argparse."""

from __future__ import annotations

import argparse
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads; --jobs fills the cores instead
from . import pipeline  # noqa: E402
from .errors import ConfigError, StageError  # noqa: E402

_STAGES = [
    ("gen-data", pipeline.cmd_gen_data, "write the synthetic corpus and noise bank"),
    ("train-backbone", pipeline.cmd_train_backbone, "train the instrumented speaker network"),
    ("calibrate", pipeline.cmd_calibrate, "trace all clips and compute per-layer activation thresholds"),
    ("extract", pipeline.cmd_extract, "write feature CSVs from the calibrated traces"),
    ("train-detector", pipeline.cmd_train_detector, "train the real/fake classifiers"),
    ("eval", pipeline.cmd_eval, "score the test split and write the report"),
    ("sweep", pipeline.cmd_sweep, "run the 75-cell manipulation robustness grid"),
    ("export-features", pipeline.cmd_export_features, "dump raw traces and features for plotting"),
]


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voicetrace",
        description="Fake-voice detection via layer-wise neuron activation monitoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in _STAGES:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="JSON experiment config")
        p.add_argument("--seed", type=int, metavar="N", help="override the config seed")
        p.add_argument("--out", metavar="DIR", help="override the output directory")
        p.add_argument("--jobs", type=positive_int, default=1, metavar="N",
                       help="workers: gen-data, train-backbone, calibrate, train-detector and sweep "
                            "deal their work to forked child processes (never changes output bytes)")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = pipeline.load_config(args.config, seed=args.seed, out_dir=args.out)
        result = args.func(cfg, jobs=args.jobs)
    except ConfigError as exc:
        print(f"voicetrace: config error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"voicetrace: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # e.g. a directory where an output file belongs
        named = f"{exc.filename}: " if exc.filename else ""
        print(f"voicetrace: {args.command}: {named}{exc.strerror or exc}", file=sys.stderr)
        return 2
    if args.command == "sweep":
        _, failures = result
        if failures:
            print(f"voicetrace: sweep finished with {len(failures)} failed cells "
                  f"(see sweep_failures.csv)", file=sys.stderr)
    print(f"{args.command}: done ({cfg['out_dir']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
