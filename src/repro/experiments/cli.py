"""Command-line entry point for regenerating the paper's tables and figures.

Usage (after installing the package)::

    python -m repro.experiments.cli --list
    python -m repro.experiments.cli fig6 --requests 60000
    python -m repro.experiments.cli fig9 fig10 --requests 30000 --csv-dir out/

Each experiment prints the same rows/series recorded in ``EXPERIMENTS.md``;
``--csv-dir`` additionally writes one CSV per experiment for re-plotting.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.reporting import rows_to_csv, rows_to_table
from repro.experiments.common import ExperimentSettings
from repro.experiments.multiclient import MultiClientResult
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.simulation.costmodel import DEVICE_PROFILES, WRITE_POLICIES
from repro.simulation.metrics import SweepResult
from repro.trace.cache import (
    CACHE_ENV_VAR,
    TraceCache,
    default_trace_cache,
    set_default_trace_cache,
)
from repro.workloads.arrivals import ARRIVAL_KINDS
from repro.workloads.phased import PHASE_PLANS

__all__ = ["main", "build_parser", "render_result"]


def _offered_loads(text: str) -> tuple[float, ...]:
    """Parse ``--offered-load`` (e.g. ``0.5,0.9,1.2``) into positive floats."""
    try:
        loads = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid offered loads {text!r}")
    if not loads or any(load <= 0.0 for load in loads):
        raise argparse.ArgumentTypeError(f"offered loads must be > 0, got {text!r}")
    return loads


def _shard_counts(text: str) -> tuple[int, ...]:
    """Parse ``--shards`` (e.g. ``1,2,4``) into a tuple of positive ints."""
    try:
        counts = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid shard counts {text!r}")
    if not counts or any(count < 1 for count in counts):
        raise argparse.ArgumentTypeError(f"shard counts must be >= 1, got {text!r}")
    return counts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the CLIC paper (FAST '09).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help=f"experiment ids to run (available: {', '.join(sorted(EXPERIMENTS))})",
    )
    parser.add_argument(
        "--experiment",
        action="append",
        default=None,
        metavar="EXPERIMENT",
        dest="experiment_flags",
        help="experiment id to run (repeatable; appended after positional ids)",
    )
    parser.add_argument("--list", action="store_true", help="list available experiments and exit")
    parser.add_argument(
        "--requests",
        type=int,
        default=60_000,
        help="storage-server requests per generated trace (default: 60000)",
    )
    parser.add_argument("--seed", type=int, default=17, help="workload seed (default: 17)")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sweep grids (default: 1 = serial; "
        "results are identical at any job count)",
    )
    parser.add_argument(
        "--shards",
        type=_shard_counts,
        default=None,
        metavar="S1,S2,...",
        help="comma-separated shard counts for the cluster experiment "
        "(default: 1,2,4,8; shard count 1 is the unified-cache baseline)",
    )
    parser.add_argument(
        "--phase-plan",
        choices=sorted(PHASE_PLANS),
        default=None,
        dest="phase_plan",
        help="phase schedule replayed by the adaptivity experiment "
        "(default: churn; see repro.workloads.phased)",
    )
    parser.add_argument(
        "--device",
        choices=sorted(DEVICE_PROFILES),
        default=None,
        help="device profile priced by the latency experiment and by the "
        "load experiment's cost and queueing models "
        "(default: ssd; HDD misses are seek-distance-aware)",
    )
    parser.add_argument(
        "--cost-model",
        choices=WRITE_POLICIES,
        default=None,
        dest="cost_model",
        help="write-handling variant of the service-time cost model "
        "(default: write-through; write-back absorbs writes at cache speed)",
    )
    parser.add_argument(
        "--offered-load",
        type=_offered_loads,
        default=None,
        metavar="F1,F2,...",
        dest="offered_loads",
        help="comma-separated offered-load fractions swept by the load "
        "experiment, as multiples of the modeled single-server capacity "
        "(default: 0.25,0.5,0.75,0.9,1.1,1.5)",
    )
    parser.add_argument(
        "--arrival",
        choices=ARRIVAL_KINDS,
        default=None,
        help="arrival process used by the load experiment "
        "(default: poisson; see repro.workloads.arrivals)",
    )
    parser.add_argument(
        "--csv-dir",
        type=Path,
        default=None,
        help="directory to write one CSV per experiment (created if missing)",
    )
    cache_group = parser.add_mutually_exclusive_group()
    cache_group.add_argument(
        "--trace-cache",
        type=Path,
        default=None,
        metavar="DIR",
        help="directory for the on-disk trace cache (default: "
        "$REPRO_TRACE_CACHE or ~/.cache/repro-clic/traces)",
    )
    cache_group.add_argument(
        "--no-trace-cache",
        action="store_true",
        help="disable the on-disk trace cache (regenerate traces in memory)",
    )
    return parser


def render_result(experiment_id: str, result) -> tuple[str, list[dict]]:
    """Render an experiment's return value as (text, rows-for-csv)."""
    if isinstance(result, SweepResult):
        return result.to_table(), result.as_rows()
    if isinstance(result, MultiClientResult):
        rows = result.as_rows()
        return rows_to_table(rows), rows
    if isinstance(result, dict):
        # Figures 6-8 return {trace name: SweepResult}.
        blocks = []
        rows: list[dict] = []
        for name, sweep in result.items():
            blocks.append(f"[{name}]\n{sweep.to_table()}")
            for row in sweep.as_rows():
                rows.append({"trace": name, **row})
        return "\n\n".join(blocks), rows
    if isinstance(result, list):
        return rows_to_table(result), result
    return str(result), []


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for experiment_id in sorted(EXPERIMENTS):
            experiment = EXPERIMENTS[experiment_id]
            print(f"{experiment_id:<14} {experiment.paper_artifact:<10} {experiment.description}")
        return 0
    if args.experiment_flags:
        args.experiments = list(args.experiments) + list(args.experiment_flags)
    if not args.experiments:
        parser.error("no experiments given (use --list to see what is available)")

    # The environment variable is set (not just the in-process default), so
    # sweep worker processes resolve the same cache directory.
    if args.no_trace_cache:
        os.environ[CACHE_ENV_VAR] = "off"
        set_default_trace_cache(TraceCache(enabled=False))
    elif args.trace_cache is not None:
        os.environ[CACHE_ENV_VAR] = str(args.trace_cache)
        set_default_trace_cache(TraceCache(root=args.trace_cache))

    settings_kwargs = dict(
        target_requests=args.requests, seed=args.seed, jobs=args.jobs
    )
    if args.shards is not None:
        settings_kwargs["shard_counts"] = args.shards
    if args.device is not None:
        settings_kwargs["device"] = args.device
    if args.cost_model is not None:
        settings_kwargs["write_policy"] = args.cost_model
    if args.phase_plan is not None:
        settings_kwargs["phase_plan"] = args.phase_plan
    if args.offered_loads is not None:
        settings_kwargs["offered_loads"] = args.offered_loads
    if args.arrival is not None:
        settings_kwargs["arrival"] = args.arrival
    settings = ExperimentSettings(**settings_kwargs)
    if args.csv_dir is not None:
        args.csv_dir.mkdir(parents=True, exist_ok=True)

    for experiment_id in args.experiments:
        experiment = get_experiment(experiment_id)
        print(f"\n### {experiment.paper_artifact}: {experiment.description}")
        if experiment_id == "fig2":
            result = experiment.runner()
        else:
            result = experiment.runner(settings=settings)
        text, rows = render_result(experiment_id, result)
        print(text)
        if args.csv_dir is not None and rows:
            path = rows_to_csv(rows, args.csv_dir / f"{experiment_id}.csv")
            print(f"(wrote {path})")
    # Diagnostics go to stderr so experiment stdout stays byte-identical
    # across runs and --jobs values (and safely redirectable to files).
    print(f"({default_trace_cache().summary()})", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
