"""Shared settings and helpers for the per-figure benchmark harness.

Each ``bench_fig*.py`` file regenerates one table or figure of the paper.
Run them with::

    pytest benchmarks/ --benchmark-only -s

The ``-s`` flag lets the benches print the regenerated rows/series (the same
numbers recorded in ``EXPERIMENTS.md``).  Benchmark timings measure the cost
of regenerating the artifact end-to-end (trace generation + simulation).

``BENCH_SETTINGS`` controls fidelity: the default trace length keeps a full
``pytest benchmarks/`` run in the tens-of-minutes range; raise
``REPRO_BENCH_REQUESTS`` (environment variable) for closer-to-paper curves.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.experiments.common import ExperimentSettings

__all__ = [
    "BENCH_SETTINGS",
    "best_of",
    "effective_jobs",
    "emit_bench_json",
    "print_sweep",
    "print_rows",
    "usable_cpus",
]

_DEFAULT_REQUESTS = int(os.environ.get("REPRO_BENCH_REQUESTS", "60000"))
_DEFAULT_SEED = int(os.environ.get("REPRO_BENCH_SEED", "17"))
#: Worker processes for the sweep grids (REPRO_BENCH_JOBS=N to parallelise;
#: the default of 1 keeps the regenerated numbers bit-identical to the
#: historical serial runs — any N produces the same output, only faster).
_DEFAULT_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))

BENCH_SETTINGS = ExperimentSettings(
    target_requests=_DEFAULT_REQUESTS, seed=_DEFAULT_SEED, jobs=_DEFAULT_JOBS
)


def best_of(fn, repeat):
    """Best-of-*repeat* seconds and the last result of ``fn()``."""
    best, result = None, None
    for _ in range(max(1, repeat)):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def effective_jobs(requested: int) -> int:
    """Clamp a requested worker count to the CPUs this process can use.

    Fanning a grid over more processes than the affinity mask allows only
    adds fork/IPC cost on top of time-slicing — on a 1-CPU runner the old
    ``jobs=4`` default made the "parallel" paths measurably *slower* than
    serial while the JSON record claimed a 4-way run.  Benches must sweep
    with the clamped value and record both requested and effective counts.
    """
    return max(1, min(requested, usable_cpus()))


def emit_bench_json(path, bench: str, grid: dict, seconds: dict, **extra):
    """Write one gate benchmark's ``BENCH_*.json`` timing record.

    Every gate bench routes its artifact through here (the ROADMAP's
    record-every-PR rule), so emission cannot be skipped silently: the
    record always carries the bench name, the measured grid, the usable CPU
    count and the per-path timings; gate results and baselines ride along
    as keyword extras.  An empty *path* skips the write (the ``--json ''``
    convention) and returns ``None``.
    """
    if not path:
        return None
    record = {
        "bench": bench,
        "grid": grid,
        "usable_cpus": usable_cpus(),
        "seconds": {name: round(s, 4) for name, s in seconds.items()},
    }
    record.update(extra)
    out = Path(path)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return out


def print_sweep(title: str, sweep) -> None:
    """Print one figure's series as a text table."""
    print(f"\n=== {title} ===")
    print(sweep.to_table())


def print_rows(title: str, rows, columns=None) -> None:
    """Print tabular experiment output."""
    from repro.analysis.reporting import rows_to_table

    print(f"\n=== {title} ===")
    print(rows_to_table(rows, columns))
