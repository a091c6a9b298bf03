"""Shared machinery for the golden experiment snapshots.

Every experiment in :mod:`repro.experiments.registry` is pinned by a tiny-N
golden fixture: the exact rows its runner reports under
:data:`GOLDEN_SETTINGS`, stored as JSON under ``tests/experiments/golden/``.
The test suite (``test_golden.py``) recomputes the rows and compares them
byte-for-byte after a JSON round trip, so *any* engine/statistics refactor
that changes reported numbers fails loudly instead of silently shifting the
science.

When a change is *supposed* to move the numbers (a bug fix, a new column),
regenerate the fixtures and review the diff like any other code change::

    PYTHONPATH=src python tools/regen_golden.py

(regenerate a subset with ``... regen_golden.py fig6 adaptivity``).

Beside one fixture per registered experiment, :data:`GOLDEN_VARIANTS` pins
a few experiments again under changed settings, each under its own name.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.experiments.cli import render_result
from repro.experiments.common import ExperimentSettings
from repro.experiments.registry import EXPERIMENTS, get_experiment

__all__ = [
    "GOLDEN_DIR",
    "GOLDEN_SETTINGS",
    "GOLDEN_VARIANTS",
    "compute_rows",
    "fixture_path",
    "golden_ids",
]

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Small enough that the whole registry replays in seconds, large enough
#: that every experiment produces non-degenerate rows.  ``target_requests``
#: and ``seed`` deliberately match the experiment end-to-end tests' TINY
#: settings, so one pytest session generates each standard trace once
#: (DB2_C540, the slowest, takes ~5 s) and every consumer shares it via the
#: session trace cache.  Changing anything here invalidates every
#: fixture — regenerate and review the diff.
GOLDEN_SETTINGS = ExperimentSettings(
    target_requests=4_000,
    seed=5,
    jobs=1,
    shard_counts=(1, 2),
)


#: Golden id -> (registered experiment, overrides of :data:`GOLDEN_SETTINGS`).
#: The seek-priced HDD rows: at 4,000 requests every policy's read hit
#: ratio is 0, so the HDD runs use 10,000, where each policy hits about 0.2-9%
#: of its reads and the pricing of hits, misses and seeks all shows.
GOLDEN_VARIANTS: dict[str, tuple[str, dict]] = {
    "latency-hdd": ("latency", {"device": "hdd", "target_requests": 10_000}),
    "latency-hdd-write-back": (
        "latency",
        {"device": "hdd", "write_policy": "write-back", "target_requests": 10_000},
    ),
    "load-hdd": ("load", {"device": "hdd", "target_requests": 10_000}),
}


def golden_ids() -> list[str]:
    """Every pinned id: the registered experiments, then the variants."""
    return sorted(EXPERIMENTS) + sorted(GOLDEN_VARIANTS)


def fixture_path(golden_id: str) -> Path:
    return GOLDEN_DIR / f"{golden_id}.json"


def compute_rows(golden_id: str) -> list:
    """The reported rows of an experiment or variant under the golden settings.

    Uses the same rendering path as the CLI (:func:`render_result`), then
    normalizes through a JSON round trip so fixture comparison is exact
    (tuples become lists, floats keep their repr).
    """
    experiment_id, overrides = GOLDEN_VARIANTS.get(golden_id, (golden_id, {}))
    experiment = get_experiment(experiment_id)
    if experiment_id == "fig2":
        result = experiment.runner()
    else:
        settings = dataclasses.replace(GOLDEN_SETTINGS, **overrides)
        result = experiment.runner(settings=settings)
    _, rows = render_result(experiment_id, result)
    return json.loads(json.dumps(rows))
