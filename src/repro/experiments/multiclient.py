"""Figure 11: multiple storage clients sharing one CLIC-managed cache.

Section 6.4 interleaves three DB2 TPC-C traces (collected with different
first-tier buffer sizes) round-robin into one storage-server workload and
compares two arrangements of the same total cache space:

* one shared cache managed by CLIC (the paper uses 180K pages; scaled here
  to 3 600 pages), which is free to give more space to whichever client
  offers the best caching opportunities; and
* equal static partitioning — each client gets a private cache of one third
  of the space, managed by CLIC independently (the paper's "3 x 60K" bars).

The paper finds that the shared cache concentrates on the high-locality
client (DB2_C60) and wins on overall hit ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.common import DEFAULT_SETTINGS, ExperimentSettings, trace_source
from repro.simulation.engine import ParallelSweepRunner, PolicySpec, SweepCell
from repro.simulation.multiclient import interleave_round_robin, partition_capacity

__all__ = ["MultiClientResult", "run_multiclient_experiment"]


@dataclass(frozen=True)
class MultiClientResult:
    """Per-client and overall read hit ratios for both cache arrangements."""

    shared_cache_size: int
    private_cache_sizes: tuple[int, ...]
    shared_per_client: dict[str, float]
    shared_overall: float
    private_per_client: dict[str, float]
    private_overall: float

    def as_rows(self) -> list[dict]:
        """Figure 11-style rows: one per client plus the overall bars."""
        rows = []
        for client in self.shared_per_client:
            rows.append(
                {
                    "trace": client,
                    "shared_hit_ratio": self.shared_per_client[client],
                    "private_hit_ratio": self.private_per_client.get(client, 0.0),
                }
            )
        rows.append(
            {
                "trace": "overall",
                "shared_hit_ratio": self.shared_overall,
                "private_hit_ratio": self.private_overall,
            }
        )
        return rows


def run_multiclient_experiment(
    trace_names: Sequence[str] = ("DB2_C60", "DB2_C300", "DB2_C540"),
    shared_cache_size: int = 3_600,
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> MultiClientResult:
    """Reproduce Figure 11 with the scaled traces.

    Each client is a separate instance (distinct client id), so CLIC treats
    their hint types as distinct, exactly as Section 2 requires.
    """
    client_ids = [f"client-{name}" for name in trace_names]
    sources = [
        trace_source(name, settings, client_id=client_id)
        for name, client_id in zip(trace_names, client_ids)
    ]

    # --- One engine grid: the shared-cache cell replays the round-robin
    # interleaved workload, and one private-cache cell per client replays
    # that client's full-length (untruncated) trace, as in the paper.
    # ``settings.jobs > 1`` runs the cells on worker processes.
    config = settings.clic_config()
    private_sizes = partition_capacity(shared_cache_size, len(sources))
    cells = [
        SweepCell(
            x=0.0,
            specs=(
                PolicySpec(
                    label="shared",
                    name="CLIC",
                    capacity=shared_cache_size,
                    kwargs={"config": config},
                ),
            ),
            requests=interleave_round_robin(sources),
        )
    ]
    for index, (name, source, size) in enumerate(zip(trace_names, sources, private_sizes)):
        cells.append(
            SweepCell(
                x=float(index + 1),
                specs=(
                    PolicySpec(
                        label=f"private:{name}",
                        name="CLIC",
                        capacity=size,
                        kwargs={"config": config},
                    ),
                ),
                requests=source,
            )
        )
    grid = ParallelSweepRunner(jobs=settings.jobs).run(cells, parameter="cell")

    shared_result = grid.series["shared"][0].result
    shared_per_client = {
        name: shared_result.client_read_hit_ratio(client_id)
        for name, client_id in zip(trace_names, client_ids)
    }

    private_per_client: dict[str, float] = {}
    total_hits = 0
    total_reads = 0
    for name in trace_names:
        result = grid.series[f"private:{name}"][0].result
        private_per_client[name] = result.read_hit_ratio
        total_hits += result.stats.read_hits
        total_reads += result.stats.read_requests
    private_overall = total_hits / total_reads if total_reads else 0.0

    return MultiClientResult(
        shared_cache_size=shared_cache_size,
        private_cache_sizes=tuple(private_sizes),
        shared_per_client=shared_per_client,
        shared_overall=shared_result.read_hit_ratio,
        private_per_client=private_per_client,
        private_overall=private_overall,
    )
