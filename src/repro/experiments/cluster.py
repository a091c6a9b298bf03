"""Cluster scaling: unified cache vs. an equal-total-capacity sharded fleet.

The paper's Figure 11 compares one shared cache against static per-client
partitions of the same total space.  This experiment generalizes that
comparison to a storage-server *cluster*: the total cache capacity is split
across S shards (:class:`~repro.simulation.cluster.ShardedCache`) and a
router assigns every page to exactly one shard, as a fleet of cache servers
would.  Sweeping S for each policy shows what page partitioning costs (or
buys) relative to the unified cache:

* the single-client workloads use **hash routing** — the uniform page
  spread a production cluster would deploy;
* the interleaved multi-client workload (the Figure 11 traces) uses
  **client-affinity routing**, so each client's pages live on one shard —
  at S = number of clients this *is* the paper's static partitioning,
  rebuilt from cluster parts.

``shards=1`` is the unified baseline (bit-identical to the unsharded
policy), so every series starts at the paper's configuration.  Besides the
overall read hit ratio, each row reports the per-shard hit-ratio spread and
the max-over-mean load imbalance — the skew statistic that decides whether
a routing strategy keeps a real fleet evenly loaded.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    clic_kwargs,
    trace_source,
)
from repro.simulation.engine import ParallelSweepRunner, PolicySpec, SweepCell
from repro.simulation.metrics import SweepResult
from repro.simulation.multiclient import interleave_round_robin

__all__ = ["CLUSTER_POLICIES", "run_cluster_experiment", "sweep_shard_counts"]

#: Policies compared across shard counts (the paper's online policies).
CLUSTER_POLICIES: tuple[str, ...] = ("CLIC", "ARC", "LRU", "TQ")


def sweep_shard_counts(
    requests,
    cache_size: int,
    shard_counts: Sequence[int],
    policies: Sequence[str],
    router: str,
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> SweepResult:
    """Shard count x policy grid over one request stream.

    Every cell holds one :class:`ShardedCache` per policy, all with the same
    *total* ``cache_size``; ``shards=1`` is the unified baseline.  Cells are
    plain picklable specs, so ``settings.jobs > 1`` fans them out over
    worker processes with results identical to the serial run.
    """
    cells = []
    for shards in shard_counts:
        specs = []
        for name in policies:
            kwargs: dict[str, object] = {
                "policy": name,
                "shards": shards,
                "router": router,
            }
            if name.upper() == "CLIC":
                kwargs["policy_kwargs"] = clic_kwargs(settings)
            specs.append(
                PolicySpec(
                    label=name, name="SHARDED", capacity=cache_size, kwargs=kwargs
                )
            )
        cells.append(SweepCell(x=float(shards), specs=tuple(specs)))
    runner = ParallelSweepRunner(requests, jobs=settings.jobs)
    return runner.run(cells, parameter="shards")


def _sweep_rows(
    workload: str, router: str, sweep: SweepResult, policies: Sequence[str]
) -> list[dict]:
    """Flatten one workload's sweep into report rows, (shards, policy) ordered."""
    rows = []
    point_count = len(sweep.series[policies[0]])
    for index in range(point_count):
        for name in policies:
            point = sweep.series[name][index]
            result = point.result
            # Spread over *serving* shards only: an idle shard (no reads
            # routed to it) is a load-imbalance fact, not a 0% hit ratio.
            shard_ratios = [
                stats.read_hit_ratio
                for stats in result.per_shard
                if stats.read_requests > 0
            ] or [result.read_hit_ratio]
            rows.append(
                {
                    "workload": workload,
                    "router": router,
                    "shards": int(point.x),
                    "policy": name,
                    "read_hit_ratio": result.read_hit_ratio,
                    "load_imbalance": result.load_imbalance,
                    "min_shard_hit_ratio": min(shard_ratios),
                    "max_shard_hit_ratio": max(shard_ratios),
                }
            )
    return rows


def run_cluster_experiment(
    trace_names: Sequence[str] = ("DB2_C300",),
    multi_trace_names: Sequence[str] = ("DB2_C60", "DB2_C300", "DB2_C540"),
    cache_size: int = 3_600,
    policies: Sequence[str] = CLUSTER_POLICIES,
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    shard_counts: Sequence[int] | None = None,
) -> list[dict]:
    """Shard-count x policy scaling rows for the standard and interleaved workloads.

    Returns one row per (workload, shard count, policy) with the overall
    read hit ratio, the per-shard hit-ratio spread, and the max-over-mean
    load imbalance.  ``shard_counts`` defaults to ``settings.shard_counts``;
    the count 1 row is the unified-cache baseline.
    """
    policies = list(policies)
    counts = list(shard_counts if shard_counts is not None else settings.shard_counts)
    rows: list[dict] = []

    # --- Single-client standard traces: uniform page-hash routing.
    for name in trace_names:
        sweep = sweep_shard_counts(
            trace_source(name, settings),
            cache_size=cache_size,
            shard_counts=counts,
            policies=policies,
            router="hash",
            settings=settings,
        )
        rows.extend(_sweep_rows(name, "hash", sweep, policies))

    # --- The Figure 11 multi-client workload: client-affinity routing, so
    # at S = len(multi_trace_names) the cluster is the paper's static
    # partitioning rebuilt from shards.
    if multi_trace_names:
        interleaved = interleave_round_robin(
            [
                trace_source(name, settings, client_id=f"client-{name}")
                for name in multi_trace_names
            ]
        )
        sweep = sweep_shard_counts(
            interleaved,
            cache_size=cache_size,
            shard_counts=counts,
            policies=policies,
            router="client",
            settings=settings,
        )
        rows.extend(_sweep_rows("interleaved", "client", sweep, policies))
    return rows
