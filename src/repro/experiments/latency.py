"""Service-time experiment: what the hit-ratio differences cost in latency.

The paper argues that CLIC's higher second-tier hit ratios translate into
lower storage-server service time; every other experiment in this package
stops at the hit ratio.  This one prices the same replays against a device
profile (:mod:`repro.simulation.costmodel`) and reports, per policy, the
modeled mean/p50/p99 read latency and throughput — for the unified server
cache and for an equal-capacity sharded cluster, whose rows additionally
carry the hottest-shard queueing penalty (the busiest shard's service-time
excess over the fleet average).

HDD seeks are scaled to each workload's actual page-id space
(``database_pages`` from the standard-trace configuration), so the same
trace priced against ``hdd`` vs ``nvme`` shows how much of CLIC's advantage
survives on media where misses are cheap.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    clic_kwargs,
    trace_source,
)
from repro.simulation.engine import ParallelSweepRunner, PolicySpec, SweepCell
from repro.workloads.standard import STANDARD_TRACES

__all__ = ["LATENCY_POLICIES", "run_latency_experiment"]

#: Policies priced against each device (the paper's online policies).
LATENCY_POLICIES: tuple[str, ...] = ("CLIC", "ARC", "LRU", "TQ")


def _policy_spec(
    name: str,
    cache_size: int,
    settings: ExperimentSettings,
    shards: int,
) -> PolicySpec:
    """One unified (``shards=1``) or sharded sweep spec for *name*."""
    policy_kwargs = clic_kwargs(settings) if name.upper() == "CLIC" else {}
    if shards == 1:
        return PolicySpec(
            label=name, name=name, capacity=cache_size, kwargs=policy_kwargs
        )
    kwargs: dict[str, object] = {"policy": name, "shards": shards, "router": "hash"}
    if policy_kwargs:
        kwargs["policy_kwargs"] = policy_kwargs
    return PolicySpec(
        label=f"{name} x{shards}", name="SHARDED", capacity=cache_size, kwargs=kwargs
    )


def run_latency_experiment(
    trace_names: Sequence[str] = ("DB2_C300",),
    cache_size: int = 3_600,
    policies: Sequence[str] = LATENCY_POLICIES,
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    devices: Sequence[str] | None = None,
    cluster_shards: int = 4,
) -> list[dict]:
    """Per-policy modeled service time for unified and sharded configurations.

    Returns one row per (workload, device, configuration, policy) with the
    read hit ratio and the cost-model columns (mean/p50/p99 read latency in
    microseconds, modeled throughput).  Sharded rows add the per-shard
    queueing statistics — heterogeneous columns by design, which the
    reporting layer renders as a first-seen-order union.  ``devices``
    defaults to the settings' device; the cells are plain picklable specs,
    so ``settings.jobs > 1`` fans them out with bit-identical results.
    """
    if cluster_shards < 1:
        raise ValueError(f"cluster_shards must be >= 1, got {cluster_shards}")
    policies = list(policies)
    devices = list(devices) if devices is not None else [settings.device]
    # shards=1 *is* the unified configuration; don't run (or label) it twice.
    shard_variants = [1] + ([cluster_shards] if cluster_shards > 1 else [])
    rows: list[dict] = []
    for name in trace_names:
        source = trace_source(name, settings)
        config = STANDARD_TRACES.get(name)
        page_span = config.database_pages if config is not None else None

        def run_sweep(model):
            cells = [
                SweepCell(
                    x=float(shards),
                    specs=tuple(
                        _policy_spec(p, cache_size, settings, shards)
                        for p in policies
                    ),
                )
                for shards in shard_variants
            ]
            runner = ParallelSweepRunner(source, jobs=settings.jobs, cost_model=model)
            return runner.run(cells, parameter="shards")

        # Hit/miss outcomes are device-independent, and a
        # position-independent device is priced from the final counts — so
        # all such devices price ONE unpriced replay.  Only seek devices
        # (HDD) walk their heads in a replay of their own.
        unpriced_sweep = None
        for device in devices:
            model = settings.cost_model(device=device, page_span=page_span)
            walks_seeks = model.profile.position_dependent
            if walks_seeks:
                sweep = run_sweep(model)
            else:
                if unpriced_sweep is None:
                    unpriced_sweep = run_sweep(None)
                sweep = unpriced_sweep
            for shards in shard_variants:
                for policy in policies:
                    label = policy if shards == 1 else f"{policy} x{shards}"
                    result = next(
                        point.result
                        for point in sweep.series[label]
                        if point.x == float(shards)
                    )
                    if not walks_seeks:
                        result = dataclasses.replace(
                            result,
                            latency=model.latency_from_stats(result.stats),
                            shard_latency=model.shard_latencies(result.per_shard),
                        )
                    # Sharded rows price the fleet as independent devices
                    # (one seek head per shard), the same per-request
                    # method as the unified rows they are compared with.
                    latency = result.effective_latency
                    row = {
                        "workload": name,
                        "device": device,
                        "configuration": (
                            "unified" if shards == 1 else f"{shards} shards"
                        ),
                        "policy": policy,
                        "read_hit_ratio": result.read_hit_ratio,
                        **latency.report_columns(),
                    }
                    if result.shard_latency:
                        row["hottest_shard_penalty"] = result.hottest_shard_penalty
                        row["cluster_throughput_rps"] = result.cluster_throughput_rps
                    rows.append(row)
    return rows
