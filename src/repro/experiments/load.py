"""Open-loop load experiment: latency under offered load, per policy.

The latency experiment prices replays serially — every request starts the
moment the previous one finishes, so its latencies are pure service times.
This experiment puts the same replays behind an open-loop arrival process
(:mod:`repro.workloads.arrivals`) and a per-shard FCFS queue
(:mod:`repro.simulation.queueing`), sweeping the offered load from well
under to past the server's capacity.  Each row reports the policy's hit
ratio and service-time columns next to the queueing columns (mean/p50/p99
queueing delay and sojourn, utilization), so the saturation knee — where
queueing delay takes off as utilization approaches 1 — is read directly
off the sweep.

Offered loads are expressed as fractions of a *reference capacity*: the
modeled serial throughput of the first policy running unsharded, measured
by a pricing pre-pass over the same trace.  That anchors the sweep to the
workload (a trace with many cache hits has a much faster server than one
without) while keeping every policy and shard configuration under the
*same* arrival clock per fraction, which is what makes their queueing
columns comparable.  The arrival processes for different fractions are
rescalings of one underlying random sequence
(:meth:`~repro.workloads.arrivals.ArrivalProcess.scaled`), so queueing
delays are pathwise monotone in offered load and the knee is exact, not a
sampling artifact.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    trace_source,
)
from repro.experiments.latency import _policy_spec
from repro.simulation.engine import ParallelSweepRunner, SweepCell
from repro.workloads.standard import STANDARD_TRACES

__all__ = ["LOAD_POLICIES", "reference_capacity_rps", "run_load_experiment"]

#: Policies swept against offered load (the paper's strongest online
#: policies; TQ is omitted to keep the grid small — add it via ``policies``).
LOAD_POLICIES: tuple[str, ...] = ("CLIC", "ARC", "LRU")


def reference_capacity_rps(
    trace_name: str,
    cache_size: int,
    policy: str,
    settings: ExperimentSettings,
    page_span: int | None = None,
) -> float:
    """Modeled serial throughput (requests/s) of *policy* unsharded.

    One pricing pre-pass over the trace; the ``load`` sweep expresses its
    offered loads as fractions of this rate.  Deterministic for fixed
    settings, so golden fixtures of the sweep are stable.
    """
    runner = ParallelSweepRunner(
        trace_source(trace_name, settings),
        jobs=1,
        cost_model=settings.cost_model(page_span=page_span),
    )
    sweep = runner.run(
        [SweepCell(x=1.0, specs=(_policy_spec(policy, cache_size, settings, 1),))],
        parameter="reference",
    )
    result = sweep.series[policy][0].result
    rate = result.latency.throughput_rps
    if rate <= 0.0:
        raise ValueError(
            f"reference replay of {policy!r} on {trace_name!r} has no modeled "
            "throughput; cannot anchor offered loads"
        )
    return rate


def run_load_experiment(
    trace_names: Sequence[str] = ("DB2_C300",),
    cache_size: int = 3_600,
    policies: Sequence[str] = LOAD_POLICIES,
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    cluster_shards: int = 4,
) -> list[dict]:
    """Queueing delay / sojourn / utilization vs offered load, per policy.

    Returns one row per (workload, offered load, configuration, policy)
    with the read hit ratio, the serial service-time columns and the
    queueing columns.  ``configuration`` is ``unified`` or ``N shards``
    (an equal-capacity hash-routed cluster, each shard its own server).
    Offered-load fractions come from ``settings.offered_loads`` and the
    arrival-process kind from ``settings.arrival``; cells are plain
    picklable specs, so ``settings.jobs > 1`` fans the grid out with
    bit-identical results.
    """
    if cluster_shards < 1:
        raise ValueError(f"cluster_shards must be >= 1, got {cluster_shards}")
    if not settings.offered_loads:
        raise ValueError("settings.offered_loads is empty")
    if any(fraction <= 0.0 for fraction in settings.offered_loads):
        raise ValueError(
            f"offered loads must be > 0, got {settings.offered_loads!r}"
        )
    policies = list(policies)
    shard_variants = [1] + ([cluster_shards] if cluster_shards > 1 else [])
    rows: list[dict] = []
    for name in trace_names:
        config = STANDARD_TRACES.get(name)
        page_span = config.database_pages if config is not None else None
        capacity_rps = reference_capacity_rps(
            name, cache_size, policies[0], settings, page_span
        )
        base_model = settings.queueing_model(capacity_rps, page_span=page_span)
        source = trace_source(name, settings)
        specs = tuple(
            _policy_spec(policy, cache_size, settings, shards)
            for shards in shard_variants
            for policy in policies
        )
        # One cell per offered load over one spec tuple: the runner folds
        # the cells into one replay pass that runs each spec once, and each
        # load gets its own arrival clock and queueing observers on it.
        cells = [
            SweepCell(
                x=fraction, specs=specs, queueing=base_model.scaled(fraction)
            )
            for fraction in settings.offered_loads
        ]
        runner = ParallelSweepRunner(
            source,
            jobs=settings.jobs,
            cost_model=settings.cost_model(page_span=page_span),
        )
        sweep = runner.run(cells, parameter="offered_load")
        for fraction in settings.offered_loads:
            for shards in shard_variants:
                for policy in policies:
                    label = policy if shards == 1 else f"{policy} x{shards}"
                    result = next(
                        point.result
                        for point in sweep.series[label]
                        if point.x == fraction
                    )
                    rows.append(
                        {
                            "workload": name,
                            "arrival": settings.arrival,
                            "offered_load": fraction,
                            "configuration": (
                                "unified" if shards == 1 else f"{shards} shards"
                            ),
                            "policy": policy,
                            "read_hit_ratio": result.read_hit_ratio,
                            **result.effective_latency.report_columns(),
                            **result.queueing.report_columns(),
                        }
                    )
    return rows
