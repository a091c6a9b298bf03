"""CI smoke: SHARDED x cost-model x rolling x queueing observers, jobs=1 vs jobs=N.

Runs one sweep that attaches *every* built-in observer at once — per-shard
stats (SHARDED cluster policies), a seek-aware cost model (hdd), rolling
window metrics and a seek-device (hdd) queueing model — serially and across
worker processes, and demands the two runs are bit-identical: stats,
per-client, per-shard partitions, latency, per-shard latency, every rolling
window and the queueing stats.  This is the one-command proof that
replaying whole cells in worker processes changes nothing but wall-clock.

Usage::

    PYTHONPATH=src python tools/smoke_observer_combo.py --requests 8000 --jobs 2
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.common import ExperimentSettings, generate_trace
from repro.simulation.costmodel import CostModel
from repro.simulation.engine import ParallelSweepRunner, PolicySpec, SweepCell
from repro.simulation.queueing import QueueingModel
from repro.workloads.arrivals import PoissonArrivals


def run_sweep(requests, jobs: int, rolling_window: int):
    cells = [
        SweepCell(
            x=float(shards),
            specs=(
                PolicySpec(
                    label=f"SHARDED[LRU]x{shards}",
                    name="SHARDED",
                    capacity=900,
                    kwargs={"policy": "LRU", "shards": shards, "router": "hash"},
                ),
                PolicySpec(
                    label=f"SHARDED[ARC]x{shards}",
                    name="SHARDED",
                    capacity=900,
                    kwargs={"policy": "ARC", "shards": shards, "router": "hash"},
                ),
            ),
        )
        for shards in (1, 2, 4)
    ]
    runner = ParallelSweepRunner(
        requests=requests,
        jobs=jobs,
        cost_model=CostModel(device="hdd", page_span=2_000),
        rolling_window=rolling_window,
        # An hdd request takes ~10 ms here, so 150 rps saturates one shard
        # and loads two to ~0.8 and four to ~0.4.
        queueing=QueueingModel(
            arrivals=PoissonArrivals(150.0, seed=7), device="hdd", page_span=2_000
        ),
    )
    return runner.run(cells, parameter="shards")


def fingerprint(sweep) -> dict:
    """Every observable of every point, in comparable (plain-data) form."""
    out = {}
    for label in sweep.labels():
        points = []
        for point in sweep.series[label]:
            result = point.result
            points.append({
                "x": point.x,
                "stats": result.stats.as_dict(),
                "per_client": {
                    client: stats.as_dict()
                    for client, stats in sorted(result.per_client.items())
                },
                "per_shard": [stats.as_dict() for stats in result.per_shard],
                "latency": result.latency.as_dict(),
                "shard_latency": [s.as_dict() for s in result.shard_latency],
                "rolling": [
                    (w.start, w.requests, w.read_requests, w.read_hits,
                     w.write_requests, w.write_hits, w.evictions)
                    for w in result.rolling.windows
                ],
                "queueing": result.queueing.as_dict(),
            })
        out[label] = points
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", default="DB2_C300")
    parser.add_argument("--requests", type=int, default=8_000)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--rolling-window", type=int, default=1_000)
    args = parser.parse_args(argv)

    settings = ExperimentSettings(target_requests=args.requests, seed=args.seed)
    requests = generate_trace(args.trace, settings).requests()
    print(
        f"trace={args.trace} requests={len(requests)} "
        f"observers=per-shard+cost(hdd)+rolling({args.rolling_window})+queueing(hdd)"
    )

    serial = fingerprint(run_sweep(requests, 1, args.rolling_window))
    parallel = fingerprint(run_sweep(requests, args.jobs, args.rolling_window))

    if serial != parallel:
        for label, points in serial.items():
            if parallel.get(label) != points:
                print(f"MISMATCH in series {label!r}")
        print(f"FAIL: jobs=1 and jobs={args.jobs} disagree with all "
              "observers attached")
        return 1

    windows = sum(len(p["rolling"]) for pts in serial.values() for p in pts)
    shards = sum(len(p["per_shard"]) for pts in serial.values() for p in pts)
    print(f"PASS: jobs=1 == jobs={args.jobs} bit-identical across "
          f"{len(serial)} series ({windows} rolling windows, "
          f"{shards} shard partitions, hdd-priced and -queued)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
