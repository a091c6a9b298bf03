"""Microbenchmark: sharded-cluster replay vs. the unified cache.

Replays one standard trace through a unified policy and through
:class:`~repro.simulation.cluster.ShardedCache` clusters of increasing shard
count (same total capacity), reporting replay throughput (requests/second)
and the hit-ratio / load-imbalance profile of each configuration.  Two
correctness gates make this a CI smoke test as well:

* ``shards=1`` must produce exactly the unified policy's read hit ratio
  (the cluster layer's bit-identity guarantee);
* every cluster's shard request counts must sum to the trace length
  (each request routes to exactly one shard).

Run it standalone::

    PYTHONPATH=src python benchmarks/bench_cluster.py --requests 20000

In-process sharding is not expected to be faster than the unified cache —
each shard is the same compiled policy plus routing overhead; the point
is to quantify that overhead (it should stay small) while the per-shard
results model what a fleet of cache servers would do.
"""

from __future__ import annotations

import argparse
import sys

from bench_common import best_of

from repro.cache.registry import create_policy
from repro.experiments.common import ExperimentSettings, generate_trace
from repro.simulation.cluster import ShardedCache
from repro.simulation.simulator import CacheSimulator


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", default="DB2_C300", help="standard trace name")
    parser.add_argument("--requests", type=int, default=40_000)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--policy", default="LRU", help="per-shard policy name")
    parser.add_argument("--capacity", type=int, default=3_600, help="total pages")
    parser.add_argument(
        "--shards", default="1,2,4,8",
        help="comma-separated shard counts (1 = unified baseline check)",
    )
    parser.add_argument("--router", default="hash", help="hash or client")
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="time each configuration as the best of N repeats (default: 3)",
    )
    args = parser.parse_args(argv)
    shard_counts = [int(s) for s in args.shards.split(",") if s.strip()]
    if not shard_counts:
        parser.error("--shards must name at least one shard count")

    settings = ExperimentSettings(target_requests=args.requests, seed=args.seed)
    requests = generate_trace(args.trace, settings).requests()
    print(
        f"trace={args.trace} requests={len(requests)} policy={args.policy} "
        f"capacity={args.capacity} router={args.router}"
    )

    unified_best, unified_result = best_of(
        lambda: CacheSimulator(
            create_policy(args.policy, capacity=args.capacity)
        ).run(requests),
        args.repeat,
    )
    baseline_throughput = len(requests) / unified_best
    print(f"\n{'configuration':<16} {'req/s':>12} {'relative':>9} "
          f"{'hit ratio':>10} {'imbalance':>10}")
    print(f"{'unified':<16} {baseline_throughput:>12,.0f} {'1.00x':>9} "
          f"{unified_result.read_hit_ratio:>10.2%} {'-':>10}")

    ok = True
    for shards in shard_counts:
        best, result = best_of(
            lambda shards=shards: CacheSimulator(
                ShardedCache(
                    capacity=args.capacity,
                    policy=args.policy,
                    shards=shards,
                    router=args.router,
                )
            ).run(requests),
            args.repeat,
        )
        throughput = len(requests) / best
        print(
            f"{f'{shards} shard(s)':<16} {throughput:>12,.0f} "
            f"{throughput / baseline_throughput:>8.2f}x "
            f"{result.read_hit_ratio:>10.2%} {result.load_imbalance:>10.2f}"
        )
        if sum(result.shard_request_counts) != len(requests):
            print(f"FAIL: {shards}-shard cluster lost requests "
                  f"({sum(result.shard_request_counts)} != {len(requests)})")
            ok = False
        if shards == 1 and result.read_hit_ratio != unified_result.read_hit_ratio:
            print(
                "FAIL: shards=1 diverged from the unified cache "
                f"({result.read_hit_ratio:.6f} != {unified_result.read_hit_ratio:.6f})"
            )
            ok = False

    if 1 in shard_counts and ok:
        print("\nPASS: shards=1 identical to the unified cache; "
              "all requests accounted for")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
