"""Microbenchmark: queueing-observer overhead over plain replay.

Replays the ``load`` experiment's policy grid (CLIC / ARC / LRU, unified
and 4-shard hash-routed) over one standard trace twice per round: once
plain — the closed-loop priced replay every other experiment runs — and
once with the open-loop :class:`~repro.simulation.queueing.QueueingObserver`
attached at a fixed offered load.  The observer rides the same outcome
stream as the stats/cost observers, shares one arrival tape across the
grid and runs its integer-nanosecond Lindley pass in one call of the C
kernel library at finalize, so attaching it must stay cheap.  Three gates
make this a CI smoke test:

* attaching the observer must not perturb the replay: the plain and
  queued runs must produce byte-identical hit/miss stats per policy;
* the queueing accounting must be complete: every queued result carries
  exactly the replayed request count with a utilization in (0, 1];
* the queued pass must stay within ``--max-overhead`` (default 1.10x) of
  the plain pass.  Each round times the two passes back to back, and the
  gate takes the *median* of the per-round ratios: pairing cancels
  machine-wide drift (a slow period hits both passes of a round equally),
  and the median is the estimate noise moves least either way.  The
  minimum, which one lucky round can flatter, is reported beside it with
  the best-of-round times.

``--json PATH`` also writes the measured timings (the committed
``BENCH_7.json``).  Without it nothing is written: a smoke run never
rewrites a tracked record.

Run it standalone::

    PYTHONPATH=src python benchmarks/bench_load.py --requests 20000
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from bench_common import emit_bench_json

from repro.experiments.common import ExperimentSettings, generate_trace
from repro.experiments.latency import _policy_spec
from repro.experiments.load import reference_capacity_rps
from repro.simulation.engine import MultiPolicySimulator
from repro.workloads.standard import STANDARD_TRACES

#: The load experiment's default grid: every policy unified and sharded.
DEFAULT_POLICIES = ("CLIC", "ARC", "LRU")
DEFAULT_SHARDS = 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", default="DB2_C300", help="standard trace name")
    parser.add_argument("--requests", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--cache-size", type=int, default=3_600)
    parser.add_argument(
        "--policies", default=",".join(DEFAULT_POLICIES),
        help="comma-separated policy names",
    )
    parser.add_argument(
        "--shards", type=int, default=DEFAULT_SHARDS,
        help="shard count for the clustered half of the grid (1 disables)",
    )
    parser.add_argument(
        "--offered-load", type=float, default=0.9,
        help="offered-load fraction the queued pass runs at (default: 0.9)",
    )
    parser.add_argument(
        "--repeat", type=int, default=7,
        help="paired plain/queued timing rounds (default: 7)",
    )
    parser.add_argument(
        "--max-overhead", type=float, default=1.10,
        help="gate: queued time / plain time must stay below this (default: 1.10)",
    )
    parser.add_argument(
        "--json", default="",
        help="write the timing record to this path (default: write nothing)",
    )
    args = parser.parse_args(argv)
    policies = tuple(p.strip() for p in args.policies.split(",") if p.strip())
    if not policies:
        parser.error("--policies must name at least one policy")
    if args.shards < 1:
        parser.error("--shards must be >= 1")
    if args.offered_load <= 0.0:
        parser.error("--offered-load must be > 0")

    settings = ExperimentSettings(target_requests=args.requests, seed=args.seed)
    config = STANDARD_TRACES.get(args.trace)
    page_span = config.database_pages if config is not None else None
    requests = generate_trace(args.trace, settings).requests()
    cost_model = settings.cost_model(page_span=page_span)
    capacity_rps = reference_capacity_rps(
        args.trace, args.cache_size, policies[0], settings, page_span
    )
    queueing_model = settings.queueing_model(
        capacity_rps, page_span=page_span
    ).scaled(args.offered_load)
    shard_variants = [1] + ([args.shards] if args.shards > 1 else [])
    specs = [
        _policy_spec(policy, args.cache_size, settings, shards)
        for shards in shard_variants
        for policy in policies
    ]
    print(
        f"trace={args.trace} requests={len(requests)} grid={len(specs)} specs "
        f"offered_load={args.offered_load} "
        f"(capacity {capacity_rps:,.0f} req/s, arrival {settings.arrival})"
    )

    def replay(model):
        engine = MultiPolicySimulator(
            [spec.build() for spec in specs],
            cost_model=cost_model,
            queueing_model=model,
        )
        started = time.perf_counter()
        results = engine.run(requests)
        return results, time.perf_counter() - started

    # --- Timing: paired rounds; the gate metric is the median paired ratio
    # (the minimum is reported beside it).
    plain_best = queued_best = None
    plain_results = queued_results = None
    ratios = []
    for _ in range(max(1, args.repeat)):
        results, plain_elapsed = replay(None)
        if plain_best is None or plain_elapsed < plain_best:
            plain_best, plain_results = plain_elapsed, results
        results, queued_elapsed = replay(queueing_model)
        if queued_best is None or queued_elapsed < queued_best:
            queued_best, queued_results = queued_elapsed, results
        ratios.append(queued_elapsed / plain_elapsed)
    ratios.sort()
    overhead = statistics.median(ratios)

    # --- Gate 1: the observer must not perturb the replay itself.
    for spec, plain, queued in zip(specs, plain_results, queued_results):
        if plain.stats != queued.stats:
            print(f"FAIL: attaching the queueing observer changed {spec.label!r} "
                  "hit/miss stats")
            return 1

    # --- Gate 2: complete queueing accounting on every queued result.
    for spec, result in zip(specs, queued_results):
        stats = result.queueing
        if stats is None or stats.request_count != len(requests):
            print(f"FAIL: {spec.label!r} queueing stats cover "
                  f"{0 if stats is None else stats.request_count} of "
                  f"{len(requests)} requests")
            return 1
        if not 0.0 < stats.utilization <= 1.0:
            print(f"FAIL: {spec.label!r} utilization {stats.utilization!r} "
                  "outside (0, 1]")
            return 1

    count = len(requests) * len(specs)
    print(
        f"plain:    {count / plain_best:10.0f} policy-events/s ({plain_best:.3f}s best)\n"
        f"queued:   {count / queued_best:10.0f} policy-events/s ({queued_best:.3f}s best)\n"
        f"overhead: {overhead:.3f}x median of {len(ratios)} paired rounds "
        f"(cleanest {ratios[0]:.3f}x, gate: < {args.max_overhead:.2f}x)"
    )

    emit_bench_json(
        args.json,
        "bench_load",
        {
            "trace": args.trace,
            "requests": len(requests),
            "policies": list(policies),
            "shards": shard_variants,
            "cache_size": args.cache_size,
            "offered_load": args.offered_load,
            "repeat": args.repeat,
        },
        {
            "plain replay": plain_best,
            "queued replay": queued_best,
        },
        queueing_observer_overhead=round(overhead, 4),
        min_paired_ratio=round(ratios[0], 4),
        paired_round_ratios=[round(r, 4) for r in ratios],
        overhead_gate=args.max_overhead,
    )

    if overhead >= args.max_overhead:
        print("FAIL: queueing observer overhead exceeds the gate")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
