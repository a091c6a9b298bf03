#!/usr/bin/env python3
"""Streaming traces: the on-disk trace cache and bounded-memory replay.

This example shows the streaming trace pipeline end to end:

1. a ``TraceSpec`` describes a standard trace (name, seed, length) and is
   resolved against the on-disk trace cache — the first run generates the
   trace straight into a compact binary file, every later run streams it
   back out in milliseconds;
2. the shared-replay engine consumes the spec *lazily*: requests are
   decoded one block at a time, so the full request list never exists in
   memory, yet the hit ratios are bit-identical to a materialized replay;
3. a parallel sweep ships the tiny spec to its workers instead of pickling
   the request list.

Run it with::

    python examples/streaming_traces.py

(Re-run it to see the cache hit: the "acquire" time collapses.)
"""

from __future__ import annotations

import time

from repro.cache.registry import create_policy
from repro.simulation import MultiPolicySimulator, sweep_cache_sizes
from repro.trace import TraceSpec, default_trace_cache


def main() -> None:
    spec = TraceSpec("DB2_C300", seed=17, target_requests=40_000)

    started = time.perf_counter()
    spec.ensure()                      # generate into the cache on a miss
    streamed = spec.open()
    print(
        f"acquired {streamed.request_count} requests in "
        f"{time.perf_counter() - started:.2f}s "
        f"({default_trace_cache().summary()})"
    )

    # Streamed replay: the spec is a columnar stream; at most one block
    # of requests is decoded at a time.
    policies = [create_policy(name, capacity=3_600) for name in ("LRU", "TQ")]
    for result in MultiPolicySimulator(policies).run(spec):
        print(f"  streamed  {result}")

    # The same spec drives a parallel sweep: workers open the cache file
    # themselves; results are identical at any jobs= count.
    sweep = sweep_cache_sizes(
        spec, cache_sizes=[1_200, 2_400, 3_600], policies=["LRU", "TQ"], jobs=2
    )
    print(sweep.to_table())


if __name__ == "__main__":
    main()
