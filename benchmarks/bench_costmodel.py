"""Microbenchmark: cost-model accounting overhead and correctness gates.

Replays one standard trace through the shared-replay engine three ways —
cost model off, priced against a position-independent device (SSD) and
priced against the seek-aware HDD profile — and reports replay throughput
for each.  Two gates make this a CI smoke test:

* **overhead gate** — with the cost model *off* the engine must stay within
  noise of a hand-rolled baseline replay loop (the pre-cost-model fast
  path, inlined here: one ``batch_access`` per chunk the engine replays,
  each chunk lifted from the request list inside the timed region as the
  engine lifts it), proving the opt-in accounting pass costs nothing when
  not requested;
* **correctness gate** — the HDD replay's seek walk must not depend on
  where chunks end.  Its ``LatencyStats`` at the engine's 4,096-request
  chunks must equal, field for field, those of the same replay cut into
  97-request chunks, and those of the trace's first 18 requests must equal
  the same prefix's replayed one request per chunk, where every sum is a
  scalar loop's.  A walk that reset its heads at a chunk boundary fails
  the first check.  A walk that added each chunk's ``np.sum`` (pairwise)
  to its total fails the second (with ``--requests 20000`` or 40,000, 18
  is the shortest prefix that shows it), while at 4,096- and 97-request
  chunks it happens to price the whole 20,000-request replay the same.
  (A position-independent device is priced from the final hit/miss
  counts, ``CostModel.latency_from_stats``, so it has no walk to check.)

Run it standalone::

    PYTHONPATH=src python benchmarks/bench_costmodel.py --requests 20000
"""

from __future__ import annotations

import argparse
import sys

from bench_common import best_of

from repro.cache.registry import create_policy
from repro.experiments.common import ExperimentSettings, generate_trace
from repro.simulation.costmodel import CostModel
from repro.simulation.engine import MultiPolicySimulator
from repro.trace.columnar import ColumnarChunk

#: The engine-off path may trail the hand-inlined loop by at most this
#: factor (it additionally accounts each chunk's outcomes, per client too).
OVERHEAD_GATE = 1.35

#: A prime chunk size for the correctness gate's second HDD replay, so its
#: chunk boundaries fall out of step with the engine's.
ODD_CHUNK = 97

#: Requests of the trace's prefix that the correctness gate also replays
#: one request per chunk (~0.1 ms per request on the HDD).
PREFIX = 18


def reference_replay(policy, requests) -> None:
    """The pre-cost-model fast path, inlined: the engine's chunks of the
    request list, each lifted and replayed in one ``batch_access``."""
    size = MultiPolicySimulator.CHUNK_SIZE
    for start in range(0, len(requests), size):
        policy.batch_access(ColumnarChunk.from_requests(requests[start : start + size], start))


def engine_replay(policy, requests, cost_model=None, chunk_size=None):
    engine = MultiPolicySimulator([policy], cost_model=cost_model)
    if chunk_size is not None:
        engine.CHUNK_SIZE = chunk_size
    return engine.run(requests)[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", default="DB2_C300", help="standard trace name")
    parser.add_argument("--requests", type=int, default=40_000)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--policy", default="LRU", help="policy to replay")
    parser.add_argument("--capacity", type=int, default=3_600, help="cache pages")
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="time each configuration as the best of N repeats (default: 3)",
    )
    args = parser.parse_args(argv)

    settings = ExperimentSettings(target_requests=args.requests, seed=args.seed)
    trace = generate_trace(args.trace, settings)
    requests = trace.requests()
    page_span = trace.metadata.get("database_pages") or (
        max(request.page for request in requests) + 1
    )
    print(
        f"trace={args.trace} requests={len(requests)} policy={args.policy} "
        f"capacity={args.capacity}"
    )

    def build():
        return create_policy(args.policy, capacity=args.capacity)

    reference_best, _ = best_of(lambda: reference_replay(build(), requests), args.repeat)
    ssd_model = CostModel("ssd")
    hdd_model = CostModel("hdd", page_span=page_span)
    off_best, off_result = best_of(lambda: engine_replay(build(), requests), args.repeat)
    ssd_best, ssd_result = best_of(
        lambda: engine_replay(build(), requests, ssd_model), args.repeat
    )
    hdd_best, hdd_result = best_of(
        lambda: engine_replay(build(), requests, hdd_model), args.repeat
    )

    baseline = len(requests) / reference_best
    print(f"\n{'configuration':<22} {'req/s':>12} {'relative':>9}")
    rows = [
        ("reference loop", reference_best),
        ("engine, cost off", off_best),
        ("engine, ssd pricing", ssd_best),
        ("engine, hdd pricing", hdd_best),
    ]
    for label, best in rows:
        throughput = len(requests) / best
        print(f"{label:<22} {throughput:>12,.0f} {throughput / baseline:>8.2f}x")
    print(
        f"\nssd: mean read {ssd_result.latency.mean_read_us:,.1f}us "
        f"p99 {ssd_result.latency.p99_read_us:,.1f}us | "
        f"hdd: mean read {hdd_result.latency.mean_read_us:,.1f}us "
        f"p99 {hdd_result.latency.p99_read_us:,.1f}us"
    )

    ok = True
    if off_best > reference_best * OVERHEAD_GATE:
        print(
            f"FAIL: cost-model-off replay is {off_best / reference_best:.2f}x the "
            f"reference loop (gate: {OVERHEAD_GATE}x) — the fast path regressed"
        )
        ok = False
    if off_result.latency is not None:
        print("FAIL: cost-model-off replay attached latency stats")
        ok = False
    odd_chunks = engine_replay(build(), requests, hdd_model, chunk_size=ODD_CHUNK)
    if hdd_result.latency != odd_chunks.latency:
        print(
            "FAIL: hdd pricing depends on where chunks end\n"
            f"  {MultiPolicySimulator.CHUNK_SIZE}-request chunks: "
            f"{hdd_result.latency.as_dict()}\n"
            f"  {ODD_CHUNK}-request chunks: {odd_chunks.latency.as_dict()}"
        )
        ok = False
    prefix = requests[:PREFIX]
    whole = engine_replay(build(), prefix, hdd_model).latency
    one_by_one = engine_replay(build(), prefix, hdd_model, chunk_size=1).latency
    if whole != one_by_one:
        print(
            f"FAIL: hdd pricing of the first {PREFIX} requests depends on where "
            f"chunks end\n  one chunk: {whole.as_dict()}\n"
            f"  1-request chunks: {one_by_one.as_dict()}"
        )
        ok = False
    if ssd_result.read_hit_ratio != off_result.read_hit_ratio:
        print("FAIL: pricing changed the replay's hit ratio")
        ok = False

    if ok:
        print(
            "\nPASS: cost-off within the overhead gate; hdd pricing is the "
            f"same at {MultiPolicySimulator.CHUNK_SIZE}- and {ODD_CHUNK}-request chunks, "
            f"and over the first {PREFIX} requests at 1-request chunks"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
