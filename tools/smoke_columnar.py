"""CI smoke: object and columnar replay paths must be bit-identical.

Replays one standard trace (from its cached binary form, so the columnar
path decodes straight into arrays) twice through
:class:`~repro.simulation.engine.MultiPolicySimulator` — once with
``columnar=False`` (the object reference path), once with ``columnar=True``
(batch dispatch) — and diffs the full :class:`SimulationResult` JSON of
every policy.  Two passes:

* **plain pass** — a mixed policy grid: the fused batch kernels (LRU,
  FIFO, CLOCK, the hint-aware/adaptive ARC, CAR, CLIC and TQ, and the
  offline OPT) — so all five paper-grid policies — plus a fallback kernel
  (LFU), stats and per-client accounting only;
* **observed pass** — SHARDED clusters x hdd cost model x rolling windows
  x open-loop queueing, so every batch-native observer (per-shard stats,
  cost, rolling, queueing) is diffed against its scalar accounting too.

Usage::

    PYTHONPATH=src python tools/smoke_columnar.py --requests 20000
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cache.registry import create_policy
from repro.experiments.common import ExperimentSettings, trace_spec
from repro.simulation.costmodel import CostModel
from repro.simulation.engine import MultiPolicySimulator
from repro.simulation.queueing import QueueingModel
from repro.workloads.arrivals import PoissonArrivals

#: The plain pass: every fused batch kernel (incl. offline OPT and every
#: paper-grid policy), one fallback kernel.
PLAIN_POLICIES = ("LRU", "FIFO", "CLOCK", "ARC", "CAR", "CLIC", "TQ", "LFU", "OPT")

#: The observed pass: (label, sharded-cluster kwargs).
SHARDED_VARIANTS = (
    ("SHARDED[LRU]x4", {"policy": "LRU", "shards": 4, "router": "hash"}),
    ("SHARDED[ARC]x2", {"policy": "ARC", "shards": 2, "router": "hash"}),
)


def fingerprint(result) -> dict:
    """Every deterministic observable of one result, as plain data.

    ``elapsed_seconds`` is wall-clock telemetry, never replay state, so it
    is the one field dropped before diffing.
    """
    row = result.as_dict()
    row.pop("elapsed_seconds", None)
    return {
        "row": row,
        "per_client": {
            client: stats.as_dict()
            for client, stats in sorted(result.per_client.items())
        },
        "per_shard": [stats.as_dict() for stats in result.per_shard],
        "latency": None if result.latency is None else result.latency.as_dict(),
        "shard_latency": [s.as_dict() for s in result.shard_latency],
        "rolling": None if result.rolling is None else [
            (w.start, w.requests, w.read_requests, w.read_hits,
             w.write_requests, w.write_hits, w.evictions)
            for w in result.rolling.windows
        ],
        "queueing": None if result.queueing is None
        else result.queueing.report_columns(),
    }


def diff_paths(name, spec, policy_factories, **engine_kwargs) -> bool:
    """Run one grid object-vs-columnar and diff the result fingerprints."""
    fingerprints = {}
    for columnar in (False, True):
        engine = MultiPolicySimulator(
            [build() for build in policy_factories.values()],
            columnar=columnar,
            **engine_kwargs,
        )
        results = engine.run(spec)
        fingerprints[columnar] = {
            label: json.dumps(fingerprint(result), sort_keys=True)
            for label, result in zip(policy_factories, results)
        }
    ok = True
    for label in policy_factories:
        if fingerprints[False][label] != fingerprints[True][label]:
            print(f"MISMATCH [{name}] {label}: columnar result diverged "
                  "from the object path")
            ok = False
    if ok:
        print(f"{name}: {len(policy_factories)} policies identical "
              "object vs columnar")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", default="DB2_C300")
    parser.add_argument("--requests", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--capacity", type=int, default=1_800)
    parser.add_argument("--rolling-window", type=int, default=1_000)
    args = parser.parse_args(argv)

    settings = ExperimentSettings(target_requests=args.requests, seed=args.seed)
    spec = trace_spec(args.trace, settings)
    spec.ensure()
    print(f"trace={args.trace} requests={args.requests} "
          f"capacity={args.capacity}")

    ok = diff_paths(
        "plain",
        spec,
        {
            name: (lambda name=name: create_policy(name, capacity=args.capacity))
            for name in PLAIN_POLICIES
        },
    )

    queueing = QueueingModel(
        arrivals=PoissonArrivals(rate_rps=20_000.0, seed=7), device="hdd"
    )
    ok &= diff_paths(
        "observed (cost+rolling+queueing)",
        spec,
        {
            label: (
                lambda kwargs=kwargs: create_policy(
                    "SHARDED", capacity=args.capacity, **kwargs
                )
            )
            for label, kwargs in SHARDED_VARIANTS
        },
        cost_model=CostModel(device="hdd", page_span=2_000),
        rolling_window=args.rolling_window,
        queueing_model=queueing,
    )

    if not ok:
        print("FAIL: columnar replay is not bit-identical to the object path")
        return 1
    print("PASS: object and columnar paths bit-identical "
          "(stats, per-client, per-shard, latency, rolling, queueing)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
