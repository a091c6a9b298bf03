"""Microbenchmark + gate: observer-pipeline replay vs. the seed path.

The seed implementation of ``sweep_cache_sizes`` replayed the request stream
once per (policy, cache-size) cell, strictly serially, with each policy
mutating its own counters inline.  After the kernel/observer refactor the
policies are pure C kernels (``batch_access`` returns an outcome batch per
chunk) and all accounting happens in observers driven by one replay loop.
This benchmark runs the same 4-policy x 4-size grid four ways and verifies
they produce identical read hit ratios:

1. ``seed serial``    — a faithful replica of the seed path: a hand-rolled
                        per-request loop per cell over the seed's own
                        per-request policies (the pure-Python references
                        in ``tests/policy_reference.py``: ``access`` + the
                        seed's per-request ``record_outcome`` stats fold),
                        no engine, no observers;
2. ``pipeline serial``— one :class:`CacheSimulator` pass per cell: the same
                        per-cell structure, but replayed through the
                        observer pipeline (stats observer only);
3. ``engine serial``  — the shared-replay engine (``jobs=1``): one trace
                        pass feeds every policy of the grid, with the OPT
                        future-read index built once and shared;
4. ``engine jobs=N``  — the same grid fanned out over worker processes.

Gates (exit non-zero on violation):

* **observer dispatch** — (2) must stay within 5% of (1): feeding outcomes
  to observers in chunk batches must not tax the hot path relative to the
  seed's inline counter mutation;
* **shared replay** — (3) must stay within 5% of (2): driving the whole
  grid from one loop must never be worse than per-cell runs (it amortises
  trace iteration and the shared OPT index);
* **speedup floor** — CPU-scaled.  With >= 2 usable CPUs the best engine
  path must beat the seed loop outright (2.0x at >= 4 CPUs, 1.2x at 2-3).
  On a single CPU there is no parallelism to win and — unlike the
  pre-refactor bench, whose "seed" baseline was the old slow per-cell
  ``CacheSimulator`` loop — the hand-rolled baseline here is as lean as
  the engine's own hot path, so the floor only demands that no path is
  materially (>10%) slower than the seed loop.

``--json PATH`` also writes the measured timings next to the pre-refactor
baseline captured on the machine that ran the refactor (the committed
``BENCH_6.json``), so the perf trajectory of the replay core is tracked in
version control.  Without it nothing is written: a smoke run never rewrites
a tracked record.

A second, columnar section follows: the paper grid (``PAPER_POLICIES``:
OPT, LRU, ARC, TQ and CLIC, each with a fused batch kernel) is replayed
from the same cached binary trace three ways — the bench-local ``object
replay`` baseline (:func:`object_replay_sweep`: the scalar loop the engine
ran before it became columnar-only, over the seed's per-request policies —
the references in ``tests/policy_reference.py`` and
``tests/clic_reference.py`` — sharing one OPT future-read index as the
engine does), engine serial and engine ``jobs=N`` — with three gates:

* **columnar identity** — every path must produce identical per-point
  hit/miss stats: the C kernels and column-native observers are a pure
  fast path over the per-request definitions, never a fork;
* **columnar speedup (full grid)** — engine serial must replay the paper
  grid at >= ``--columnar-gate`` (default 2.0x) the object-replay
  throughput.  Every paper policy's loop is C code, called once per
  chunk; the object-replay baseline steps each request through the
  policy's Python reference.  The gate is the one set when the kernels
  were Python (measured value in ``BENCH_9.json``);
* **columnar core speedup** — LRU, the one always-admit kernel, where
  batching eliminates nearly all per-request engine overhead, must replay
  at >= ``--columnar-core-gate`` (default 3.5x, raised from the 3.0x the
  grid first shipped with).  This continues the core metric the original
  ``BENCH_9.json`` recorded, so the perf trajectory stays comparable.

``--jobs`` is clamped to the usable CPU count before any sweep runs
(over-subscribing a 1-CPU runner just adds fork cost while the record
claims parallelism); both the requested and the effective counts land in
the JSON records.

``--json9 PATH`` writes the columnar section's record (the committed
``BENCH_9.json``) via :func:`bench_common.emit_bench_json`; its ``object
serial`` timings are the bench-local object replay.

Run it standalone (CI runs this as a smoke test)::

    PYTHONPATH=src python benchmarks/bench_engine.py --requests 20000
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from bench_common import best_of, effective_jobs, emit_bench_json, usable_cpus

from repro.cache.base import CacheStats
from repro.cache.opt import OPTPolicy
from repro.cache.registry import PAPER_POLICIES, create_policy
from repro.experiments.common import ExperimentSettings, generate_trace, trace_spec
from repro.simulation.engine import ParallelSweepRunner, PolicySpec, SweepCell
from repro.simulation.simulator import CacheSimulator
from repro.simulation.sweep import sweep_cache_sizes

# The per-request baselines step the references in tests/.
REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tests.policy_reference import REFERENCES  # noqa: E402

DEFAULT_POLICIES = ("OPT", "LRU", "ARC", "TQ")
DEFAULT_SIZES = (450, 900, 1_800, 3_600)
#: The columnar grid: the paper's five policies, each with a fused kernel.
COLUMNAR_POLICIES = PAPER_POLICIES
#: The engine-overhead-dominated core: LRU, the one always-admit kernel.
#: The original BENCH_9.json gated LRU/FIFO/CLOCK here at 3.0x; the core
#: keeps its own metric so the number stays comparable across PRs.
COLUMNAR_CORE_POLICIES = ("LRU",)
#: Full-grid columnar-speedup gate, kept from when ARC and TQ were Python
#: loops that capped the aggregate (measured value in BENCH_9.json).
COLUMNAR_SPEEDUP_GATE = 2.0
#: Core gate, raised from the original 3.0 (LRU measured 4.7-8.2x on a
#: 2-vCPU box).
COLUMNAR_CORE_SPEEDUP_GATE = 3.5

#: The last pre-refactor run of this benchmark (policies owned their stats,
#: CacheSimulator had its own replay loop), captured with the CI settings
#: ``--requests 20000 --repeat 2`` on the refactor machine.  Kept in the
#: BENCH_6.json output as the fixed reference point of the perf trajectory —
#: not used by the gates, which always compare paths measured in-run.
PRE_REFACTOR_BASELINE = {
    "requests": 20_000,
    "repeat": 2,
    "usable_cpus": 1,
    "seed_serial_seconds": 0.577,
    "engine_serial_seconds": 0.437,
    "engine_jobs4_seconds": 0.607,
}

#: Observer-dispatch gate: pipeline serial must stay within this factor of
#: the hand-rolled seed loop.
OVERHEAD_GATE = 1.05


class _SeedStats(CacheStats):
    """:class:`CacheStats` with the seed's per-request fold, which the seed
    path calls once per request."""

    def record(self, request, hit: bool) -> None:
        """Record the hit/miss outcome of one request."""
        if request.is_read:
            self.read_requests += 1
            if hit:
                self.read_hits += 1
        else:
            self.write_requests += 1
            if hit:
                self.write_hits += 1

    def record_outcome(self, request, outcome) -> None:
        """Fold one full outcome event into the counters."""
        self.record(request, outcome.hit)
        if outcome.admitted:
            self.admissions += 1
        if outcome.bypassed:
            self.bypasses += 1
        if outcome.evicted:
            self.evictions += len(outcome.evicted)


def seed_serial_sweep(requests, cache_sizes, policies):
    """The seed path: a hand-rolled per-request loop per cell.

    No engine, no observers — the policy's reference (the seed's
    per-request policy) steps each request with ``access``, plus inline
    stats accounting, the way the seed's ``CacheSimulator`` worked before
    the refactor.  This is the baseline the observer pipeline is gated
    against.
    """
    curves = {}
    for name in policies:
        curves[name] = []
        for capacity in cache_sizes:
            policy = REFERENCES[name](capacity)
            if policy.offline:
                policy.prepare(requests)
            stats = _SeedStats()
            record = stats.record_outcome
            access = policy.access
            for seq, request in enumerate(requests):
                record(request, access(request, seq))
            curves[name].append((float(capacity), stats.read_hit_ratio))
    return curves


def pipeline_serial_sweep(requests, cache_sizes, policies):
    """One observer-pipeline (CacheSimulator) pass per cell, stats only."""
    curves = {}
    for name in policies:
        curves[name] = []
        for capacity in cache_sizes:
            policy = create_policy(name, capacity=capacity)
            result = CacheSimulator(policy).run(requests)
            curves[name].append((float(capacity), result.read_hit_ratio))
    return curves


def engine_sweep(requests, cache_sizes, policies, jobs):
    sweep = sweep_cache_sizes(requests, cache_sizes, policies, jobs=jobs)
    return {name: sweep.curve(name) for name in policies}


def _grid_cells(cache_sizes, policies):
    return [
        SweepCell(
            x=float(capacity),
            specs=tuple(
                PolicySpec(label=name, name=name, capacity=capacity)
                for name in policies
            ),
        )
        for capacity in cache_sizes
    ]


def object_replay_sweep(spec, cache_sizes, policies):
    """The object replay baseline: one scalar pass feeding every cell.

    Per decoded block of the cached trace (``spec.open().iter_chunks()``) it does
    what the engine's object loop did per chunk before the engine replayed
    only columnar chunks: ``list(map(policy.access, chunk, seqs))`` for
    every (policy, size) cell, each policy its per-request reference, then
    one counting pass over the outcomes.  Offline cells (OPT) adopt one
    future-read index built up front, as the engine shares it.  Returns
    ``{name: [(capacity, CacheStats), ...]}``.
    """
    cells = [
        (name, capacity, REFERENCES[name](capacity))
        for capacity in cache_sizes
        for name in policies
    ]
    offline = [policy for _, _, policy in cells if policy.offline]
    if offline:
        index = OPTPolicy.build_read_index(spec)
        for policy in offline:
            policy.adopt_read_index(index)
    stats = [CacheStats() for _ in cells]
    seq = 0
    for chunk in spec.open().iter_chunks():
        seqs = range(seq, seq + len(chunk))
        for (_, _, policy), counted in zip(cells, stats):
            outcomes = list(map(policy.access, chunk, seqs))
            rr = rh = wh = ev = adm = byp = 0
            for request, outcome in zip(chunk, outcomes):
                if request.is_read:
                    rr += 1
                    if outcome.hit:
                        rh += 1
                elif outcome.hit:
                    wh += 1
                if outcome.admitted:
                    adm += 1
                if outcome.bypassed:
                    byp += 1
                if outcome.evicted:
                    ev += len(outcome.evicted)
            counted.read_requests += rr
            counted.read_hits += rh
            counted.write_requests += len(chunk) - rr
            counted.write_hits += wh
            counted.evictions += ev
            counted.admissions += adm
            counted.bypasses += byp
        seq += len(chunk)
    curves = {name: [] for name in policies}
    for (name, capacity, _), counted in zip(cells, stats):
        curves[name].append((float(capacity), counted))
    return curves


def _engine_curves(spec, cache_sizes, policies, jobs):
    """One engine sweep of the grid, as ``{name: [(x, CacheStats), ...]}``."""
    sweep = ParallelSweepRunner(requests=spec, jobs=jobs).run(
        _grid_cells(cache_sizes, policies), parameter="capacity"
    )
    return {
        name: [(point.x, point.result.stats) for point in sweep.series[name]]
        for name in policies
    }


def columnar_three_way(spec, cache_sizes, policies, jobs, repeat):
    """Replay the paper grid: object replay, engine serial and engine
    ``jobs=N``, all from the same cached binary trace.

    Returns ``(timings, curves)``: best-of-*repeat* seconds and the
    per-point stats per path.
    """
    paths = {
        "object serial": lambda: object_replay_sweep(spec, cache_sizes, policies),
        "columnar serial": lambda: _engine_curves(spec, cache_sizes, policies, 1),
        f"columnar jobs={jobs}": (
            lambda: _engine_curves(spec, cache_sizes, policies, jobs)
        ),
    }
    timings, curves = {}, {}
    for label, run in paths.items():
        timings[label], curves[label] = best_of(run, repeat)
    return timings, curves


def columnar_serial_pair(spec, cache_sizes, policies, repeat):
    """Time object replay vs engine serial over a (sub)grid.

    Used for the LRU core, whose speedup is gated separately from the full
    grid (see module docstring).
    """
    return {
        "core object serial": best_of(
            lambda: object_replay_sweep(spec, cache_sizes, policies), repeat
        )[0],
        "core columnar serial": best_of(
            lambda: _engine_curves(spec, cache_sizes, policies, 1), repeat
        )[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", default="DB2_C300", help="standard trace name")
    parser.add_argument("--requests", type=int, default=40_000)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument(
        "--policies", default=",".join(DEFAULT_POLICIES),
        help="comma-separated policy names",
    )
    parser.add_argument(
        "--sizes", default=",".join(str(s) for s in DEFAULT_SIZES),
        help="comma-separated cache sizes (pages)",
    )
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="time each path as the best of N repeats (default: 3)",
    )
    parser.add_argument(
        "--json", default="",
        help="write the timing record to this path (default: write nothing)",
    )
    parser.add_argument(
        "--json9", default="",
        help="write the columnar record to this path (default: write nothing)",
    )
    parser.add_argument(
        "--columnar-gate", type=float, default=COLUMNAR_SPEEDUP_GATE,
        help="columnar serial must be this multiple of object serial over "
             f"the paper grid (default: {COLUMNAR_SPEEDUP_GATE})",
    )
    parser.add_argument(
        "--columnar-core-gate", type=float, default=COLUMNAR_CORE_SPEEDUP_GATE,
        help="same gate over the LRU core "
             f"(default: {COLUMNAR_CORE_SPEEDUP_GATE})",
    )
    parser.add_argument(
        "--no-check", action="store_true",
        help="report timings only; skip the gates",
    )
    args = parser.parse_args(argv)
    policies = tuple(p.strip() for p in args.policies.split(",") if p.strip())
    sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip())
    if not policies:
        parser.error("--policies must name at least one policy")
    if not sizes:
        parser.error("--sizes must name at least one cache size")

    jobs = effective_jobs(args.jobs)
    if jobs != args.jobs:
        print(f"jobs: requested {args.jobs}, clamped to {jobs} usable CPU(s)")

    settings = ExperimentSettings(target_requests=args.requests, seed=args.seed)
    requests = generate_trace(args.trace, settings).requests()
    print(
        f"trace={args.trace} requests={len(requests)} "
        f"grid={len(policies)} policies x {len(sizes)} sizes "
        f"({', '.join(policies)})"
    )

    timings = {}
    timings["seed serial"], seed_curves = best_of(
        lambda: seed_serial_sweep(requests, sizes, policies), args.repeat
    )
    timings["pipeline serial"], pipeline_curves = best_of(
        lambda: pipeline_serial_sweep(requests, sizes, policies), args.repeat
    )
    timings["engine serial"], engine_curves = best_of(
        lambda: engine_sweep(requests, sizes, policies, jobs=1), args.repeat
    )
    timings[f"engine jobs={jobs}"], parallel_curves = best_of(
        lambda: engine_sweep(requests, sizes, policies, jobs=jobs), args.repeat
    )

    # --- Correctness: all four paths must agree exactly.
    for name in policies:
        assert pipeline_curves[name] == seed_curves[name], (
            f"{name}: observer pipeline diverged from the seed path"
        )
        assert engine_curves[name] == seed_curves[name], (
            f"{name}: engine serial diverged from the seed path"
        )
        assert parallel_curves[name] == seed_curves[name], (
            f"{name}: engine jobs={jobs} diverged from the seed path"
        )
    print("hit-ratio output: identical across all four paths")

    baseline = timings["seed serial"]
    print(f"\n{'path':<20} {'seconds':>8} {'speedup':>8}")
    for path, seconds in timings.items():
        print(f"{path:<20} {seconds:>8.3f} {baseline / seconds:>7.2f}x")

    overhead = timings["pipeline serial"] / baseline
    shared_overhead = timings["engine serial"] / timings["pipeline serial"]
    best_speedup = baseline / min(
        timings["engine serial"], timings[f"engine jobs={jobs}"]
    )
    cpus = usable_cpus()
    print(f"\nusable CPUs: {cpus}")
    print(f"observer dispatch overhead: {overhead:.3f}x of the seed loop "
          f"(gate {OVERHEAD_GATE:.2f}x)")

    emit_bench_json(
        args.json,
        "bench_engine",
        {
            "trace": args.trace,
            "requests": len(requests),
            "policies": list(policies),
            "sizes": list(sizes),
            "repeat": args.repeat,
            "jobs_requested": args.jobs,
            "jobs_effective": jobs,
        },
        timings,
        observer_dispatch_overhead=round(overhead, 4),
        overhead_gate=OVERHEAD_GATE,
        shared_replay_overhead=round(shared_overhead, 4),
        best_speedup=round(best_speedup, 4),
        pre_refactor_baseline=PRE_REFACTOR_BASELINE,
    )

    # --- Columnar section: the paper grid, object replay vs engine.
    spec = trace_spec(args.trace, settings)
    spec.ensure()
    col_timings, col_curves = columnar_three_way(
        spec, sizes, COLUMNAR_POLICIES, jobs, args.repeat
    )

    # Hard identity gate: every path yields identical per-point stats.
    reference_label = "object serial"
    reference = col_curves[reference_label]
    columnar_identical = True
    for label, curves in col_curves.items():
        for name in COLUMNAR_POLICIES:
            points = [(x, stats.as_dict()) for x, stats in curves[name]]
            if points != [(x, stats.as_dict()) for x, stats in reference[name]]:
                print(f"FAIL: {label!r} {name} stats diverged from the object replay")
                columnar_identical = False
    if columnar_identical:
        print("\ncolumnar output: identical across all three paths")

    col_baseline = col_timings[reference_label]
    print(f"\n{'path':<20} {'seconds':>8} {'speedup':>8}   (columnar grid: "
          f"{len(COLUMNAR_POLICIES)} policies x {len(sizes)} sizes)")
    for path, seconds in col_timings.items():
        print(f"{path:<20} {seconds:>8.3f} {col_baseline / seconds:>7.2f}x")
    columnar_speedup = col_baseline / col_timings["columnar serial"]
    print(f"columnar serial speedup: {columnar_speedup:.2f}x "
          f"(gate >= {args.columnar_gate:.2f}x)")

    core_timings = columnar_serial_pair(
        spec, sizes, COLUMNAR_CORE_POLICIES, args.repeat
    )
    columnar_core_speedup = (
        core_timings["core object serial"] / core_timings["core columnar serial"]
    )
    print(f"columnar core speedup ({'/'.join(COLUMNAR_CORE_POLICIES)}): "
          f"{columnar_core_speedup:.2f}x (gate >= {args.columnar_core_gate:.2f}x)")

    emit_bench_json(
        args.json9,
        "bench_engine_columnar",
        {
            "trace": args.trace,
            "requests": len(requests),
            "policies": list(COLUMNAR_POLICIES),
            "core_policies": list(COLUMNAR_CORE_POLICIES),
            "sizes": list(sizes),
            "repeat": args.repeat,
            "jobs_requested": args.jobs,
            "jobs_effective": jobs,
        },
        {**col_timings, **core_timings},
        columnar_identical=columnar_identical,
        columnar_speedup=round(columnar_speedup, 4),
        columnar_speedup_gate=args.columnar_gate,
        columnar_core_speedup=round(columnar_core_speedup, 4),
        columnar_core_speedup_gate=args.columnar_core_gate,
    )

    if args.no_check:
        return 0

    ok = True
    if overhead > OVERHEAD_GATE:
        print(f"FAIL: observer pipeline is {overhead:.3f}x the seed loop, "
              f"above the {OVERHEAD_GATE:.2f}x gate")
        ok = False
    if shared_overhead > OVERHEAD_GATE:
        print(f"FAIL: shared replay is {shared_overhead:.3f}x the per-cell "
              f"pipeline, above the {OVERHEAD_GATE:.2f}x gate")
        ok = False
    if cpus >= 4:
        threshold = 2.0
    elif cpus >= 2:
        threshold = 1.2
    else:
        # Single-CPU machine: process-level parallelism cannot reduce
        # wall-clock, and the hand-rolled seed loop is as lean as the
        # engine's hot path — demand only that nothing got materially
        # slower than the seed loop.
        threshold = 0.90
    if best_speedup < threshold:
        print(f"FAIL: best speedup {best_speedup:.2f}x below {threshold:.2f}x "
              f"threshold for {cpus} CPU(s)")
        ok = False
    if not columnar_identical:
        print("FAIL: the engine diverged from the object replay")
        ok = False
    if columnar_speedup < args.columnar_gate:
        print(f"FAIL: columnar serial speedup {columnar_speedup:.2f}x below "
              f"the {args.columnar_gate:.2f}x gate")
        ok = False
    if columnar_core_speedup < args.columnar_core_gate:
        print(f"FAIL: columnar core speedup {columnar_core_speedup:.2f}x "
              f"below the {args.columnar_core_gate:.2f}x gate")
        ok = False
    if ok:
        print(f"PASS: best speedup {best_speedup:.2f}x "
              f"(threshold {threshold:.2f}x for {cpus} CPU(s)), "
              f"observer overhead {overhead:.3f}x <= {OVERHEAD_GATE:.2f}x")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
