"""Shared-replay simulation engine: one trace pass, many policies.

Every figure in the paper's evaluation is a family of curves produced by
replaying the same trace once per (policy, cache-size) cell.  The seed
implementation walked the request stream once per cell, strictly serially —
a 5-policy x 8-size sweep iterated the trace 40 times.  This module provides
the two building blocks that every sweep now runs through:

* :class:`MultiPolicySimulator` iterates the request stream **once** and
  feeds each request to N independent policies, amortising trace iteration,
  per-client statistics bookkeeping and offline preparation (OPT's
  future-read index is built once and shared by every OPT instance) across
  the policies.
* :class:`ParallelSweepRunner` fans (policy, parameter) cells out over a
  ``concurrent.futures.ProcessPoolExecutor`` and merges the results back
  into a :class:`~repro.simulation.metrics.SweepResult` in deterministic
  cell order.  With the default ``jobs=1`` everything runs in-process and
  the output is identical to the serial path, bit for bit; cells that share
  a request stream are then folded into a single shared replay pass, in
  which a policy spec listed by several cells replays once.

Policies are described by :class:`PolicySpec` (a registry name plus
constructor arguments, or an arbitrary zero-argument factory) so that cells
can be pickled to worker processes; specs whose factories cannot be pickled
make the runner fall back to the serial path with a warning rather than
fail.

A request stream reaches the engine in one shape: a columnar stream, any
object with a re-iterable ``iter_columnar()`` that yields
:class:`~repro.trace.columnar.ColumnarChunk` batches numbered from
sequence number 0 (:class:`repro.trace.cache.TraceSpec`,
:class:`repro.trace.binio.StreamedTrace`,
:class:`repro.simulation.multiclient.InterleavedSource`).  A request
sequence or one-shot iterable is lifted into chunks once per run
(:func:`~repro.trace.columnar.as_columnar`), and the offline index and the
replay share those chunks.  A trace read from disk is replayed block by
block with bounded memory, and one that is also cheaply picklable is what
``jobs > 1`` ships to worker processes: each worker opens the trace itself
instead of receiving millions of pickled request objects.
"""

from __future__ import annotations

import pickle
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as _np

from repro.cache.base import CachePolicy, CacheStats
from repro.cache.registry import create_policy
from repro.simulation.costmodel import CostModel, LatencyStats
from repro.simulation.metrics import (
    SimulationResult,
    SweepResult,
    validate_rolling_window,
)
from repro.simulation.observers import (
    CostObserver,
    ReplayObserver,
    RollingObserver,
    StatsObserver,
    shard_observer_for,
)
from repro.simulation.queueing import QueueingModel, QueueingObserver
from repro.simulation.request import IORequest
from repro.trace.columnar import ColumnarStream, as_columnar

if TYPE_CHECKING:  # imported for type annotations only
    from repro.simulation.queueing import _ArrivalTape

__all__ = [
    "MultiPolicySimulator",
    "PolicySpec",
    "SweepCell",
    "ParallelSweepRunner",
    "RequestSource",
]

#: Anything the engine can replay: a request sequence or a columnar stream.
RequestSource = Sequence[IORequest] | ColumnarStream


class _QueueingTap:
    """One queueing model's observers in one replay pass.

    The engine calls it as an observer factory, once per policy in policy
    order: each policy gets its own :class:`QueueingObserver`, and all of
    them share one arrival tape.  The policies replay the same stream, so
    its arrival column is drawn once per model, when the first observer
    finalizes, and read by the rest.  A folded sweep pass holds one tap
    per distinct queueing model.
    """

    def __init__(self, model: QueueingModel):
        self._model = model
        self._tape: _ArrivalTape | None = None
        #: The observers built so far, in policy order.
        self.observers: list[QueueingObserver] = []

    def __call__(self, policy: CachePolicy) -> QueueingObserver:
        if self._tape is None:
            self._tape = self._model.tape()
        observer = self._model.observer_for(policy, tape=self._tape)
        self.observers.append(observer)
        return observer


class MultiPolicySimulator:
    """Drives N independent cache policies with a single pass over a stream.

    Feeding every policy from one loop is equivalent to N separate
    :class:`~repro.simulation.simulator.CacheSimulator` runs — the policies
    never interact — but pays the trace iteration, the per-client lookup and
    the read/write classification once per request instead of once per
    request per policy.  Offline policies exposing ``build_read_index`` /
    ``adopt_read_index`` (OPT) additionally share one future-read index.

    All accounting is observers (:mod:`repro.simulation.observers`) over the
    outcome stream the policies emit: a :class:`StatsObserver` per policy
    always; a :class:`ShardStatsObserver` when the policy is a sharded
    cluster; a :class:`CostObserver` when ``cost_model`` prices the replay
    on a seek device (a position-independent device is priced from the
    stats observers' counts when the results are assembled);
    a :class:`RollingObserver` when ``rolling_window`` opts into windowed
    time series.  ``observer_factories`` attaches arbitrary extra observers:
    each factory is called ``factory(policy)`` once per policy per run, in
    policy order, and the caller keeps its own references to the instances
    it built (the engine only drives them).
    """

    def __init__(
        self,
        policies: Sequence[CachePolicy],
        cost_model: CostModel | None = None,
        rolling_window: int | None = None,
        queueing_model: QueueingModel | None = None,
        observer_factories: Sequence[Callable[[CachePolicy], ReplayObserver]] = (),
    ):
        self._policies = list(policies)
        self._cost_model = cost_model
        self._rolling_window = validate_rolling_window(rolling_window)
        #: Optional open-loop queueing accounting
        #: (:mod:`repro.simulation.queueing`): one QueueingObserver per
        #: policy, fed from the same outcome stream as everything else.
        self._queueing_model = queueing_model
        self._observer_factories = tuple(observer_factories)

    @property
    def policies(self) -> list[CachePolicy]:
        return list(self._policies)

    #: Requests per chunk of the replay loop.  Within a chunk each policy
    #: runs in its own tight loop, so the interpreter's call-site caches stay
    #: monomorphic and a policy's data structures stay hot for a whole chunk
    #: instead of being evicted N-1 times per request by the other policies.
    CHUNK_SIZE = 4096

    def run(
        self, requests: Iterable[IORequest] | ColumnarStream
    ) -> list[SimulationResult]:
        """Replay *requests* once through every policy.

        The policies never interact, so the engine is free to reorder work
        across them; it replays chunk-by-chunk, each policy consuming a whole
        chunk at a time, which is observably identical to N independent
        request-by-request runs.  Returns one :class:`SimulationResult` per
        policy, in policy order.  ``elapsed_seconds`` reports the duration of
        the shared pass and is therefore the same for every result.

        ``requests`` may be a columnar stream or a request sequence, which
        is lifted once into :attr:`CHUNK_SIZE` chunks (see the module
        docstring).  A trace streamed from disk is replayed with bounded
        memory — at most one block of it is decoded at a time — and
        produces results bit-identical to replaying the materialized list.
        The stream's requests are sequence numbers 0, 1, 2, ...: every
        source numbers its chunks that way.
        """
        policies = self._policies
        if not policies:
            return []
        source = as_columnar(requests, self.CHUNK_SIZE)
        if any(policy.offline for policy in policies):
            self._prepare_offline(source)

        n = len(policies)
        batch_accessors = [policy.batch_access for policy in policies]
        cost_model = self._cost_model
        walks_seeks = cost_model is not None and cost_model.profile.position_dependent
        rolling = self._rolling_window

        # One observer pipeline per policy.  Stats are always reconstructed
        # (they are the result); everything else is opt-in.  Observers are
        # fresh per run, so every result counts exactly this run.
        stats_obs: list[StatsObserver] = []
        shard_obs: list = []
        cost_obs: list = []
        rolling_obs: list = []
        queueing = (
            _QueueingTap(self._queueing_model)
            if self._queueing_model is not None
            else None
        )
        factories = self._observer_factories + (
            (queueing,) if queueing is not None else ()
        )
        pipelines: list[list[ReplayObserver]] = []
        for policy in policies:
            pipeline: list[ReplayObserver] = []
            observer = StatsObserver()
            stats_obs.append(observer)
            pipeline.append(observer)
            shard = shard_observer_for(policy)
            shard_obs.append(shard)
            if shard is not None:
                pipeline.append(shard)
            cost = CostObserver(cost_model, policy) if walks_seeks else None
            cost_obs.append(cost)
            if cost is not None:
                pipeline.append(cost)
            roll = RollingObserver(rolling) if rolling else None
            rolling_obs.append(roll)
            if roll is not None:
                pipeline.append(roll)
            for factory in factories:
                pipeline.append(factory(policy))
            pipelines.append(pipeline)
        queueing_obs: list = queueing.observers if queueing is not None else [None] * n

        # client_id -> [read_requests, write_requests, read hits per policy,
        # write hits per policy].  The request counts are policy-independent,
        # so they are counted once per chunk and shared by all N per-client
        # results; each policy's hits are masked popcounts of its hit column.
        per_client: dict[str, list] = {}
        started = time.perf_counter()  # lintkit: ignore[wall-clock] elapsed_seconds is runtime telemetry, never replay state
        for chunk in source.iter_columnar():
            client_rows: list[tuple[list, object, object]] = []
            write = chunk.write
            for client_id, mask in chunk.present_clients():
                row = per_client.get(client_id)
                if row is None:
                    row = [0, 0, [0] * n, [0] * n]
                    per_client[client_id] = row
                read_mask = mask & ~write
                write_mask = mask & write
                row[0] += int(_np.count_nonzero(read_mask))
                row[1] += int(_np.count_nonzero(write_mask))
                client_rows.append((row, read_mask, write_mask))
            for j in range(n):
                batch = batch_accessors[j](chunk)
                hit = batch.hit
                for row, read_mask, write_mask in client_rows:
                    row[2][j] += int(_np.count_nonzero(hit & read_mask))
                    row[3][j] += int(_np.count_nonzero(hit & write_mask))
                for observer in pipelines[j]:
                    observer.on_batch(chunk, batch)
        elapsed = time.perf_counter() - started  # lintkit: ignore[wall-clock] elapsed_seconds is runtime telemetry, never replay state
        return self._assemble_results(
            per_client, elapsed, stats_obs, shard_obs, cost_obs, rolling_obs, queueing_obs
        )

    def _assemble_results(
        self,
        per_client: dict[str, list],
        elapsed: float,
        stats_obs: list[StatsObserver],
        shard_obs: list,
        cost_obs: list,
        rolling_obs: list,
        queueing_obs: list,
    ) -> list[SimulationResult]:
        """Fold the observer pipelines into one result per policy."""
        cost_model = self._cost_model
        results = []
        for j, policy in enumerate(self._policies):
            client_stats = {
                client_id: CacheStats(
                    read_requests=row[0],
                    read_hits=row[2][j],
                    write_requests=row[1],
                    write_hits=row[3][j],
                )
                for client_id, row in per_client.items()
            }
            stats = stats_obs[j].finalize()
            shard = shard_obs[j]
            per_shard = shard.finalize() if shard is not None else ()
            latency = None
            shard_latency: tuple = ()
            cost = cost_obs[j]
            if cost is not None:
                latency = cost.finalize()
                shard_latency = cost.shard_latencies()
            elif cost_model is not None:
                # Every pricing class of a position-independent device has
                # one cost: pricing the counts is the exact pricing.
                latency = cost_model.latency_from_stats(stats)
                shard_latency = cost_model.shard_latencies(per_shard)
            roll = rolling_obs[j]
            queueing = queueing_obs[j]
            results.append(
                SimulationResult(
                    policy_name=policy.name,
                    capacity=policy.capacity,
                    stats=stats,
                    per_client=client_stats,
                    elapsed_seconds=elapsed,
                    per_shard=per_shard,
                    latency=latency,
                    shard_latency=shard_latency,
                    rolling=roll.finalize() if roll is not None else None,
                    queueing=queueing.finalize() if queueing is not None else None,
                )
            )
        return results

    def _prepare_offline(self, source: ColumnarStream) -> None:
        """Prepare offline policies, sharing one future index per index builder.

        Policies that can adopt the stream-wide index
        (``shares_read_index``: OPT, and OPT clusters with a page-keyed
        router) get it through ``adopt_read_index``.  The index is built
        from the page/write columns of the chunks the replay reads.  The
        shared-index cache is keyed by the builder function itself, so types
        that delegate to the same builder (``ShardedCache`` reuses OPT's)
        share one index with it instead of each indexing the stream.  Every
        other offline policy indexes the source itself in ``prepare``.
        """
        shared_indexes: dict[object, object] = {}
        for policy in self._policies:
            if not policy.offline:
                continue
            cls = type(policy)
            if (
                policy.shares_read_index
                and hasattr(cls, "build_read_index")
                and hasattr(policy, "adopt_read_index")
            ):
                builder = cls.build_read_index
                index = shared_indexes.get(builder)
                if index is None:
                    index = builder(source)
                    shared_indexes[builder] = index
                policy.adopt_read_index(index)
            else:
                policy.prepare(source)


@dataclass(frozen=True)
class PolicySpec:
    """A picklable description of one policy instance in a sweep cell.

    Either ``name``/``capacity`` (resolved through the policy registry, with
    ``kwargs`` forwarded to the constructor) or an arbitrary zero-argument
    ``factory``.  Factories must be picklable (module-level functions or
    :func:`functools.partial` of them) to run under ``jobs > 1``; otherwise
    the runner falls back to the serial path.
    """

    label: str
    name: str | None = None
    capacity: int | None = None
    kwargs: Mapping[str, object] = field(default_factory=dict)
    factory: Callable[[], CachePolicy] | None = None

    def build(self) -> CachePolicy:
        if self.factory is not None:
            return self.factory()
        if self.name is None or self.capacity is None:
            raise ValueError(
                f"PolicySpec {self.label!r} needs either a factory or name+capacity"
            )
        return create_policy(self.name, capacity=self.capacity, **dict(self.kwargs))


@dataclass(frozen=True)
class SweepCell:
    """One x-coordinate of a sweep: the policies that share a replay pass.

    ``requests`` overrides the runner's shared stream for this cell (used by
    sweeps whose cells replay different streams, e.g. the noise-injection
    experiment); ``None`` means the runner's stream.  Either may be a
    sequence or a columnar stream (e.g. a
    :class:`repro.trace.cache.TraceSpec`).

    ``queueing`` overrides the runner's queueing model for this cell (used
    by the ``load`` experiment, whose cells sweep offered load over one
    stream); ``None`` means the runner's model (which may itself be
    ``None`` — queueing off).  Cells fold by stream alone: the cells of one
    stream share a replay pass whatever their models, each distinct spec
    replays once, and each distinct queueing model gets its own arrival
    tape and one queueing observer per policy.  Cells replay their stream
    whole inside one worker, so queueing stats are bit-identical at any
    ``jobs=`` count.
    """

    x: float
    specs: tuple[PolicySpec, ...]
    requests: RequestSource | None = None
    queueing: QueueingModel | None = None


# Per-worker copy of the runner's shared request stream (or the trace spec
# the worker opens itself), installed once per worker process by the pool
# initializer instead of being pickled per cell.
_WORKER_REQUESTS: RequestSource | None = None


def _init_worker(requests: RequestSource | None) -> None:
    global _WORKER_REQUESTS
    _WORKER_REQUESTS = requests


def _stream_group_key(stream: RequestSource) -> object:
    """Group key for folding same-stream cells into one replay pass.

    Hashable columnar streams (e.g. :class:`~repro.trace.cache.TraceSpec`)
    group by *equality*, so two equal specs share one pass even if they are
    distinct objects (or were pickled separately); everything else groups by
    identity.
    """
    if hasattr(stream, "iter_columnar"):
        try:
            hash(stream)
        except TypeError:
            return id(stream)
        return stream
    return id(stream)


def _run_cells(
    cells: Sequence[SweepCell],
    default_requests: RequestSource | None,
    cost_model: CostModel | None = None,
    rolling_window: int | None = None,
    queueing_model: QueueingModel | None = None,
) -> list[list[SimulationResult]]:
    """Run *cells*, folding same-stream cells into one shared replay pass.

    Cells are grouped by request stream alone (stream equality for
    hashable columnar streams), and one :class:`MultiPolicySimulator` pass per
    group covers every cell of it.  Within a group each distinct policy
    spec (specs that compare ``==`` are the same) is built and replayed
    once, however many cells list it: no policy decision reads the
    queueing model, so a spec's stats, per-client, per-shard, latency and
    rolling accounting is the same in every cell.  Each distinct queueing
    model of the group (a cell's ``queueing``, else *queueing_model*)
    gets its own arrival tape and one :class:`QueueingObserver` per
    policy.  Every (cell, spec) slot gets its own result: the spec's
    replay plus the queueing stats of that cell's model.  A spec filling
    one slot hands over the engine's accounting as it is; further slots
    get copies of its mutable containers (:func:`_unshared`), so no two
    results share mutable stats.  Used both by the serial path (with all
    cells) and inside each worker process (with that worker's batch of
    cells).
    """
    groups: dict[object, list[int]] = {}
    streams: dict[object, RequestSource] = {}
    for index, cell in enumerate(cells):
        stream = cell.requests if cell.requests is not None else default_requests
        if stream is None:
            raise ValueError(
                "sweep cell has no request stream (set ParallelSweepRunner("
                "requests=...) or SweepCell(requests=...))"
            )
        key = _stream_group_key(stream)
        groups.setdefault(key, []).append(index)
        streams[key] = stream

    placed: dict[tuple[int, int], SimulationResult] = {}
    for group_key, cell_indices in groups.items():
        specs: list[PolicySpec] = []
        # Per distinct spec: the (cell index, position in cell, queueing
        # model) of every slot it fills.
        slots: list[list[tuple[int, int, QueueingModel | None]]] = []
        taps: dict[QueueingModel, _QueueingTap] = {}
        for index in cell_indices:
            cell = cells[index]
            model = cell.queueing if cell.queueing is not None else queueing_model
            if model is not None and model not in taps:
                taps[model] = _QueueingTap(model)
            for position, spec in enumerate(cell.specs):
                try:
                    spec_index = specs.index(spec)
                except ValueError:
                    spec_index = len(specs)
                    specs.append(spec)
                    slots.append([])
                slots[spec_index].append((index, position, model))
        try:
            results = MultiPolicySimulator(
                [spec.build() for spec in specs],
                cost_model=cost_model,
                rolling_window=rolling_window,
                observer_factories=tuple(taps.values()),
            ).run(streams[group_key])
        except Exception as error:
            # Name the failing pass (PEP 678 notes, Python 3.11+); a worker's
            # exception keeps its notes when it is pickled back to the parent.
            if sys.version_info >= (3, 11):
                error.add_note(
                    "in the replay pass of sweep cells "
                    + "; ".join(
                        f"x={cells[index].x!r}: "
                        + ", ".join(repr(spec.label) for spec in cells[index].specs)
                        for index in cell_indices
                    )
                )
            raise
        for spec_index, result in enumerate(results):
            for count, (index, position, model) in enumerate(slots[spec_index]):
                queueing = (
                    taps[model].observers[spec_index].finalize()
                    if model is not None
                    else None
                )
                slot = replace(result, queueing=queueing)
                placed[index, position] = slot if count == 0 else _unshared(slot)
    return [
        [placed[index, position] for position in range(len(cell.specs))]
        for index, cell in enumerate(cells)
    ]


def _unshared(result: SimulationResult) -> SimulationResult:
    """A copy of *result* that shares no mutable container with it: its
    :class:`CacheStats`, per-client dict, latency and queueing stats and
    their histogram lists are copied.  Two cells with one queueing model
    share a finalized :class:`~repro.simulation.queueing.QueueingStats`,
    so it is copied too; the rolling series is frozen and stays shared."""

    def latency(stats: LatencyStats) -> LatencyStats:
        return replace(stats, read_histogram=list(stats.read_histogram))

    queueing = result.queueing
    return replace(
        result,
        stats=replace(result.stats),
        per_client={client: replace(stats) for client, stats in result.per_client.items()},
        per_shard=tuple(replace(stats) for stats in result.per_shard),
        latency=None if result.latency is None else latency(result.latency),
        shard_latency=tuple(map(latency, result.shard_latency)),
        queueing=None if queueing is None else replace(
            queueing,
            delay_histogram=list(queueing.delay_histogram),
            sojourn_histogram=list(queueing.sojourn_histogram),
        ),
    )


def _ensure_streams(streams: Iterable[RequestSource | None]) -> None:
    """Call each *distinct* stream's ``ensure()`` once, skipping ``None``.

    Wide sweeps hand the runner one equal :class:`~repro.trace.cache
    .TraceSpec` per cell; ensuring each would re-stat (and on a cold cache,
    race to re-generate) the same trace once per cell.  Streams are told
    apart by :func:`_stream_group_key`, so exactly the streams that will
    fold into one replay pass share one ``ensure()``.
    """
    seen: set[object] = set()
    for stream in streams:
        ensure = getattr(stream, "ensure", None)
        if not callable(ensure):
            continue
        key = _stream_group_key(stream)
        if key not in seen:
            seen.add(key)
            ensure()


def _run_cell_batch(payload: bytes) -> list[list[SimulationResult]]:
    """Worker entry point: run one pickled batch of cells (plus the runner's
    replay options) against the worker stream."""
    cells, *options = pickle.loads(payload)
    return _run_cells(cells, _WORKER_REQUESTS, *options)


class ParallelSweepRunner:
    """Runs a grid of sweep cells, serially or across worker processes.

    The merge order is deterministic: results enter the
    :class:`SweepResult` in cell order, then spec order within each cell,
    regardless of which worker finishes first — so ``jobs=1`` and ``jobs=N``
    produce identical sweeps (worker scheduling only affects wall-clock).
    """

    def __init__(
        self,
        requests: RequestSource | None = None,
        jobs: int | None = 1,
        cost_model: CostModel | None = None,
        rolling_window: int | None = None,
        queueing: QueueingModel | None = None,
    ):
        self._requests = requests
        self._jobs = 1 if jobs is None else int(jobs)
        #: Optional service-time pricing applied to every cell's replay
        #: (:mod:`repro.simulation.costmodel`).  Cost models are plain
        #: picklable objects, so they ship to worker processes with the
        #: cells; ``jobs=1`` and ``jobs=N`` produce identical latency stats.
        self._cost_model = cost_model
        #: Optional windowed time series on every result (an int, so it
        #: ships to workers like the cost model; each cell's policy replays
        #: its stream whole inside one worker, so the series are complete
        #: and identical at any job count).
        self._rolling_window = validate_rolling_window(rolling_window)
        #: Optional open-loop queueing on every cell's replay (a frozen
        #: picklable value object, so it ships to workers with the cells;
        #: per-cell ``SweepCell.queueing`` overrides it).  Arrival clocks
        #: and queue state are deterministic functions of the stream, so
        #: ``jobs=1`` and ``jobs=N`` produce identical queueing stats.
        self._queueing = queueing

    def run(self, cells: Iterable[SweepCell], parameter: str) -> SweepResult:
        cells = list(cells)
        jobs = min(self._jobs, len(cells))
        if jobs > 1:
            try:
                outcomes = self._run_parallel(cells, jobs)
            except (BrokenProcessPool, pickle.PicklingError) as error:
                # Cells that cannot be shipped to workers (a closure policy
                # factory, an unpicklable request stream) or a pool that
                # dies degrade to the serial path rather than failing the
                # sweep: workers build all state themselves, so a failed
                # parallel attempt leaves nothing behind.  Anything a
                # worker's replay raises propagates as it is.
                warnings.warn(
                    f"parallel sweep failed ({type(error).__name__}: {error}); "
                    "falling back to the serial path",
                    RuntimeWarning,
                    stacklevel=2,
                )
                outcomes = self._run_serial(cells)
        else:
            outcomes = self._run_serial(cells)

        sweep = SweepResult(parameter=parameter)
        for cell, results in zip(cells, outcomes):
            for spec, result in zip(cell.specs, results):
                sweep.add(spec.label, cell.x, result)
        return sweep

    # ----------------------------------------------------------- execution
    def _run_serial(self, cells: Sequence[SweepCell]) -> list[list[SimulationResult]]:
        return _run_cells(
            cells,
            self._requests,
            self._cost_model,
            self._rolling_window,
            self._queueing,
        )

    def _run_parallel(
        self, cells: Sequence[SweepCell], jobs: int
    ) -> list[list[SimulationResult]]:
        # Trace specs get materialized on disk once, up front, so N workers
        # opening the same spec hit the trace cache instead of racing to
        # generate the trace N times.
        _ensure_streams(
            [self._requests] + [cell.requests for cell in cells]
        )
        # Split the grid into one contiguous batch per worker: neighbouring
        # cells usually share a request stream, so each batch still folds
        # into one shared replay pass per stream inside its worker.  A spec
        # listed by cells of several batches replays once per worker, not
        # once per sweep: jobs>1 trades that amortisation for parallelism.
        chunk = -(-len(cells) // jobs)  # ceil division
        batches = [cells[start : start + chunk] for start in range(0, len(cells), chunk)]
        # Pickle here rather than in the pool's feeder thread, so a pickling
        # failure is told apart from an exception raised by a worker's
        # replay: pickle reports one as PicklingError, TypeError or
        # AttributeError, depending on the object.
        try:
            payloads = [
                pickle.dumps(
                    (
                        batch,
                        self._cost_model,
                        self._rolling_window,
                        self._queueing,
                    )
                )
                for batch in batches
            ]
        except (pickle.PicklingError, TypeError, AttributeError) as error:
            raise pickle.PicklingError(
                f"sweep cells cannot be shipped to worker processes "
                f"(non-module-level policy factory or unpicklable request "
                f"stream?): {error}"
            ) from error
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(self._requests,)
        ) as executor:
            futures = [executor.submit(_run_cell_batch, payload) for payload in payloads]
            batch_outcomes = [future.result() for future in futures]
        return [cell_results for batch in batch_outcomes for cell_results in batch]
