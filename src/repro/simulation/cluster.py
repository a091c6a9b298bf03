"""Sharded storage-server cluster simulation.

The paper evaluates one storage server shared by several DBMS clients
(Section 6.4); a production deployment serves the same traffic from a
*fleet* of cache servers with the page space partitioned across them.  This
module models that fleet as a single composite policy:

* :class:`ShardedCache` implements the :class:`~repro.cache.base.CachePolicy`
  interface by routing each request to one of S independent per-shard kernel
  policy instances, so a cluster composes transparently with the existing engine
  (:class:`~repro.simulation.engine.MultiPolicySimulator`), the sweep
  drivers, and ``jobs=`` parallelism — a cluster is just another policy.
* Routers (:class:`HashRouter`, :class:`ClientAffinityRouter`) decide
  which shard owns each request of a chunk.  Routing depends only on the
  stream, never on scheduling, so replay is deterministic: the same stream
  produces the same per-shard sub-streams in every process and at every
  ``jobs=`` count.

Determinism guarantees:

* ``shards=1`` routes every request to the single shard, which therefore
  sees exactly the request/sequence stream the unsharded policy would see —
  results are bit-identical to the wrapped policy.
* Shard capacities come from
  :func:`~repro.simulation.multiclient.partition_capacity`, so the cluster's
  total capacity always equals the unified cache it is compared against
  (generalizing the paper's Figure 11 static partitioning).

The cluster is registered in the policy registry as ``"SHARDED"``; sweep
cells describe it with plain picklable kwargs::

    PolicySpec(label="LRU x4", name="SHARDED", capacity=3_600,
               kwargs={"policy": "LRU", "shards": 4, "router": "hash"})
"""

from __future__ import annotations

import abc
import copy
import inspect
from functools import partial
from typing import Any, Iterator, Mapping, TypeGuard

import numpy as _np

from repro.cache.base import AccessOutcomeBatch, CachePolicy
from repro.cache.opt import OPTPolicy, ReadIndex
from repro.core.kernel import KernelPolicy, address, load, replay
from repro.simulation.multiclient import partition_capacity
from repro.trace.columnar import ColumnarChunk

__all__ = [
    "ShardRouter",
    "HashRouter",
    "ClientAffinityRouter",
    "ROUTER_NAMES",
    "make_router",
    "ShardedCache",
]


def _validate_shards(shards: int) -> int:
    if not isinstance(shards, int):
        raise TypeError(f"shards must be an int, got {type(shards).__name__}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return shards


class ShardRouter(abc.ABC):
    """Maps each request of a chunk to the shard that owns it.

    Each request gets the same shard however the stream is cut into
    chunks; routing state carries across calls.  Routing never depends on
    scheduling, so the same stream shards identically in every worker
    process and at every ``jobs=`` count.
    """

    #: Short name used by :func:`make_router` and in experiment output.
    name: str = "base"

    #: Whether routing is a function of the page alone, so that every
    #: request for a page lands on the same shard.
    page_keyed: bool = False

    def __init__(self, shards: int):
        self.shards = _validate_shards(shards)

    @abc.abstractmethod
    def route_batch(self, chunk: ColumnarChunk) -> Any:
        """One shard index in ``range(self.shards)`` per request of *chunk*
        (an int64 column)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(shards={self.shards})"


class HashRouter(ShardRouter):
    """Uniform page-hash routing: shard = mix(page) mod S, with the murmur3
    fmix64 finalizer as the mix (``route_hash`` in the kernel library).

    Plain ``page % shards`` would alias the strided access patterns of the
    synthetic workloads onto single shards; the mix spreads any page-id
    structure uniformly.  It is wrapping ``uint64`` arithmetic, so a page
    gets the same shard in every process and Python version.
    """

    name = "hash"
    page_keyed = True

    def route_batch(self, chunk: ColumnarChunk) -> Any:
        pages = _np.ascontiguousarray(chunk.page, _np.int64)
        out = _np.empty(len(pages), _np.int64)
        load().route_hash(len(pages), address(pages), self.shards, address(out))
        return out


class ClientAffinityRouter(ShardRouter):
    """Route every request of a client to one shard.

    Clients are assigned shards round-robin in order of first appearance, so
    with as many shards as clients every client gets a private cache — the
    paper's Figure 11 static partitioning rebuilt from cluster parts; with
    fewer shards clients share, with more some shards idle, and both show up
    in the load-imbalance statistic.  First-appearance order is a property
    of the stream (not of scheduling), so routing is deterministic in every
    process and at every ``jobs=`` count.
    """

    name = "client"

    def __init__(self, shards: int):
        super().__init__(shards)
        self._assignments: dict[str, int] = {}

    def route_batch(self, chunk: ColumnarChunk) -> Any:
        # First-appearance round-robin, driven from the client-index column
        # (no request materialisation).
        assignments = self._assignments
        clients = chunk.clients
        shards = self.shards
        out = _np.empty(len(chunk), _np.int64)
        for i, cidx in enumerate(chunk.client_idx.tolist()):
            client_id = clients[cidx]
            shard = assignments.get(client_id)
            if shard is None:
                shard = len(assignments) % shards
                assignments[client_id] = shard
            out[i] = shard
        return out


#: Router names accepted by :func:`make_router` (and the cluster experiment).
ROUTER_NAMES: tuple[str, ...] = ("hash", "client")


def make_router(router: str | ShardRouter, shards: int) -> ShardRouter:
    """Build a router from a name (``"hash"``, ``"client"``).

    A ready-made :class:`ShardRouter` instance passes through unchanged
    (its shard count must match).
    """
    if isinstance(router, ShardRouter):
        if router.shards != shards:
            raise ValueError(
                f"router is built for {router.shards} shards, cluster has {shards}"
            )
        return router
    if router == "hash":
        return HashRouter(shards)
    if router == "client":
        return ClientAffinityRouter(shards)
    raise ValueError(f"unknown router {router!r}; available: {ROUTER_NAMES}")


def is_cluster(policy: object) -> TypeGuard["ShardedCache"]:
    """Whether *policy* is a :class:`ShardedCache`: the policies that get
    per-shard accounting, per-shard seek heads and per-shard queues, and
    whose batches carry the ``shard`` column those observers read."""
    return isinstance(policy, ShardedCache)


def routed_shards(batch: AccessOutcomeBatch) -> Any:
    """The shard ids a cluster's *batch* was routed with: its ``shard``
    column, which :meth:`ShardedCache.batch_access` sets."""
    if batch.shard is None:
        raise ValueError(
            "a sharded cluster's outcome batch carries no shard column; feed "
            "the observers the batches ShardedCache.batch_access returns"
        )
    return batch.shard


class ShardedCache(CachePolicy):
    """S independent per-shard policies behind one :class:`CachePolicy` facade.

    Each request is routed to exactly one shard, which processes it with the
    request's original (global) sequence number; the other shards never see
    it.  The facade reports the routed shard's outcome unchanged, so one
    outcome stream describes the whole cluster; the per-shard breakdown
    surfaced as ``per_shard`` on results is rebuilt by the replay loop's
    shard observer (:class:`~repro.simulation.observers
    .ShardStatsObserver`) from the shard ids each batch carries.

    Shards are compiled policies (a :class:`~repro.core.kernel.KernelPolicy`
    whose ``batch_access`` is its kernel's), and the cluster replays a
    chunk in one ``<kernel>_cluster`` call, which steps each request on its
    shard's handle.  Any other shard policy raises ``TypeError`` when the
    cluster is built.

    The total ``capacity`` is split across shards with
    :func:`~repro.simulation.multiclient.partition_capacity` (any remainder
    goes to the first shards), so a cluster always competes against a
    unified cache of the same total size.

    Offline support: a cluster of OPT shards is itself offline, and every
    shard reads one next-read column in global sequence numbers.  With the
    page-keyed hash router that is the stream-wide index, shared with a
    unified OPT; otherwise the cluster builds per-shard indexes (see
    :meth:`prepare`).
    """

    def __init__(
        self,
        capacity: int,
        policy: str = "LRU",
        shards: int = 1,
        router: str | ShardRouter = "hash",
        policy_kwargs: Mapping[str, object] | None = None,
    ):
        from repro.cache.registry import create_policy

        super().__init__(capacity)
        shards = _validate_shards(shards)
        self._router = make_router(router, shards)
        kwargs = dict(policy_kwargs or {})
        # The shards replay a chunk in one call of their kernel's cluster
        # entry point over the shard handles, so each must batch through
        # that kernel, not a Python override of it.  ``unwrap`` sees
        # through decorators.
        self._shards: list[KernelPolicy] = []
        for size in partition_capacity(capacity, shards):
            shard = create_policy(policy, capacity=size, **kwargs)
            if not (
                isinstance(shard, KernelPolicy)
                and inspect.unwrap(type(shard).batch_access) is KernelPolicy.batch_access
            ):
                raise TypeError(
                    f"shard policy {policy!r} ({type(shard).__name__}) does not replay "
                    "through its policy kernel; a sharded cluster needs compiled shards"
                )
            self._shards.append(shard)
        kernel = self._shards[0]
        self.name = f"{kernel.name}x{shards}[{self._router.name}]"
        self._handles = _np.array([shard._handle for shard in self._shards], _np.int64)
        self._kernel_call = partial(
            getattr(kernel._lib, f"{kernel.kernel}_cluster"), address(self._handles)
        )

    # ------------------------------------------------------------------ API
    @property
    def router(self) -> ShardRouter:
        return self._router

    @property
    def shards(self) -> list[KernelPolicy]:
        """The per-shard policy instances, in shard order."""
        return list(self._shards)

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def offline(self) -> bool:  # type: ignore[override]
        return any(shard.offline for shard in self._shards)

    @property
    def shares_read_index(self) -> bool:  # type: ignore[override]
        """Only a page-keyed router makes the stream-wide index exact per
        shard: a page's every request, and so its next read, is on the
        shard that looks it up."""
        return self._router.page_keyed

    def batch_access(self, chunk: ColumnarChunk) -> AccessOutcomeBatch:
        """Route the whole chunk, then replay it in one ``<kernel>_cluster``
        call: in request order, each request on its shard with its original
        (global) sequence number, so each shard sees exactly its own
        sub-stream.

        The call writes the flags and CSR evictions in request order, each
        shard reading its own lookup column (CLIC's hint ids, TQ's write
        classes, OPT's next reads).  The batch carries the shard ids as its
        ``shard`` column, which the cluster's observers read instead of
        routing the chunk again.
        """
        shard_ids = self._route(chunk)
        shards = self._shards
        lookups = [shard._lookup(chunk) for shard in shards]
        return replay(self._kernel_call, chunk, shards[0].lookup_key, lookups, shard_ids)

    def _route(self, chunk: ColumnarChunk) -> Any:
        """The router's int64 shard column for *chunk*, checked: the kernel
        trusts it to name a shard for every request."""
        shard_ids = _np.ascontiguousarray(self._router.route_batch(chunk), _np.int64)
        n = len(chunk)
        if len(shard_ids) != n:
            raise ValueError(
                f"router {self._router.name!r} routed {len(shard_ids)} of the chunk's {n} requests"
            )
        # As uint64, a negative id lies past the last shard as well.
        if n and shard_ids.view(_np.uint64).max() >= len(self._shards):
            raise ValueError(
                f"router {self._router.name!r} routed a request outside shards "
                f"[0, {len(self._shards)})"
            )
        return shard_ids

    def contains(self, page: int) -> bool:
        return any(shard.contains(page) for shard in self._shards)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def cached_pages(self) -> Iterator[int]:
        for shard in self._shards:
            yield from shard.cached_pages()

    # ------------------------------------------------------- offline support
    def prepare(self, requests: Any) -> None:
        """Index the stream for the offline shards (global sequence numbering).

        All shards share **one** next-read column, built in a single pass.
        A page-keyed router sends a page's every request to one shard, so
        the stream-wide index is exactly each shard's own.  Any other router
        (client affinity) may split a page's requests across shards, where
        the stream-wide next read can belong to another shard; the cluster
        then routes the stream itself and indexes each shard's sub-stream.
        """
        if self._router.page_keyed:
            index = self.build_read_index(requests)
        else:
            # Route a copy, so the live router keeps the state the replay
            # starts from.
            index = ReadIndex.build(requests, copy.deepcopy(self._router))
        self.adopt_read_index(index)

    #: The global future-read index builder.  Deliberately the *same
    #: function object* as ``OPTPolicy.build_read_index`` so the engine's
    #: shared-index cache (keyed by builder identity) hands one index to a
    #: unified OPT and every OPT-backed cluster in the same pass.
    build_read_index = staticmethod(OPTPolicy.build_read_index)

    def adopt_read_index(self, index: ReadIndex) -> None:
        """Forward a pre-built future-read index to the offline shards.

        The index must be keyed the way the router splits the stream: the
        stream-wide index only for a page-keyed router (see :meth:`prepare`).
        """
        for shard in self._shards:
            if not shard.offline:
                continue
            adopt = getattr(shard, "adopt_read_index", None)
            if adopt is None:
                raise NotImplementedError(
                    f"offline shard policy {shard.name!r} does not support "
                    "adopt_read_index; replay it through prepare() instead"
                )
            adopt(index)
