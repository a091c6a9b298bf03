"""Base class for synthetic DBMS storage clients.

A client owns a synthetic database, one or more first-tier buffer pools and a
workload model.  Running the client translates the workload's logical page
operations into the hinted I/O request stream the storage server sees — the
same role the instrumented DB2/MySQL servers play in the paper.
"""

from __future__ import annotations

import abc
import random
from typing import Iterable, Iterator

from repro.core.hints import HintSet
from repro.simulation.request import IORequest, RequestKind
from repro.trace.records import Trace
from repro.workloads.access import LogicalOp, PageAccess, ScanAccess
from repro.workloads.dbmodel import SyntheticDatabase
from repro.workloads.firsttier import FirstTierBufferPool, PoolIO

__all__ = ["DBMSClient"]


class DBMSClient(abc.ABC):
    """Translates logical workload operations into hinted storage I/O requests.

    Subclasses decide how the buffer is organised into pools (DB2 uses one
    pool per ``pool_id``; MySQL uses a single pool) and how a
    :class:`~repro.workloads.firsttier.PoolIO` maps to a hint set.
    """

    def __init__(
        self,
        client_id: str,
        database: SyntheticDatabase,
        buffer_pages: int,
        seed: int = 0,
        cleaner_interval: int = 200,
        checkpoint_interval: int = 4_000,
    ):
        if buffer_pages < 1:
            raise ValueError("buffer_pages must be >= 1")
        self.client_id = client_id
        self.database = database
        self.buffer_pages = buffer_pages
        self._rng = random.Random(seed)
        self._cleaner_interval = cleaner_interval
        self._checkpoint_interval = checkpoint_interval
        self._pools = self._build_pools()

    # ----------------------------------------------------------- pool set-up
    @abc.abstractmethod
    def _build_pools(self) -> dict[int, FirstTierBufferPool]:
        """Create the first-tier buffer pool(s), keyed by pool id."""

    def _make_pool(self, capacity: int) -> FirstTierBufferPool:
        return FirstTierBufferPool(
            capacity=max(8, capacity),
            rng=self._rng,
            cleaner_interval=self._cleaner_interval,
            checkpoint_interval=self._checkpoint_interval,
        )

    def _pool_for(self, pool_id: int) -> FirstTierBufferPool:
        if pool_id in self._pools:
            return self._pools[pool_id]
        # Objects whose pool id has no dedicated pool share pool 0.
        return self._pools[min(self._pools)]

    # --------------------------------------------------------------- mapping
    @abc.abstractmethod
    def hint_set_for(self, io: PoolIO) -> HintSet:
        """Build the client's hint set for one emitted I/O."""

    def _to_request(self, io: PoolIO) -> IORequest:
        kind = RequestKind.READ if io.io_class.is_read else RequestKind.WRITE
        return IORequest(
            page=io.page,
            kind=kind,
            hints=self.hint_set_for(io),
            client_id=self.client_id,
        )

    # --------------------------------------------------------------- running
    def pool_io(self, op: LogicalOp) -> list[PoolIO]:
        """Run one logical operation through the buffer pool(s); return the
        I/O it caused, before any request or hint set is built for it."""
        if isinstance(op, PageAccess):
            pool = self._pool_for(op.obj.pool_id)
            return pool.access(
                op.obj, op.page_index, write=op.write, txn=op.txn, is_new_page=op.is_new_page
            )
        if isinstance(op, ScanAccess):
            pool = self._pool_for(op.obj.pool_id)
            return pool.scan(op.obj, op.start_index, op.length, txn=op.txn)
        raise TypeError(f"unsupported logical operation: {op!r}")

    def process(self, op: LogicalOp) -> list[IORequest]:
        """Run one logical operation through the buffer pool(s)."""
        return [self._to_request(io) for io in self.pool_io(op)]

    def emit(
        self, operations: Iterable[LogicalOp], target_requests: int | None = None
    ) -> Iterator[IORequest]:
        """Yield emitted I/O requests incrementally.

        Runs operations until exhausted or *target_requests* I/Os were
        yielded; the emitted prefix is identical to :meth:`run` with the same
        arguments, but nothing is accumulated, so the stream can feed the
        binary trace writer (or any other consumer) with bounded memory.
        """
        emitted = 0
        for op in operations:
            for request in self.process(op):
                yield request
                emitted += 1
                if target_requests is not None and emitted >= target_requests:
                    return

    def run(self, operations: Iterable[LogicalOp], target_requests: int | None = None) -> list[IORequest]:
        """Run operations until exhausted or *target_requests* I/Os were emitted."""
        return list(self.emit(operations, target_requests))

    def collect_trace(
        self,
        operations: Iterable[LogicalOp],
        target_requests: int,
        name: str,
        metadata: dict | None = None,
    ) -> Trace:
        """Run the workload and package the emitted requests as a :class:`Trace`."""
        requests = self.run(operations, target_requests=target_requests)
        info = {
            "client_id": self.client_id,
            "database_pages": self.database.total_pages,
            "buffer_pages": self.buffer_pages,
            "first_tier_hit_ratio": self.first_tier_hit_ratio(),
        }
        info.update(metadata or {})
        return Trace(name=name, requests_list=requests, metadata=info)

    # ------------------------------------------------------------ inspection
    def first_tier_hit_ratio(self) -> float:
        """Aggregate logical hit ratio of the client's buffer pool(s)."""
        hits = sum(pool.logical_hits for pool in self._pools.values())
        misses = sum(pool.logical_misses for pool in self._pools.values())
        total = hits + misses
        return hits / total if total else 0.0

    def pools(self) -> dict[int, FirstTierBufferPool]:
        return dict(self._pools)
