"""The eight standard trace configurations of the paper's Figure 5, scaled down.

The paper collected traces from DB2 (TPC-C and TPC-H) and MySQL (TPC-H) with
several first-tier buffer sizes; the buffer size controls how much temporal
locality survives to the storage server, which is the key variable in the
evaluation.  We reproduce the *ratios* — first-tier buffer : database size,
and the server-cache sweep range : database size — at 1/50 scale so that the
pure-Python simulation completes in seconds rather than days.

=============  ========================  ==========================
paper trace    paper sizes (pages)       scaled sizes (pages)
=============  ========================  ==========================
DB2_C60        DB 600K, buffer 60K       DB 12 000, buffer 1 200
DB2_C300       DB 600K, buffer 300K      DB 12 000, buffer 6 000
DB2_C540       DB 600K, buffer 540K      DB 12 000, buffer 10 800
DB2_H80        DB 800K, buffer 80K       DB 16 000, buffer 1 600
DB2_H400       DB 800K, buffer 400K      DB 16 000, buffer 8 000
DB2_H720       DB 800K, buffer 720K      DB 16 000, buffer 14 400
MY_H65         DB 328K, buffer 65K       DB  6 560, buffer 1 300
MY_H98         DB 328K, buffer 98K       DB  6 560, buffer 1 960
=============  ========================  ==========================

The paper sweeps the server cache from 60K to 300K pages for the DB2 traces
and from 50K to 100K pages for the MySQL traces; scaled, that is 1 200-6 000
and 1 000-2 000 pages respectively (:func:`server_cache_sizes`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from repro.trace.records import Trace
from repro.workloads.db2 import DB2Client
from repro.workloads.mysql import MySQLClient
from repro.workloads.tpcc import TPCCWorkload
from repro.workloads.tpch import TPCHWorkload

__all__ = [
    "StandardTraceConfig",
    "STANDARD_TRACES",
    "SCALE_FACTOR",
    "StandardTraceStream",
    "standard_trace",
    "server_cache_sizes",
    "clic_window_for",
]

#: Linear scale factor between the paper's sizes and this reproduction's.
SCALE_FACTOR = 50

#: Default number of storage-server requests generated per trace.  The paper's
#: traces are millions of requests long; the default keeps experiments fast
#: while remaining large enough for CLIC's windowed statistics to stabilise.
DEFAULT_TARGET_REQUESTS = 60_000


@dataclass(frozen=True)
class StandardTraceConfig:
    """Generation parameters of one standard trace."""

    name: str
    dbms: str                      # "db2" or "mysql"
    workload: str                  # "tpcc" or "tpch"
    database_pages: int
    buffer_pages: int
    description: str
    paper_database_pages: int
    paper_buffer_pages: int
    #: Server cache sizes (pages) swept in the paper's figure for this trace.
    cache_sweep: tuple[int, ...]
    tpch_skip_queries: tuple[int, ...] = ()
    tpch_include_refresh: bool = True

    def workload_model(self, seed: int):
        """Instantiate the workload model for this configuration."""
        if self.workload == "tpcc":
            return TPCCWorkload(total_pages=self.database_pages, seed=seed)
        return TPCHWorkload(
            total_pages=self.database_pages,
            include_refresh=self.tpch_include_refresh,
            skip_queries=self.tpch_skip_queries,
            seed=seed,
        )

    def warmup_page_target(self) -> int:
        """Database size (pages) the warm-up phase must reach before tracing.

        TPC-C grows its database throughout the run; the paper's traces are
        collected over long runs during which the database grows well past
        the first-tier buffer (Figure 5 reports up to 1.8M distinct pages
        against a 540K-page buffer).  We warm up — generating but discarding
        I/O — until the database is at least 1.7x the buffer, so that even
        the largest-buffer configurations exhibit first-tier evictions during
        the traced window.  TPC-H databases do not grow, so no warm-up.
        """
        if self.workload != "tpcc":
            return 0
        return max(self.database_pages, int(self.buffer_pages * 1.7))


#: Server cache sweeps, scaled from the paper's x-axes (Figures 6-8).
_DB2_SWEEP = (1_200, 2_400, 3_600, 4_800, 6_000)      # paper: 60K..300K
_MYSQL_SWEEP = (1_000, 1_500, 2_000)                   # paper: 50K, 75K, 100K

STANDARD_TRACES: dict[str, StandardTraceConfig] = {
    "DB2_C60": StandardTraceConfig(
        name="DB2_C60", dbms="db2", workload="tpcc",
        database_pages=12_000, buffer_pages=1_200,
        description="DB2 TPC-C, small (10% of DB) first-tier buffer: high residual locality.",
        paper_database_pages=600_000, paper_buffer_pages=60_000, cache_sweep=_DB2_SWEEP,
    ),
    "DB2_C300": StandardTraceConfig(
        name="DB2_C300", dbms="db2", workload="tpcc",
        database_pages=12_000, buffer_pages=6_000,
        description="DB2 TPC-C, 50%-of-DB first-tier buffer: little residual locality.",
        paper_database_pages=600_000, paper_buffer_pages=300_000, cache_sweep=_DB2_SWEEP,
    ),
    "DB2_C540": StandardTraceConfig(
        name="DB2_C540", dbms="db2", workload="tpcc",
        database_pages=12_000, buffer_pages=10_800,
        description="DB2 TPC-C, 90%-of-DB first-tier buffer: hardest replacement problem.",
        paper_database_pages=600_000, paper_buffer_pages=540_000, cache_sweep=_DB2_SWEEP,
    ),
    "DB2_H80": StandardTraceConfig(
        name="DB2_H80", dbms="db2", workload="tpch",
        database_pages=16_000, buffer_pages=1_600,
        description="DB2 TPC-H (22 queries + refreshes), 10%-of-DB first-tier buffer.",
        paper_database_pages=800_000, paper_buffer_pages=80_000, cache_sweep=_DB2_SWEEP,
    ),
    "DB2_H400": StandardTraceConfig(
        name="DB2_H400", dbms="db2", workload="tpch",
        database_pages=16_000, buffer_pages=8_000,
        description="DB2 TPC-H, 50%-of-DB first-tier buffer.",
        paper_database_pages=800_000, paper_buffer_pages=400_000, cache_sweep=_DB2_SWEEP,
    ),
    "DB2_H720": StandardTraceConfig(
        name="DB2_H720", dbms="db2", workload="tpch",
        database_pages=16_000, buffer_pages=14_400,
        description="DB2 TPC-H, 90%-of-DB first-tier buffer.",
        paper_database_pages=800_000, paper_buffer_pages=720_000, cache_sweep=_DB2_SWEEP,
    ),
    "MY_H65": StandardTraceConfig(
        name="MY_H65", dbms="mysql", workload="tpch",
        database_pages=6_560, buffer_pages=1_300,
        description="MySQL TPC-H (Q18 and refreshes skipped), ~20%-of-DB buffer.",
        paper_database_pages=328_000, paper_buffer_pages=65_000, cache_sweep=_MYSQL_SWEEP,
        tpch_skip_queries=(18,), tpch_include_refresh=False,
    ),
    "MY_H98": StandardTraceConfig(
        name="MY_H98", dbms="mysql", workload="tpch",
        database_pages=6_560, buffer_pages=1_960,
        description="MySQL TPC-H (Q18 and refreshes skipped), ~30%-of-DB buffer.",
        paper_database_pages=328_000, paper_buffer_pages=98_000, cache_sweep=_MYSQL_SWEEP,
        tpch_skip_queries=(18,), tpch_include_refresh=False,
    ),
}


def _operations_forever(workload):
    """Yield workload operations indefinitely (transactions or queries)."""
    while True:
        if isinstance(workload, TPCCWorkload):
            yield from workload.next_transaction()
        else:
            yield from workload.next_query()


#: Safety cap on warm-up transactions so a mis-configured growth target can
#: never loop forever.
_MAX_WARMUP_TRANSACTIONS = 100_000


def _warm_up(client, workload, config: StandardTraceConfig) -> dict:
    """Run (and discard) workload activity until the database reaches its target size.

    Returns a (possibly empty) metadata dict describing the warm-up.  If the
    safety cap cuts warm-up short of the growth target, that is a *different
    trace* than the configuration asked for — so the truncation is warned
    about and recorded in the returned metadata instead of being swallowed.
    """
    target = config.warmup_page_target()
    if target <= workload.database.total_pages:
        return {}
    transactions = 0
    while workload.database.total_pages < target and transactions < _MAX_WARMUP_TRANSACTIONS:
        # Only the buffer pools' state carries over into the trace, so the
        # discarded I/O is never turned into requests.
        for op in workload.next_transaction():
            client.pool_io(op)
        transactions += 1
    reached = workload.database.total_pages
    if reached < target:
        warnings.warn(
            f"standard trace {config.name!r}: warm-up hit the "
            f"{_MAX_WARMUP_TRANSACTIONS}-transaction safety cap at "
            f"{reached}/{target} database pages; the traced window starts "
            "from a smaller database than configured",
            RuntimeWarning,
            stacklevel=3,
        )
        return {
            "warmup_truncated": True,
            "warmup_transactions": transactions,
            "warmup_page_target": target,
            "warmup_pages_reached": reached,
        }
    return {}


class StandardTraceStream:
    """Incremental generator of one standard trace (single use).

    Iterating the stream warms up the client and then yields the same
    request sequence :func:`standard_trace` would materialize — one request
    at a time, so generation can flow straight into the binary trace writer
    (:class:`repro.trace.binio.BinaryTraceWriter`) with bounded memory.
    :meth:`metadata` reports the same metadata dict a materialized
    :class:`~repro.trace.records.Trace` would carry; fields such as the
    first-tier hit ratio are only final once the stream is exhausted.
    """

    def __init__(
        self,
        name: str,
        seed: int = 17,
        target_requests: int = DEFAULT_TARGET_REQUESTS,
        client_id: str | None = None,
    ):
        if name not in STANDARD_TRACES:
            raise KeyError(
                f"unknown standard trace {name!r}; available: {sorted(STANDARD_TRACES)}"
            )
        self.name = name
        self.seed = seed
        self.target_requests = target_requests
        self._config = STANDARD_TRACES[name]
        self._workload = self._config.workload_model(seed)
        effective_client = client_id or f"{self._config.dbms}-{name}"
        client_cls = DB2Client if self._config.dbms == "db2" else MySQLClient
        self._client = client_cls(
            database=self._workload.database,
            buffer_pages=self._config.buffer_pages,
            client_id=effective_client,
            seed=seed + 1,
        )
        self._started = False
        self._warmup_info: dict = {}

    def __iter__(self):
        if self._started:
            raise RuntimeError(
                "StandardTraceStream is single-use; build a new one to regenerate"
            )
        self._started = True
        self._warmup_info = _warm_up(self._client, self._workload, self._config)
        yield from self._client.emit(
            _operations_forever(self._workload), self.target_requests
        )

    def metadata(self) -> dict:
        """The metadata dict of the equivalent materialized trace."""
        config = self._config
        return {
            "client_id": self._client.client_id,
            "database_pages": config.database_pages,
            "buffer_pages": config.buffer_pages,
            "first_tier_hit_ratio": self._client.first_tier_hit_ratio(),
            "config": config.name,
            "dbms": config.dbms,
            "workload": config.workload,
            "seed": self.seed,
            "paper_database_pages": config.paper_database_pages,
            "paper_buffer_pages": config.paper_buffer_pages,
            # Warm-up truncation record (only present when the safety cap
            # fired; fields are final once the stream is exhausted).
            **self._warmup_info,
        }


def standard_trace(
    name: str,
    seed: int = 17,
    target_requests: int = DEFAULT_TARGET_REQUESTS,
    client_id: str | None = None,
) -> Trace:
    """Generate one of the standard traces of Figure 5 (scaled), in memory.

    Callers that can consume requests incrementally (or that want generated
    traces persisted and reused across runs) should prefer the streaming
    path: :class:`StandardTraceStream` or the on-disk trace cache
    (:mod:`repro.trace.cache`).

    Parameters
    ----------
    name:
        One of the keys of :data:`STANDARD_TRACES` (e.g. ``"DB2_C60"``).
    seed:
        Seed for both the workload model and the client; identical seeds give
        identical traces.
    target_requests:
        Number of storage-server requests to generate.
    client_id:
        Override the client identifier (needed when interleaving several
        instances of the same configuration, which must appear as distinct
        clients to CLIC).
    """
    stream = StandardTraceStream(
        name, seed=seed, target_requests=target_requests, client_id=client_id
    )
    requests = list(stream)
    return Trace(name=name, requests_list=requests, metadata=stream.metadata())


def server_cache_sizes(name: str) -> list[int]:
    """The scaled server-cache sweep (x-axis of Figures 6-8) for a trace."""
    if name not in STANDARD_TRACES:
        raise KeyError(f"unknown standard trace {name!r}")
    return list(STANDARD_TRACES[name].cache_sweep)


def clic_window_for(target_requests: int) -> int:
    """A CLIC window size proportional to the paper's W=10^6 over multi-million traces.

    The paper's window is roughly 1/30th of its shortest trace; we keep the
    same relative size with a floor that keeps per-window statistics stable.
    """
    return max(2_000, target_requests // 30)
