"""TPC-H-like decision-support workload model.

The paper's TPC-H traces come from DB2 (22 queries + 2 refresh functions) and
MySQL (21 queries, no refreshes).  We model each query as a template of
sequential scans over the large tables and index-driven lookups into the
smaller ones, which is how the real queries behave at the page level:
scan-heavy, prefetch-dominated reads with comparatively few writes.

When the first-tier buffer is much smaller than the scanned tables, every
query re-reads the same table pages from the storage server — exactly the
re-reference structure that makes the storage-server cache useful for TPC-H
and that CLIC learns from the ``(object id, prefetch read)`` hint sets.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.workloads.access import HotSpotSampler, LogicalOp, PageAccess, ScanAccess
from repro.workloads.dbmodel import ObjectType, SyntheticDatabase

__all__ = ["TPCHWorkload", "TPCH_QUERY_TEMPLATES"]


#: Per-query table usage: (table, kind, fraction-of-table or #lookups).
#: ``("scan", table, fraction)`` scans that fraction of the table;
#: ``("lookup", table, count)`` performs *count* index lookups + row fetches.
#: The templates are a page-level approximation of the 22 TPC-H queries.
TPCH_QUERY_TEMPLATES: dict[int, list[tuple[str, str, float]]] = {
    1: [("scan", "LINEITEM", 1.0)],
    2: [("scan", "PARTSUPP", 0.5), ("lookup", "PART", 200), ("lookup", "SUPPLIER", 100)],
    3: [("scan", "ORDERS", 0.6), ("scan", "LINEITEM", 0.4), ("lookup", "CUSTOMER", 150)],
    4: [("scan", "ORDERS", 0.8), ("scan", "LINEITEM", 0.3)],
    5: [("scan", "ORDERS", 0.5), ("scan", "LINEITEM", 0.4), ("lookup", "CUSTOMER", 200),
        ("lookup", "SUPPLIER", 100), ("scan", "NATION", 1.0), ("scan", "REGION", 1.0)],
    6: [("scan", "LINEITEM", 1.0)],
    7: [("scan", "LINEITEM", 0.5), ("lookup", "ORDERS", 300), ("lookup", "SUPPLIER", 150),
        ("lookup", "CUSTOMER", 150), ("scan", "NATION", 1.0)],
    8: [("scan", "LINEITEM", 0.3), ("lookup", "ORDERS", 250), ("lookup", "PART", 200),
        ("lookup", "CUSTOMER", 100), ("scan", "NATION", 1.0), ("scan", "REGION", 1.0)],
    9: [("scan", "LINEITEM", 0.7), ("lookup", "PART", 300), ("lookup", "SUPPLIER", 150),
        ("lookup", "PARTSUPP", 300), ("lookup", "ORDERS", 200)],
    10: [("scan", "ORDERS", 0.4), ("scan", "LINEITEM", 0.3), ("lookup", "CUSTOMER", 250),
         ("scan", "NATION", 1.0)],
    11: [("scan", "PARTSUPP", 1.0), ("lookup", "SUPPLIER", 150), ("scan", "NATION", 1.0)],
    12: [("scan", "LINEITEM", 0.6), ("lookup", "ORDERS", 300)],
    13: [("scan", "CUSTOMER", 1.0), ("scan", "ORDERS", 0.7)],
    14: [("scan", "LINEITEM", 0.4), ("lookup", "PART", 300)],
    15: [("scan", "LINEITEM", 0.5), ("lookup", "SUPPLIER", 150)],
    16: [("scan", "PARTSUPP", 0.8), ("lookup", "PART", 250), ("lookup", "SUPPLIER", 100)],
    17: [("scan", "LINEITEM", 0.5), ("lookup", "PART", 200)],
    18: [("scan", "ORDERS", 0.8), ("scan", "LINEITEM", 0.6), ("lookup", "CUSTOMER", 200)],
    19: [("scan", "LINEITEM", 0.4), ("lookup", "PART", 250)],
    20: [("scan", "LINEITEM", 0.4), ("lookup", "PART", 150), ("lookup", "PARTSUPP", 200),
         ("lookup", "SUPPLIER", 100)],
    21: [("scan", "LINEITEM", 0.7), ("lookup", "ORDERS", 250), ("lookup", "SUPPLIER", 150),
         ("scan", "NATION", 1.0)],
    22: [("scan", "CUSTOMER", 0.8), ("lookup", "ORDERS", 200)],
}


class TPCHWorkload:
    """Generates TPC-H-like logical page operations.

    Parameters
    ----------
    total_pages:
        Approximate database size in pages.
    include_refresh:
        Include the RF1/RF2 refresh functions between query streams (the
        paper's DB2 runs include them, the MySQL runs do not).
    skip_queries:
        Query numbers to leave out (the paper's MySQL runs skip Q18).
    seed:
        RNG seed for reproducible streams.
    """

    def __init__(
        self,
        total_pages: int = 16_000,
        include_refresh: bool = True,
        skip_queries: tuple[int, ...] = (),
        seed: int = 0,
    ):
        if total_pages < 200:
            raise ValueError("total_pages must be at least 200")
        self._rng = random.Random(seed)
        self._include_refresh = include_refresh
        self._queries = [q for q in sorted(TPCH_QUERY_TEMPLATES) if q not in set(skip_queries)]
        if not self._queries:
            raise ValueError("all queries were skipped")
        self.database = SyntheticDatabase(name="tpch")
        self._build_layout(total_pages)
        self._lookup_sampler = HotSpotSampler(hot_fraction=0.3, hot_probability=0.6)
        self._query_counter = 0
        # Each query template always scans the same range of a table (its
        # predicate is fixed), so a page is only re-read when another query
        # whose range covers it runs — not a few thousand requests later by a
        # re-rolled random range.  This mirrors the long re-reference
        # distances of the paper's full-scale TPC-H traces.
        self._scan_ranges = self._fix_scan_ranges()

    # ---------------------------------------------------------------- layout
    def _build_layout(self, total_pages: int) -> None:
        """TPC-H table sizes, roughly proportional to the benchmark's row counts."""
        db = self.database
        unit = total_pages / 100.0

        def pages(percent: float) -> int:
            return max(1, int(percent * unit))

        # Tables spread over several buffer pools, as in the paper's DB2 TPC-H
        # configuration (pool-id cardinality 5 in Figure 2).
        db.add_object("LINEITEM", pages(44.0), ObjectType.TABLE, pool_id=0, buffer_priority=0)
        db.add_object("ORDERS", pages(18.0), ObjectType.TABLE, pool_id=0, buffer_priority=1)
        db.add_object("PARTSUPP", pages(12.0), ObjectType.TABLE, pool_id=1, buffer_priority=1)
        db.add_object("PART", pages(4.0), ObjectType.TABLE, pool_id=1, buffer_priority=2)
        db.add_object("CUSTOMER", pages(4.5), ObjectType.TABLE, pool_id=2, buffer_priority=2)
        db.add_object("SUPPLIER", pages(0.5), ObjectType.TABLE, pool_id=2, buffer_priority=2)
        db.add_object("NATION", 1, ObjectType.TABLE, pool_id=2, buffer_priority=3)
        db.add_object("REGION", 1, ObjectType.TABLE, pool_id=2, buffer_priority=3)
        db.add_object("LINEITEM_PK", pages(6.0), ObjectType.INDEX, pool_id=3, buffer_priority=2)
        db.add_object("ORDERS_PK", pages(3.0), ObjectType.INDEX, pool_id=3, buffer_priority=2)
        db.add_object("PARTSUPP_PK", pages(2.0), ObjectType.INDEX, pool_id=3, buffer_priority=2)
        db.add_object("PART_PK", pages(0.8), ObjectType.INDEX, pool_id=3, buffer_priority=3)
        db.add_object("CUSTOMER_PK", pages(0.8), ObjectType.INDEX, pool_id=3, buffer_priority=3)
        db.add_object("SUPPLIER_PK", pages(0.2), ObjectType.INDEX, pool_id=3, buffer_priority=3)
        db.add_object("TEMP_SORT", pages(3.0), ObjectType.TEMP, pool_id=4, buffer_priority=0)
        db.add_object("CATALOG", pages(0.2), ObjectType.CATALOG, pool_id=4, buffer_priority=3)

    # ---------------------------------------------------------------- queries
    def _index_for(self, table: str) -> str | None:
        candidate = f"{table}_PK"
        return candidate if candidate in self.database else None

    def _fix_scan_ranges(self) -> dict[tuple[int, str], tuple[int, int]]:
        """Choose, once per (query, table), the fixed page range the query scans.

        Partial scans of the same table are spread evenly across it (different
        queries filter different key/date ranges), so two different queries
        rarely re-read the same pages back to back; a page is typically only
        re-read when the *same* query runs again a full round later, giving
        the long re-reference distances of the paper's full-scale traces.
        """
        partial_scanners: dict[str, list[tuple[int, int]]] = {}
        ranges: dict[tuple[int, str], tuple[int, int]] = {}
        for query_number, template in TPCH_QUERY_TEMPLATES.items():
            for kind, table, amount in template:
                if kind != "scan":
                    continue
                obj = self.database[table]
                length = max(1, int(obj.page_count * amount))
                if amount >= 0.99 or length >= obj.page_count:
                    ranges[(query_number, table)] = (0, obj.page_count)
                else:
                    partial_scanners.setdefault(table, []).append((query_number, length))
        for table, scanners in partial_scanners.items():
            obj = self.database[table]
            count = len(scanners)
            for position, (query_number, length) in enumerate(sorted(scanners)):
                span = max(1, obj.page_count - length)
                start = (position * span) // max(1, count - 1) if count > 1 else span // 2
                ranges[(query_number, table)] = (min(start, span), length)
        return ranges

    def _query_ops(self, query_number: int, txn: int) -> Iterator[LogicalOp]:
        rng = self._rng
        db = self.database
        template = TPCH_QUERY_TEMPLATES[query_number]
        for kind, table, amount in template:
            obj = db[table]
            if kind == "scan":
                start, length = self._scan_ranges[(query_number, table)]
                yield ScanAccess(obj, start_index=start, length=length, txn=txn)
            else:
                count = int(amount)
                index_name = self._index_for(table)
                for _ in range(count):
                    if index_name is not None:
                        index = db[index_name]
                        yield PageAccess(index, 0, txn=txn)
                        yield PageAccess(index, self._lookup_sampler.sample(index, rng), txn=txn)
                    yield PageAccess(obj, self._lookup_sampler.sample(obj, rng), txn=txn)
        # Large joins/aggregations spill to the temporary sort area.
        temp = db["TEMP_SORT"]
        spill = rng.randrange(0, max(2, temp.page_count // 4))
        for index in range(spill):
            yield PageAccess(temp, index % temp.page_count, write=True, txn=txn)

    def _refresh_ops(self, txn: int) -> Iterator[LogicalOp]:
        """RF1/RF2: small batches of inserts/deletes against ORDERS and LINEITEM."""
        rng = self._rng
        db = self.database
        for _ in range(rng.randint(20, 60)):
            yield PageAccess(db["ORDERS"], db["ORDERS"].random_page_index(rng), write=True, txn=txn)
            yield PageAccess(db["LINEITEM"], db["LINEITEM"].random_page_index(rng), write=True, txn=txn)
            yield PageAccess(db["ORDERS_PK"], db["ORDERS_PK"].random_page_index(rng), write=True, txn=txn)
            yield PageAccess(db["LINEITEM_PK"], db["LINEITEM_PK"].random_page_index(rng), write=True, txn=txn)

    # --------------------------------------------------------------- driving
    def next_query(self) -> Iterator[LogicalOp]:
        """Yield the operations of the next query in the stream (round-robin)."""
        query = self._queries[self._query_counter % len(self._queries)]
        self._query_counter += 1
        yield from self._query_ops(query, txn=self._query_counter)
        if self._include_refresh and self._query_counter % len(self._queries) == 0:
            self._query_counter += 1
            yield from self._refresh_ops(txn=self._query_counter)

    def operations(self, queries: int) -> Iterator[LogicalOp]:
        """Yield the operations of *queries* consecutive queries."""
        for _ in range(queries):
            yield from self.next_query()
