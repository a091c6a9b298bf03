"""In-memory trace container and summary statistics (paper Figure 5).

A :class:`Trace` is an ordered list of :class:`~repro.simulation.request.IORequest`
objects plus descriptive metadata.  Its :meth:`Trace.summary` reports the
same columns as the paper's Figure 5 trace table: number of requests,
number of distinct hint sets and number of distinct pages — plus the
generation parameters of the synthetic configuration that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.simulation.request import IORequest

__all__ = ["TraceSummary", "Trace"]


@dataclass(frozen=True)
class TraceSummary:
    """Figure 5-style summary of one trace."""

    name: str
    requests: int
    reads: int
    writes: int
    distinct_pages: int
    distinct_hint_sets: int
    clients: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "trace": self.name,
            "requests": self.requests,
            "reads": self.reads,
            "writes": self.writes,
            "distinct_pages": self.distinct_pages,
            "distinct_hint_sets": self.distinct_hint_sets,
            "clients": ", ".join(self.clients),
        }


@dataclass
class Trace:
    """An ordered I/O request trace with metadata, in memory.

    The binary writer (:func:`repro.trace.binio.write_trace_binary`) and
    the Figure 3 and 5 analyses iterate it; the replay engine lifts its
    request list (:meth:`requests`) into columnar chunks once per run.
    """

    name: str
    requests_list: list[IORequest] = field(default_factory=list)
    #: Free-form generation metadata (database size, buffer size, workload, seed, ...).
    metadata: dict = field(default_factory=dict)

    # ------------------------------------------------------------ container
    def __len__(self) -> int:
        return len(self.requests_list)

    def __iter__(self) -> Iterator[IORequest]:
        return iter(self.requests_list)

    def __getitem__(self, index: int | slice) -> "IORequest | list[IORequest]":
        return self.requests_list[index]

    def requests(self) -> list[IORequest]:
        """The request list (the simulator consumes this directly)."""
        return self.requests_list

    def append(self, request: IORequest) -> None:
        self.requests_list.append(request)

    def extend(self, requests: Iterable[IORequest]) -> None:
        self.requests_list.extend(requests)

    def truncated(self, length: int, name: str | None = None) -> "Trace":
        """A copy limited to the first *length* requests."""
        return Trace(
            name=name or f"{self.name}[:{length}]",
            requests_list=list(self.requests_list[:length]),
            metadata=dict(self.metadata),
        )

    # ------------------------------------------------------------- analysis
    def summary(self) -> TraceSummary:
        """Compute the Figure 5 summary columns for this trace."""
        pages: set[int] = set()
        hint_sets: set[tuple] = set()
        clients: set[str] = set()
        reads = 0
        writes = 0
        for request in self.requests_list:
            pages.add(request.page)
            hint_sets.add(request.hints.key())
            clients.add(request.client_id)
            if request.is_read:
                reads += 1
            else:
                writes += 1
        return TraceSummary(
            name=self.name,
            requests=len(self.requests_list),
            reads=reads,
            writes=writes,
            distinct_pages=len(pages),
            distinct_hint_sets=len(hint_sets),
            clients=tuple(sorted(clients)),
        )

    def distinct_hint_sets(self) -> set[tuple]:
        return {request.hints.key() for request in self.requests_list}

    def distinct_pages(self) -> set[int]:
        return {request.page for request in self.requests_list}
