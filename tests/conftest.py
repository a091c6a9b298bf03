"""Shared test fixtures and helpers for the CLIC reproduction test suite."""

from __future__ import annotations

import random
from itertools import cycle

import pytest

from repro.core.hints import HintSet, make_hint_set
from repro.simulation.request import IORequest, RequestKind


def hint(client: str = "db2", **values) -> HintSet:
    """Shorthand for building a hint set in tests."""
    return make_hint_set(client, **values)


def rd(page: int, hints: HintSet | None = None) -> IORequest:
    """Shorthand read request."""
    from repro.core.hints import EMPTY_HINT_SET

    return IORequest(page=page, kind=RequestKind.READ, hints=hints or EMPTY_HINT_SET)


def wr(page: int, hints: HintSet | None = None) -> IORequest:
    """Shorthand write request."""
    from repro.core.hints import EMPTY_HINT_SET

    return IORequest(page=page, kind=RequestKind.WRITE, hints=hints or EMPTY_HINT_SET)


def stream_requests(source) -> list[IORequest]:
    """Every request of the columnar stream *source*, in order, as the
    request objects its chunks materialise."""
    return [request for chunk in source.iter_columnar() for request in chunk.requests()]


def chunked(requests, sizes):
    """*requests* as consecutive columnar chunks of the *sizes* (cycled),
    numbered from sequence number 0."""
    from repro.trace.columnar import ColumnarChunk

    offset = 0
    for size in cycle(sizes):
        if offset >= len(requests):
            return
        yield ColumnarChunk.from_requests(requests[offset : offset + size], offset)
        offset += size


def run_policy(policy, requests):
    """Drive *policy* with *requests* via the simulator and return the result."""
    from repro.simulation.simulator import CacheSimulator

    return CacheSimulator(policy).run(requests)


@pytest.fixture
def lifted(monkeypatch) -> list[int]:
    """The length of every request list the test lifts into a chunk with
    ``ColumnarChunk.from_requests``, in order."""
    from repro.trace.columnar import ColumnarChunk

    lift = ColumnarChunk.from_requests.__func__
    lengths: list[int] = []

    def counting(cls, requests, start_seq=0):
        lengths.append(len(requests))
        return lift(cls, requests, start_seq)

    monkeypatch.setattr(ColumnarChunk, "from_requests", classmethod(counting))
    return lengths


@pytest.fixture(scope="session", autouse=True)
def _isolated_trace_cache(tmp_path_factory):
    """Point the on-disk trace cache at a session-scoped temp directory.

    Keeps the suite from writing into the user's real cache while still
    letting tests share generated traces within one session.
    """
    import os

    from repro.trace.cache import CACHE_ENV_VAR, set_default_trace_cache

    root = tmp_path_factory.mktemp("trace-cache")
    previous = os.environ.get(CACHE_ENV_VAR)
    os.environ[CACHE_ENV_VAR] = str(root)
    set_default_trace_cache(None)  # re-resolve from the environment
    yield
    if previous is None:
        os.environ.pop(CACHE_ENV_VAR, None)
    else:
        os.environ[CACHE_ENV_VAR] = previous
    set_default_trace_cache(None)


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG for tests that need randomness."""
    return random.Random(0xC11C)


@pytest.fixture
def skewed_trace(rng) -> list[IORequest]:
    """A small two-temperature read trace: 100 hot pages and 5000 cold pages.

    Half of the requests target the hot set (tagged with a 'hot' hint set),
    half target the cold set (tagged 'cold').  A policy that learns to keep
    the hot pages should approach a 50% read hit ratio with a cache of a few
    hundred pages.
    """
    hot = hint(object_id="hot", request_type="read")
    cold = hint(object_id="cold", request_type="read")
    requests = []
    for _ in range(20_000):
        if rng.random() < 0.5:
            requests.append(rd(rng.randrange(100), hot))
        else:
            requests.append(rd(100 + rng.randrange(5000), cold))
    return requests
