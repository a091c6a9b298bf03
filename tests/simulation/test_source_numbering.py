"""Every source the engine replays is numbered 0..n-1, in order.

A replay is one whole stream: the engine hands its chunks to the policies
and observers as the source numbered them, with no renumbering pass.  OPT's
next-read index, the rolling windows and the arrival clock all read those
sequence numbers, so each kind of source must number its chunks 0, 1, 2,
... exactly — also with a rolling window attached, whose observer splits
the chunks that straddle its window boundaries itself.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.cache.lru import LRUPolicy
from repro.core.hints import make_hint_set
from repro.simulation.engine import MultiPolicySimulator
from repro.simulation.multiclient import interleave_round_robin
from repro.simulation.observers import ReplayObserver
from repro.simulation.request import IORequest, RequestKind
from repro.trace.binio import BinaryTraceWriter, StreamedTrace
from repro.trace.cache import TraceCache, TraceSpec, set_default_trace_cache
from repro.trace.columnar import ColumnarSource
from repro.workloads.phased import build_phase_plan

#: Longer than one 4,096-request chunk, and not a multiple of it.
N = 5_000
#: Does not divide 4,096, so chunks end inside rolling windows.
ROLLING_WINDOW = 700


def _stream(n: int = N, client: str = "alpha", seed: int = 3) -> list[IORequest]:
    rng = random.Random(seed)
    hints = [make_hint_set(client, object_id=i) for i in range(4)]
    return [
        IORequest(
            rng.randrange(400),
            RequestKind.READ if rng.random() < 0.7 else RequestKind.WRITE,
            rng.choice(hints),
            client,
        )
        for _ in range(n)
    ]


STREAM = _stream()


class _SeqLog(ReplayObserver):
    """Records the sequence column of every chunk the engine replays."""

    def __init__(self) -> None:
        self.chunks: list[np.ndarray] = []

    def on_batch(self, chunk, batch) -> None:
        self.chunks.append(chunk.seq.copy())

    def finalize(self) -> None:
        return None


@pytest.fixture
def uncached_traces(tmp_path):
    """A disabled trace cache: specs generate in memory."""
    set_default_trace_cache(TraceCache(root=tmp_path, enabled=False))
    try:
        yield
    finally:
        set_default_trace_cache(None)


def _source(kind: str, tmp_path):
    if kind == "list":
        return STREAM
    if kind == "tuple":
        return tuple(STREAM)
    if kind == "generator":
        return (request for request in STREAM)
    if kind == "columnar-source":
        return ColumnarSource(STREAM, chunk_requests=1_500)
    if kind == "streamed-trace":
        path = tmp_path / "stream.ctb"
        with BinaryTraceWriter(path, name="stream") as writer:
            writer.write_all(STREAM)
        return StreamedTrace(path)
    if kind in ("trace-spec", "trace-spec-uncached"):
        return TraceSpec("DB2_C60", seed=17, target_requests=6_000)
    if kind == "phased-trace-spec":
        return TraceSpec.for_plan(build_phase_plan("tenant", N, seed=5))
    if kind == "interleaved":
        # Client blocks of different sizes end the interleaved chunks at
        # every block boundary of either client.
        return interleave_round_robin(
            [
                ColumnarSource(_stream(2_100, "alpha", 1), chunk_requests=700),
                ColumnarSource(_stream(2_600, "beta", 2), chunk_requests=900),
            ]
        )
    raise AssertionError(kind)


SOURCES = [
    "list",
    "tuple",
    "generator",
    "columnar-source",
    "streamed-trace",
    "trace-spec",
    "trace-spec-uncached",
    "phased-trace-spec",
    "interleaved",
]


@pytest.mark.parametrize("rolling_window", [None, ROLLING_WINDOW], ids=["whole", "split"])
@pytest.mark.parametrize("kind", SOURCES)
def test_engine_chunks_are_numbered_from_zero(kind, rolling_window, request, tmp_path):
    if kind == "trace-spec-uncached":
        request.getfixturevalue("uncached_traces")
    source = _source(kind, tmp_path)
    log = _SeqLog()
    (result,) = MultiPolicySimulator(
        [LRUPolicy(50)],
        rolling_window=rolling_window,
        observer_factories=[lambda policy: log],
    ).run(source)

    n = result.stats.requests
    assert n > MultiPolicySimulator.CHUNK_SIZE
    assert len(log.chunks) > 1
    expected_base = 0
    for seq in log.chunks:
        # Each chunk is contiguous and starts where the previous one ended.
        assert seq.tolist() == list(range(expected_base, expected_base + len(seq)))
        expected_base += len(seq)
    assert expected_base == n
    if rolling_window is not None:
        # The rolling observer splits the chunks that straddle a window
        # boundary, so every window starts at a multiple of the window.
        assert any(
            seq[0] // rolling_window != seq[-1] // rolling_window for seq in log.chunks
        )
        assert [window.start for window in result.rolling.windows] == list(
            range(0, n, rolling_window)
        )
