"""Edge cases of CLIC's C kernel (``repro/core/_clic_kernel.c``).

Parity with the pure-Python reference (``tests/clic_reference.py``), in
outcomes, cached pages, learned priorities and closed windows, on streams
built to reach the kernel's corners: page ids that share a home slot in its
page and outqueue tables (multiples of ``2**32``), the extreme ids ``0``
and ``2**63 - 1``, tiny caches and outqueues, windows of 2-12 requests
that close mid-chunk, Space-Saving trackers of 1 or 3 counters that the
80 hint sets keep recycling, and more hint sets than the kernel's first
per-hint allocation, so those arrays grow mid-stream.  The library's build
is tested in ``tests/core/test_kernel.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.clic import CLICPolicy
from repro.core.config import CLICConfig
from repro.core.hints import make_hint_set
from repro.simulation.request import IORequest, RequestKind
from repro.workloads.standard import standard_trace

from tests.clic_reference import CLICPolicy as ReferenceCLIC
from tests.conftest import chunked
from tests.observer_reference import decode_outcomes

#: Page ids whose low 32 bits are equal share one home slot in the kernel's
#: tables, so these build long probe runs and delete from their middle.
PAGES = [0, 2**63 - 1] + [k * 2**32 for k in range(1, 7)]

#: More hint sets than the kernel's initial per-hint allocation (64).
HINT_SETS = [make_hint_set("c", obj=i) for i in range(80)]


@st.composite
def edge_streams(draw):
    """Requests over :data:`PAGES`.  Every other request cycles through all
    of :data:`HINT_SETS` in order, so each stream uses at least 70 of them;
    the others draw theirs from the first few, which keeps re-references
    frequent enough to give hint sets nonzero priorities."""
    length = draw(st.integers(min_value=140, max_value=260))
    stream = []
    for position in range(length):
        page = draw(st.sampled_from(PAGES))
        kind = RequestKind.WRITE if draw(st.integers(0, 3)) == 0 else RequestKind.READ
        if position % 2:
            hints = HINT_SETS[draw(st.integers(min_value=0, max_value=4))]
        else:
            hints = HINT_SETS[(position // 2) % len(HINT_SETS)]
        stream.append(IORequest(page, kind, hints))
    return stream


def _bits(priorities: dict) -> dict:
    """*priorities* with each float as its exact bits (``-0.0 != 0.0``)."""
    return {key: value.hex() for key, value in priorities.items()}


def _replay_in_lockstep(policy, reference, stream, sizes):
    """Replay *stream* through *policy* in chunks of *sizes* (cycled) and
    through *reference* one request at a time; after every chunk, both must
    hold the same learned priorities, bit for bit, and have closed as many
    windows.  Returns the policy's outcomes and the reference's."""
    outcomes = []
    expected = []
    for chunk in chunked(stream, sizes):
        outcomes.extend(decode_outcomes(policy.batch_access(chunk)))
        for seq, request in enumerate(chunk.requests(), start=chunk.seq_base):
            expected.append(reference.access(request, seq))
        assert _bits(policy.current_priorities()) == _bits(reference.current_priorities())
        assert policy.windows_completed == reference.windows_completed
    return outcomes, expected


@given(
    stream=edge_streams(),
    capacity=st.integers(min_value=1, max_value=4),
    outqueue=st.integers(min_value=0, max_value=2),
    window=st.integers(min_value=2, max_value=12),
    decay=st.sampled_from([1.0, 0.5]),
    top_k=st.sampled_from([None, 1, 3]),
    sizes=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=8),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_kernel_matches_reference_on_colliding_pages(
    stream, capacity, outqueue, window, decay, top_k, sizes
):
    config = CLICConfig(
        window_size=window,
        decay=decay,
        top_k=top_k,
        outqueue_factor=outqueue / capacity,
        charge_metadata=False,
    )
    reference = ReferenceCLIC(capacity, config)
    assert reference.outqueue.capacity == outqueue

    batched = CLICPolicy(capacity, config)
    outcomes, expected = _replay_in_lockstep(batched, reference, stream, sizes)
    assert outcomes == expected
    assert sorted(batched.cached_pages()) == sorted(reference.cached_pages())
    assert all(batched.contains(page) == reference.contains(page) for page in PAGES)

    # One-request chunks: the kernel's n == 1 replay.
    single = CLICPolicy(capacity, config)
    outcomes = [
        outcome
        for chunk in chunked(stream, [1])
        for outcome in decode_outcomes(single.batch_access(chunk))
    ]
    assert outcomes == expected
    assert len(single) == len(reference)
    assert _bits(single.current_priorities()) == _bits(reference.current_priorities())


@pytest.fixture(scope="module")
def db2_c60():
    """A generated DB2_C60 stream: a real hint-set mix of many hint sets."""
    return standard_trace("DB2_C60", seed=17, target_requests=6_000).requests()


@pytest.mark.parametrize("decay", [1.0, 0.5])
@pytest.mark.parametrize("top_k", [None, 20, 3, 2**64], ids=["exact", "20", "3", "2**64"])
def test_kernel_learns_the_reference_priorities_on_a_standard_trace(db2_c60, top_k, decay):
    """Windows of 500 requests close inside the engine's 4,096-request
    chunks.  A k past int64 is clamped to W, which recycles no counter
    either, so it still matches the reference's unbounded k."""
    config = CLICConfig(window_size=500, decay=decay, top_k=top_k)
    reference = ReferenceCLIC(600, config)
    kernel = CLICPolicy(600, config)
    outcomes, expected = _replay_in_lockstep(kernel, reference, db2_c60, [4_096])
    assert outcomes == expected
    assert reference.windows_completed == len(db2_c60) // 500
    assert sorted(kernel.cached_pages()) == sorted(reference.cached_pages())
