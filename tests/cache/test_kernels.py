"""Edge cases of the LRU, ARC, TQ and OPT C kernels (``repro/core/_*_kernel.c``).

Each kernel is held to its pure-Python reference (``tests/policy_reference.py``)
on streams built to reach its corners: page ids that share a home slot in
the kernel's page table (multiples of ``2**32``) and the extreme ids ``0``
and ``2**63 - 1``, capacities 1-4, replayed in random chunk splits and in
one-request chunks.  Each kernel's own corner is forced by a stream prefix:
ARC's directory fills (T1, T2, B1 and B2 hold 2c pages), TQ demotes and
caches recovery writes under short lifetimes, and OPT's heap compacts.

A compiled policy owns its kernel state, so it cannot be copied.
"""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.registry import PAPER_POLICIES, create_policy
from repro.core.hints import EMPTY_HINT_SET, make_hint_set
from repro.simulation.request import IORequest, RequestKind

from tests import policy_reference
from tests.conftest import chunked
from tests.observer_reference import decode_outcomes, step

#: Page ids whose low 32 bits are equal share one home slot in a kernel's
#: table, so these build long probe runs and delete from their middle.
PAGES = [0, 2**63 - 1] + [k * 2**32 for k in range(1, 7)]

#: TQ's write-hint domain: both replacement values, the recovery value, a
#: value TQ ignores, and no hint.
TQ_HINTS = [EMPTY_HINT_SET] + [
    make_hint_set("c", request_type=value)
    for value in ("replacement_write", "synchronous_write", "recovery_write", "other")
]

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
CAPACITIES = st.integers(min_value=1, max_value=4)
CHUNK_SIZES = st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=8)


@st.composite
def streams(draw, hints=(EMPTY_HINT_SET,), min_size=60, max_size=200):
    """Reads and writes over :data:`PAGES`, one of *hints* each."""
    return [
        IORequest(
            draw(st.sampled_from(PAGES)),
            RequestKind.WRITE if draw(st.integers(0, 3)) == 0 else RequestKind.READ,
            draw(st.sampled_from(hints)),
        )
        for _ in range(draw(st.integers(min_value=min_size, max_value=max_size)))
    ]


def _assert_kernel_matches(name, kwargs, stream, sizes, reference, expected):
    """The kernel replays *stream* to the reference's *expected* outcomes and
    state, in *sizes* chunks and in one-request chunks (the kernel's
    ``n == 1`` replay)."""
    for split in (sizes, [1]):
        policy = create_policy(name, capacity=reference.capacity, **kwargs)
        if policy.offline:
            policy.prepare(stream)
        outcomes = [
            outcome
            for chunk in chunked(stream, split)
            for outcome in decode_outcomes(policy.batch_access(chunk))
        ]
        assert outcomes == expected
        assert len(policy) == len(reference)
        assert sorted(policy.cached_pages()) == sorted(reference.cached_pages())
        assert all(policy.contains(page) == reference.contains(page) for page in PAGES)


@given(stream=streams(), capacity=CAPACITIES, sizes=CHUNK_SIZES)
@SETTINGS
def test_lru_kernel_matches_reference_on_colliding_pages(stream, capacity, sizes):
    reference = policy_reference.LRUPolicy(capacity)
    expected = [reference.access(request, seq) for seq, request in enumerate(stream)]
    _assert_kernel_matches("LRU", {}, stream, sizes, reference, expected)


@given(stream=streams(), capacity=CAPACITIES, sizes=CHUNK_SIZES)
@SETTINGS
def test_arc_kernel_matches_reference_with_full_ghost_lists(stream, capacity, sizes):
    # Each page twice: the second request promotes it to T2, and REPLACE
    # demotes T2's oldest to B2 until the directory holds 2c pages.
    stream = [IORequest(page, RequestKind.READ) for page in PAGES for _ in range(2)] + stream
    reference = policy_reference.ARCPolicy(capacity)
    expected = []
    directory = 0
    targets = []
    for seq, request in enumerate(stream):
        expected.append(reference.access(request, seq))
        directory = max(
            directory,
            len(reference._t1) + len(reference._t2) + len(reference._b1) + len(reference._b2),
        )
        targets.append(reference.target_t1_size)
    assert directory == 2 * capacity
    _assert_kernel_matches("ARC", {}, stream, sizes, reference, expected)
    kernel = create_policy("ARC", capacity=capacity)
    for seq, request in enumerate(stream):
        step(kernel, request, seq)
        assert kernel.target_t1_size == targets[seq]


@given(
    stream=streams(hints=TQ_HINTS),
    capacity=CAPACITIES,
    lifetime=st.integers(min_value=0, max_value=3),
    cache_recovery_writes=st.booleans(),
    sizes=CHUNK_SIZES,
)
@SETTINGS
def test_tq_kernel_matches_reference_on_short_lifetimes(
    stream, capacity, lifetime, cache_recovery_writes, sizes
):
    # Replacement writes to every page, then a recovery write: the high
    # queue overflows the lifetime and demotes, and the recovery write is
    # cached or bypassed.
    replacement, recovery = TQ_HINTS[1], TQ_HINTS[3]
    stream = [IORequest(page, RequestKind.WRITE, replacement) for page in PAGES] + [
        IORequest(PAGES[0], RequestKind.WRITE, recovery)
    ] + stream
    kwargs = {"write_queue_lifetime": lifetime, "cache_recovery_writes": cache_recovery_writes}
    reference = policy_reference.TQPolicy(capacity, **kwargs)
    expected = [reference.access(request, seq) for seq, request in enumerate(stream)]
    _assert_kernel_matches("TQ", kwargs, stream, sizes, reference, expected)


@given(stream=streams(), capacity=CAPACITIES, sizes=CHUNK_SIZES)
@SETTINGS
def test_opt_kernel_matches_reference_through_heap_compactions(stream, capacity, sizes):
    # Every hit on a cached page pushes a new heap entry: 2c + 1 reads of
    # one page overflow the heap at least once.
    stream = [IORequest(PAGES[1], RequestKind.READ)] * (2 * capacity + 2) + stream
    compactions = []

    class Counting(policy_reference.OPTPolicy):
        def _compact(self) -> None:
            compactions.append(len(self._heap))
            super()._compact()

    reference = Counting(capacity)
    reference.prepare(stream)
    expected = [reference.access(request, seq) for seq, request in enumerate(stream)]
    assert compactions
    _assert_kernel_matches("OPT", {}, stream, sizes, reference, expected)


@pytest.mark.parametrize("name", PAPER_POLICIES)
def test_a_compiled_policy_cannot_be_copied_or_pickled(name):
    policy = create_policy(name, capacity=4)
    with pytest.raises(TypeError, match="C state"):
        copy.copy(policy)
    with pytest.raises(TypeError, match="C state"):
        copy.deepcopy(policy)
    with pytest.raises(TypeError, match="C state"):
        pickle.dumps(policy)
