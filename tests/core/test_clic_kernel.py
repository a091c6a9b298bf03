"""Edge cases of CLIC's C kernel (``repro/core/_clic_kernel.c``).

Parity with the pure-Python reference (``tests/clic_reference.py``) on
streams built to reach the kernel's corners: page ids that share a home
slot in its page and outqueue tables (multiples of ``2**32``), the extreme
ids ``0`` and ``2**63 - 1``, tiny caches and outqueues, and more hint sets
than the kernel's first per-hint allocation, so those arrays grow
mid-stream.  The library's build is tested in ``tests/core/test_kernel.py``.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.clic import CLICPolicy
from repro.core.config import CLICConfig
from repro.core.hints import make_hint_set
from repro.simulation.request import IORequest, RequestKind
from repro.trace.columnar import ColumnarChunk

from tests.clic_reference import CLICPolicy as ReferenceCLIC

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


def _replay_in_chunks(policy, stream, sizes):
    outcomes = []
    offset = 0
    index = 0
    while offset < len(stream):
        take = sizes[index % len(sizes)]
        chunk = ColumnarChunk.from_requests(stream[offset : offset + take], start_seq=offset)
        outcomes.extend(policy.batch_access(chunk).outcomes())
        offset += take
        index += 1
    return outcomes


@given(
    stream=edge_streams(),
    capacity=st.integers(min_value=1, max_value=4),
    outqueue=st.integers(min_value=0, max_value=2),
    window=st.integers(min_value=2, max_value=12),
    decay=st.sampled_from([1.0, 0.5]),
    top_k=st.sampled_from([None, 3]),
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
    expected = [reference.access(request, seq) for seq, request in enumerate(stream)]

    batched = CLICPolicy(capacity, config)
    assert _replay_in_chunks(batched, stream, sizes) == expected
    assert sorted(batched.cached_pages()) == sorted(reference.cached_pages())
    assert all(batched.contains(page) == reference.contains(page) for page in PAGES)

    scalar = CLICPolicy(capacity, config)
    assert [scalar.access(request, seq) for seq, request in enumerate(stream)] == expected
    assert len(scalar) == len(reference)
