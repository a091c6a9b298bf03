"""Tripwire for stale trace-cache files: pin what the generators produce.

The trace cache (:mod:`repro.trace.cache`) keys a file by the generator
*configuration* and the binary format, never by the generator *code*.  A
change under ``repro/workloads`` that alters the generated requests would
keep serving the old files from every existing cache directory until
someone bumps :data:`~repro.trace.cache.CACHE_KEY_VERSION` by hand.  This
test pins one digest per trace under the current key version, so such a
change fails here until the version is bumped and the new digests pinned
beside it.

The traces are the ones the golden fixtures replay: every standard trace,
and the phased plan, at ``GOLDEN_SETTINGS``.  In a full session they come
from the session trace cache the goldens fill; run alone, this module
generates them (about 6 s on a 2-vCPU box).
"""

from __future__ import annotations

from hashlib import sha256

import pytest

from repro.experiments.common import trace_spec
from repro.trace.cache import CACHE_KEY_VERSION, TraceSpec
from repro.workloads.standard import STANDARD_TRACES

from tests.conftest import stream_requests
from tests.experiments.goldens import GOLDEN_SETTINGS

#: ``{CACHE_KEY_VERSION: {trace: digest}}``.  A new key version pins its
#: digests beside the old ones instead of overwriting them.
PINNED_DIGESTS: dict[int, dict[str, str]] = {
    1: {
        "DB2_C300": "15fd890935f407b013b74c9603918990e8edeb6462f289f228910acf27c0ac0d",
        "DB2_C540": "cab30a912b3bdbb04956fba6bf0049c5e04ed8bee4c8ef70ffdf91c03bfbd059",
        "DB2_C60": "62dfdae6fbf9dfea4a266d7203f3eec051de6df3ea4d6d053e734c19947c20e5",
        "DB2_H400": "51815172a2cc73baa796bf5b68bac88996c9d3ce49b9bc19dae3ccdac00da14e",
        "DB2_H720": "bb67e1919f9e3782fcb18712048c2159bb878a8fb376a686305948b097f149f6",
        "DB2_H80": "9c26693e2968a4335f82b362b0f35e66c8d5977fecba1245daacf00231cbf2bb",
        "MY_H65": "dbf48168bb11de51761e2dd765b1dada37c8dba73c49f620733adffb9313ab26",
        "MY_H98": "5613e379c89c98385677e5b8b2ae1296739c80f0f25e9ec8a2699868eb39ba6c",
        "phased:churn": "8aeee7b09641c8dbc6dc2e084513fe9adac0b6461e016be01815bad38539a092",
    },
}


def _specs() -> dict[str, TraceSpec]:
    specs = {name: trace_spec(name, GOLDEN_SETTINGS) for name in STANDARD_TRACES}
    plan = GOLDEN_SETTINGS.build_phase_plan()
    specs[f"phased:{plan.name}"] = TraceSpec.for_plan(plan)
    return specs


SPECS = _specs()


def trace_digest(spec: TraceSpec) -> str:
    """sha256 over every request's page, kind, full hint identity and client."""
    digest = sha256()
    for request in stream_requests(spec):
        fields = (
            request.page,
            request.is_read,
            request.hints.identity(),
            request.client_id,
        )
        digest.update(repr(fields).encode("utf-8"))
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_generated_trace_matches_its_pinned_digest(name):
    pinned = PINNED_DIGESTS.get(CACHE_KEY_VERSION, {})
    digest = trace_digest(SPECS[name])
    assert digest == pinned.get(name), (
        f"{name}: the generated trace no longer matches the digest pinned for "
        f"CACHE_KEY_VERSION {CACHE_KEY_VERSION} (now {digest}).  Trace caches "
        "would serve the old file: bump CACHE_KEY_VERSION and pin the new "
        "digests under the new version."
    )
