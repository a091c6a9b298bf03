"""On-disk trace cache: generate a synthetic trace once, replay it forever.

Synthetic trace generation (first-tier buffer simulation + workload model) is
the repository's biggest fixed cost — every experiment run and every sweep
worker used to regenerate the same deterministic traces from scratch.  This
module caches generated traces as binary trace files
(:mod:`repro.trace.binio`), keyed by everything that determines the request
stream:

* the standard-trace configuration (database/buffer sizes, workload knobs),
* the workload seed,
* the target request count, and
* the client-id override (multi-client experiments).

The cache directory defaults to ``~/.cache/repro-clic/traces`` and can be
moved with the ``REPRO_TRACE_CACHE`` environment variable (set it to ``off``,
``none`` or ``0`` to disable caching entirely).

:class:`TraceSpec` is the *lazy* handle the sweep machinery passes around: a
tiny picklable description of a trace that each worker process opens itself
(through this cache), instead of the parent pickling millions of request
objects to every worker.  A spec is a columnar stream for the shared-replay
engine: :meth:`TraceSpec.iter_columnar` decodes the cached binary file
block by block, with bounded memory.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.trace.binio import BinaryTraceWriter, StreamedTrace
from repro.trace.columnar import ColumnarChunk, ColumnarSource
from repro.trace.records import Trace

if TYPE_CHECKING:  # imported for type annotations only (lazy at runtime)
    from repro.workloads.phased import PhasePlan, PhasedTraceStream
    from repro.workloads.standard import StandardTraceStream

__all__ = [
    "TraceSpec",
    "TraceCache",
    "default_trace_cache",
    "set_default_trace_cache",
    "trace_cache_enabled",
]

#: Environment variable overriding the cache directory (or disabling it).
CACHE_ENV_VAR = "REPRO_TRACE_CACHE"

_DISABLED_VALUES = {"off", "none", "0", "disabled"}

#: Bumped whenever generation or the binary layout changes incompatibly, so
#: stale cache files are regenerated instead of misread.
CACHE_KEY_VERSION = 1


@dataclass(frozen=True)
class TraceSpec:
    """A picklable description of one standard trace (the lazy trace source).

    Workers in a parallel sweep receive the spec (a few dozen bytes) and
    resolve it against the on-disk cache themselves; the parent process calls
    :meth:`ensure` once before fanning out so workers never race to generate.

    ``plan`` switches the spec from a standard trace to a *phased* trace
    (:mod:`repro.workloads.phased`): the whole phase schedule — every
    tenant's trace name, seed and request share — is hashed into the cache
    key, and ``name``/``seed``/``target_requests`` become informational
    (they mirror the plan).  Build phased specs with :meth:`for_plan`.
    """

    name: str
    seed: int = 17
    target_requests: int = 60_000
    client_id: str | None = None
    plan: "PhasePlan | None" = None

    @classmethod
    def for_plan(cls, plan: "PhasePlan") -> "TraceSpec":
        """The lazy cache handle for one phased trace schedule."""
        return cls(
            name=plan.name,
            seed=0,
            target_requests=plan.total_requests,
            plan=plan,
        )

    # ----------------------------------------------------- request source API
    def iter_columnar(self) -> Iterator[ColumnarChunk]:
        """Stream the trace as columnar chunks, one per block of the cached
        file (generating into the cache on a miss)."""
        return default_trace_cache().open(self).iter_columnar()

    def ensure(self) -> None:
        """Make sure the cached file exists (generate it if necessary).

        A no-op when the cache is disabled — workers will then generate in
        memory themselves.
        """
        cache = default_trace_cache()
        if cache.enabled:
            cache.ensure(self)

    def open(self) -> StreamedTrace:
        """Open the cached binary trace for streaming replay."""
        return default_trace_cache().open(self)

    def load(self) -> Trace:
        """Materialize the trace in memory (via the cache)."""
        return default_trace_cache().load(self)


class TraceCache:
    """A directory of binary trace files keyed by generation parameters.

    ``root=None`` resolves the directory from ``REPRO_TRACE_CACHE`` (or the
    default under ``~/.cache``); an explicitly disabled cache (see
    :func:`trace_cache_enabled`) still works but generates in memory and
    never touches disk.
    """

    def __init__(self, root: str | Path | None = None, enabled: bool | None = None):
        env = os.environ.get(CACHE_ENV_VAR, "").strip()
        if enabled is None:
            # An explicit root is an explicit request for an enabled cache;
            # only the default-constructed cache honours a disabling env var.
            if root is not None:
                enabled = True
            else:
                enabled = env.lower() not in _DISABLED_VALUES if env else True
        self.enabled = enabled
        if root is not None:
            self.root = Path(root)
        elif env and env.lower() not in _DISABLED_VALUES:
            self.root = Path(env)
        else:
            self.root = Path.home() / ".cache" / "repro-clic" / "traces"
        self.hits = 0
        self.misses = 0
        # Disabled-path memo: without a disk file to reuse, repeated passes
        # over the same spec (offline prepare + replay, per-worker opens)
        # must not regenerate or re-lift the trace each time.
        self._memo: dict[TraceSpec, _InMemoryStream] = {}

    # ----------------------------------------------------------------- lookup
    def path_for(self, spec: TraceSpec) -> Path:
        """The cache file path for *spec* (which may not exist yet)."""
        return self.root / f"{spec.name}-{self._digest(spec)}.ctb"

    def ensure(self, spec: TraceSpec) -> Path:
        """Return the cache file for *spec*, generating it on a miss.

        Generation streams straight from the workload generator into the
        binary writer (never materializing the request list) and lands in
        the cache via an atomic rename, so concurrent processes racing on
        the same spec at worst duplicate work — they never observe a
        half-written file.
        """
        if not self.enabled:
            raise RuntimeError("trace cache is disabled; use load() or open()")
        path = self.path_for(spec)
        if path.exists():
            self.hits += 1
            return path
        self.misses += 1
        self.root.mkdir(parents=True, exist_ok=True)
        stream = self._generator(spec)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{spec.name}-", suffix=".ctb.tmp", dir=self.root
        )
        os.close(fd)
        tmp_path = Path(tmp_name)
        try:
            with BinaryTraceWriter(tmp_path, name=spec.name) as writer:
                writer.write_all(stream)
                writer.update_metadata(stream.metadata())
            os.replace(tmp_path, path)
        finally:
            tmp_path.unlink(missing_ok=True)
        return path

    def open(self, spec: TraceSpec) -> StreamedTrace:
        """A streaming view of the cached trace (generating on a miss)."""
        if not self.enabled:
            return self._in_memory(spec)
        return StreamedTrace(self.ensure(spec))

    def load(self, spec: TraceSpec) -> Trace:
        """The materialized trace (through the cache when enabled)."""
        if not self.enabled:
            return self._in_memory(spec).load()
        return self.open(spec).load()

    # ------------------------------------------------------------- accounting
    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "dir": str(self.root)}

    def summary(self) -> str:
        """One-line summary, e.g. for the experiment CLI's footer."""
        state = "" if self.enabled else " (disabled)"
        return f"trace cache: hits={self.hits} misses={self.misses} dir={self.root}{state}"

    # -------------------------------------------------------------- internals
    def _digest(self, spec: TraceSpec) -> str:
        # Lazy import: repro.workloads.standard itself imports repro.trace.
        from repro.trace.binio import FORMAT_VERSION
        from repro.workloads.standard import STANDARD_TRACES

        if spec.plan is not None:
            # Phased traces: the plan repr names every phase, tenant and
            # request share; the referenced standard-trace configs cover the
            # per-tenant generation knobs.
            configs = tuple(
                STANDARD_TRACES.get(client.trace)
                for client in spec.plan.distinct_clients()
            )
            fingerprint = repr(
                (CACHE_KEY_VERSION, FORMAT_VERSION, "phased", spec.plan, configs)
            )
        else:
            config = STANDARD_TRACES.get(spec.name)
            fingerprint = repr(
                (
                    CACHE_KEY_VERSION,
                    FORMAT_VERSION,
                    spec.name,
                    spec.seed,
                    spec.target_requests,
                    spec.client_id,
                    config,  # dataclass repr covers every generation knob
                )
            )
        return sha256(fingerprint.encode("utf-8")).hexdigest()[:16]

    def _generator(
        self, spec: TraceSpec
    ) -> "PhasedTraceStream | StandardTraceStream":
        if spec.plan is not None:
            from repro.workloads.phased import PhasedTraceStream

            return PhasedTraceStream(spec.plan)
        from repro.workloads.standard import StandardTraceStream

        return StandardTraceStream(
            spec.name,
            seed=spec.seed,
            target_requests=spec.target_requests,
            client_id=spec.client_id,
        )

    def _generate_in_memory(self, spec: TraceSpec) -> Trace:
        if spec.plan is not None:
            from repro.workloads.phased import phased_trace

            return phased_trace(spec.plan)
        from repro.workloads.standard import standard_trace

        return standard_trace(
            spec.name,
            seed=spec.seed,
            target_requests=spec.target_requests,
            client_id=spec.client_id,
        )

    def _in_memory(self, spec: TraceSpec) -> "_InMemoryStream":
        """The disabled cache's memoised stream for *spec*."""
        stream = self._memo.get(spec)
        if stream is None:
            self.misses += 1
            stream = _InMemoryStream(self._generate_in_memory(spec))
            self._memo[spec] = stream
        else:
            self.hits += 1
        return stream


class _InMemoryStream:
    """Adapter giving a materialized trace the :class:`StreamedTrace` surface
    (used when the cache is disabled, so callers keep one code path).  The
    trace is lifted into columns on the first pass, and every pass yields
    those chunks."""

    def __init__(self, trace: Trace):
        self._trace = trace
        self._source: ColumnarSource | None = None
        self.name = trace.name
        self.metadata = dict(trace.metadata)

    def __len__(self) -> int:
        return len(self._trace)

    @property
    def request_count(self) -> int:
        return len(self._trace)

    def iter_columnar(self) -> Iterator[ColumnarChunk]:
        if self._source is None:
            self._source = ColumnarSource(self._trace.requests())
        return self._source.iter_columnar()

    def load(self) -> Trace:
        return self._trace


_DEFAULT_CACHE: TraceCache | None = None


def default_trace_cache() -> TraceCache:
    """The process-wide cache (created on first use from the environment)."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = TraceCache()
    return _DEFAULT_CACHE


def set_default_trace_cache(cache: TraceCache | None) -> None:
    """Replace the process-wide cache (``None`` re-resolves from the env)."""
    global _DEFAULT_CACHE
    _DEFAULT_CACHE = cache


def trace_cache_enabled() -> bool:
    return default_trace_cache().enabled
