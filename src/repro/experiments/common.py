"""Shared plumbing for the per-figure experiments.

Every experiment generates one or more of the standard traces, runs one or
more policies over them and reports read hit ratios.  This module centralises
the defaults (how long the generated traces are, how CLIC is configured for a
given trace length) so the figure modules stay small and consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cache.registry import PAPER_POLICIES
from repro.core.config import CLICConfig
from repro.simulation.costmodel import CostModel
from repro.simulation.engine import RequestSource
from repro.simulation.request import IORequest
from repro.trace.cache import TraceSpec, default_trace_cache
from repro.trace.records import Trace
from repro.workloads.standard import clic_window_for, standard_trace

if TYPE_CHECKING:  # imported for type annotations only (lazy at runtime)
    from repro.simulation.queueing import QueueingModel
    from repro.workloads.phased import PhasePlan

__all__ = [
    "ExperimentSettings",
    "clic_kwargs",
    "generate_trace",
    "phased_trace_source",
    "trace_spec",
    "trace_source",
    "DEFAULT_SETTINGS",
]

#: Distinct "not given" marker for optional overrides whose valid values
#: include ``None`` and other falsy values (``top_k=None`` means "exact hint
#: table", ``window_size`` must not be coerced by truthiness).
_UNSET = object()


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by all experiments.

    ``target_requests`` trades fidelity for runtime: the paper's traces are
    millions of requests long; the default here keeps a full figure
    regeneration in the minutes range on a laptop while preserving the
    qualitative shapes.  Increase it for closer-to-paper curves.
    """

    target_requests: int = 60_000
    seed: int = 17
    policies: tuple[str, ...] = PAPER_POLICIES
    decay: float = 1.0               # the paper's r
    outqueue_factor: float = 5.0     # the paper's Noutq (entries per cache page)
    top_k: int | None = None         # None = exact hint table (Sections 3-4)
    #: Worker processes for sweep grids (1 = serial, bit-identical results).
    jobs: int = 1
    #: Shard counts swept by the cluster experiment; 1 is the unified cache.
    shard_counts: tuple[int, ...] = (1, 2, 4, 8)
    #: Device profile priced by the latency experiment (``hdd``/``ssd``/
    #: ``nvme``, see :data:`repro.simulation.costmodel.DEVICE_PROFILES`).
    device: str = "ssd"
    #: Write-handling variant of the cost model (``write-through`` puts the
    #: device write on the critical path; ``write-back`` absorbs writes at
    #: cache speed).
    write_policy: str = "write-through"
    #: Named phase schedule replayed by the adaptivity experiment
    #: (see :data:`repro.workloads.phased.PHASE_PLANS`).  Churn is the
    #: default because both its phases are cacheable at reproduction scale,
    #: so recovery times are meaningful; the TPC-C -> TPC-H switch plan's
    #: second phase is scan-dominated and bottoms out near zero.
    phase_plan: str = "churn"
    #: Offered-load fractions swept by the ``load`` experiment, as multiples
    #: of the reference single-server capacity (the unsharded first policy's
    #: modeled throughput).  Spans under- to over-load so the saturation
    #: knee lands inside the sweep.
    offered_loads: tuple[float, ...] = (0.25, 0.5, 0.75, 0.9, 1.1, 1.5)
    #: Arrival-process kind used by the ``load`` experiment
    #: (see :data:`repro.workloads.arrivals.ARRIVAL_KINDS`).
    arrival: str = "poisson"

    def build_phase_plan(self) -> "PhasePlan":
        """The phase schedule these settings describe, scaled to the trace length."""
        from repro.workloads.phased import build_phase_plan

        return build_phase_plan(
            self.phase_plan, total_requests=self.target_requests, seed=self.seed
        )

    def clic_config(self, top_k=_UNSET, window_size=_UNSET) -> CLICConfig:
        """CLIC configuration matching the paper's settings, scaled to the trace length.

        Both overrides distinguish "not given" (``_UNSET``) from every
        explicit value: ``top_k=None`` overrides a settings-level ``top_k``
        back to the exact hint table, and ``window_size`` is taken verbatim
        instead of being replaced by the default whenever it is falsy.
        """
        return CLICConfig(
            window_size=(
                clic_window_for(self.target_requests)
                if window_size is _UNSET
                else window_size
            ),
            decay=self.decay,
            outqueue_factor=self.outqueue_factor,
            top_k=self.top_k if top_k is _UNSET else top_k,
        )

    def cost_model(
        self, device: str | None = None, page_span: int | None = None
    ) -> CostModel:
        """The service-time cost model these settings describe.

        ``device`` overrides :attr:`device` (the latency experiment prices
        several devices against one settings object); ``page_span`` scales
        HDD seeks to the workload's page-id space.
        """
        return CostModel(
            device=device or self.device,
            write_policy=self.write_policy,
            page_span=page_span,
        )

    def queueing_model(
        self, rate_rps: float, page_span: int | None = None
    ) -> "QueueingModel":
        """An open-loop queueing model at *rate_rps* under these settings.

        Builds the arrival process named by :attr:`arrival` at the given
        mean rate (seeded from :attr:`seed`) over the same device/write
        policy as :meth:`cost_model`.  The ``load`` experiment rescales the
        returned model to each offered-load fraction with
        :meth:`~repro.simulation.queueing.QueueingModel.scaled`.
        """
        from repro.simulation.queueing import QueueingModel
        from repro.workloads.arrivals import build_arrivals

        return QueueingModel(
            arrivals=build_arrivals(self.arrival, rate_rps, seed=self.seed),
            device=self.device,
            write_policy=self.write_policy,
            page_span=page_span,
        )


DEFAULT_SETTINGS = ExperimentSettings()

#: Cache of generated traces keyed by (name, seed, target_requests, client_id)
#: so that a figure touching the same trace at several cache sizes only pays
#: the generation cost once per process.
_TRACE_CACHE: dict[tuple, Trace] = {}


def trace_spec(
    name: str,
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    client_id: str | None = None,
) -> TraceSpec:
    """The picklable on-disk-cache key/handle for one standard trace."""
    return TraceSpec(
        name=name,
        seed=settings.seed,
        target_requests=settings.target_requests,
        client_id=client_id,
    )


def trace_source(
    name: str,
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    client_id: str | None = None,
) -> TraceSpec | list[IORequest]:
    """The preferred request source for sweeps over a standard trace.

    With the on-disk trace cache enabled (the default) this is a lazy
    :class:`~repro.trace.cache.TraceSpec`: replay streams from the cached
    binary file with bounded memory, and parallel sweep workers open the
    file themselves instead of receiving pickled request lists.  With the
    cache disabled it falls back to the materialized request list.  Both
    produce bit-identical sweep results.
    """
    if default_trace_cache().enabled:
        spec = trace_spec(name, settings, client_id)
        spec.ensure()
        return spec
    return generate_trace(name, settings, client_id).requests()


def phased_trace_source(plan: "PhasePlan") -> RequestSource:
    """The preferred request source for replays of a phased schedule.

    Mirrors :func:`trace_source`: a lazy, picklable
    :class:`~repro.trace.cache.TraceSpec` through the on-disk cache when it
    is enabled (the cache key hashes the whole plan), otherwise the
    materialized request list.
    """
    from repro.workloads.phased import phased_trace

    if default_trace_cache().enabled:
        spec = TraceSpec.for_plan(plan)
        spec.ensure()
        return spec
    return phased_trace(plan).requests()


def generate_trace(
    name: str,
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    client_id: str | None = None,
    use_cache: bool = True,
) -> Trace:
    """Generate (or fetch from the in-process/on-disk caches) one standard trace.

    Materialized traces are memoized in-process as before; on a process-local
    miss the trace is loaded through the on-disk trace cache
    (:mod:`repro.trace.cache`) when it is enabled, so repeated runs — and
    concurrent sweep workers — pay the generation cost once per machine, not
    once per process.
    """
    key = (name, settings.seed, settings.target_requests, client_id)
    if use_cache and key in _TRACE_CACHE:
        return _TRACE_CACHE[key]
    disk_cache = default_trace_cache()
    if disk_cache.enabled:
        trace = disk_cache.load(trace_spec(name, settings, client_id))
    else:
        trace = standard_trace(
            name,
            seed=settings.seed,
            target_requests=settings.target_requests,
            client_id=client_id,
        )
    if use_cache:
        _TRACE_CACHE[key] = trace
    return trace


def clic_kwargs(settings: ExperimentSettings, top_k=_UNSET) -> dict:
    """Keyword arguments for constructing CLIC through the policy registry.

    ``top_k`` follows the same sentinel convention as
    :meth:`ExperimentSettings.clic_config`: omitted means "use the
    settings-level value", ``None`` means the exact hint table.
    """
    return {"config": settings.clic_config(top_k=top_k)}


def clear_trace_cache() -> None:
    """Drop all cached traces (mainly for tests)."""
    _TRACE_CACHE.clear()
