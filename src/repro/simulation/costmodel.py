"""Service-time cost model: from hit ratios to device-level latency.

The paper's argument for CLIC is ultimately about *service time*: a better
second-tier hit ratio means fewer device reads, and the storage server
answers faster (Section 6 reports hit ratios as the proxy).  This module
closes that gap by pricing every replayed request against a pluggable
:class:`DeviceProfile` and accumulating the result into
:class:`LatencyStats`, so any sweep can report modeled read latency and
throughput next to the hit ratio it already measures.

The pricing rules (per request):

* **read hit** — served from the server cache at DRAM speed
  (``cache_hit_us``);
* **read miss** — a device read: fixed overhead (controller latency, and
  for rotating media the average rotational delay) plus the per-page
  transfer, plus — for seek devices (``seek_us > 0``) — a seek whose cost
  grows with the square root of the head travel distance (the classic
  seek-curve shape).  Seek pricing makes HDD misses *request-dependent*:
  the accumulator tracks the head position left by the previous device
  access;
* **write** — under ``write-through`` the device write is on the critical
  path (``write_us``, plus the seek on seek devices, which also moves the
  head); under ``write-back`` the write is absorbed by the server cache at
  ``cache_hit_us`` and destaging happens off the critical path (not
  modeled).

Read latencies additionally feed a fixed-bucket geometric histogram, from
which :class:`LatencyStats` reports p50/p99 without storing per-request
samples; histograms merge by bucket-wise addition, so per-shard results
compose deterministically.

Everything here is pure arithmetic over the request stream — no clocks, no
randomness — so cost-model results are bit-identical across processes and
``jobs=`` counts, exactly like the hit-ratio accounting they extend.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.cache.base import CacheStats
from repro.simulation.cluster import is_cluster
from repro.simulation.request import RequestKind

if TYPE_CHECKING:  # imported for type annotations only
    from repro.simulation.cluster import ShardRouter
    from repro.simulation.request import IORequest

__all__ = [
    "DeviceProfile",
    "DEVICE_PROFILES",
    "make_device_profile",
    "WRITE_POLICIES",
    "LatencyStats",
    "CostModel",
]

#: Write-handling variants accepted by :class:`CostModel`.
WRITE_POLICIES: tuple[str, ...] = ("write-through", "write-back")

#: Expected value of ``sqrt(|X - Y|)`` for X, Y uniform on [0, 1] — the mean
#: sqrt-seek fraction between two independent random positions.  Used to
#: price a miss when no head position is known (the first device access, and
#: the analytic :meth:`CostModel.latency_from_stats` derivation).
_MEAN_RANDOM_SEEK_FRACTION = 8.0 / 15.0

# ----------------------------------------------------------------- histogram
#: Geometric bucket upper bounds (microseconds) shared by every histogram:
#: an exact-zero bucket plus 64 buckets from 0.5us growing by 1.3x (~7.6s
#: at the top), so one fixed bucketisation covers zero queueing delay and
#: NVMe hits through worst-case HDD seeks.  Percentiles report the upper
#: bound of the bucket the quantile falls in; the leading 0.0 bound keeps
#: that exact for zero-latency samples (an idle queue's delay is 0.0, not
#: "somewhere under 0.5us").
HISTOGRAM_BUCKET_BOUNDS_US: tuple[float, ...] = (0.0,) + tuple(
    0.5 * 1.3**index for index in range(64)
)
_LAST_BUCKET = len(HISTOGRAM_BUCKET_BOUNDS_US) - 1


def _bucket_index(latency_us: float) -> int:
    """Index of the first bucket whose upper bound is >= *latency_us*."""
    return min(bisect_left(HISTOGRAM_BUCKET_BOUNDS_US, latency_us), _LAST_BUCKET)


@dataclass
class LatencyStats:
    """Modeled service-time accounting for one simulation run of one policy.

    ``read_histogram`` holds per-bucket read-latency counts over the shared
    geometric bucketisation (:data:`HISTOGRAM_BUCKET_BOUNDS_US`); the
    percentile accessors resolve quantiles against it.  All fields are plain
    sums/counts, so :meth:`merge` adds per-shard stats into the fleet's
    stats exactly.
    """

    read_count: int = 0
    total_read_us: float = 0.0
    write_count: int = 0
    total_write_us: float = 0.0
    read_histogram: list[int] = field(
        default_factory=lambda: [0] * len(HISTOGRAM_BUCKET_BOUNDS_US)
    )

    # ------------------------------------------------------------- accessors
    @property
    def request_count(self) -> int:
        return self.read_count + self.write_count

    @property
    def mean_read_us(self) -> float:
        """Mean modeled read latency in microseconds (0.0 if no reads)."""
        if self.read_count == 0:
            return 0.0
        return self.total_read_us / self.read_count

    @property
    def total_us(self) -> float:
        """Total modeled service time (reads + writes) in microseconds."""
        return self.total_read_us + self.total_write_us

    @property
    def busy_seconds(self) -> float:
        """Total modeled service time in seconds: the *server's* busy time
        (cache-hit service plus device accesses), not device utilization."""
        return self.total_us / 1e6

    @property
    def throughput_rps(self) -> float:
        """Modeled requests/second of one server serving this run serially."""
        busy = self.busy_seconds
        if busy <= 0.0:
            return 0.0
        return self.request_count / busy

    def read_percentile(self, quantile: float) -> float:
        """Read-latency quantile (e.g. ``0.99``) from the fixed-bucket histogram.

        Returns the upper bound of the bucket the quantile falls in — an
        upper estimate that is exact whenever a pricing class maps to a
        single bucket.  0.0 if no reads were recorded.
        """
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {quantile}")
        if self.read_count == 0:
            return 0.0
        rank = quantile * self.read_count
        cumulative = 0
        for index, count in enumerate(self.read_histogram):
            cumulative += count
            if cumulative >= rank and count:
                return HISTOGRAM_BUCKET_BOUNDS_US[index]
        return HISTOGRAM_BUCKET_BOUNDS_US[_LAST_BUCKET]

    @property
    def p50_read_us(self) -> float:
        return self.read_percentile(0.50)

    @property
    def p99_read_us(self) -> float:
        return self.read_percentile(0.99)

    # ------------------------------------------------------------ composition
    @classmethod
    def merge_all(cls, stats: "Sequence[LatencyStats]") -> "LatencyStats":
        """Fold several stats into one aggregate (fresh object, inputs kept)."""
        merged = cls()
        for item in stats:
            merged = merged.merge(item)
        return merged

    def merge(self, other: "LatencyStats") -> "LatencyStats":
        """Return a new :class:`LatencyStats` aggregating *self* and *other*."""
        if len(self.read_histogram) != len(other.read_histogram):
            raise ValueError(
                "cannot merge LatencyStats with different histogram sizes "
                f"({len(self.read_histogram)} vs {len(other.read_histogram)})"
            )
        return LatencyStats(
            read_count=self.read_count + other.read_count,
            total_read_us=self.total_read_us + other.total_read_us,
            write_count=self.write_count + other.write_count,
            total_write_us=self.total_write_us + other.total_write_us,
            read_histogram=[
                a + b for a, b in zip(self.read_histogram, other.read_histogram)
            ],
        )

    def record_read(self, latency_us: float, count: int = 1) -> None:
        """Record *count* reads that each took *latency_us*."""
        self.read_count += count
        self.total_read_us += latency_us * count
        self.read_histogram[_bucket_index(latency_us)] += count

    def record_write(self, latency_us: float, count: int = 1) -> None:
        """Record *count* writes that each took *latency_us*."""
        self.write_count += count
        self.total_write_us += latency_us * count

    def report_columns(self) -> dict:
        """The modeled-latency columns every row-level surface emits.

        Shared by :meth:`as_dict`, sweep rows and the latency experiment,
        so a renamed or added column changes everywhere at once.
        """
        return {
            "mean_read_latency_us": self.mean_read_us,
            "p50_read_latency_us": self.p50_read_us,
            "p99_read_latency_us": self.p99_read_us,
            "modeled_throughput_rps": self.throughput_rps,
        }

    def as_dict(self) -> dict:
        row = self.report_columns()
        row["total_read_latency_us"] = self.total_read_us
        row["total_write_latency_us"] = self.total_write_us
        return row


# ------------------------------------------------------------ device profiles
@dataclass(frozen=True)
class DeviceProfile:
    """Timing parameters of one storage device, in microseconds.

    ``seek_us`` is the full-stroke seek time; 0 makes the device
    position-independent (SSD/NVMe).  ``seek_span`` is the page-id span the
    stroke covers: a seek over ``d`` pages costs
    ``seek_us * sqrt(min(d, seek_span) / seek_span)``.  Custom devices are
    plain instances of this class.
    """

    name: str
    cache_hit_us: float
    read_base_us: float
    read_transfer_us: float
    write_us: float
    seek_us: float = 0.0
    seek_span: int = 1 << 22  # ~32 GiB of 8 KiB pages

    def __post_init__(self) -> None:
        for field_name in (
            "cache_hit_us",
            "read_base_us",
            "read_transfer_us",
            "write_us",
            "seek_us",
        ):
            value = getattr(self, field_name)
            if value < 0:
                raise ValueError(f"{field_name} must be >= 0, got {value}")
        if self.seek_span < 1:
            raise ValueError(f"seek_span must be >= 1, got {self.seek_span}")

    # --------------------------------------------------------------- pricing
    @property
    def position_dependent(self) -> bool:
        """Whether miss cost depends on the previous device access (HDD)."""
        return self.seek_us > 0.0

    def seek_cost_us(self, distance: int) -> float:
        """Seek time for a head travel of *distance* pages (sqrt seek curve)."""
        if self.seek_us == 0.0 or distance <= 0:
            return 0.0
        fraction = min(distance, self.seek_span) / self.seek_span
        return self.seek_us * math.sqrt(fraction)

    @property
    def nominal_seek_us(self) -> float:
        """Expected seek between two independent random positions."""
        return self.seek_us * _MEAN_RANDOM_SEEK_FRACTION

    @property
    def nominal_read_miss_us(self) -> float:
        """Position-free miss cost: overhead + transfer + expected random seek.

        Exactly the per-request miss cost for position-independent devices;
        the analytic stand-in for seek devices (used for per-shard
        breakdowns and for the first device access of a replay).
        """
        return self.read_base_us + self.read_transfer_us + self.nominal_seek_us


#: Stock profiles.  The numbers are nominal datasheet-scale figures chosen
#: for plausible *ratios* (DRAM << NVMe << SSD << HDD), not measurements of
#: any specific part: 7.2k-rpm HDD (~8 ms full-stroke seek, 4.17 ms average
#: rotational delay, 8 KiB page at ~150 MB/s), SATA-class SSD, and a
#: PCIe-class NVMe drive.
DEVICE_PROFILES: dict[str, DeviceProfile] = {
    "hdd": DeviceProfile(
        name="hdd",
        cache_hit_us=5.0,
        read_base_us=4170.0,
        read_transfer_us=55.0,
        write_us=4225.0,
        seek_us=8000.0,
    ),
    "ssd": DeviceProfile(
        name="ssd",
        cache_hit_us=5.0,
        read_base_us=80.0,
        read_transfer_us=10.0,
        write_us=90.0,
    ),
    "nvme": DeviceProfile(
        name="nvme",
        cache_hit_us=5.0,
        read_base_us=12.0,
        read_transfer_us=3.0,
        write_us=15.0,
    ),
}


def make_device_profile(device: str | DeviceProfile) -> DeviceProfile:
    """Resolve a device name, or pass a :class:`DeviceProfile` through."""
    if isinstance(device, DeviceProfile):
        return device
    try:
        return DEVICE_PROFILES[device]
    except KeyError:
        raise ValueError(
            f"unknown device {device!r}; available: {sorted(DEVICE_PROFILES)}"
        ) from None


# ------------------------------------------------------------------ the model
class CostModel:
    """Prices replayed requests against one device profile.

    Picklable (plain attributes only), so a sweep's cost model ships to
    ``jobs > 1`` worker processes alongside the cells.  ``page_span``
    overrides the profile's ``seek_span`` with the workload's actual page-id
    space, so HDD seeks scale with the modeled database size.
    """

    def __init__(
        self,
        device: str | DeviceProfile = "ssd",
        write_policy: str = "write-through",
        page_span: int | None = None,
    ):
        if write_policy not in WRITE_POLICIES:
            raise ValueError(
                f"unknown write policy {write_policy!r}; available: {WRITE_POLICIES}"
            )
        profile = make_device_profile(device)
        if page_span is not None:
            profile = replace(profile, seek_span=page_span)
        self.profile = profile
        self.write_policy = write_policy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CostModel(device={self.profile.name!r}, write_policy={self.write_policy!r})"

    @property
    def write_cost_us(self) -> float:
        """Critical-path cost of one write, before any seek component."""
        if self.write_policy == "write-back":
            return self.profile.cache_hit_us
        return self.profile.write_us

    @property
    def _writes_touch_device(self) -> bool:
        return self.write_policy == "write-through"

    def accumulator(self) -> "CostAccumulator":
        """A fresh per-policy accumulator for one replay pass."""
        return CostAccumulator(self)

    def accumulator_for(self, policy: object) -> "CostAccumulator | ShardedCostAccumulator":
        """The right accumulator for *policy*: per-shard heads for clusters.

        A sharded cluster on a seek device is a fleet of independently
        positioned devices; pricing its stream through one accumulator
        would walk a single head across all shards.  Clusters
        (:func:`~repro.simulation.cluster.is_cluster`) therefore get one
        sub-accumulator (head) per shard, with requests routed exactly as
        the cluster routes them.  Position-independent devices keep the
        plain accumulator — per-shard pricing is then derived analytically
        from the per-shard counts, which is exact.
        """
        if self.profile.position_dependent and is_cluster(policy):
            # Also for shards=1: the single sub-accumulator prices exactly
            # like the wrapped policy, preserving the cluster layer's
            # shards=1 bit-identity on every reporting surface.
            return ShardedCostAccumulator(self, policy.router, policy.shard_count)
        return CostAccumulator(self)

    # ------------------------------------------------------------- derivation
    def latency_from_stats(self, stats: CacheStats) -> LatencyStats:
        """Analytically price a finished run from its hit/miss counts.

        For position-independent devices this is *exactly* what the
        per-request accumulator produces (every pricing class has one
        cost), which is what makes re-pricing a finished replay against
        another such device free.  For seek devices it prices every device
        access at the expected random seek
        (:attr:`DeviceProfile.nominal_read_miss_us`) — a position-free
        approximation; per-request accounting (with per-shard heads for
        clusters, see :meth:`accumulator_for`) is the exact path.
        """
        profile = self.profile
        latency = LatencyStats()
        read_misses = stats.read_requests - stats.read_hits
        if stats.read_hits:
            latency.record_read(profile.cache_hit_us, stats.read_hits)
        if read_misses:
            latency.record_read(profile.nominal_read_miss_us, read_misses)
        if stats.write_requests:
            write_us = self.write_cost_us
            if self._writes_touch_device:
                write_us += profile.nominal_seek_us
            latency.record_write(write_us, stats.write_requests)
        return latency

    def shard_latencies(
        self, per_shard: Iterable[CacheStats]
    ) -> tuple[LatencyStats, ...]:
        """Per-shard latency breakdown (each shard its own device)."""
        return tuple(self.latency_from_stats(stats) for stats in per_shard)


class CostAccumulator:
    """Per-policy, per-run service-time accounting (one replay pass).

    The engine calls :meth:`charge` once per (request, hit) outcome, in
    stream order; :meth:`finalize` folds the constant-cost pricing classes
    into the histogram and returns the run's :class:`LatencyStats`.  Only
    seek devices pay per-request arithmetic beyond class counting — the
    head-position walk that makes HDD misses distance-dependent.
    """

    __slots__ = (
        "_model",
        "_read_kind",
        "_hit_us",
        "_miss_const_us",
        "_write_const_us",
        "_profile",
        "_writes_seek",
        "_position",
        "_read_hits",
        "_read_misses",
        "_writes",
        "_latency",
    )

    def __init__(self, model: CostModel):
        self._model = model
        self._read_kind = RequestKind.READ
        profile = model.profile
        self._profile = profile
        self._hit_us = profile.cache_hit_us
        # Position-independent devices price every miss identically, so the
        # hot path only counts classes; None switches on the per-request
        # seek-aware path.
        self._miss_const_us = (
            None if profile.position_dependent else profile.nominal_read_miss_us
        )
        self._writes_seek = profile.position_dependent and model._writes_touch_device
        self._write_const_us = model.write_cost_us
        self._position: int | None = None
        self._read_hits = 0
        self._read_misses = 0
        self._writes = 0
        self._latency = LatencyStats()

    def _seek_to(self, page: int) -> float:
        """Seek cost of moving the head to *page* (and leave it there).

        The first device access of a run has no known head position and is
        charged the expected random seek.
        """
        if self._position is None:
            seek_us = self._profile.nominal_seek_us
        else:
            seek_us = self._profile.seek_cost_us(abs(page - self._position))
        self._position = page
        return seek_us

    def charge(self, request: "IORequest", hit: bool) -> None:
        """Price one replayed request given its hit/miss outcome."""
        if request.kind is self._read_kind:
            if hit:
                self._read_hits += 1
            elif self._miss_const_us is not None:
                self._read_misses += 1
            else:
                profile = self._profile
                self._latency.record_read(
                    profile.read_base_us
                    + profile.read_transfer_us
                    + self._seek_to(request.page)
                )
        else:
            self._writes += 1
            if self._writes_seek:
                self._latency.total_write_us += self._seek_to(request.page)
        return None

    @property
    def class_counting(self) -> bool:
        """Whether pricing is purely by outcome class (position-independent
        device): :meth:`charge` only bumps counters, so batch consumers may
        fold whole-chunk counts via :meth:`charge_counts` instead.  False on
        seek-aware devices, whose pricing depends on per-request order."""
        return self._miss_const_us is not None

    def charge_counts(self, read_hits: int, read_misses: int, writes: int) -> None:
        """Batch equivalent of *n* :meth:`charge` calls on a class-counting
        accumulator.  Only valid when :attr:`class_counting` is true."""
        self._read_hits += read_hits
        self._read_misses += read_misses
        self._writes += writes

    def price(self, request: "IORequest", hit: bool) -> float:
        """The service time (us) :meth:`charge` would record for this event.

        Same pricing rules, same seek-head walk (seek devices advance the
        head exactly as :meth:`charge` does), but nothing is accumulated —
        the caller owns the sample.  The queueing layer uses this to feed
        per-request service times into its event clock; interleaving
        ``price`` and ``charge`` calls on one accumulator would double-walk
        the head, so each consumer owns its accumulator.
        """
        if request.kind is self._read_kind:
            if hit:
                return self._hit_us
            if self._miss_const_us is not None:
                return self._miss_const_us
            profile = self._profile
            return (
                profile.read_base_us
                + profile.read_transfer_us
                + self._seek_to(request.page)
            )
        if self._writes_seek:
            return self._write_const_us + self._seek_to(request.page)
        return self._write_const_us

    def finalize(self) -> LatencyStats:
        """Fold the class counters into the histogram and return the stats."""
        latency = self._latency
        if self._read_hits:
            latency.record_read(self._hit_us, self._read_hits)
            self._read_hits = 0
        if self._read_misses:
            latency.record_read(self._miss_const_us, self._read_misses)
            self._read_misses = 0
        if self._writes:
            latency.record_write(self._write_const_us, self._writes)
            self._writes = 0
        return latency

    def shard_latencies(self) -> tuple[LatencyStats, ...]:
        """Per-shard breakdown; empty for this single-device accumulator."""
        return ()


class ShardedCostAccumulator:
    """Seek-aware accounting for a sharded cluster: one head per shard.

    Each request is routed with the cluster's own router (a pure function
    of the request — and :meth:`charge` runs after the facade's ``access``,
    so stateful routers have already made their assignment) to a per-shard
    :class:`CostAccumulator`, keeping every shard's seek head independent.
    :meth:`finalize` returns the merged fleet view — which is therefore
    *exactly* the sum of the per-shard breakdowns exposed by
    :meth:`shard_latencies` — priced with the same per-request seek walk as
    an unsharded policy, so unified-vs-cluster comparisons measure the
    topology, not the pricing method.
    """

    __slots__ = ("_router", "_shards", "_finalized")

    def __init__(self, model: CostModel, router: "ShardRouter", shard_count: int):
        self._router = router
        self._shards = [CostAccumulator(model) for _ in range(shard_count)]
        self._finalized: tuple[LatencyStats, ...] | None = None

    def charge(self, request: "IORequest", hit: bool) -> None:
        self._shards[self._router.route(request)].charge(request, hit)

    def finalize(self) -> LatencyStats:
        self._finalized = tuple(shard.finalize() for shard in self._shards)
        return LatencyStats.merge_all(self._finalized)

    def shard_latencies(self) -> tuple[LatencyStats, ...]:
        """Per-shard latency (exact, per-request); call after :meth:`finalize`."""
        if self._finalized is None:
            raise RuntimeError("finalize() must run before shard_latencies()")
        return self._finalized
