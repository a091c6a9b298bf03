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
  each device's head stays where its previous device access left it;
* **write** — under ``write-through`` the device write is on the critical
  path (``write_us``, plus the seek on seek devices, which also moves the
  head); under ``write-back`` the write is absorbed by the server cache at
  ``cache_hit_us`` and destaging happens off the critical path (not
  modeled).

A position-independent device (SSD, NVMe) has one cost per pricing class,
so a run is priced from its hit/miss counts
(:meth:`CostModel.latency_from_stats`); on a seek device :class:`SeekWalk`
walks the heads (one per shard) over each chunk's columns.

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
from typing import Any, Iterable, Sequence

import numpy as _np

from repro.cache.base import CacheStats

__all__ = [
    "DeviceProfile",
    "DEVICE_PROFILES",
    "make_device_profile",
    "WRITE_POLICIES",
    "LatencyStats",
    "CostModel",
    "SeekWalk",
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
_BOUNDS_US = _np.array(HISTOGRAM_BUCKET_BOUNDS_US)


def _bucket_index(latency_us: float) -> int:
    """Index of the first bucket whose upper bound is >= *latency_us*."""
    return min(bisect_left(HISTOGRAM_BUCKET_BOUNDS_US, latency_us), _LAST_BUCKET)


def empty_histogram() -> list[int]:
    """A zero count per bucket of :data:`HISTOGRAM_BUCKET_BOUNDS_US`."""
    return [0] * len(HISTOGRAM_BUCKET_BOUNDS_US)


def histogram_percentile(histogram: Sequence[int], count: int, quantile: float) -> float:
    """Upper bound of the bucket the *quantile* of the *count* samples in
    *histogram* falls in (0.0 when empty): exact whenever a pricing class
    maps to a single bucket."""
    if not 0.0 <= quantile <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {quantile}")
    if count == 0:
        return 0.0
    rank = quantile * count
    cumulative = 0
    for index, bucket in enumerate(histogram):
        cumulative += bucket
        if cumulative >= rank and bucket:
            return HISTOGRAM_BUCKET_BOUNDS_US[index]
    return HISTOGRAM_BUCKET_BOUNDS_US[_LAST_BUCKET]


def running_sum(total: float, amounts: Any) -> float:
    """*total* plus each of *amounts* in order, rounded after every add as a
    scalar loop rounds it (``cumsum`` is sequential; ``np.sum`` is pairwise)."""
    if not len(amounts):
        return total
    return float(_np.cumsum(_np.concatenate(([total], amounts)))[-1])


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
    read_histogram: list[int] = field(default_factory=empty_histogram)

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
        """Read-latency quantile (e.g. ``0.99``) from the fixed-bucket
        histogram (see :func:`histogram_percentile`)."""
        return histogram_percentile(self.read_histogram, self.read_count, quantile)

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

    def record_reads(self, latencies_us: Any) -> None:
        """Record one read per value of *latencies_us*, in order: the same
        sums and buckets as one :meth:`record_read` call per value."""
        if not len(latencies_us):
            return
        self.read_count += len(latencies_us)
        self.total_read_us = running_sum(self.total_read_us, latencies_us)
        buckets = _np.minimum(_np.searchsorted(_BOUNDS_US, latencies_us), _LAST_BUCKET)
        counts = _np.bincount(buckets, minlength=len(_BOUNDS_US)).tolist()
        self.read_histogram = [a + b for a, b in zip(self.read_histogram, counts)]

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
            if page_span < 1:
                raise ValueError(f"page_span must be >= 1, got {page_span}")
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
    def writes_touch_device(self) -> bool:
        """Whether a write reaches the device (and moves a seek head)."""
        return self.write_policy == "write-through"

    # ------------------------------------------------------------- derivation
    def latency_from_stats(self, stats: CacheStats) -> LatencyStats:
        """Analytically price a finished run from its hit/miss counts.

        For position-independent devices this *is* the pricing (every
        pricing class has one cost), which is what makes re-pricing a
        finished replay against another such device free.  For seek devices
        it prices every device access at the expected random seek
        (:attr:`DeviceProfile.nominal_read_miss_us`) — a position-free
        approximation; the head walk (:class:`SeekWalk`, one head per shard
        of a cluster) is the exact path.
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
            if self.writes_touch_device:
                write_us += profile.nominal_seek_us
            latency.record_write(write_us, stats.write_requests)
        return latency

    def shard_latencies(
        self, per_shard: Iterable[CacheStats]
    ) -> tuple[LatencyStats, ...]:
        """Per-shard latency breakdown (each shard its own device)."""
        return tuple(self.latency_from_stats(stats) for stats in per_shard)


class SeekWalk:
    """A seek device's head walk over one stream: one head per shard.

    :meth:`seeks` prices, chunk by chunk in stream order, the seek of every
    request that reaches the device (a read miss; under ``write-through``
    every write too).  A shard's first device access costs
    :attr:`DeviceProfile.nominal_seek_us`; every later one
    :meth:`DeviceProfile.seek_cost_us` of its distance from the page the
    shard's head last reached, in whichever chunk.  Each consumer walks
    its own heads.
    """

    __slots__ = ("_model", "_heads")

    def __init__(self, model: CostModel, shards: int = 1):
        if not model.profile.position_dependent:
            raise ValueError(f"device {model.profile.name!r} has no seek head to walk")
        self._model = model
        #: Each shard's head page; ``None`` until the shard's first access.
        self._heads: list[int | None] = [None] * shards

    def seeks(self, page: Any, write: Any, hit: Any, shards: Any = None) -> Any:
        """The seek time (us) of each request of one chunk, 0.0 for those
        that stay off the device.  *shards* holds each request's shard id
        (``None``: every request is on shard 0)."""
        profile = self._model.profile
        moves = ~(write | hit)
        if self._model.writes_touch_device:
            moves |= write
        seek = _np.zeros(len(page))
        for shard, head in enumerate(self._heads):
            at = _np.flatnonzero(moves if shards is None else moves & (shards == shard))
            if not len(at):
                continue
            pages = page[at]
            previous = _np.empty_like(pages)
            previous[0] = pages[0] if head is None else head
            previous[1:] = pages[:-1]
            # The larger minus the smaller, read unsigned: exact for any
            # int64 pages, as the scalar ``abs(page - head)`` is.
            distance = (
                _np.maximum(pages, previous) - _np.minimum(pages, previous)
            ).view(_np.uint64)
            span = profile.seek_span
            walked = profile.seek_us * _np.sqrt(_np.minimum(distance, span) / span)
            if head is None:
                walked[0] = profile.nominal_seek_us
            seek[at] = walked
            self._heads[shard] = int(pages[-1])
        return seek

    def service_us(self, page: Any, write: Any, hit: Any, shards: Any = None) -> Any:
        """Each request's service time (us) under the pricing rules: the
        hit cost, a miss's read cost plus its seek, or the write cost plus
        the write's seek.  Advances the heads like :meth:`seeks`."""
        model = self._model
        profile = model.profile
        seek = self.seeks(page, write, hit, shards)
        miss_us = profile.read_base_us + profile.read_transfer_us
        return _np.where(
            write,
            model.write_cost_us + seek,
            _np.where(hit, profile.cache_hit_us, miss_us + seek),
        )
