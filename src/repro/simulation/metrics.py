"""Result containers for simulation runs and parameter sweeps."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.cache.base import CacheStats
from repro.simulation.costmodel import LatencyStats
from repro.simulation.queueing import QueueingStats

__all__ = [
    "RollingWindow",
    "RollingMetrics",
    "SimulationResult",
    "SweepPoint",
    "SweepResult",
    "format_table",
    "validate_rolling_window",
]


def validate_rolling_window(rolling_window: int | None) -> int | None:
    """Validate an opt-in rolling window size (``None`` = rolling off)."""
    if rolling_window is None:
        return None
    window = int(rolling_window)
    if window < 1:
        raise ValueError(f"rolling_window must be >= 1, got {rolling_window}")
    return window


@dataclass(frozen=True)
class RollingWindow:
    """Hit/miss/eviction deltas over one window of the request sequence.

    Windows are aligned to sequence numbers: window *i* covers sequence
    numbers ``[i*W, (i+1)*W)``.  The last window of a replay may be partial
    (``requests < W``).
    """

    start: int
    requests: int
    read_requests: int
    read_hits: int
    write_requests: int
    write_hits: int
    evictions: int

    @property
    def read_hit_ratio(self) -> float:
        """Read hits / read requests within this window (0.0 if no reads)."""
        if self.read_requests == 0:
            return 0.0
        return self.read_hits / self.read_requests

    def as_dict(self) -> dict:
        return {
            "start": self.start,
            "requests": self.requests,
            "read_requests": self.read_requests,
            "read_hits": self.read_hits,
            "read_hit_ratio": self.read_hit_ratio,
            "write_requests": self.write_requests,
            "write_hits": self.write_hits,
            "evictions": self.evictions,
        }


@dataclass(frozen=True)
class RollingMetrics:
    """Windowed time series of one policy's behaviour over one replay.

    The opt-in rolling view of a run (``rolling_window=`` on the engine,
    the single-policy simulator and the sweep runner): one
    :class:`RollingWindow` per ``window``-sized slice of the sequence-number
    space, in order.  Because windows are functions of sequence numbers
    only, the series is bit-identical at any chunking and any ``jobs=``
    count.
    """

    window: int
    windows: tuple[RollingWindow, ...] = ()

    def window_index(self, entry: RollingWindow) -> int:
        """The global index of *entry* in the sequence-number space."""
        return entry.start // self.window

    # ---------------------------------------------------------------- series
    def starts(self) -> list[int]:
        return [entry.start for entry in self.windows]

    def read_hit_ratios(self) -> list[float]:
        """The windowed read-hit-ratio time series, in window order."""
        return [entry.read_hit_ratio for entry in self.windows]

    def as_rows(self) -> list[dict]:
        """One row per window (for CSV output or tabular printing)."""
        return [
            {"window": self.window_index(entry), **entry.as_dict()}
            for entry in self.windows
        ]


@dataclass
class SimulationResult:
    """Outcome of driving one policy over one request stream.

    ``per_shard`` is filled when the policy is a sharded cluster
    (:class:`~repro.simulation.cluster.ShardedCache`): one stats snapshot
    per shard, in shard order.  It stays empty for ordinary policies.

    ``latency`` is filled when the run was priced by a
    :class:`~repro.simulation.costmodel.CostModel` (opt-in): modeled read
    latency (mean / p50 / p99 over a fixed-bucket histogram), write service
    time and modeled throughput for this run's requests.  ``None`` for
    un-priced runs.  ``shard_latency`` is the per-shard breakdown (each
    shard its own device, with its own seek head or its own counts) when
    the run was priced *and* the policy is a sharded cluster.

    ``rolling`` is filled when the replay opted into windowed time-series
    accounting (``rolling_window=``): the per-window hit-ratio/eviction
    series (:class:`RollingMetrics`), bit-identical at any ``--jobs``.

    ``queueing`` is filled when the replay opted into open-loop queueing
    (``queueing_model=``): queueing-delay / sojourn-time / utilization
    accounting under the model's arrival process
    (:class:`~repro.simulation.queueing.QueueingStats`).  ``None`` for
    closed-loop runs.
    """

    policy_name: str
    capacity: int
    stats: CacheStats
    per_client: dict[str, CacheStats] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    per_shard: tuple[CacheStats, ...] = ()
    latency: LatencyStats | None = None
    shard_latency: tuple[LatencyStats, ...] = ()
    rolling: RollingMetrics | None = None
    queueing: QueueingStats | None = None

    @property
    def read_hit_ratio(self) -> float:
        return self.stats.read_hit_ratio

    @property
    def requests(self) -> int:
        return self.stats.requests

    def client_read_hit_ratio(self, client_id: str) -> float:
        """Read hit ratio restricted to one client's requests (Section 6.4)."""
        stats = self.per_client.get(client_id)
        return 0.0 if stats is None else stats.read_hit_ratio

    # ------------------------------------------------------ per-shard views
    @property
    def shard_count(self) -> int:
        return len(self.per_shard)

    @property
    def shard_read_hit_ratios(self) -> list[float]:
        """Read hit ratio of each shard, in shard order."""
        return [stats.read_hit_ratio for stats in self.per_shard]

    @property
    def shard_request_counts(self) -> list[int]:
        """Requests routed to each shard, in shard order."""
        return [stats.requests for stats in self.per_shard]

    @property
    def load_imbalance(self) -> float:
        """Max-over-mean shard load: 1.0 is perfectly balanced.

        A shard serving no requests drags the mean down, so idle shards push
        the statistic up (e.g. 2 busy + 2 idle shards -> 2.0).  Unsharded
        results (and clusters that saw no requests) report 1.0.
        """
        counts = self.shard_request_counts
        total = sum(counts)
        if not counts or total == 0:
            return 1.0
        return max(counts) * len(counts) / total

    # ------------------------------------------------------- modeled latency
    @property
    def mean_read_latency_us(self) -> float:
        """Modeled mean read latency in microseconds (0.0 if un-priced)."""
        latency = self.effective_latency
        return 0.0 if latency is None else latency.mean_read_us

    @property
    def p99_read_latency_us(self) -> float:
        """Modeled p99 read latency in microseconds (0.0 if un-priced)."""
        latency = self.effective_latency
        return 0.0 if latency is None else latency.p99_read_us

    @property
    def cluster_latency(self) -> LatencyStats | None:
        """Merged per-shard latency: the fleet priced as independent devices.

        Composes the per-shard breakdowns, so each shard keeps its own
        device — the right aggregate for cluster-vs-unified comparisons.
        Priced cluster runs track one seek head per shard, so this equals
        ``latency``; it exists as the explicit fleet view and remains the
        one every reporting surface uses.  ``None`` for un-priced or
        unsharded results.
        """
        if not self.shard_latency:
            return None
        return LatencyStats.merge_all(self.shard_latency)

    @property
    def effective_latency(self) -> LatencyStats | None:
        """The latency view every reporting surface uses.

        For sharded priced results this is :attr:`cluster_latency` (the
        fleet as independent devices); otherwise the run's own
        :attr:`latency`.  Keeps ``as_dict()``/sweep rows consistent with
        the latency experiment.
        """
        cluster = self.cluster_latency
        return cluster if cluster is not None else self.latency

    @property
    def hottest_shard_penalty(self) -> float:
        """Max-over-mean modeled shard busy time: the queueing skew statistic.

        The hottest shard of a fleet accumulates the deepest queue; modeling
        each shard as its own device, this is how much more service time the
        busiest shard owes than the average shard (1.0 = perfectly even, the
        per-shard analogue of :attr:`load_imbalance` weighted by request
        *cost* instead of request count).  1.0 for un-priced or unsharded
        results.
        """
        busy = [latency.total_us for latency in self.shard_latency]
        total = sum(busy)
        if not busy or total == 0.0:
            return 1.0
        return max(busy) * len(busy) / total

    @property
    def cluster_throughput_rps(self) -> float:
        """Modeled fleet throughput: shards serve in parallel, the hottest gates.

        0.0 for un-priced or unsharded results (use
        ``latency.throughput_rps`` for a single server).
        """
        if not self.shard_latency:
            return 0.0
        slowest = max(latency.busy_seconds for latency in self.shard_latency)
        if slowest <= 0.0:
            return 0.0
        return sum(latency.request_count for latency in self.shard_latency) / slowest

    def as_dict(self) -> dict:
        row = {
            "policy": self.policy_name,
            "capacity": self.capacity,
            "read_hit_ratio": self.read_hit_ratio,
            "elapsed_seconds": self.elapsed_seconds,
            **self.stats.as_dict(),
        }
        if self.per_shard:
            row["shards"] = self.shard_count
            row["load_imbalance"] = self.load_imbalance
            row["shard_read_hit_ratios"] = self.shard_read_hit_ratios
            row["shard_request_counts"] = self.shard_request_counts
        if self.latency is not None:
            row.update(self.effective_latency.as_dict())
        if self.shard_latency:
            row["hottest_shard_penalty"] = self.hottest_shard_penalty
            row["cluster_throughput_rps"] = self.cluster_throughput_rps
        if self.queueing is not None:
            row.update(self.queueing.report_columns())
        return row

    def __str__(self) -> str:
        return (
            f"{self.policy_name}(capacity={self.capacity}): "
            f"read hit ratio {self.read_hit_ratio:.2%} "
            f"({self.stats.read_hits}/{self.stats.read_requests} reads)"
        )


@dataclass(frozen=True)
class SweepPoint:
    """One (x, result) sample of a parameter sweep."""

    x: float
    result: SimulationResult

    @property
    def read_hit_ratio(self) -> float:
        return self.result.read_hit_ratio


@dataclass
class SweepResult:
    """A family of sweep curves, one per policy (or per configuration label)."""

    parameter: str
    series: dict[str, list[SweepPoint]] = field(default_factory=dict)

    def add(self, label: str, x: float, result: SimulationResult) -> None:
        self.series.setdefault(label, []).append(SweepPoint(x=x, result=result))

    def labels(self) -> list[str]:
        return list(self.series)

    def xs(self, label: str) -> list[float]:
        return [point.x for point in self.series[label]]

    def hit_ratios(self, label: str) -> list[float]:
        return [point.read_hit_ratio for point in self.series[label]]

    def curve(self, label: str) -> list[tuple[float, float]]:
        """The (x, read hit ratio) samples for one series."""
        return [(point.x, point.read_hit_ratio) for point in self.series[label]]

    def mean_read_latencies(self, label: str) -> list[float]:
        """Modeled mean read latency (us) per point (0.0 for un-priced points)."""
        return [point.result.mean_read_latency_us for point in self.series[label]]

    def as_rows(self) -> list[dict]:
        """Flatten into rows suitable for CSV output or tabular printing.

        Points priced by a cost model additionally carry the modeled-latency
        columns (mean/p50/p99 read latency, throughput); un-priced sweeps
        emit exactly the historical hit-ratio rows.
        """
        rows = []
        for label, points in self.series.items():
            for point in points:
                row = {
                    "series": label,
                    self.parameter: point.x,
                    "read_hit_ratio": point.read_hit_ratio,
                }
                latency = point.result.effective_latency
                if latency is not None:
                    row.update(latency.report_columns())
                queueing = point.result.queueing
                if queueing is not None:
                    row.update(queueing.report_columns())
                rows.append(row)
        return rows

    def to_table(self) -> str:
        """Render as a text table: one row per x value, one column per series.

        Every point is rendered, consistently with :meth:`as_rows`: a series
        with several points at the same x (e.g. repeated runs) gets one
        table row per duplicate, in insertion order, instead of silently
        collapsing to the last value.
        """
        labels = self.labels()
        lookup: dict[tuple[str, float], list[float]] = {}
        for label, points in self.series.items():
            for point in points:
                lookup.setdefault((label, point.x), []).append(point.read_hit_ratio)
        xs = sorted({x for _, x in lookup})
        header = [self.parameter] + labels
        rows: list[list[str]] = []
        for x in xs:
            depth = max((len(lookup.get((label, x), ())) for label in labels), default=0)
            for index in range(depth):
                row = [f"{x:g}"]
                for label in labels:
                    values = lookup.get((label, x), ())
                    row.append(f"{values[index]:.2%}" if index < len(values) else "-")
                rows.append(row)
        return format_table(header, rows)


def format_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render a simple fixed-width text table."""
    columns = [list(map(str, col)) for col in zip(header, *rows)] if rows else [[h] for h in header]
    widths = [max(len(cell) for cell in col) for col in columns]
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths))
    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
