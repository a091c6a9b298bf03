"""Trace-driven simulation of the storage-server cache."""

from repro.simulation.cluster import (
    ClientAffinityRouter,
    HashRouter,
    ShardedCache,
    ShardRouter,
    make_router,
)
from repro.simulation.costmodel import (
    DEVICE_PROFILES,
    CostModel,
    DeviceProfile,
    LatencyStats,
    make_device_profile,
)
from repro.simulation.engine import (
    MultiPolicySimulator,
    ParallelSweepRunner,
    PolicySpec,
    RequestSource,
    SweepCell,
)
from repro.simulation.metrics import (
    RollingMetrics,
    RollingWindow,
    SimulationResult,
    SweepPoint,
    SweepResult,
    format_table,
)
from repro.simulation.multiclient import (
    InterleavedSource,
    interleave_round_robin,
    partition_capacity,
)
from repro.simulation.queueing import QueueingModel, QueueingObserver, QueueingStats
from repro.simulation.request import IORequest, RequestKind, read_request, write_request
from repro.simulation.simulator import CacheSimulator, simulate
from repro.simulation.sweep import (
    sweep_cache_sizes,
    sweep_policy_parameter,
    sweep_top_k,
)

__all__ = [
    "IORequest",
    "RequestKind",
    "read_request",
    "write_request",
    "CacheSimulator",
    "simulate",
    "CostModel",
    "DeviceProfile",
    "DEVICE_PROFILES",
    "LatencyStats",
    "make_device_profile",
    "MultiPolicySimulator",
    "ParallelSweepRunner",
    "PolicySpec",
    "RequestSource",
    "SweepCell",
    "QueueingModel",
    "QueueingObserver",
    "QueueingStats",
    "RollingMetrics",
    "RollingWindow",
    "SimulationResult",
    "SweepPoint",
    "SweepResult",
    "format_table",
    "InterleavedSource",
    "interleave_round_robin",
    "partition_capacity",
    "ShardedCache",
    "ShardRouter",
    "HashRouter",
    "ClientAffinityRouter",
    "make_router",
    "sweep_cache_sizes",
    "sweep_policy_parameter",
    "sweep_top_k",
]
