"""Tests for the rolling (windowed) time-series metrics."""

from __future__ import annotations

import pytest

from repro.cache.arc import ARCPolicy
from repro.cache.lru import LRUPolicy
from repro.simulation.engine import (
    MultiPolicySimulator,
    ParallelSweepRunner,
    PolicySpec,
    SweepCell,
)
from repro.simulation.metrics import RollingMetrics, RollingWindow
from repro.simulation.simulator import CacheSimulator

from tests.conftest import rd, wr


def small_stream(n: int = 1_000):
    return [rd(i % 37) if i % 3 else wr(i % 37) for i in range(n)]


class TestRollingWindow:
    def test_read_hit_ratio(self):
        assert RollingWindow(0, 10, 6, 4, 4, 1, 4).read_hit_ratio == 4 / 6
        assert RollingWindow(0, 0, 0, 0, 0, 0, 0).read_hit_ratio == 0.0


class TestRollingMetrics:
    def test_as_rows_carries_global_window_indices(self):
        metrics = RollingMetrics(
            window=10,
            windows=(
                RollingWindow(5, 5, 5, 1, 0, 0, 0),
                RollingWindow(10, 10, 8, 4, 2, 1, 2),
            ),
        )
        rows = metrics.as_rows()
        assert [row["window"] for row in rows] == [0, 1]
        assert rows[1]["read_hit_ratio"] == 0.5


class TestReplayPathsAgree:
    def test_engine_and_simulator_series_identical(self):
        stream = small_stream(1_234)
        engine = MultiPolicySimulator(
            [LRUPolicy(16), ARCPolicy(16)], rolling_window=100
        ).run(stream)
        for result, policy_cls in zip(engine, (LRUPolicy, ARCPolicy)):
            single = CacheSimulator(policy_cls(16), rolling_window=100).run(stream)
            assert single.rolling == result.rolling

    def test_windows_partition_the_stream(self):
        stream = small_stream(1_234)
        (result,) = MultiPolicySimulator([LRUPolicy(16)], rolling_window=100).run(stream)
        rolling = result.rolling
        assert sum(w.requests for w in rolling.windows) == len(stream)
        assert rolling.starts() == list(range(0, 1_300, 100))
        assert rolling.windows[-1].requests == 34
        # Window sums must reproduce the run totals exactly.
        assert sum(w.read_hits for w in rolling.windows) == result.stats.read_hits
        assert sum(w.evictions for w in rolling.windows) == result.stats.evictions

    def test_rolling_off_leaves_results_unchanged(self):
        stream = small_stream(500)
        with_rolling = MultiPolicySimulator([LRUPolicy(16)], rolling_window=64).run(
            stream
        )[0]
        without = MultiPolicySimulator([LRUPolicy(16)]).run(stream)[0]
        assert without.rolling is None
        assert with_rolling.stats.as_dict() == without.stats.as_dict()
        assert with_rolling.per_client == without.per_client

    def test_window_validation(self):
        with pytest.raises(ValueError, match="rolling_window"):
            MultiPolicySimulator([LRUPolicy(4)], rolling_window=0)
        with pytest.raises(ValueError, match="rolling_window"):
            CacheSimulator(LRUPolicy(4), rolling_window=-3)


class TestRunnerJobsEquivalence:
    def test_jobs_do_not_change_rolling_series(self):
        stream = small_stream(2_000)
        specs = [
            PolicySpec(label=name, name=name, capacity=24)
            for name in ("LRU", "ARC", "TQ", "CLIC")
        ]
        cells = [SweepCell(x=float(i), specs=(s,)) for i, s in enumerate(specs)]

        def run(jobs):
            return ParallelSweepRunner(stream, jobs=jobs, rolling_window=250).run(
                cells, parameter="cell"
            )

        serial, parallel = run(1), run(2)
        for label in serial.labels():
            a = serial.series[label][0].result
            b = parallel.series[label][0].result
            assert a.rolling is not None
            assert a.rolling == b.rolling
            assert a.stats.as_dict() == b.stats.as_dict()
