"""Contracts of the deterministic arrival processes.

The load experiment leans on two promises: arrival times are *pure
functions* of ``(seed, sequence index)`` (no hidden RNG state), and
``scaled()`` rescales the rate while keeping the underlying uniforms (which
is what makes queueing delays pathwise monotone in offered load).
"""

from __future__ import annotations

import math
import pickle
from itertools import cycle, islice

import pytest

from repro.workloads.arrivals import (
    _UNIFORM_BLOCK,
    ARRIVAL_KINDS,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    _unit_uniforms,
    build_arrivals,
    unit_uniform,
)

ALL_PROCESSES = [
    PoissonArrivals(8_000.0, seed=3),
    BurstyArrivals.with_mean(8_000.0, seed=3),
    DiurnalArrivals(8_000.0, amplitude=0.5, period_s=2.0, seed=3),
]
PROCESS_IDS = [type(process).__name__ for process in ALL_PROCESSES]


def _take(process, n: int) -> list[float]:
    return list(islice(process.times(), n))


class TestUnitUniform:
    def test_open_interval_and_determinism(self):
        values = [unit_uniform(seed=9, index=i) for i in range(2_000)]
        assert all(0.0 < value < 1.0 for value in values)
        assert values == [unit_uniform(seed=9, index=i) for i in range(2_000)]

    def test_streams_are_independent(self):
        a = [unit_uniform(seed=9, index=i, stream=0) for i in range(100)]
        b = [unit_uniform(seed=9, index=i, stream=1) for i in range(100)]
        assert a != b

    def test_mean_is_half(self):
        values = [unit_uniform(seed=1, index=i) for i in range(20_000)]
        assert sum(values) / len(values) == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("stream", [0, 1, 3])
    @pytest.mark.parametrize("seed", [0, 17, 2**63 - 1, 2**64 - 5])
    def test_vectorised_blocks_equal_the_scalar_draws(self, seed, stream):
        """The uint64 block pipeline every arrival clock reads is the scalar
        :func:`unit_uniform` per index, bit for bit, across block edges and
        for seeds whose 64-bit arithmetic wraps."""
        n = 2 * _UNIFORM_BLOCK + 7
        assert list(islice(_unit_uniforms(seed, stream), n)) == [
            unit_uniform(seed, index, stream) for index in range(n)
        ]


class TestPoissonBlocks:
    @pytest.mark.parametrize("rate", [900.0, 47_000.0])
    @pytest.mark.parametrize("seed", [0, 2**64 - 5])
    def test_block_draws_equal_the_scalar_running_sum(self, seed, rate):
        """Poisson arrival times are drawn in C blocks with libm's log; they
        equal the per-index :func:`unit_uniform` and :func:`math.log`
        running sum bit for bit, in blocks of any size."""
        n = 200_000
        scale_us = 1e6 / rate
        t = 0.0
        expected = []
        for index in range(n):
            t += -math.log(unit_uniform(seed, index)) * scale_us
            expected.append(t)
        draw = PoissonArrivals(rate, seed=seed).clock()
        drawn: list[float] = []
        sizes = cycle([1, 4_096, 333, 7])
        while len(drawn) < n:
            drawn.extend(draw(min(next(sizes), n - len(drawn))).tolist())
        assert drawn == expected
        assert _take(PoissonArrivals(rate, seed=seed), n) == expected


@pytest.mark.parametrize("process", ALL_PROCESSES, ids=PROCESS_IDS)
class TestCommonContracts:
    def test_deterministic_and_strictly_increasing(self, process):
        first = _take(process, 500)
        second = _take(process, 500)
        assert first == second
        assert all(b > a for a, b in zip(first, first[1:]))
        assert first[0] > 0.0

    def test_scaled_rescales_the_mean_rate(self, process):
        assert process.scaled(2.0).mean_rate_rps == pytest.approx(
            2.0 * process.mean_rate_rps
        )
        assert process.scaled(1.0) == process

    def test_scaled_keeps_the_sample_path(self, process):
        """Doubling the rate halves every Poisson-style gap pathwise; at
        minimum the arrival order and count are preserved and every time
        shrinks (IEEE multiply monotonicity)."""
        base = _take(process, 300)
        fast = _take(process.scaled(2.0), 300)
        assert all(f < b for f, b in zip(fast, base))

    def test_scaled_validation(self, process):
        with pytest.raises(ValueError):
            process.scaled(0.0)
        with pytest.raises(ValueError):
            process.scaled(-1.0)

    def test_hashable_and_picklable(self, process):
        clone = pickle.loads(pickle.dumps(process))
        assert clone == process
        assert hash(clone) == hash(process)
        assert _take(clone, 50) == _take(process, 50)


class TestPoisson:
    def test_measured_rate_matches_nominal(self):
        process = PoissonArrivals(8_000.0, seed=5)
        times = _take(process, 20_000)
        measured = len(times) / times[-1] * 1e6
        assert measured == pytest.approx(8_000.0, rel=0.05)

    def test_interarrivals_are_exponential(self):
        """Moment check: an exponential's standard deviation equals its
        mean (at n=20k the ratio is within a few percent)."""
        times = _take(PoissonArrivals(8_000.0, seed=5), 20_000)
        gaps = [b - a for a, b in zip([0.0] + times, times)]
        mean = sum(gaps) / len(gaps)
        variance = sum((gap - mean) ** 2 for gap in gaps) / len(gaps)
        assert math.sqrt(variance) / mean == pytest.approx(1.0, rel=0.05)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0)
        with pytest.raises(ValueError):
            PoissonArrivals(-5.0)


class TestBursty:
    def test_with_mean_hits_the_requested_rate(self):
        process = BurstyArrivals.with_mean(8_000.0, seed=5)
        assert process.mean_rate_rps == pytest.approx(8_000.0)
        times = _take(process, 40_000)
        measured = len(times) / times[-1] * 1e6
        assert measured == pytest.approx(8_000.0, rel=0.10)

    def test_bursts_are_faster_than_gaps(self):
        process = BurstyArrivals(
            base_rps=1_000.0, burst_rps=20_000.0, seed=5
        )
        assert process.burst_rps > process.base_rps
        # The request-weighted mean sits between the two phase rates.
        assert process.base_rps < process.mean_rate_rps < process.burst_rps

    def test_burstiness_raises_gap_variance_over_poisson(self):
        """Same mean rate, very different second moment: the squared
        coefficient of variation of the gaps must exceed the Poisson
        stream's (which is ~1)."""

        def scv(times):
            gaps = [b - a for a, b in zip([0.0] + times, times)]
            mean = sum(gaps) / len(gaps)
            variance = sum((gap - mean) ** 2 for gap in gaps) / len(gaps)
            return variance / mean**2

        bursty = scv(
            _take(
                BurstyArrivals.with_mean(
                    8_000.0,
                    burst_multiplier=10.0,
                    mean_gap_requests=200.0,
                    seed=5,
                ),
                20_000,
            )
        )
        poisson = scv(_take(PoissonArrivals(8_000.0, seed=5), 20_000))
        assert bursty > 1.5 * poisson


class TestDiurnal:
    def test_gap_lengths_follow_the_cycle(self):
        """Gaps drawn near the peak are systematically shorter than gaps
        drawn near the trough."""
        process = DiurnalArrivals(8_000.0, amplitude=0.8, period_s=0.5, seed=5)
        period_us = 0.5 * 1e6
        peak_gaps, trough_gaps = [], []
        previous = 0.0
        for t in _take(process, 30_000):
            phase = (previous % period_us) / period_us
            if 0.15 < phase < 0.35:
                peak_gaps.append(t - previous)
            elif 0.65 < phase < 0.85:
                trough_gaps.append(t - previous)
            previous = t
        assert peak_gaps and trough_gaps
        assert (sum(peak_gaps) / len(peak_gaps)) < 0.5 * (
            sum(trough_gaps) / len(trough_gaps)
        )

    def test_amplitude_validation(self):
        with pytest.raises(ValueError):
            DiurnalArrivals(1_000.0, amplitude=1.0)
        with pytest.raises(ValueError):
            DiurnalArrivals(1_000.0, amplitude=-0.1)


class TestBuildArrivals:
    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_builds_every_registered_kind(self, kind):
        process = build_arrivals(kind, 5_000.0, seed=7)
        assert process.mean_rate_rps == pytest.approx(5_000.0, rel=1e-6)
        times = _take(process, 10)
        assert len(times) == 10

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown arrival kind"):
            build_arrivals("sawtooth", 5_000.0)
