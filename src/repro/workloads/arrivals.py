"""Deterministic, seedable open-loop arrival processes.

The replay engine is *closed-loop*: request ``i+1`` conceptually starts
when request ``i`` finishes, so hit ratios and service times are measured
without any notion of offered load.  Capacity questions ("what happens to
p99 latency as load approaches saturation?") need the *open-loop* view:
requests arrive on their own clock, queue up when the device is busy, and
the arrival clock does not care how the server is doing.  This module
provides that clock.

An :class:`ArrivalProcess` stamps an arrival timestamp (microseconds from
stream start) onto each sequence number of an existing trace stream —
**without changing request order or content**.  The trace stays the
workload's *what*; the arrival process is its *when*.  Three shapes cover
the standard load-testing repertoire:

* :class:`PoissonArrivals` — memoryless arrivals at a constant rate, the
  M/·/· baseline with closed-form queueing ground truth;
* :class:`BurstyArrivals` — a two-phase MMPP-style process alternating
  geometric-length bursts and gaps, each phase Poisson at its own rate;
* :class:`DiurnalArrivals` — a sinusoidally rate-modulated process, the
  classic day/night load curve compressed to simulation scale.

Determinism contract (shared with the trace generators): every draw is a
pure function of ``(seed, counter)`` via a splitmix64-style hash — no
hidden RNG state.  Consequences the rest of the stack relies on:

* the same process object always yields the same timestamps (bit for bit,
  any process, any ``jobs=`` count);
* :meth:`ArrivalProcess.scaled` re-rates a process without re-seeding:
  the underlying uniforms are shared, so for Poisson the interarrival
  times scale *pointwise* and queueing delays are monotone in offered
  load path-by-path, not just in expectation (the saturation knee in the
  ``load`` experiment is exact, not sampled).

Processes are frozen dataclasses — hashable, picklable, and cheap to
fingerprint by ``repr`` — so they ride along sweep cells to worker
processes and compose with :class:`~repro.trace.cache.TraceSpec` the same
way phase plans do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator

import numpy as _np

from repro.core import kernel

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "ARRIVAL_KINDS",
    "build_arrivals",
    "unit_uniform",
]

_MASK64 = (1 << 64) - 1
#: splitmix64 increment (golden-ratio odd constant).
_GOLDEN = 0x9E3779B97F4A7C15
#: Stream tag spacing: draws for different sub-streams (interarrivals vs
#: phase lengths) never collide because their state spaces are offset by
#: this odd constant times the stream index.
_STREAM_STRIDE = 0xD1B54A32D192ED03


def _mix64(value: int) -> int:
    """splitmix64 finalizer: avalanche a 64-bit state into output bits."""
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & _MASK64
    return value ^ (value >> 31)


def unit_uniform(seed: int, index: int, stream: int = 0) -> float:
    """The ``index``-th uniform of ``(seed, stream)``, in the *open* (0, 1).

    Counter-based: a pure function of its arguments, so any draw can be
    recomputed (or skipped to) without generating its predecessors.  The
    output is never exactly 0.0 or 1.0, so ``-log(u)`` is always finite
    and positive — interarrival times are strictly positive.
    """
    state = (seed + stream * _STREAM_STRIDE + index * _GOLDEN) & _MASK64
    return ((_mix64(state) >> 11) + 0.5) / (1 << 53)


#: Uniforms generated per block by :func:`_unit_uniforms`.
_UNIFORM_BLOCK = 1024
#: Exact reciprocal of 2**53 — a power of two, so multiplying by it is the
#: same IEEE operation as dividing by ``1 << 53``, bit for bit.
_INV_2_53 = 2.0**-53


def _unit_uniforms(seed: int, stream: int = 0) -> Iterator[float]:
    """Yield ``unit_uniform(seed, 0, stream), unit_uniform(seed, 1, stream), ...``

    Bit-identical to calling :func:`unit_uniform` per index: the splitmix64
    pipeline runs vectorised over ``uint64`` blocks, and every operation
    involved (wrapping 64-bit integer arithmetic, shifts, xors, the exact
    int-to-float conversion of a value below ``2**53``, and scaling by a
    power of two) is exact.
    """
    base = _np.uint64((seed + stream * _STREAM_STRIDE) & _MASK64)
    golden = _np.uint64(_GOLDEN)
    mul1 = _np.uint64(0xBF58476D1CE4E5B9)
    mul2 = _np.uint64(0x94D049BB133111EB)
    start = 0
    while True:
        indexes = _np.arange(start, start + _UNIFORM_BLOCK, dtype=_np.uint64)
        state = base + indexes * golden
        state = (state ^ (state >> _np.uint64(30))) * mul1
        state = (state ^ (state >> _np.uint64(27))) * mul2
        state ^= state >> _np.uint64(31)
        block = (((state >> _np.uint64(11)).astype(_np.float64) + 0.5) * _INV_2_53)
        yield from block.tolist()
        start += _UNIFORM_BLOCK


class ArrivalProcess:
    """One arrival clock: timestamps for sequence numbers 0, 1, 2, ...

    Subclasses are frozen dataclasses; the base class only fixes the
    interface.  Timestamps are microseconds from stream start, strictly
    increasing.
    """

    @property
    def mean_rate_rps(self) -> float:
        """The process's long-run mean arrival rate in requests/second."""
        raise NotImplementedError

    def scaled(self, factor: float) -> "ArrivalProcess":
        """The same process shape (same seed, same uniforms) re-rated by
        *factor* — the offered-load dial of the ``load`` experiment."""
        raise NotImplementedError

    def times(self) -> Iterator[float]:
        """Yield absolute arrival times (us) for sequence numbers 0, 1, 2, ..."""
        raise NotImplementedError

    def clock(self) -> Callable[[int], Any]:
        """A draw of the next *n* arrival times (us), as a float64 array:
        successive calls cover sequence numbers 0, 1, 2, ... in turn."""
        times = self.times()
        return lambda n: _np.fromiter(times, _np.float64, n)

    def _check_rate(self, rate_rps: float, name: str = "rate_rps") -> None:
        if not rate_rps > 0.0 or not math.isfinite(rate_rps):
            raise ValueError(f"{name} must be positive and finite, got {rate_rps}")


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at a constant rate (the M in M/G/c).

    Interarrival ``i`` is ``-ln(u_i) / rate`` with ``u_i`` the counter-based
    uniform of ``(seed, i)`` — exponentially distributed, independent across
    indexes.  Because :meth:`scaled` keeps the uniforms and rescales the
    rate, every interarrival (and hence every queueing delay downstream)
    is pointwise monotone in the rate.
    """

    rate_rps: float
    seed: int = 0

    def __post_init__(self) -> None:
        self._check_rate(self.rate_rps)

    @property
    def mean_rate_rps(self) -> float:
        return self.rate_rps

    def scaled(self, factor: float) -> "PoissonArrivals":
        return replace(self, rate_rps=self.rate_rps * factor)

    def clock(self) -> Callable[[int], Any]:
        # Drawn a block at a time in C: with the uniform u_i of (seed, i),
        # t += -log(u_i) * (1e6 / rate) in index order, with the log
        # CPython's math.log calls, so the times are the same bit for bit.
        return _PoissonClock(self.seed & _MASK64, 1e6 / self.rate_rps)

    def times(self) -> Iterator[float]:
        draw = self.clock()
        while True:
            yield from draw(_UNIFORM_BLOCK).tolist()


class _PoissonClock:
    """Successive blocks of Poisson arrival times, from the kernel
    library's ``poisson_times``."""

    __slots__ = ("_draw", "_base", "_scale_us", "_next", "_time")

    def __init__(self, base: int, scale_us: float):
        self._draw = kernel.load().poisson_times
        self._base = base
        self._scale_us = scale_us
        self._next = 0
        # The running sum: the time of the last drawn arrival.
        self._time = _np.zeros(1, _np.float64)

    def __call__(self, n: int) -> Any:
        out = _np.empty(n, _np.float64)
        self._draw(
            self._base, self._scale_us, self._next, n, kernel.address(self._time),
            kernel.address(out),
        )
        self._next += n
        return out


@dataclass(frozen=True)
class BurstyArrivals(ArrivalProcess):
    """Two-phase MMPP-style bursts: alternating gap/burst Poisson phases.

    The process alternates *gap* phases (rate ``base_rps``) and *burst*
    phases (rate ``burst_rps``), each lasting a geometric-ish number of
    **requests** (an exponential draw of the configured mean, rounded, at
    least 1) so the phase structure is independent of the rate dial —
    :meth:`scaled` re-rates both phases and keeps the exact same phase
    boundaries and uniforms.  Interarrivals within a phase are exponential
    at the phase rate.  Starts in a gap phase.
    """

    base_rps: float
    burst_rps: float
    mean_gap_requests: float = 800.0
    mean_burst_requests: float = 200.0
    seed: int = 0

    #: Sub-stream tag for the phase-length draws (interarrivals use stream 0).
    _PHASE_STREAM = 1

    def __post_init__(self) -> None:
        self._check_rate(self.base_rps, "base_rps")
        self._check_rate(self.burst_rps, "burst_rps")
        for name in ("mean_gap_requests", "mean_burst_requests"):
            if not getattr(self, name) >= 1.0:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    @classmethod
    def with_mean(
        cls,
        rate_rps: float,
        burst_multiplier: float = 5.0,
        mean_gap_requests: float = 800.0,
        mean_burst_requests: float = 200.0,
        seed: int = 0,
    ) -> "BurstyArrivals":
        """A bursty process whose *request-weighted* mean rate is *rate_rps*.

        With mean phase lengths ``n_g``/``n_b`` (in requests) and the burst
        rate ``m`` times the gap rate, the long-run mean rate is
        ``(n_g + n_b) / (n_g / g + n_b / (m g))``; this solves for ``g``.
        """
        if not rate_rps > 0.0:
            raise ValueError(f"rate_rps must be positive, got {rate_rps}")
        if not burst_multiplier >= 1.0:
            raise ValueError(
                f"burst_multiplier must be >= 1, got {burst_multiplier}"
            )
        total = mean_gap_requests + mean_burst_requests
        base = rate_rps * (
            mean_gap_requests + mean_burst_requests / burst_multiplier
        ) / total
        return cls(
            base_rps=base,
            burst_rps=base * burst_multiplier,
            mean_gap_requests=mean_gap_requests,
            mean_burst_requests=mean_burst_requests,
            seed=seed,
        )

    @property
    def mean_rate_rps(self) -> float:
        total = self.mean_gap_requests + self.mean_burst_requests
        busy_time = (
            self.mean_gap_requests / self.base_rps
            + self.mean_burst_requests / self.burst_rps
        )
        return total / busy_time

    def scaled(self, factor: float) -> "BurstyArrivals":
        return replace(
            self,
            base_rps=self.base_rps * factor,
            burst_rps=self.burst_rps * factor,
        )

    def times(self) -> Iterator[float]:
        seed = self.seed
        log = math.log
        gap_scale_us = 1e6 / self.base_rps
        burst_scale_us = 1e6 / self.burst_rps
        t = 0.0
        phase_index = 0
        remaining = 0
        in_burst = True  # toggled to gap before the first request
        scale_us = gap_scale_us
        for u in _unit_uniforms(seed):
            if remaining == 0:
                in_burst = not in_burst
                mean = self.mean_burst_requests if in_burst else self.mean_gap_requests
                draw = unit_uniform(seed, phase_index, self._PHASE_STREAM)
                phase_index += 1
                remaining = max(1, round(-mean * log(draw)))
                scale_us = burst_scale_us if in_burst else gap_scale_us
            t += -log(u) * scale_us
            remaining -= 1
            yield t


@dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """Sinusoidally rate-modulated arrivals: the day/night load curve.

    The instantaneous rate at time ``t`` (seconds) is
    ``mean_rps * (1 + amplitude * sin(2 pi t / period_s))``; interarrival
    ``i`` is an exponential draw at the rate in effect at the previous
    arrival (a standard discretisation of an inhomogeneous Poisson
    process — exact in the limit of many arrivals per period).  The
    *time*-average rate is ``mean_rps``; the request-weighted average is
    slightly higher because more requests land in high-rate stretches.
    """

    mean_rps: float
    amplitude: float = 0.6
    period_s: float = 60.0
    seed: int = 0

    def __post_init__(self) -> None:
        self._check_rate(self.mean_rps, "mean_rps")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError(
                f"amplitude must be in [0, 1) so the rate stays positive, "
                f"got {self.amplitude}"
            )
        if not self.period_s > 0.0:
            raise ValueError(f"period_s must be positive, got {self.period_s}")

    @property
    def mean_rate_rps(self) -> float:
        return self.mean_rps

    def scaled(self, factor: float) -> "DiurnalArrivals":
        return replace(self, mean_rps=self.mean_rps * factor)

    def times(self) -> Iterator[float]:
        seed = self.seed
        log = math.log
        sin = math.sin
        base_rate_per_us = self.mean_rps / 1e6
        amplitude = self.amplitude
        omega = 2.0 * math.pi / (self.period_s * 1e6)
        t = 0.0
        for u in _unit_uniforms(seed):
            rate = base_rate_per_us * (1.0 + amplitude * sin(omega * t))
            t += -log(u) / rate
            yield t


#: The arrival shapes selectable by name (the ``--arrival`` CLI flag).
ARRIVAL_KINDS: tuple[str, ...] = ("poisson", "bursty", "diurnal")


def build_arrivals(kind: str, rate_rps: float, seed: int = 0) -> ArrivalProcess:
    """Build a named arrival shape with mean rate *rate_rps*.

    ``poisson`` is the constant-rate baseline; ``bursty`` alternates 5x
    bursts with quiet gaps at the same long-run mean; ``diurnal`` swings
    +-60% around the mean over a 60-second period.
    """
    if kind == "poisson":
        return PoissonArrivals(rate_rps=rate_rps, seed=seed)
    if kind == "bursty":
        return BurstyArrivals.with_mean(rate_rps, seed=seed)
    if kind == "diurnal":
        return DiurnalArrivals(mean_rps=rate_rps, seed=seed)
    raise ValueError(f"unknown arrival kind {kind!r}; available: {ARRIVAL_KINDS}")
