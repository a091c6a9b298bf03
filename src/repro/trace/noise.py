"""Synthetic "noise" hint injection (paper Section 6.3).

To study how CLIC copes with useless hints, the paper adds ``T`` synthetic
hint types to every request of an existing trace.  Each injected hint value
is drawn independently from a domain of ``D`` values using a Zipf
distribution with skew ``z = 1``.  Because the injected values are random,
they carry no information about re-reference behaviour; they only *dilute*
the informative hint sets (each original hint set is split into up to
``D**T`` variants), stressing the top-k hint tracking.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.simulation.request import IORequest

__all__ = ["ZipfSampler", "inject_noise_hints"]


class ZipfSampler:
    """Samples integers 0..n-1 with probability proportional to 1/(rank+1)**s."""

    def __init__(self, n: int, skew: float = 1.0, rng: random.Random | None = None):
        if n < 1:
            raise ValueError(f"domain size must be >= 1, got {n}")
        if skew < 0:
            raise ValueError(f"skew must be >= 0, got {skew}")
        # A missing rng must not fall back to OS entropy (the sampler's draws
        # would differ run to run); default to the fixed seed 0 instead.
        self._rng = rng if rng is not None else random.Random(0)
        weights = [1.0 / ((rank + 1) ** skew) for rank in range(n)]
        total = sum(weights)
        self._cumulative: list[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._cumulative.append(acc)
        self._cumulative[-1] = 1.0
        self._n = n

    @property
    def domain_size(self) -> int:
        return self._n

    def sample(self) -> int:
        """Draw one value (0-based rank; rank 0 is the most likely)."""
        u = self._rng.random()
        # Binary search over the cumulative distribution.
        lo, hi = 0, self._n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cumulative[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo


def inject_noise_hints(
    requests: Sequence[IORequest],
    num_types: int,
    domain_size: int = 10,
    skew: float = 1.0,
    seed: int = 0,
    name_prefix: str = "noise",
) -> list[IORequest]:
    """Return a copy of *requests* with ``num_types`` random hint types appended.

    With ``num_types == 0`` the requests are returned unchanged (as new list).
    """
    if num_types < 0:
        raise ValueError("num_types must be >= 0")
    if num_types == 0:
        return list(requests)
    rng = random.Random(seed)
    samplers = [ZipfSampler(domain_size, skew, rng) for _ in range(num_types)]
    names = tuple(f"{name_prefix}_{i}" for i in range(num_types))
    noisy: list[IORequest] = []
    for request in requests:
        values = tuple(sampler.sample() for sampler in samplers)
        noisy.append(
            IORequest(
                page=request.page,
                kind=request.kind,
                hints=request.hints.extended(names, values),
                client_id=request.client_id,
            )
        )
    return noisy
