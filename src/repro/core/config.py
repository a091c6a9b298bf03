"""Configuration for the CLIC policy.

Gathers every tunable named in the paper:

* ``window_size`` (``W``, Section 3.2) — priorities are re-estimated every
  ``W`` requests.  The paper uses ``W = 10**6`` against traces of 3M-635M
  requests; the scaled-down standard traces in this repository use smaller
  windows with the same *relative* size.
* ``decay`` (``r``, Equation 3) — exponential smoothing weight for the new
  window's statistics.  The paper uses ``r = 1`` throughout.
* ``outqueue_factor`` (``Noutq`` per cache page, Section 6.1) — the outqueue
  holds ``outqueue_factor * capacity`` entries.  The paper uses 5.
* ``top_k`` (``k``, Section 5) — number of hint sets tracked by the
  Space-Saving algorithm; ``None`` tracks every observed hint set exactly.
* ``charge_metadata`` (Section 6.1) — whether to reduce CLIC's usable cache
  capacity to pay for its per-page metadata, as the paper does (roughly 1%
  for the default parameters), keeping comparisons with metadata-free
  policies fair.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CLICConfig"]


@dataclass(frozen=True)
class CLICConfig:
    """Tunable parameters of :class:`repro.core.clic.CLICPolicy`."""

    window_size: int = 50_000
    decay: float = 1.0
    outqueue_factor: float = 5.0
    top_k: int | None = None
    charge_metadata: bool = True
    #: Bytes of metadata CLIC keeps per tracked page (sequence number + hint
    #: set reference, stored as two 4-byte integers in the paper's costing).
    metadata_bytes_per_page: int = 8
    #: Page size used to convert metadata bytes into page-slots of overhead.
    page_size_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {self.window_size}")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError(f"decay (r) must be in (0, 1], got {self.decay}")
        if self.outqueue_factor < 0:
            raise ValueError(f"outqueue_factor must be >= 0, got {self.outqueue_factor}")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError(f"top_k must be >= 1 or None, got {self.top_k}")
        if self.metadata_bytes_per_page < 0:
            raise ValueError("metadata_bytes_per_page must be >= 0")
        if self.page_size_bytes <= 0:
            raise ValueError("page_size_bytes must be positive")

    def outqueue_capacity(self, cache_capacity: int) -> int:
        """Number of outqueue entries for a cache of ``cache_capacity`` pages."""
        return int(round(self.outqueue_factor * cache_capacity))

    def metadata_overhead_fraction(self) -> float:
        """Fraction of the cache charged for CLIC's tracking metadata.

        CLIC tracks (sequence number, hint set) for every cached page plus
        ``outqueue_factor`` times as many uncached pages, i.e. metadata for
        ``(1 + outqueue_factor) * C`` pages.  With 8 bytes per tracked page
        and 4 KB pages this is ~1.2%, matching the paper's "roughly 1%".
        """
        if not self.charge_metadata:
            return 0.0
        tracked_per_cached_page = 1.0 + self.outqueue_factor
        return tracked_per_cached_page * self.metadata_bytes_per_page / self.page_size_bytes

    def effective_capacity(self, cache_capacity: int) -> int:
        """Usable page slots after charging for metadata (at least 1)."""
        usable = int(cache_capacity * (1.0 - self.metadata_overhead_fraction()))
        return max(1, usable)
