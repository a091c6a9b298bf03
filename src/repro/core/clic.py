"""The CLIC storage-server cache replacement policy (Sections 3-5).

CLIC assigns every hint set ``H`` a caching priority ``Pr(H)`` learned
on-line from the read re-reference behaviour of requests that carried ``H``.
Over each window of ``W`` requests it counts ``N(H)``, the requests that
carried ``H``; ``Nr(H)``, those whose page was read again while its
previous request was remembered; and the re-reference distances, whose
mean is ``D(H)``.  When the window closes, ``Pr(H) = (Nr/N) / D`` (Section
3.1), blended with the previous window's value by the decay ``r`` (Section
3.2).  With ``top_k`` set, only the ``k`` hint sets that Space-Saving keeps
are counted (Section 5); the others have priority zero.

The replacement policy (paper Figure 4) then works as follows for a
request ``(p, H)`` with sequence number ``s``:

* if ``p`` is cached, refresh ``seq(p)`` and ``H(p)`` — the most recent
  request always determines a page's priority;
* else, if the cache has free space, admit ``p``;
* else, let ``m`` be the minimum priority over all cached pages and ``v``
  the *oldest* (smallest ``seq``) page with priority ``m``.  If
  ``Pr(H) > m``, evict ``v`` (remembering it in the outqueue) and admit
  ``p``; otherwise do not cache ``p`` and remember it in the outqueue.

All of it runs in C (``_clic_kernel.c``, built and loaded by
:mod:`repro.core.kernel`): the per-request loop over the
constant-expected-time structures the paper describes, the window
statistics and the window close.  Python interns each hint-set key to the
dense hint id the kernel indexes by, once per hint table, and reads the
learned priorities back for inspection.  ``batch_access`` is one kernel
call per chunk.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.config import CLICConfig
from repro.core.hints import HintSet
from repro.core.kernel import KernelPolicy, address

if TYPE_CHECKING:  # imported for type annotations only (avoids an import cycle)
    from repro.trace.columnar import ColumnarChunk

__all__ = ["CLICPolicy"]


class CLICPolicy(KernelPolicy):
    """CLient-Informed Caching replacement policy."""

    name = "CLIC"
    kernel = "clic"
    lookup_key = "hint"

    def __init__(self, capacity: int, config: CLICConfig | None = None):
        super().__init__(capacity)
        self._config = config = config or CLICConfig()
        # The paper charges CLIC for its tracking metadata by shrinking the
        # usable cache (~1% for the default parameters).
        self._effective_capacity = config.effective_capacity(capacity)
        # Interned hint-set keys: hint id -> key and key -> hint id, and the
        # hint ids the kernel has room for.
        self._keys: list[tuple] = []
        self._ids: dict[tuple, int] = {}
        self._room = 0
        # ctypes wraps an int past int64 silently.  The clamps change no
        # result: no replay closes a window of 2**62 requests, and the W
        # requests of a window offer at most W hint sets, so k >= W never
        # recycles a counter.
        window = min(config.window_size, 2**62)
        self._open(
            self._effective_capacity, config.outqueue_capacity(capacity), window,
            config.decay, min(config.top_k or 0, window),
        )

    # ------------------------------------------------------------ properties
    @property
    def config(self) -> CLICConfig:
        return self._config

    @property
    def effective_capacity(self) -> int:
        """Usable page slots after the metadata charge."""
        return self._effective_capacity

    @property
    def windows_completed(self) -> int:
        """How many priority windows have closed."""
        return int(self._lib.clic_windows(self._handle))

    # ------------------------------------------------------------- hint ids
    def _hint_id(self, hints: HintSet) -> int:
        """The interned id of *hints*' key, assigning the next one if it is
        new (:meth:`_reserve` then makes room for it in the kernel)."""
        hint_key = hints.key()
        hint_id = self._ids.get(hint_key)
        if hint_id is None:
            hint_id = self._ids[hint_key] = len(self._keys)
            self._keys.append(hint_key)
        return hint_id

    def _reserve(self) -> None:
        """Make room in the kernel for every interned hint id, before the
        kernel reads one: a failure raises here, not part-way through a
        chunk."""
        hints = len(self._keys)
        if hints > self._room:
            if self._lib.clic_reserve(self._handle, hints):
                raise MemoryError(f"cannot allocate CLIC state for {hints} hint sets")
            self._room = hints

    # --------------------------------------------------------------- replay
    # Bound here so that instrumentation wrapping a class's own methods
    # times CLIC by itself.
    batch_access = KernelPolicy.batch_access

    def _lookup(self, chunk: "ColumnarChunk") -> Any:
        """The interned hint id of each entry of the chunk's hint table."""
        column = self._per_hint_set(chunk, self._hint_id)
        self._reserve()
        return column

    # ------------------------------------------------------------ inspection
    def current_priorities(self) -> dict[tuple, float]:
        """Current Pr(H) assignment (hint-set key -> priority), in hint-id order."""
        ids = np.empty(len(self._keys), np.int64)
        priorities = np.empty(len(self._keys), np.float64)
        n = self._lib.clic_priorities(self._handle, address(ids), address(priorities))
        keys = self._keys
        return dict(zip([keys[i] for i in ids[:n].tolist()], priorities[:n].tolist()))

    def hint_priority(self, hints: HintSet) -> float:
        """Current ``Pr(H)`` for a hint set (zero if unknown)."""
        return self.current_priorities().get(hints.key(), 0.0)
