"""Known-clean fixture: a stateful observer that only writes its own
state."""

import numpy as np


class ReplayObserver:
    pass


class CountingObserver(ReplayObserver):
    def __init__(self) -> None:
        self._hits = 0
        self._read_hits = np.zeros(0, np.bool_)

    def on_batch(self, chunk, batch):
        self._read_hits = np.empty(len(chunk), np.bool_)
        np.logical_and(batch.hit, ~chunk.write, out=self._read_hits)
        pages = np.sort(chunk.page)
        pages.fill(0)
        self._hits += int(np.count_nonzero(self._read_hits))

    def finalize(self):
        return self._hits
