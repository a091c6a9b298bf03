"""Known-bad fixture: observer-param-mutation fires on LeakyObserver."""

import numpy as np


class ReplayObserver:
    pass


class LeakyObserver(ReplayObserver):
    def __init__(self) -> None:
        self._hits = 0

    def on_batch(self, chunk, batch):
        batch.hit[0] = True  # observer-param-mutation
        np.logical_or(batch.hit, chunk.write, out=batch.hit)  # observer-param-mutation
        chunk.write.fill(False)  # observer-param-mutation
        self._hits += int(np.count_nonzero(batch.hit))

    def finalize(self):
        return self._hits
