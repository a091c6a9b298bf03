"""Known-bad fixture: both observer-purity rules fire on LeakyObserver;
observer-merge-required also fires on BatchLeakyObserver, which accumulates
only in on_batch."""


class ReplayObserver:
    pass


class LeakyObserver(ReplayObserver):
    def __init__(self) -> None:
        self._hits = 0

    def on_outcome(self, request, seq, outcome):
        outcome.hit = True  # observer-param-mutation
        self._hits += 1  # accumulates state, but merge() is missing

    def finalize(self):
        return self._hits


class BatchLeakyObserver(ReplayObserver):
    def __init__(self) -> None:
        self._hits = 0

    def on_batch(self, chunk, batch):
        self._hits += int(batch.hit.sum())  # accumulates, but merge() is missing

    def finalize(self):
        return self._hits
