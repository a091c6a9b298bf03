"""Known-clean fixture: a stateful observer that only writes its own
state."""


class ReplayObserver:
    pass


class CountingObserver(ReplayObserver):
    def __init__(self) -> None:
        self._hits = 0

    def on_outcome(self, request, seq, outcome):
        if outcome.hit:
            self._hits += 1

    def finalize(self):
        return self._hits
