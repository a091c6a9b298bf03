"""Known-bad fixture: observer-param-mutation fires on LeakyObserver."""


class ReplayObserver:
    pass


class LeakyObserver(ReplayObserver):
    def __init__(self) -> None:
        self._hits = 0

    def on_outcome(self, request, seq, outcome):
        outcome.hit = True  # observer-param-mutation
        self._hits += 1

    def finalize(self):
        return self._hits
