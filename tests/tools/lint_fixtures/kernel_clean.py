"""Known-clean fixture: GoodPolicy satisfies every kernel-contract rule."""


class AccessOutcome:
    pass


class CachePolicy:
    pass


class GoodPolicy(CachePolicy):
    def __init__(self, capacity: int) -> None:
        self.capacity = capacity

    def access(self, request, seq) -> AccessOutcome:
        return AccessOutcome()
