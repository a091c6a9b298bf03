"""Known-clean fixture: GoodPolicy satisfies every kernel-contract rule."""


class AccessOutcomeBatch:
    pass


class CachePolicy:
    pass


class GoodPolicy(CachePolicy):
    def __init__(self, capacity: int) -> None:
        self.capacity = capacity

    def batch_access(self, chunk) -> AccessOutcomeBatch:
        pages = chunk.page.copy()
        pages.sort()
        return AccessOutcomeBatch()
