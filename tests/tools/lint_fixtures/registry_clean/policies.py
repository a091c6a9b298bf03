"""Registry-clean fixture: GoodPolicy is registered by name."""


class AccessOutcomeBatch:
    pass


class CachePolicy:
    pass


class GoodPolicy(CachePolicy):
    def __init__(self, capacity: int) -> None:
        self.capacity = capacity

    def batch_access(self, chunk) -> AccessOutcomeBatch:
        return AccessOutcomeBatch()
