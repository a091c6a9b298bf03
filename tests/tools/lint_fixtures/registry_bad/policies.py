"""Registry-bad fixture: OrphanPolicy is never mentioned in registry.py."""


class AccessOutcomeBatch:
    pass


class CachePolicy:
    pass


class OrphanPolicy(CachePolicy):
    def __init__(self, capacity: int) -> None:
        self.capacity = capacity

    def batch_access(self, chunk) -> AccessOutcomeBatch:
        return AccessOutcomeBatch()
