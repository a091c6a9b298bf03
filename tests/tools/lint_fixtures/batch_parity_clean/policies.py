"""Batch-parity clean fixture: every batch kernel is reachable from the
parity suite — RegisteredBatchPolicy and HintAwareBatchPolicy through the
registry, NamedBatchPolicy by explicit mention in the suite."""


class AccessOutcomeBatch:
    pass


class CachePolicy:
    def batch_access(self, chunk) -> AccessOutcomeBatch:
        return AccessOutcomeBatch()


class RegisteredBatchPolicy(CachePolicy):
    def __init__(self, capacity: int) -> None:
        self.capacity = capacity

    def batch_access(self, chunk) -> AccessOutcomeBatch:
        return AccessOutcomeBatch()


class HintAwareBatchPolicy(CachePolicy):
    """The CLIC-shaped case: a hint-aware kernel that defers tracker updates
    to segment boundaries.  Registered, so the suite reaches it through
    ``available_policies()`` like any other fused kernel."""

    hint_aware = True

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.tracked: dict = {}

    def batch_access(self, chunk) -> AccessOutcomeBatch:
        for hint_key in getattr(chunk, "hint_sets", ()):
            self.tracked[hint_key] = self.tracked.get(hint_key, 0) + 1
        return AccessOutcomeBatch()


class NamedBatchPolicy(CachePolicy):
    def __init__(self, capacity: int) -> None:
        self.capacity = capacity

    def batch_access(self, chunk) -> AccessOutcomeBatch:
        return AccessOutcomeBatch()
