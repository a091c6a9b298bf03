"""Batch-parity bad fixture: OrphanBatchPolicy ships a batch kernel the
parity suite can never reach — it is neither registered nor named in the
suite."""


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


class OrphanBatchPolicy(CachePolicy):
    def __init__(self, capacity: int) -> None:
        self.capacity = capacity

    def batch_access(self, chunk) -> AccessOutcomeBatch:
        return AccessOutcomeBatch()
