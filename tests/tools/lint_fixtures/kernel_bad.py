"""Known-bad fixture: every kernel-contract rule fires on BadPolicy, and
kernel-access-outcome on ScalarOnlyPolicy, which replays request by request
and has no batch_access()."""

import numpy as np


class AccessOutcome:
    pass


class AccessOutcomeBatch:
    pass


class CachePolicy:
    pass


class BadPolicy(CachePolicy):
    def __init__(self, capacity: int) -> None:
        self.capacity = capacity

    def batch_access(self, chunk):  # kernel-access-outcome: no annotation
        chunk.page[0] = 0  # kernel-request-mutation
        np.add(chunk.seq, 1, out=chunk.seq)  # kernel-request-mutation
        chunk.hint_id.fill(0)  # kernel-request-mutation
        setattr(chunk, "write", None)  # kernel-request-mutation
        print("hit")  # kernel-no-io
        if not len(chunk):
            return None  # kernel-access-outcome: bare None return
        return AccessOutcomeBatch()


class ScalarOnlyPolicy(CachePolicy):  # kernel-access-outcome: no batch_access
    def __init__(self, capacity: int) -> None:
        self.capacity = capacity

    def access(self, request, seq) -> AccessOutcome:
        return AccessOutcome()
