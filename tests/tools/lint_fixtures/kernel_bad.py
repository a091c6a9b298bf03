"""Known-bad fixture: every kernel-contract rule fires on BadPolicy."""


class AccessOutcome:
    pass


class CachePolicy:
    pass


class BadPolicy(CachePolicy):
    def __init__(self, capacity: int) -> None:
        self.capacity = capacity

    def access(self, request, seq):  # kernel-access-outcome: no annotation
        request.page = 0  # kernel-request-mutation
        print("hit")  # kernel-no-io
        if seq < 0:
            return None  # kernel-access-outcome: bare None return
        return AccessOutcome()
