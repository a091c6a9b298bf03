"""Registry-bad fixture: the invariant suite hardcodes its policy list
instead of deriving it from the registry."""

POLICIES = ["LRU", "ARC"]


def test_all_policies() -> None:
    for name in POLICIES:
        assert name
