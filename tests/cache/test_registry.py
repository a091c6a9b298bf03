"""Tests for the policy registry."""

from __future__ import annotations

import pytest

from repro.cache import registry
from repro.cache.base import CachePolicy
from repro.cache.lru import LRUPolicy
from repro.cache.registry import (
    PAPER_POLICIES,
    available_policies,
    create_policy,
    register_policy,
)
from repro.core.kernel import KernelPolicy
from repro.simulation.cluster import ShardedCache


class TestRegistry:
    def test_paper_policies_all_registered(self):
        names = set(available_policies())
        assert set(PAPER_POLICIES) <= names

    def test_create_policy_builds_correct_type(self):
        policy = create_policy("LRU", capacity=10)
        assert isinstance(policy, LRUPolicy)
        assert policy.capacity == 10

    def test_lookup_is_case_insensitive(self):
        assert isinstance(create_policy("lru", capacity=4), LRUPolicy)
        assert isinstance(create_policy("Clic", capacity=4), CachePolicy)

    def test_unknown_policy_raises_keyerror(self):
        with pytest.raises(KeyError):
            create_policy("NOPE", capacity=4)

    def test_kwargs_forwarded_to_factory(self):
        policy = create_policy("TQ", capacity=4, cache_recovery_writes=True)
        assert policy._cache_recovery_writes is True

    def test_register_custom_policy(self, monkeypatch):
        class AlwaysEmpty(LRUPolicy):
            name = "EMPTY-TEST"

        # A private copy of the registry, so the policy leaves with the test.
        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
        register_policy("EMPTY-TEST", AlwaysEmpty, overwrite=True)
        assert isinstance(create_policy("EMPTY-TEST", capacity=2), AlwaysEmpty)

    def test_duplicate_registration_rejected_without_overwrite(self):
        with pytest.raises(ValueError):
            register_policy("LRU", LRUPolicy)

    def test_builtin_policies_have_batch_kernels(self):
        """The replay runs every built-in policy through a fused kernel: a
        paper policy through its C kernel's call, the cluster through its
        shard kernels' cluster call."""
        for name in PAPER_POLICIES:
            policy_class = type(create_policy(name, capacity=8))
            assert policy_class.batch_access is KernelPolicy.batch_access, name
        assert type(create_policy("SHARDED", capacity=8)).batch_access is ShardedCache.batch_access

    def test_clic_created_with_default_config(self):
        policy = create_policy("CLIC", capacity=100)
        assert policy.name == "CLIC"
        assert policy.capacity == 100
