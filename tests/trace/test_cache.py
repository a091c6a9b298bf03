"""Tests for the on-disk trace cache and the TraceSpec lazy source."""

from __future__ import annotations

import os
import pickle

import pytest

from repro.cache.opt import OPTPolicy
from repro.simulation.simulator import CacheSimulator
from repro.trace.cache import (
    CACHE_ENV_VAR,
    TraceCache,
    TraceSpec,
    default_trace_cache,
    set_default_trace_cache,
)
from repro.workloads.standard import standard_trace

from tests.conftest import stream_requests

SPEC = TraceSpec("MY_H65", seed=5, target_requests=800)


class TestTraceCache:
    def test_miss_generates_then_hit_reuses(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        path = cache.ensure(SPEC)
        assert path.exists()
        assert (cache.hits, cache.misses) == (0, 1)
        again = cache.ensure(SPEC)
        assert again == path
        assert (cache.hits, cache.misses) == (1, 1)

    def test_cached_trace_matches_direct_generation(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        cached = cache.load(SPEC)
        direct = standard_trace("MY_H65", seed=5, target_requests=800)
        assert cached.requests() == direct.requests()
        assert cached.metadata == direct.metadata
        assert cached.name == direct.name

    def test_key_separates_generation_parameters(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        paths = {
            cache.path_for(spec)
            for spec in (
                SPEC,
                TraceSpec("MY_H65", seed=6, target_requests=800),
                TraceSpec("MY_H65", seed=5, target_requests=900),
                TraceSpec("MY_H65", seed=5, target_requests=800, client_id="c-1"),
                TraceSpec("MY_H98", seed=5, target_requests=800),
            )
        }
        assert len(paths) == 5

    def test_spec_is_cheap_to_pickle(self):
        blob = pickle.dumps(SPEC)
        assert len(blob) < 200
        assert pickle.loads(blob) == SPEC

    def test_spec_streams_through_default_cache(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        set_default_trace_cache(cache)
        try:
            streamed = stream_requests(SPEC)
            assert streamed == standard_trace("MY_H65", seed=5, target_requests=800).requests()
            assert cache.misses == 1
            assert len(stream_requests(SPEC)) == 800
            assert cache.hits >= 1
        finally:
            set_default_trace_cache(None)

    def test_env_var_overrides_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "custom"))
        cache = TraceCache()
        assert cache.enabled
        assert cache.root == tmp_path / "custom"

    def test_env_var_disables(self, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, "off")
        cache = TraceCache()
        assert not cache.enabled

    def test_explicit_root_overrides_disabling_env(self, tmp_path, monkeypatch):
        # Consumers that build their own cache (benchmarks, tests) must get
        # a working cache even when the user has exported REPRO_TRACE_CACHE=off.
        monkeypatch.setenv(CACHE_ENV_VAR, "off")
        cache = TraceCache(root=tmp_path)
        assert cache.enabled
        assert cache.ensure(SPEC).exists()

    def test_disabled_cache_still_serves_traces(self, tmp_path, monkeypatch):
        cache = TraceCache(root=tmp_path, enabled=False)
        trace = cache.load(SPEC)
        assert len(trace) == 800
        assert list(tmp_path.iterdir()) == []  # nothing written
        with pytest.raises(RuntimeError):
            cache.ensure(SPEC)
        # The streaming surface still works, backed by memory.
        assert len(stream_requests(cache.open(SPEC))) == 800

    @pytest.mark.parametrize(
        "spec",
        [SPEC, TraceSpec("DB2_C60", seed=5, target_requests=600)],
        ids=["MY_H65", "DB2_C60"],
    )
    def test_open_surface_is_the_same_with_the_cache_off(self, spec, tmp_path):
        """``TraceSpec.open()`` answers the same questions, with the same
        values, whether it streams the cached file or, with the cache off,
        the in-memory trace."""
        opened = []
        for cache in (TraceCache(root=tmp_path), TraceCache(root=tmp_path, enabled=False)):
            set_default_trace_cache(cache)
            try:
                opened.append(spec.open())
            finally:
                set_default_trace_cache(None)
        cached, in_memory = opened
        assert in_memory.request_count == cached.request_count
        assert len(in_memory) == len(cached) == cached.request_count
        assert in_memory.name == cached.name
        assert in_memory.metadata == cached.metadata
        assert stream_requests(in_memory) == stream_requests(cached)

    def test_disabled_cache_lifts_a_spec_once(self, tmp_path, lifted):
        """With the cache off, OPT's index pass and the replay share one
        lift of the spec's trace, and a second run of the spec lifts none."""
        spec = TraceSpec("DB2_C60", seed=17, target_requests=10_000)
        set_default_trace_cache(TraceCache(root=tmp_path, enabled=False))
        try:
            CacheSimulator(OPTPolicy(500)).run(spec)
            assert sum(lifted) == 10_000
            lifted.clear()
            CacheSimulator(OPTPolicy(500)).run(spec)
            assert lifted == []
        finally:
            set_default_trace_cache(None)

    def test_disabled_spec_ensure_is_noop(self, tmp_path):
        cache = TraceCache(root=tmp_path, enabled=False)
        set_default_trace_cache(cache)
        try:
            SPEC.ensure()
            assert list(tmp_path.iterdir()) == []
        finally:
            set_default_trace_cache(None)

    def test_summary_reports_counts(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        cache.ensure(SPEC)
        cache.ensure(SPEC)
        assert "hits=1" in cache.summary()
        assert "misses=1" in cache.summary()

    def test_default_cache_resolves_from_env(self):
        # The session fixture points CACHE_ENV_VAR at a temp dir.
        cache = default_trace_cache()
        assert cache.enabled
        assert str(cache.root) == os.environ[CACHE_ENV_VAR]
