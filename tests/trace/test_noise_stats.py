"""Tests for noise-hint injection (Section 6.3)."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.trace.noise import ZipfSampler, inject_noise_hints

from tests.conftest import hint, rd, wr


class TestZipfSampler:
    def test_values_within_domain(self):
        import random

        sampler = ZipfSampler(10, skew=1.0, rng=random.Random(1))
        samples = [sampler.sample() for _ in range(1000)]
        assert min(samples) >= 0 and max(samples) < 10

    def test_skew_favours_low_ranks(self):
        import random

        sampler = ZipfSampler(10, skew=1.0, rng=random.Random(2))
        counts = Counter(sampler.sample() for _ in range(5000))
        assert counts[0] > counts[9]
        assert counts[0] > counts[4]

    def test_zero_skew_is_roughly_uniform(self):
        import random

        sampler = ZipfSampler(4, skew=0.0, rng=random.Random(3))
        counts = Counter(sampler.sample() for _ in range(8000))
        for value in range(4):
            assert 0.15 < counts[value] / 8000 < 0.35

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(5, skew=-1)

    def test_single_value_domain(self):
        import random

        sampler = ZipfSampler(1, rng=random.Random(4))
        assert sampler.sample() == 0


class TestNoiseInjection:
    def test_adds_t_hint_types(self):
        requests = [rd(1, hint("db2", a=1)), wr(2, hint("db2", a=2))]
        noisy = inject_noise_hints(requests, num_types=3, domain_size=10, seed=5)
        for request in noisy:
            assert len(request.hints) == 1 + 3
            assert "noise_0" in request.hints and "noise_2" in request.hints

    def test_zero_types_returns_copy_unchanged(self):
        requests = [rd(1, hint("db2", a=1))]
        noisy = inject_noise_hints(requests, num_types=0)
        assert noisy is not requests
        assert noisy[0].hints == requests[0].hints

    def test_pages_and_kinds_preserved(self):
        requests = [rd(1, hint("db2", a=1)), wr(9, hint("db2", a=1))]
        noisy = inject_noise_hints(requests, num_types=1, seed=3)
        assert [r.page for r in noisy] == [1, 9]
        assert noisy[0].is_read and noisy[1].is_write

    def test_noise_values_within_domain(self):
        requests = [rd(i, hint("db2", a=1)) for i in range(200)]
        noisy = inject_noise_hints(requests, num_types=2, domain_size=10, seed=7)
        for request in noisy:
            assert 0 <= request.hints.get("noise_0") < 10
            assert 0 <= request.hints.get("noise_1") < 10

    def test_noise_multiplies_distinct_hint_sets(self):
        # Section 6.3: injection splits each original hint set into up to D**T variants.
        requests = [rd(i % 5, hint("db2", a=1)) for i in range(2000)]
        noisy = inject_noise_hints(requests, num_types=2, domain_size=10, seed=1)
        original = len({r.hints.key() for r in requests})
        diluted = len({r.hints.key() for r in noisy})
        assert original == 1
        assert diluted > 10
        assert diluted <= 100

    def test_deterministic_for_fixed_seed(self):
        requests = [rd(i, hint("db2", a=1)) for i in range(50)]
        a = inject_noise_hints(requests, num_types=2, seed=42)
        b = inject_noise_hints(requests, num_types=2, seed=42)
        assert [r.hints for r in a] == [r.hints for r in b]

    def test_negative_types_rejected(self):
        with pytest.raises(ValueError):
            inject_noise_hints([], num_types=-1)
