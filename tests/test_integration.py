"""Integration tests: trace generation -> simulation -> the paper's qualitative claims.

These tests exercise the whole pipeline end-to-end on deliberately small
workloads.  They check the *shape* of the results the paper reports — who
wins, roughly by how much, and in which regime — not absolute numbers.
"""

from __future__ import annotations

import pytest

from repro.analysis.hint_analysis import figure3_rows
from repro.cache.registry import create_policy
from repro.core.clic import CLICPolicy
from repro.core.config import CLICConfig
from repro.experiments.common import ExperimentSettings
from repro.experiments.policies import FIGURE8_TRACES, run_figure8
from repro.simulation.simulator import CacheSimulator
from repro.trace.binio import StreamedTrace, write_trace_binary
from repro.trace.noise import inject_noise_hints
from repro.workloads.standard import clic_window_for, standard_trace


TARGET_REQUESTS = 25_000
CACHE = 3_600
SEED = 17

#: Both module-scoped traces, for the findings checked on each.
TRACES = pytest.mark.parametrize("trace", ["c60_trace", "c300_trace"])


def run_clic(requests, **config) -> float:
    """CLIC's read hit ratio, with *config* overriding its defaults."""
    config = CLICConfig(window_size=clic_window_for(TARGET_REQUESTS), **config)
    return CacheSimulator(CLICPolicy(CACHE, config)).run(requests).read_hit_ratio


def run(policy_name: str, requests, capacity: int = CACHE) -> float:
    kwargs = {}
    if policy_name == "CLIC":
        kwargs["config"] = CLICConfig(window_size=clic_window_for(TARGET_REQUESTS))
    policy = create_policy(policy_name, capacity=capacity, **kwargs)
    return CacheSimulator(policy).run(requests).read_hit_ratio


@pytest.fixture(scope="module")
def c300_trace():
    return standard_trace("DB2_C300", seed=SEED, target_requests=TARGET_REQUESTS)


@pytest.fixture(scope="module")
def c60_trace():
    return standard_trace("DB2_C60", seed=SEED, target_requests=TARGET_REQUESTS)


@pytest.fixture(scope="module")
def figure8():
    """Figure 8's sweeps: every paper policy over the MySQL TPC-H traces
    (MY_H65, MY_H98) at their three server cache sizes."""
    return run_figure8(ExperimentSettings(target_requests=TARGET_REQUESTS, seed=SEED))


class TestPaperClaims:
    def test_hint_aware_policies_win_when_locality_is_scarce(self, c300_trace):
        """Paper Section 6.1: on the low-locality TPC-C traces the hint-aware
        policies (TQ, CLIC) far outperform LRU and ARC."""
        requests = c300_trace.requests()
        lru = run("LRU", requests)
        arc = run("ARC", requests)
        tq = run("TQ", requests)
        clic = run("CLIC", requests)
        opt = run("OPT", requests)
        assert clic > arc + 0.05
        assert clic > lru + 0.05
        assert tq > lru
        assert clic >= tq - 0.02
        assert opt >= clic

    def test_all_policies_close_on_high_locality_trace(self, c60_trace):
        """Paper: on DB2_C60 even LRU performs reasonably well (the first-tier
        buffer was too small to absorb the locality)."""
        requests = c60_trace.requests()
        lru = run("LRU", requests)
        clic = run("CLIC", requests)
        opt = run("OPT", requests)
        assert lru > 0.3                    # LRU is respectable here
        assert clic >= lru - 0.05           # CLIC does not fall behind
        assert opt >= clic

    def test_clic_learns_more_from_more_cache(self, c300_trace):
        """Hit ratio should not decrease when the server cache grows."""
        requests = c300_trace.requests()
        small = run("CLIC", requests, capacity=1_200)
        large = run("CLIC", requests, capacity=6_000)
        assert large >= small - 0.02

    def test_first_tier_size_controls_residual_locality(self, c60_trace, c300_trace):
        """Figure 5 narrative: a larger DBMS buffer leaves less locality for
        the storage server, making LRU much less effective."""
        lru_small_buffer = run("LRU", c60_trace.requests())
        lru_large_buffer = run("LRU", c300_trace.requests())
        assert lru_small_buffer > lru_large_buffer + 0.2

    def test_trace_round_trip_preserves_simulation_results(self, tmp_path, c60_trace):
        """Serialising a trace and replaying it from disk must not change any
        policy's result."""
        direct = run("CLIC", c60_trace.requests())
        path = tmp_path / "c60.ctb"
        write_trace_binary(c60_trace, path)
        assert run("CLIC", StreamedTrace(path)) == direct

    def test_few_hint_sets_stand_far_above_the_rest(self, c60_trace):
        """Section 3 / Figure 3: on DB2_C60 hint-set priorities span orders
        of magnitude, the top one over 5x the lowest non-zero one."""
        priorities = [row["priority"] for row in figure3_rows(c60_trace.requests())]
        assert priorities[0] > 5 * priorities[-1]

    @TRACES
    def test_top_k_tracking_close_to_full_tracking(self, trace, request):
        """Section 5 / Figure 9: tracking ~20 hint sets is almost as good as
        tracking all of them."""
        requests = request.getfixturevalue(trace).requests()
        assert run_clic(requests, top_k=20) >= run_clic(requests) - 0.08

    @TRACES
    def test_noise_hint_types_do_not_help(self, trace, request):
        """Section 6.3 / Figure 10: three useless hint types (10 values each,
        Zipf z=1, seeded as the noise experiment seeds them) dilute the
        informative hint sets under top-100 tracking, so they never raise
        CLIC's read hit ratio by more than 0.05."""
        requests = request.getfixturevalue(trace).requests()
        noisy = inject_noise_hints(
            requests, num_types=3, domain_size=10, skew=1.0, seed=SEED + 3
        )
        assert run_clic(noisy, top_k=100) <= run_clic(requests, top_k=100) + 0.05

    @TRACES
    def test_an_outqueue_costs_at_most_a_little(self, trace, request):
        """Section 3.1 / the outqueue ablation: an outqueue of 5 entries per
        cached page, its metadata charged as by default, loses at most 0.05
        against none.  At this scale it reads slightly below none (the
        charge shrinks the cache by more than detecting re-references of
        uncached pages gains), so this pins the bound, not a gain."""
        requests = request.getfixturevalue(trace).requests()
        with_outqueue = run_clic(requests, outqueue_factor=5.0)
        assert with_outqueue >= run_clic(requests, outqueue_factor=0.0) - 0.05

    @pytest.mark.parametrize("trace", FIGURE8_TRACES)
    def test_opt_bounds_every_policy_on_the_mysql_traces(self, figure8, trace):
        """Figure 8: OPT's read hit ratio bounds LRU, ARC, TQ and CLIC at
        every cache size of the MySQL TPC-H traces."""
        sweep = figure8[trace]
        opt = sweep.hit_ratios("OPT")
        for label in ("LRU", "ARC", "TQ", "CLIC"):
            for bound, ratio in zip(opt, sweep.hit_ratios(label)):
                assert bound >= ratio - 1e-9, label

    @pytest.mark.parametrize("trace", FIGURE8_TRACES)
    def test_clic_beats_lru_on_the_mysql_traces(self, figure8, trace):
        """Figure 8: CLIC exploits the MySQL hints (file id, request type),
        so it beats plain LRU at the middle cache size."""
        sweep = figure8[trace]
        middle = len(sweep.xs("CLIC")) // 2
        assert sweep.hit_ratios("CLIC")[middle] > sweep.hit_ratios("LRU")[middle]

    @TRACES
    def test_charging_metadata_costs_at_most_a_little(self, trace, request):
        """Section 6.1 / the metadata-charge ablation: paying for CLIC's
        metadata out of the cache costs at most 0.1 of read hit ratio."""
        requests = request.getfixturevalue(trace).requests()
        charged = run_clic(requests, charge_metadata=True)
        assert charged >= run_clic(requests, charge_metadata=False) - 0.1
