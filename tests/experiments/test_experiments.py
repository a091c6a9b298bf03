"""End-to-end tests for the per-figure experiment runners (scaled way down)."""

from __future__ import annotations

import warnings
from dataclasses import replace

import pytest

from repro.experiments.cluster import run_cluster_experiment
from repro.experiments.common import (
    ExperimentSettings,
    clear_trace_cache,
    clic_kwargs,
    generate_trace,
)
from repro.experiments.hint_priorities import run_hint_priority_scatter
from repro.experiments.latency import run_latency_experiment
from repro.experiments.load import run_load_experiment
from repro.experiments.multiclient import run_multiclient_experiment
from repro.experiments.noise import run_noise_experiment
from repro.experiments.policies import run_policy_comparison
from repro.experiments.registry import EXPERIMENTS, get_experiment, list_experiments
from repro.experiments.schemas_table import run_hint_schema_table
from repro.experiments.topk import run_topk_experiment
from repro.experiments.traces_table import run_trace_table
from repro.experiments.ablations import run_metadata_charge_ablation, run_window_ablation
from repro.trace.cache import TraceCache, default_trace_cache, set_default_trace_cache


#: Tiny settings so the full experiment pipeline runs in seconds under pytest.
TINY = ExperimentSettings(target_requests=4_000, seed=5)


@pytest.fixture(autouse=True, scope="module")
def _clear_cache_afterwards():
    yield
    clear_trace_cache()


class TestCommon:
    def test_trace_cache_returns_same_object(self):
        a = generate_trace("DB2_C60", TINY)
        b = generate_trace("DB2_C60", TINY)
        assert a is b

    def test_clic_config_scales_window(self):
        settings = ExperimentSettings(target_requests=300_000)
        assert settings.clic_config().window_size == 10_000

    def test_clic_config_top_k_none_overrides_settings(self):
        """Regression: top_k=None must mean "exact hint table", not "unset"."""
        settings = ExperimentSettings(top_k=50)
        assert settings.clic_config().top_k == 50
        assert settings.clic_config(top_k=None).top_k is None
        assert settings.clic_config(top_k=7).top_k == 7
        assert clic_kwargs(settings)["config"].top_k == 50
        assert clic_kwargs(settings, top_k=None)["config"].top_k is None

    def test_clic_config_window_size_taken_verbatim(self):
        """Regression: an explicit window_size is never replaced by the default."""
        settings = ExperimentSettings(target_requests=300_000)
        assert settings.clic_config(window_size=123).window_size == 123
        with pytest.raises(ValueError):
            # Explicit invalid values now surface instead of being silently
            # swapped for the default by truthiness.
            settings.clic_config(window_size=0)


class TestRegistry:
    def test_every_paper_artifact_is_registered(self):
        ids = set(list_experiments())
        assert {"fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"} <= ids

    def test_get_experiment_known_and_unknown(self):
        assert get_experiment("fig6").paper_artifact == "Figure 6"
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_experiments_have_runners_and_descriptions(self):
        for experiment in EXPERIMENTS.values():
            assert callable(experiment.runner)
            assert experiment.description


class TestFigure2And5:
    def test_hint_schema_table_covers_both_dbms(self):
        rows = run_hint_schema_table()
        dbms = {row["dbms"] for row in rows}
        assert dbms == {"DB2", "MySQL"}
        assert len(rows) == 9                      # 5 DB2 + 4 MySQL hint types

    def test_trace_table_reports_requested_traces(self):
        rows = run_trace_table(["DB2_C60"], TINY)
        assert len(rows) == 1
        row = rows[0]
        assert row["trace"] == "DB2_C60"
        assert row["requests"] == TINY.target_requests
        assert row["distinct_pages"] > 0
        assert row["distinct_hint_sets"] > 0


class TestFigure3:
    def test_scatter_rows_have_positive_priorities(self):
        rows = run_hint_priority_scatter("DB2_C60", TINY)
        assert rows
        assert all(row["priority"] > 0 for row in rows)
        assert all("hint_values" in row for row in rows)


class TestFigures6to8:
    def test_policy_comparison_produces_full_grid(self):
        results = run_policy_comparison(["DB2_C60"], TINY, cache_sizes=[600, 1200])
        sweep = results["DB2_C60"]
        assert set(sweep.labels()) == set(TINY.policies)
        assert sweep.xs("CLIC") == [600, 1200]
        for label in sweep.labels():
            for ratio in sweep.hit_ratios(label):
                assert 0.0 <= ratio <= 1.0

    def test_opt_upper_bounds_online_policies(self):
        results = run_policy_comparison(["DB2_C60"], TINY, cache_sizes=[1200])
        sweep = results["DB2_C60"]
        opt = sweep.hit_ratios("OPT")[0]
        for label in ("LRU", "ARC", "TQ", "CLIC"):
            assert opt >= sweep.hit_ratios(label)[0] - 1e-9


class TestFigure9:
    def test_topk_sweep_has_one_series_per_trace(self):
        sweep = run_topk_experiment(
            trace_names=("DB2_C60",), cache_size=600, k_values=(2, 10, None), settings=TINY
        )
        assert sweep.labels() == ["DB2_C60"]
        assert len(sweep.series["DB2_C60"]) == 3

    def test_large_k_at_least_as_good_as_k_one(self):
        sweep = run_topk_experiment(
            trace_names=("DB2_C60",), cache_size=600, k_values=(1, 50), settings=TINY
        )
        points = sweep.series["DB2_C60"]
        assert points[1].read_hit_ratio >= points[0].read_hit_ratio - 0.05


class TestFigure10:
    def test_noise_sweep_shape(self):
        sweep = run_noise_experiment(
            trace_names=("DB2_C60",), noise_levels=(0, 2), cache_size=600, top_k=20, settings=TINY
        )
        assert sweep.xs("DB2_C60") == [0.0, 2.0]

    def test_noise_never_helps_much(self):
        sweep = run_noise_experiment(
            trace_names=("DB2_C60",), noise_levels=(0, 3), cache_size=600, top_k=20, settings=TINY
        )
        clean, noisy = sweep.hit_ratios("DB2_C60")
        assert noisy <= clean + 0.05


class TestFigure11:
    def test_multiclient_result_structure(self):
        result = run_multiclient_experiment(
            trace_names=("DB2_C60", "DB2_C300"), shared_cache_size=1200, settings=TINY
        )
        assert set(result.shared_per_client) == {"DB2_C60", "DB2_C300"}
        assert set(result.private_per_client) == {"DB2_C60", "DB2_C300"}
        assert sum(result.private_cache_sizes) == 1200
        rows = result.as_rows()
        assert rows[-1]["trace"] == "overall"
        assert 0.0 <= result.shared_overall <= 1.0

    def test_workers_replay_the_interleaved_source_like_the_serial_path(self):
        """jobs=2 ships the interleaved source (trace specs) to the workers
        and must not fall back to the serial path (warnings are errors)."""
        kwargs = dict(trace_names=("DB2_C60", "DB2_C300"), shared_cache_size=1200)
        serial = run_multiclient_experiment(**kwargs, settings=TINY)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parallel = run_multiclient_experiment(
                **kwargs, settings=replace(TINY, jobs=2)
            )
        assert parallel == serial

    def test_list_inputs_equal_trace_spec_inputs(self):
        """With the trace cache off the clients are request lists, lifted
        into columns; the results equal the cached, streamed run."""
        kwargs = dict(trace_names=("DB2_C60", "DB2_C300"), shared_cache_size=1200)
        streamed = run_multiclient_experiment(**kwargs, settings=TINY)
        previous = default_trace_cache()
        set_default_trace_cache(TraceCache(enabled=False))
        clear_trace_cache()
        try:
            lists = run_multiclient_experiment(**kwargs, settings=TINY)
        finally:
            set_default_trace_cache(previous)
            clear_trace_cache()
        assert lists == streamed


class TestClusterExperiment:
    def test_cluster_rows_cover_grid_and_baseline(self):
        rows = run_cluster_experiment(
            trace_names=("DB2_C60",),
            multi_trace_names=("DB2_C60", "DB2_C300"),
            cache_size=600,
            policies=("LRU", "CLIC"),
            settings=TINY,
            shard_counts=(1, 2),
        )
        # 2 workloads x 2 shard counts x 2 policies.
        assert len(rows) == 8
        workloads = {row["workload"] for row in rows}
        assert workloads == {"DB2_C60", "interleaved"}
        assert {row["router"] for row in rows} == {"hash", "client"}
        for row in rows:
            assert 0.0 <= row["read_hit_ratio"] <= 1.0
            assert row["load_imbalance"] >= 1.0
            assert row["min_shard_hit_ratio"] <= row["read_hit_ratio"] + 1e-9
            assert row["max_shard_hit_ratio"] >= row["read_hit_ratio"] - 1e-9

    def test_single_shard_rows_match_unsharded_policy(self):
        """The shards=1 rows are the unified baseline, bit-identical."""
        from repro.experiments.policies import run_policy_comparison

        rows = run_cluster_experiment(
            trace_names=("DB2_C60",),
            multi_trace_names=(),
            cache_size=600,
            policies=("LRU",),
            settings=TINY,
            shard_counts=(1,),
        )
        unified = run_policy_comparison(["DB2_C60"], TINY, cache_sizes=[600])
        expected = unified["DB2_C60"].series["LRU"][0].read_hit_ratio
        assert rows[0]["read_hit_ratio"] == expected

    def test_shard_counts_default_from_settings(self):
        settings = ExperimentSettings(
            target_requests=2_000, seed=5, shard_counts=(1, 3)
        )
        rows = run_cluster_experiment(
            trace_names=("DB2_C60",),
            multi_trace_names=(),
            cache_size=300,
            policies=("LRU",),
            settings=settings,
        )
        assert [row["shards"] for row in rows] == [1, 3]


class TestLatencyExperiment:
    def test_rows_cover_devices_configurations_and_policies(self):
        rows = run_latency_experiment(
            trace_names=("DB2_C60",),
            cache_size=600,
            policies=("LRU", "CLIC"),
            settings=TINY,
            devices=("ssd", "nvme"),
            cluster_shards=2,
        )
        # 2 devices x 2 configurations x 2 policies.
        assert len(rows) == 8
        assert {row["device"] for row in rows} == {"ssd", "nvme"}
        assert {row["configuration"] for row in rows} == {"unified", "2 shards"}
        for row in rows:
            assert row["mean_read_latency_us"] > 0.0
            assert row["p99_read_latency_us"] >= row["p50_read_latency_us"]
            assert row["modeled_throughput_rps"] > 0.0

    def test_sharded_rows_carry_queueing_columns_unified_rows_do_not(self):
        rows = run_latency_experiment(
            trace_names=("DB2_C60",),
            cache_size=600,
            policies=("LRU",),
            settings=TINY,
            devices=("ssd",),
            cluster_shards=2,
        )
        by_configuration = {row["configuration"]: row for row in rows}
        assert "hottest_shard_penalty" not in by_configuration["unified"]
        assert by_configuration["2 shards"]["hottest_shard_penalty"] >= 1.0
        assert by_configuration["2 shards"]["cluster_throughput_rps"] > 0.0

    def test_faster_device_means_lower_latency_same_hit_ratio(self):
        settings = ExperimentSettings(target_requests=4_000, seed=5)
        rows = run_latency_experiment(
            trace_names=("DB2_C60",),
            cache_size=600,
            policies=("LRU",),
            settings=settings,
            devices=("hdd", "nvme"),
        )
        unified = [row for row in rows if row["configuration"] == "unified"]
        by_device = {row["device"]: row for row in unified}
        assert by_device["hdd"]["read_hit_ratio"] == by_device["nvme"]["read_hit_ratio"]
        assert (
            by_device["hdd"]["mean_read_latency_us"]
            > by_device["nvme"]["mean_read_latency_us"]
        )

    def test_cluster_shards_one_collapses_to_unified_only(self):
        rows = run_latency_experiment(
            trace_names=("DB2_C60",),
            cache_size=300,
            policies=("LRU",),
            settings=TINY,
            devices=("ssd",),
            cluster_shards=1,
        )
        assert [row["configuration"] for row in rows] == ["unified"]

    def test_cluster_shards_zero_rejected(self):
        with pytest.raises(ValueError, match="cluster_shards"):
            run_latency_experiment(settings=TINY, cluster_shards=0)

    def test_device_defaults_from_settings(self):
        settings = ExperimentSettings(target_requests=2_000, seed=5, device="nvme")
        rows = run_latency_experiment(
            trace_names=("DB2_C60",),
            cache_size=300,
            policies=("LRU",),
            settings=settings,
        )
        assert {row["device"] for row in rows} == {"nvme"}


class TestLoadExperiment:
    def test_rows_cover_loads_configurations_and_policies(self):
        settings = ExperimentSettings(
            target_requests=4_000, seed=5, offered_loads=(0.5, 1.2)
        )
        rows = run_load_experiment(
            trace_names=("DB2_C60",),
            cache_size=600,
            policies=("LRU", "CLIC"),
            settings=settings,
            cluster_shards=2,
        )
        # 2 loads x 2 configurations x 2 policies.
        assert len(rows) == 8
        assert {row["offered_load"] for row in rows} == {0.5, 1.2}
        assert {row["configuration"] for row in rows} == {"unified", "2 shards"}
        assert {row["arrival"] for row in rows} == {"poisson"}
        for row in rows:
            assert row["mean_read_latency_us"] > 0.0
            assert 0.0 < row["utilization"] <= 1.0
            assert row["p99_sojourn_us"] >= row["p50_sojourn_us"]
            assert row["arrival_rate_rps"] > 0.0

    def test_saturation_knee_is_monotone_in_offered_load(self):
        """The tentpole's headline property: for every configuration and
        policy, queueing delay and utilization are nondecreasing in the
        offered load (pathwise coupling via ``scaled``), with overload
        clearly worse than light load."""
        settings = ExperimentSettings(
            target_requests=4_000, seed=5, offered_loads=(0.25, 0.9, 1.5)
        )
        rows = run_load_experiment(
            trace_names=("DB2_C60",),
            cache_size=600,
            policies=("LRU",),
            settings=settings,
            cluster_shards=2,
        )
        series: dict[str, list] = {}
        for row in rows:
            series.setdefault(row["configuration"], []).append(row)
        for configuration, points in series.items():
            points.sort(key=lambda row: row["offered_load"])
            delays = [row["mean_queue_delay_us"] for row in points]
            utils = [row["utilization"] for row in points]
            assert delays == sorted(delays), configuration
            assert utils == sorted(utils), configuration
            assert delays[-1] > 10.0 * max(delays[0], 1e-9), configuration

    def test_sharding_defers_the_knee(self):
        """At the same overload, the 2-shard fleet (twice the servers)
        queues far less than the unified server."""
        settings = ExperimentSettings(
            target_requests=4_000, seed=5, offered_loads=(1.2,)
        )
        rows = run_load_experiment(
            trace_names=("DB2_C60",),
            cache_size=600,
            policies=("LRU",),
            settings=settings,
            cluster_shards=2,
        )
        by_configuration = {row["configuration"]: row for row in rows}
        assert (
            by_configuration["2 shards"]["mean_queue_delay_us"]
            < by_configuration["unified"]["mean_queue_delay_us"]
        )
        assert (
            by_configuration["2 shards"]["utilization"]
            < by_configuration["unified"]["utilization"]
        )

    def test_arrival_kind_comes_from_settings(self):
        settings = ExperimentSettings(
            target_requests=2_000, seed=5, offered_loads=(0.5,), arrival="bursty"
        )
        rows = run_load_experiment(
            trace_names=("DB2_C60",),
            cache_size=300,
            policies=("LRU",),
            settings=settings,
            cluster_shards=1,
        )
        assert [row["configuration"] for row in rows] == ["unified"]
        assert rows[0]["arrival"] == "bursty"

    def test_validation(self):
        with pytest.raises(ValueError, match="cluster_shards"):
            run_load_experiment(settings=TINY, cluster_shards=0)
        with pytest.raises(ValueError, match="offered_loads"):
            run_load_experiment(
                settings=ExperimentSettings(
                    target_requests=2_000, seed=5, offered_loads=()
                )
            )
        with pytest.raises(ValueError, match="offered loads"):
            run_load_experiment(
                settings=ExperimentSettings(
                    target_requests=2_000, seed=5, offered_loads=(0.5, -1.0)
                )
            )


class TestAblations:
    def test_window_ablation_runs(self):
        sweep = run_window_ablation("DB2_C60", cache_size=600, window_sizes=(1_000, 2_000), settings=TINY)
        assert sweep.xs("DB2_C60") == [1_000.0, 2_000.0]

    def test_metadata_charge_costs_little(self):
        sweep = run_metadata_charge_ablation("DB2_C60", cache_size=600, settings=TINY)
        uncharged, charged = sweep.hit_ratios("DB2_C60")
        # Charging ~1% of the cache should cost at most a few points of hit ratio.
        assert charged >= uncharged - 0.1
