"""Tests for parameter sweeps and the sweep result containers."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.clic import CLICPolicy
from repro.core.config import CLICConfig
from repro.core.hints import HintSet, make_hint_set
from repro.simulation.metrics import SweepResult, format_table
from repro.simulation.simulator import CacheSimulator
from repro.simulation.sweep import (
    sweep_cache_sizes,
    sweep_policy_parameter,
    sweep_top_k,
)
from repro.trace.binio import StreamedTrace, write_trace_binary
from repro.trace.records import Trace

from tests.conftest import hint, rd


@pytest.fixture
def tiny_trace(rng):
    hot = hint(object_id="hot")
    cold = hint(object_id="cold")
    requests = []
    for _ in range(4000):
        if rng.random() < 0.6:
            requests.append(rd(rng.randrange(50), hot))
        else:
            requests.append(rd(50 + rng.randrange(1000), cold))
    return requests


class TestSweeps:
    def test_cache_size_sweep_shape(self, tiny_trace):
        sweep = sweep_cache_sizes(tiny_trace, cache_sizes=[25, 100], policies=["LRU", "OPT"])
        assert set(sweep.labels()) == {"LRU", "OPT"}
        assert sweep.xs("LRU") == [25, 100]

    def test_hit_ratio_monotone_in_cache_size_for_opt(self, tiny_trace):
        sweep = sweep_cache_sizes(tiny_trace, cache_sizes=[25, 50, 200], policies=["OPT"])
        ratios = sweep.hit_ratios("OPT")
        assert ratios == sorted(ratios)

    def test_top_k_sweep_includes_track_all_reference(self, tiny_trace):
        sweep = sweep_top_k(
            tiny_trace,
            capacity=100,
            k_values=[1, 2, None],
            base_config=CLICConfig(window_size=500, charge_metadata=False),
        )
        points = sweep.series["CLIC"]
        assert len(points) == 3

    def test_sweep_result_rows_and_table(self, tiny_trace):
        sweep = sweep_cache_sizes(tiny_trace, cache_sizes=[50], policies=["LRU"])
        rows = sweep.as_rows()
        assert rows[0]["series"] == "LRU"
        table = sweep.to_table()
        assert "cache_size" in table and "LRU" in table

    def test_curve_returns_x_y_pairs(self, tiny_trace):
        sweep = sweep_cache_sizes(tiny_trace, cache_sizes=[50, 100], policies=["LRU"])
        curve = sweep.curve("LRU")
        assert len(curve) == 2
        assert curve[0][0] == 50

    @pytest.mark.parametrize("streamed", [False, True], ids=["list", "streamed-trace"])
    def test_track_all_x_is_the_number_of_distinct_hint_keys(self, tmp_path, streamed):
        """The key omits hint-type names, so hint sets that differ only in
        their names count once, from a list or from a trace on disk."""
        named = [HintSet("db2", (name,), (value,)) for name in "ab" for value in (1, 2)]
        requests = [rd(page, named[page % 4]) for page in range(40)]
        source = requests
        if streamed:
            write_trace_binary(Trace("t", requests), tmp_path / "t.ctb")
            source = StreamedTrace(tmp_path / "t.ctb")
        sweep = sweep_top_k(
            source, capacity=10, k_values=[None, 1], base_config=CLICConfig(window_size=10)
        )
        assert [point.x for point in sweep.series["CLIC"]] == [2.0, 1.0]

    def test_top_k_sweep_ships_its_lifted_list_to_workers(self, tiny_trace):
        """A list is lifted once in the parent and the lifted chunks are
        what ``jobs=2`` workers replay: results equal the serial sweep."""
        kwargs = dict(
            capacity=100, k_values=[None, 1, 2], base_config=CLICConfig(window_size=500)
        )
        serial = sweep_top_k(tiny_trace, jobs=1, **kwargs)
        parallel = sweep_top_k(tiny_trace, jobs=2, **kwargs)
        assert [(p.x, p.result.stats) for p in parallel.series["CLIC"]] == [
            (p.x, p.result.stats) for p in serial.series["CLIC"]
        ]

    def test_top_k_sweep_preserves_every_base_config_field(self, rng):
        """Regression: rebuilding the config must not drop a base field.

        The seed implementation copied the base config field by field and
        silently lost one; the sweep now rebuilds it with
        ``dataclasses.replace``.  The base config turns the metadata charge
        off, which measurably changes CLIC's behaviour on this trace, so this
        test fails if the sweep falls back to the default charge.
        """
        requests = []
        for _ in range(4000):
            noise = rng.randrange(10)
            if rng.random() < 0.6:
                requests.append(rd(rng.randrange(50), make_hint_set("db2", object_id="hot", noise=noise)))
            else:
                requests.append(rd(50 + rng.randrange(1000), make_hint_set("db2", object_id="cold", noise=noise)))

        base = CLICConfig(window_size=500, charge_metadata=False)
        expected = CacheSimulator(
            CLICPolicy(capacity=100, config=dataclasses.replace(base, top_k=2))
        ).run(requests)
        # Sanity: the trace discriminates — dropping the field changes the
        # outcome, so an equality check below is a meaningful regression.
        dropped = CacheSimulator(
            CLICPolicy(
                capacity=100,
                config=dataclasses.replace(base, top_k=2, charge_metadata=True),
            )
        ).run(requests)
        assert dropped.stats != expected.stats

        sweep = sweep_top_k(requests, capacity=100, k_values=[2], base_config=base)
        assert sweep.series["CLIC"][0].result.stats == expected.stats

    def test_sweep_policy_parameter_by_value(self, tiny_trace):
        def make_policy(value, capacity):
            return CLICPolicy(
                capacity=capacity,
                config=CLICConfig(window_size=int(value), charge_metadata=False),
            )

        sweep = sweep_policy_parameter(
            tiny_trace, capacity=100, parameter="window_size",
            values=[500, 1000], make_policy=make_policy,
        )
        assert sweep.xs("CLIC") == [500.0, 1000.0]


class TestFormatTable:
    def test_formats_header_and_rows(self):
        text = format_table(["a", "b"], [["1", "2"], ["3", "4"]])
        lines = text.splitlines()
        assert "a" in lines[0] and "b" in lines[0]
        assert len(lines) == 4

    def test_empty_rows(self):
        text = format_table(["col"], [])
        assert "col" in text
