"""Tests for the metric store: counters, gauges and histograms in Stats."""

import pytest

from repro.obs.metrics import Histogram
from repro.sim.stats import Stats


class TestCounter:
    def test_writes_through_to_stats(self):
        stats = Stats()
        counter = stats.counter("bank0.hits")
        counter.inc()
        counter.inc(3)
        assert stats.get("bank0.hits") == 4.0
        assert counter.value == 4.0

    def test_shares_value_with_stats_add(self):
        # Mixed use (stats.add + typed handle) must agree: both write the
        # same underlying cell.
        stats = Stats()
        counter = stats.counter("dram.reads")
        stats.add("dram.reads", 2)
        counter.inc()
        assert stats.get("dram.reads") == 3.0

    def test_memoized_per_name(self):
        stats = Stats()
        assert stats.counter("a") is stats.counter("a")
        assert stats.counter("a") is not stats.counter("b")

    def test_zero_increment_materialises_key(self):
        # stats.add(name, 0) creates the key; the handle must too (the
        # DRAM scheduler counts "0 reorders" this way).
        stats = Stats()
        stats.counter("dram.sched_reorders").inc(0)
        assert "dram.sched_reorders" in stats.as_dict()


class TestGauge:
    def test_set_and_maximum(self):
        stats = Stats()
        gauge = stats.gauge("store.peak")
        gauge.set(3)
        gauge.maximum(2)
        assert gauge.value == 3
        gauge.maximum(7)
        assert gauge.value == 7

    def test_does_not_touch_stats_bag(self):
        stats = Stats()
        stats.gauge("store.peak").set(9)
        assert "store.peak" not in stats.as_dict()


class TestHistogram:
    def test_bucket_edges_less_or_equal(self):
        hist = Histogram("h", [1, 2, 4, 8])
        for value in (1, 2, 2, 3, 8):
            hist.observe(value)
        # value <= edge lands in that bucket: 1 -> [<=1]; 2,2 -> [<=2];
        # 3 -> [<=4]; 8 -> [<=8]; nothing overflows.
        assert hist.counts == [1, 2, 1, 1, 0]

    def test_overflow_bucket(self):
        hist = Histogram("h", [1, 2])
        hist.observe(3)
        hist.observe(100)
        assert hist.counts == [0, 0, 2]
        assert len(hist.counts) == len(hist.edges) + 1

    def test_below_first_edge(self):
        hist = Histogram("h", [10, 20])
        hist.observe(0)
        hist.observe(-5)
        assert hist.counts[0] == 2

    def test_total_sum_mean(self):
        hist = Histogram("h", [4])
        hist.observe(2, n=3)
        hist.observe(10)
        assert hist.total == 4
        assert hist.sum == 16
        assert hist.mean == 4.0

    def test_edges_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", [1, 1, 2])
        with pytest.raises(ValueError):
            Histogram("h", [])

    def test_registry_requires_edges_on_first_use(self):
        with pytest.raises(ValueError):
            Stats().histogram("h")

    def test_registry_rejects_mismatched_edges(self):
        stats = Stats()
        stats.histogram("h", [1, 2])
        assert stats.histogram("h").edges == (1, 2)
        assert stats.histogram("h", [1, 2]) is stats.histogram("h")
        with pytest.raises(ValueError):
            stats.histogram("h", [1, 2, 4])

    def test_not_in_stats_bag(self):
        stats = Stats()
        stats.histogram("lat", [1, 2]).observe(1)
        assert "lat" not in stats.as_dict()


class TestHistogramPercentile:
    def test_empty_histogram_is_zero(self):
        assert Histogram("h", [1, 2]).percentile(50) == 0.0

    def test_rejects_out_of_range_q(self):
        hist = Histogram("h", [1, 2])
        with pytest.raises(ValueError):
            hist.percentile(-1)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_interpolates_within_first_bucket(self):
        # 10 observations in the [0, 10] bucket: p50 is the bucket
        # midpoint under linear interpolation.
        hist = Histogram("h", [10, 20])
        hist.observe(5, n=10)
        assert hist.percentile(50) == 5.0
        assert hist.percentile(100) == 10.0

    def test_interpolates_between_edges(self):
        hist = Histogram("h", [10, 20])
        hist.observe(5, n=5)   # bucket <= 10
        hist.observe(15, n=5)  # bucket <= 20
        # p90: target 9 of 10 -> 4 past the 5 in bucket 0; interpolate
        # 4/5 of the way through [10, 20].
        assert hist.percentile(90) == pytest.approx(18.0)

    def test_overflow_bucket_clamps_to_last_edge(self):
        hist = Histogram("h", [1, 2])
        hist.observe(100, n=4)
        assert hist.percentile(99) == 2.0

    def test_as_dict_includes_percentiles(self):
        hist = Histogram("h", [4, 8])
        hist.observe(2, n=8)
        data = hist.as_dict()
        for key in ("p50", "p90", "p99"):
            assert key in data
        assert data["p50"] <= data["p90"] <= data["p99"] <= 8

    def test_percentiles_monotone_on_spread_data(self):
        hist = Histogram("h", [1, 2, 4, 8, 16, 32])
        for value in (1, 1, 2, 3, 5, 9, 17, 30, 31, 100):
            hist.observe(value)
        p50, p90, p99 = (hist.percentile(q) for q in (50, 90, 99))
        assert p50 <= p90 <= p99
        assert p99 <= 32  # clamped to the last edge


class TestMerge:
    def test_registry_merge_via_stats_merge(self):
        a, b = Stats(), Stats()
        a.counter("x").inc(1)
        b.counter("x").inc(2)
        a.gauge("g").set(3)
        b.gauge("g").set(5)
        a.histogram("h", [2]).observe(1)
        b.histogram("h", [2]).observe(4)
        a.merge(b)
        assert a.get("x") == 3.0
        assert a.gauge("g").value == 5  # gauges keep the max
        assert a.histogram("h").counts == [1, 1]

    def test_merge_plain_stats_without_registry(self):
        # Merging counters alone creates no gauge or histogram.
        a, b = Stats(), Stats()
        b.add("y", 2)
        a.merge(b)
        assert a.get("y") == 2.0
        snapshot = a.snapshot()
        assert snapshot["gauges"] == {} and snapshot["histograms"] == {}

    def test_snapshot_reads_live_stats(self):
        stats = Stats()
        counter = stats.counter("c")
        counter.inc(2)
        stats.add("c", 1)
        snap = stats.snapshot()
        assert snap["counters"]["c"] == 3.0
        assert snap["gauges"] == {} and snap["histograms"] == {}

    def test_snapshot_round_trips_through_from_snapshot(self):
        stats = Stats()
        stats.counter("c").inc(2)
        stats.gauge("g").maximum(4)
        stats.histogram("h", [1, 4]).observe(3, n=2)
        snap = stats.snapshot()
        assert Stats.from_snapshot(**snap).snapshot() == snap
