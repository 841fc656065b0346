"""Tests for the statistics counters."""

from repro.sim.stats import Stats


class TestStats:
    def test_add_and_get(self):
        stats = Stats()
        stats.add("a.b")
        stats.add("a.b", 2)
        assert stats.get("a.b") == 3
        assert stats["a.b"] == 3

    def test_untouched_counter_reads_zero(self):
        stats = Stats()
        assert stats.get("missing") == 0
        assert stats.get("missing", default=7) == 7
        assert "missing" not in stats

    def test_set_overwrites(self):
        stats = Stats()
        stats.add("x", 5)
        stats.set("x", 2)
        assert stats.get("x") == 2

    def test_merge_accumulates(self):
        left, right = Stats(), Stats()
        left.add("a", 1)
        right.add("a", 2)
        right.add("b", 3)
        left.merge(right)
        assert left.get("a") == 3
        assert left.get("b") == 3

    def test_as_dict_snapshot(self):
        stats = Stats()
        stats.add("k", 1)
        snap = stats.as_dict()
        stats.add("k", 1)
        assert snap == {"k": 1}
