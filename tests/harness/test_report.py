"""Tests for report helpers, chiefly the engine-counter summary line."""

from repro.harness.report import engine_summary
from repro.sim.engine import Simulator, use_scheduler
from repro.sim.stats import Stats


class TestEngineSummary:
    def test_empty_stats_give_empty_summary(self):
        assert engine_summary(Stats()) == ""
        assert engine_summary({}) == ""

    def test_recorded_run_is_summarised(self):
        with use_scheduler("event"):
            sim = Simulator()
        stats = Stats().record_engine(sim)
        line = engine_summary(stats)
        assert line.startswith("engine[event]:")
        assert "fast-forwarded" in line
        assert "skipped" in line

    def test_accepts_plain_dict(self):
        line = engine_summary({
            "engine.scheduler_event": 0,
            "engine.cycles_executed": 100,
            "engine.cycles_fast_forwarded": 0,
            "engine.ticks_executed": 500,
            "engine.ticks_skipped": 0,
        })
        assert line.startswith("engine[legacy]:")
        assert "100/100 cycles" in line
        assert "500/500 ticks" in line

    def test_real_run_counters_are_consistent(self):
        from repro.api import Simulation

        with use_scheduler("event"):
            run = Simulation().run("scatter_add", [3, 1, 2] * 50, 1.0,
                                   num_targets=8)
        line = engine_summary(run.stats)
        assert "engine[event]:" in line

    def test_event_reports_collapsed_windows(self):
        line = engine_summary({
            "engine.scheduler_event": 1,
            "engine.cycles_executed": 10,
            "engine.windows_collapsed": 2,
        })
        assert line.startswith("engine[event]:")
        assert "2 uniform windows collapsed" in line
