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
        from repro.api import simulate_scatter_add

        with use_scheduler("event"):
            run = simulate_scatter_add([3, 1, 2] * 50, 1.0, num_targets=8)
        line = engine_summary(run.stats)
        assert "engine[event]:" in line

    def test_columnar_run_reports_batching_family(self):
        import random

        from repro.api import simulate_scatter_add
        from repro.config import MachineConfig

        rng = random.Random(5)
        indices = [rng.randrange(65536) for _ in range(256)]
        config = MachineConfig.uniform(latency=256, interval=2)
        with use_scheduler("columnar"):
            run = simulate_scatter_add(indices, 1.0, num_targets=65536,
                                       config=config)
        line = engine_summary(run.stats)
        assert line.startswith("engine[columnar]:")
        assert "bursts" in line
        assert "acks coalesced" in line

    def test_fastforward_omits_columnar_segment(self):
        # The event engine fast-forwards uniform windows and steps the
        # rest on the event loop, so a columnar segment would describe
        # work it never does.
        line = engine_summary({
            "engine.scheduler_event": 1,
            "engine.cycles_executed": 10,
            "engine.windows_collapsed": 2,
            "sim.columnar.bursts": 3,
        })
        assert line.startswith("engine[event]:")
        assert "2 uniform windows collapsed" in line
        assert "bursts" not in line

    def test_columnar_dict_without_family_omits_segment(self):
        line = engine_summary({
            "engine.scheduler_columnar": 1,
            "engine.cycles_executed": 10,
        })
        assert line.startswith("engine[columnar]:")
        assert "bursts" not in line
