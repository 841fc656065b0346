"""Tests for the event-trace log."""

from repro.memory.request import OP_SCATTER_ADD, MemoryRequest
from repro.sim.trace import TraceLog


class TestTraceLog:
    def test_disabled_by_default(self):
        trace = TraceLog()
        trace.emit(0, "c", "k", x=1)
        assert len(trace) == 0

    def test_emit_and_filter(self):
        trace = TraceLog(enabled=True)
        trace.emit(1, "a", "start")
        trace.emit(2, "b", "start")
        trace.emit(3, "a", "stop")
        assert len(list(trace.filter(component="a"))) == 2
        assert len(list(trace.filter(kind="start"))) == 2
        assert len(list(trace.filter(component="a", kind="stop"))) == 1

    def test_cycle_window_filter(self):
        trace = TraceLog(enabled=True)
        for cycle in range(10):
            trace.emit(cycle, "c", "tick")
        assert len(list(trace.filter(since=3, until=6))) == 4

    def test_capacity_drops_counted(self):
        trace = TraceLog(enabled=True, capacity=3)
        for cycle in range(5):
            trace.emit(cycle, "c", "tick")
        assert len(trace) == 3
        assert trace.dropped == 2
        assert "dropped" in trace.render()

    def test_render_limit(self):
        trace = TraceLog(enabled=True)
        for cycle in range(10):
            trace.emit(cycle, "c", "tick", n=cycle)
        text = trace.render(limit=2)
        assert "truncated" in text
        assert "n=0" in text


class TestUnitTracing:
    def test_scatter_add_unit_emits_events(self, unit_harness):
        harness = unit_harness()
        trace = TraceLog(enabled=True)
        harness.unit.trace = trace
        harness.run([MemoryRequest(OP_SCATTER_ADD, 5, 1.0)
                     for _ in range(4)])
        assert len(list(trace.filter(kind="activate"))) == 1
        assert len(list(trace.filter(kind="combine"))) == 3
        assert len(list(trace.filter(kind="sum"))) == 4
        # All traced sums target the right address.
        assert all(event.fields["addr"] == 5
                   for event in trace.filter(kind="sum"))

    def test_tracing_does_not_change_results(self, unit_harness):
        plain = unit_harness()
        plain.run([MemoryRequest(OP_SCATTER_ADD, i % 3, 1.0)
                   for i in range(30)])
        traced = unit_harness()
        traced.unit.trace = TraceLog(enabled=True)
        traced.run([MemoryRequest(OP_SCATTER_ADD, i % 3, 1.0)
                    for i in range(30)])
        for addr in range(3):
            assert (plain.memory.read_word(addr)
                    == traced.memory.read_word(addr))
