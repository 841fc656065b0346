"""Tests for the two-phase FIFO and the latency pipe."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.queues import FIFO, LatencyPipe


class TestFIFO:
    def test_push_not_visible_until_sync(self):
        queue = FIFO(capacity=4)
        queue.push("a")
        assert len(queue) == 0
        assert queue.occupancy == 1
        queue.sync()
        assert len(queue) == 1
        assert queue.peek() == "a"

    def test_fifo_order_preserved(self):
        queue = FIFO()
        for item in range(5):
            queue.push(item)
        queue.sync()
        assert [queue.pop() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_capacity_counts_staged_entries(self):
        queue = FIFO(capacity=2)
        queue.push(1)
        queue.push(2)
        assert not queue.can_push()
        with pytest.raises(OverflowError):
            queue.push(3)

    def test_capacity_frees_after_pop(self):
        queue = FIFO(capacity=1)
        queue.push(1)
        queue.sync()
        assert not queue.can_push()
        queue.pop()
        assert queue.can_push()

    def test_pop_empty_raises(self):
        queue = FIFO()
        with pytest.raises(IndexError):
            queue.pop()
        with pytest.raises(IndexError):
            queue.peek()

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            FIFO(capacity=0)

    def test_idle_reflects_staged_and_committed(self):
        queue = FIFO()
        assert queue.idle
        queue.push(1)
        assert not queue.idle
        queue.sync()
        assert not queue.idle
        queue.pop()
        assert queue.idle

    def test_drain_returns_all_committed(self):
        queue = FIFO()
        for item in range(3):
            queue.push(item)
        queue.sync()
        queue.push(99)  # staged, must not drain
        assert queue.drain() == [0, 1, 2]
        assert len(queue) == 0
        queue.sync()
        assert queue.pop() == 99

    @given(st.lists(st.integers(), max_size=50))
    def test_everything_pushed_is_popped_in_order(self, items):
        queue = FIFO()
        for item in items:
            queue.push(item)
        queue.sync()
        assert queue.drain() == items


class TestLatencyPipe:
    def test_entry_ready_after_latency(self):
        pipe = LatencyPipe(latency=3)
        pipe.push("x", now=0)
        for now in range(3):
            assert not pipe.ready(now)
        assert pipe.ready(3)
        assert pipe.pop() == "x"

    def test_zero_latency_rejected(self):
        # An entry pushed during a tick must stay out of reach of that tick.
        with pytest.raises(ValueError):
            LatencyPipe(latency=0)

    def test_pipelined_entries_in_order(self):
        pipe = LatencyPipe(latency=2)
        pipe.push("a", now=0)
        pipe.push("b", now=1)
        assert pipe.next_ready() == 2
        assert pipe.ready(2)
        assert pipe.pop() == "a"
        assert not pipe.ready(2)
        assert pipe.ready(3)
        assert pipe.pop() == "b"

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyPipe(latency=-1)

    def test_idle(self):
        pipe = LatencyPipe(latency=1)
        assert pipe.occupancy == 0
        assert pipe.next_ready() is None
        pipe.push("a", now=0)
        assert pipe.occupancy == 1
        assert pipe.ready(1)
        pipe.pop()
        assert pipe.occupancy == 0
        with pytest.raises(IndexError):
            pipe.pop()


class TestEngineHooks:
    """Channel hooks drive the event scheduler's wake and idle tracking."""

    def _sim(self):
        from repro.sim.engine import Simulator

        return Simulator(scheduler="event")

    def test_push_wakes_watching_reader_next_cycle(self):
        from repro.sim.engine import Component, Simulator

        sim = Simulator(scheduler="event")
        queue = sim.fifo(capacity=4, name="q")
        reader = sim.register(Component("reader"))
        reader.watch(queue)
        reader._wake_sched = None
        queue.push("x")
        # Staged pushes commit at end of cycle, so the wake is for cycle+1.
        assert reader._wake_sched == sim.cycle + 1

    def test_pop_of_full_fifo_wakes_feeding_writer(self):
        from repro.sim.engine import Component, Simulator

        sim = Simulator(scheduler="event")
        queue = sim.fifo(capacity=2, name="q")
        writer = sim.register(Component("writer"))
        writer.feeds(queue)
        queue.push(1)
        queue.push(2)
        queue.sync()
        writer._wake_sched = None
        queue.pop()
        assert writer._wake_sched is not None

    def test_pop_of_non_full_fifo_does_not_wake_writer(self):
        from repro.sim.engine import Component, Simulator

        sim = Simulator(scheduler="event")
        queue = sim.fifo(capacity=8, name="q")
        writer = sim.register(Component("writer"))
        writer.feeds(queue)
        queue.push(1)
        queue.sync()
        writer._wake_sched = None
        queue.pop()
        assert writer._wake_sched is None

    def test_fifo_occupancy_tracked_for_quiescence(self):
        sim = self._sim()
        queue = sim.fifo(capacity=4, name="q")
        assert sim._active_channels == 0
        queue.push("x")
        assert sim._active_channels == 1
        queue.sync()
        queue.pop()
        assert sim._active_channels == 0

    def test_drain_updates_idle_tracking_once(self):
        sim = self._sim()
        queue = sim.fifo(capacity=4, name="q")
        for item in range(3):
            queue.push(item)
        queue.sync()
        assert sim._active_channels == 1
        assert queue.drain() == [0, 1, 2]
        assert sim._active_channels == 0

    def test_standalone_channels_skip_engine_hooks(self):
        # FIFOs never registered with a simulator must work unchanged.
        queue = FIFO(capacity=1)
        queue.push("a")
        queue.sync()
        assert queue.pop() == "a"
