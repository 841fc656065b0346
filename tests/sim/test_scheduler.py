"""Event-scheduler mechanics: wakes, skip-ahead, counters, selection."""

import re

import pytest

from repro.sim.engine import (
    DEFAULT_SCHEDULER,
    SCHEDULERS,
    Component,
    Simulator,
    _stepping,
    use_scheduler,
)


class Ping(Component):
    """Ticks once at each requested cycle, recording when it ran."""

    def __init__(self, name="ping"):
        super().__init__(name)
        self.ran_at = []
        self.pending = []

    def schedule(self, *cycles):
        self.pending = sorted(set(self.pending) | set(cycles))
        for cycle in cycles:
            self._sim._wake(self, cycle)

    def tick(self, now):
        if self.pending and self.pending[0] <= now:
            self.ran_at.append(now)
            self.pending.pop(0)

    @property
    def busy(self):
        return bool(self.pending)

    def next_wake(self, now):
        return self.pending[0] if self.pending else None


class Producer(Component):
    """Pushes one item per tick into a FIFO until exhausted."""

    def __init__(self, out, count, name="producer"):
        super().__init__(name)
        self.out = out
        self.remaining = count
        self.feeds(out)

    def tick(self, now):
        if self.remaining and self.out.can_push():
            self.out.push(now)
            self.remaining -= 1

    @property
    def busy(self):
        return self.remaining > 0

    def next_wake(self, now):
        if self.remaining and self.out.can_push():
            return now + 1
        return None  # drained, or blocked until a pop frees a slot


class SlowConsumer(Component):
    """Pops one item every `period` cycles."""

    def __init__(self, source, period, name="consumer"):
        super().__init__(name)
        self.source = source
        self.period = period
        self.got = []
        self.watch(source)

    def tick(self, now):
        if len(self.source) and now % self.period == 0:
            self.got.append(self.source.pop())

    def next_wake(self, now):
        if not self.source.occupancy:
            return None
        step = self.period
        return now + (step - now % step) or now + step


class TestSchedulerSelection:
    def test_default_is_valid(self):
        assert DEFAULT_SCHEDULER in SCHEDULERS

    def test_explicit_choice_sticks(self):
        assert Simulator(scheduler="legacy").scheduler == "legacy"
        assert Simulator(scheduler="event").scheduler == "event"

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError):
            Simulator(scheduler="quantum")

    def test_use_scheduler_scopes_the_default(self):
        with use_scheduler("legacy"):
            assert Simulator().scheduler == "legacy"
            with use_scheduler("event"):
                assert Simulator().scheduler == "event"
            assert Simulator().scheduler == "legacy"
        assert Simulator().scheduler == DEFAULT_SCHEDULER

    def test_use_scheduler_rejects_unknown(self):
        with pytest.raises(ValueError):
            with use_scheduler("quantum"):
                pass

    def test_unknown_scheduler_is_rejected_everywhere(self):
        from repro.api import Simulation

        names = re.escape(str(SCHEDULERS))
        with pytest.raises(ValueError, match=names):
            Simulator(scheduler="quantum")
        with pytest.raises(ValueError, match=names):
            Simulation(engine="quantum")
        with pytest.raises(ValueError, match=names):
            with use_scheduler("quantum"):
                pass

    def test_columnar_is_an_alias_of_event(self):
        from repro.api import Simulation

        sim = Simulator(scheduler="columnar")
        assert sim.scheduler == "event"
        assert sim._collapse
        with use_scheduler("columnar"):
            assert Simulator().scheduler == "event"
        run = Simulation(engine="columnar").run("scatter_add", [1, 2, 1],
                                                num_targets=4)
        assert run.stats.as_dict()["engine.scheduler_event"] == 1

    def test_fastforward_is_an_alias_of_event(self):
        sim = Simulator(scheduler="fastforward")
        assert sim.scheduler == "event"
        assert sim._collapse
        with use_scheduler("fastforward"):
            assert Simulator().scheduler == "event"

    def test_only_event_collapses_windows(self):
        assert not Simulator(scheduler="legacy")._collapse

    def test_stepping_switches_collapse_off(self):
        with use_scheduler("legacy"), _stepping():
            sim = Simulator()
            assert sim.scheduler == "event"
            assert not sim._collapse
            assert not Simulator(scheduler="event")._collapse
        assert Simulator(scheduler="event")._collapse
        assert Simulator().scheduler == DEFAULT_SCHEDULER


class TestSkipAhead:
    def test_idle_gap_is_fast_forwarded(self):
        sim = Simulator(scheduler="event")
        ping = sim.register(Ping())
        ping.schedule(1000, 5000)
        end = sim.run()
        assert ping.ran_at == [1000, 5000]
        # Quiescence is first observed the cycle after the last tick,
        # exactly as under the legacy stepper.
        assert end == 5001
        # Only the arming cycle and the scheduled cycles execute; the
        # gaps are jumped.
        assert sim.cycles_executed == 3
        assert sim.cycles_fast_forwarded == 4998

    def test_legacy_grinds_every_cycle(self):
        sim = Simulator(scheduler="legacy")
        ping = sim.register(Ping())
        ping.schedule(1000)
        end = sim.run()
        assert end == 1001
        assert ping.ran_at == [1000]
        assert sim.cycles_executed == 1001
        assert sim.cycles_fast_forwarded == 0

    def test_until_bound_inside_idle_gap(self):
        sim = Simulator(scheduler="event")
        ping = sim.register(Ping())
        ping.schedule(10_000)
        assert sim.run(until=500) == 500
        assert ping.ran_at == []
        assert sim.cycle == 500
        # The remaining wake survives; a later unbounded run reaches it.
        assert sim.run() == 10_001
        assert ping.ran_at == [10_000]

    def test_ticks_skipped_counted(self):
        sim = Simulator(scheduler="event")
        ping = sim.register(Ping("a"))
        other = sim.register(Ping("b"))
        ping.schedule(10)
        other.schedule(20)
        sim.run()
        total = sim.ticks_executed + sim.ticks_skipped
        assert total == 2 * sim.cycles_executed
        assert sim.ticks_skipped > 0


class TestWakePropagation:
    def test_push_wakes_sleeping_reader(self):
        sim = Simulator(scheduler="event")
        queue = sim.fifo(capacity=4, name="q")
        producer = sim.register(Producer(queue, count=6))
        consumer = sim.register(SlowConsumer(queue, period=3))
        sim.run()
        assert len(consumer.got) == 6
        assert producer.remaining == 0

    def test_pop_wakes_blocked_writer(self):
        sim = Simulator(scheduler="event")
        queue = sim.fifo(capacity=2, name="q")
        producer = sim.register(Producer(queue, count=10))
        consumer = sim.register(SlowConsumer(queue, period=4))
        end = sim.run()
        assert len(consumer.got) == 10
        # Sanity: back-pressure actually throttled the producer.
        assert end > 10

    def test_event_and_legacy_agree_on_backpressure(self):
        def run(scheduler):
            sim = Simulator(scheduler=scheduler)
            queue = sim.fifo(capacity=2, name="q")
            sim.register(Producer(queue, count=10))
            consumer = sim.register(SlowConsumer(queue, period=4))
            end = sim.run()
            return end, consumer.got

        assert run("legacy") == run("event")

    def test_default_protocol_components_always_tick(self):
        # A component without next_wake/watch/feeds overrides must behave
        # exactly as under legacy: ticked every cycle until quiescent.
        class Counter(Component):
            def __init__(self):
                super().__init__("counter")
                self.left = 5
                self.ticks = 0

            def tick(self, now):
                self.ticks += 1
                if self.left:
                    self.left -= 1

            @property
            def busy(self):
                return self.left > 0

        sim = Simulator(scheduler="event")
        counter = sim.register(Counter())
        end = sim.run()
        assert counter.left == 0
        assert counter.ticks == end  # never skipped while busy


class TestRunCycles:
    def test_run_cycles_full_steps_even_on_event_scheduler(self):
        class Counter(Component):
            def __init__(self):
                super().__init__("counter")
                self.ticks = 0

            def tick(self, now):
                self.ticks += 1

        sim = Simulator(scheduler="event")
        counter = sim.register(Counter())
        sim.run_cycles(7)
        assert counter.ticks == 7
        assert sim.cycle == 7

    def test_event_run_after_run_cycles(self):
        # run() must re-arm cleanly after the clock moved under it.
        sim = Simulator(scheduler="event")
        ping = sim.register(Ping())
        sim.run_cycles(3)
        ping.schedule(10)
        assert sim.run() == 11
        assert ping.ran_at == [10]
