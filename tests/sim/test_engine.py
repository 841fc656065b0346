"""Tests for the cycle-driven simulation engine."""

import pytest

from repro.sim.engine import Component, SimulationError, Simulator
from repro.sim.queues import LatencyPipe


class Counter(Component):
    """Ticks a fixed number of times, then goes idle."""

    def __init__(self, work):
        super().__init__("counter")
        self.work = work
        self.ticks = 0

    def tick(self, now):
        if self.work > 0:
            self.work -= 1
        self.ticks += 1

    @property
    def busy(self):
        return self.work > 0


class Producer(Component):
    def __init__(self, out, count):
        super().__init__("producer")
        self.out = out
        self.count = count

    def tick(self, now):
        if self.count and self.out.can_push():
            self.out.push(self.count)
            self.count -= 1

    @property
    def busy(self):
        return self.count > 0


class Consumer(Component):
    def __init__(self, source):
        super().__init__("consumer")
        self.source = source
        self.received = []

    def tick(self, now):
        while len(self.source):
            self.received.append(self.source.pop())


class TestSimulator:
    def test_runs_until_quiescent(self):
        sim = Simulator()
        counter = sim.register(Counter(work=7))
        end = sim.run()
        assert end == 7
        assert counter.busy is False

    def test_quiescent_immediately_when_empty(self):
        sim = Simulator()
        assert sim.run() == 0

    def test_fifo_contents_prevent_quiescence(self):
        sim = Simulator()
        queue = sim.fifo(name="q")
        queue.push("pending")
        sim.register(Counter(work=0))
        with pytest.raises(SimulationError):
            small = Simulator(max_cycles=10)
            q2 = small.fifo()
            q2.push("stuck")
            small.run()

    def test_producer_consumer_pipeline(self):
        sim = Simulator()
        queue = sim.fifo(capacity=2, name="link")
        producer = sim.register(Producer(queue, count=5))
        consumer = sim.register(Consumer(queue))
        sim.run()
        assert consumer.received == [5, 4, 3, 2, 1]

    def test_one_cycle_visibility_between_components(self):
        sim = Simulator()
        queue = sim.fifo(name="link")
        arrivals = []

        class Push(Component):
            done = False

            def tick(self, now):
                if not self.done:
                    queue.push(now)
                    self.done = True

            @property
            def busy(self):
                return not self.done

        class Watch(Component):
            def tick(self, now):
                while len(queue):
                    queue.pop()
                    arrivals.append(now)

        sim.register(Push("p"))
        sim.register(Watch("w"))
        sim.run()
        # pushed at cycle 0, visible at cycle 1
        assert arrivals == [1]

    def test_run_until_bound_returns_early(self):
        sim = Simulator()
        sim.register(Counter(work=1000))
        assert sim.run(until=10) == 10

    def test_max_cycles_raises(self):
        sim = Simulator(max_cycles=50)

        class Forever(Component):
            def tick(self, now):
                pass

            @property
            def busy(self):
                return True

        sim.register(Forever("f"))
        with pytest.raises(SimulationError):
            sim.run()

    @pytest.mark.parametrize("scheduler", ["legacy", "event"])
    def test_deadlock_names_stuck_parts(self, scheduler):
        # Nobody pops the capacity-1 FIFO, so the producer stays busy
        # behind a full queue until the cycle bound.
        sim = Simulator(max_cycles=20, scheduler=scheduler)
        queue = sim.fifo(capacity=1, name="stuck_link")
        sim.register(Producer(queue, count=3))
        with pytest.raises(SimulationError) as excinfo:
            sim.run()
        message = str(excinfo.value)
        assert "max_cycles=20" in message
        assert "busy components: producer;" in message
        assert "non-idle channels: stuck_link (1)" in message

    def test_deadlock_message_caps_each_list(self):
        sim = Simulator(max_cycles=5, scheduler="legacy")
        for index in range(11):
            sim.register(Counter(work=100)).name = "counter%d" % index
        with pytest.raises(SimulationError) as excinfo:
            sim.run()
        message = str(excinfo.value)
        assert "counter7, counter8" not in message
        assert "counter0, counter1" in message
        assert "counter7 and 3 more;" in message
        assert "non-idle channels: none" in message

    def test_run_cycles_exact(self):
        sim = Simulator()
        counter = sim.register(Counter(work=0))
        sim.run_cycles(13)
        assert sim.cycle == 13
        assert counter.ticks == 13

    def test_owned_pipe_delivers_after_latency(self):
        outputs = []

        class Watcher(Component):
            started = False

            def __init__(self):
                super().__init__("w")
                self.pipe = LatencyPipe(latency=4, name="p")

            def tick(self, now):
                if not self.started:
                    self.pipe.push("v", now)
                    self.started = True
                while self.pipe.ready(now):
                    outputs.append((now, self.pipe.pop()))

            @property
            def busy(self):
                return not self.started or bool(self.pipe.occupancy)

        sim = Simulator()
        sim.register(Watcher())
        assert sim.run() == 5
        assert outputs == [(4, "v")]

    def test_component_default_tick_raises(self):
        with pytest.raises(NotImplementedError):
            Component("x").tick(0)
