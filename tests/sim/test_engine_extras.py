"""Coverage for engine conveniences: owned channels, until-bounds."""

import pytest

from repro.sim.engine import Component, Simulator
from repro.sim.queues import FIFO, LatencyPipe


class Mover(Component):
    """Moves items from a simulator-owned FIFO through its own pipe."""

    def __init__(self, queue, latency):
        super().__init__("mover")
        self.queue = queue
        self.pipe = LatencyPipe(latency, name="mover.pipe")
        self.done = []

    def tick(self, now):
        while self.pipe.ready(now):
            self.done.append((now, self.pipe.pop()))
        while len(self.queue):
            self.pipe.push(self.queue.pop(), now)

    @property
    def busy(self):
        return bool(self.pipe.occupancy)


class TestAdoptedChannels:
    def test_adopted_fifo_synced_and_counted_for_quiescence(self):
        sim = Simulator()
        queue = sim.fifo(name="owned")
        mover = sim.register(Mover(queue, 3))
        queue.push("a")
        queue.push("b")
        end = sim.run()
        # 1 cycle visibility + 3 latency; the pipe holds the run open.
        assert mover.done == [(4, "a"), (4, "b")]
        assert end == 5

    def test_unadopted_fifo_invisible_to_quiescence(self):
        sim = Simulator()
        rogue = FIFO(name="rogue")
        rogue.push("stuck")
        # not owned by the simulator: it quiesces immediately
        assert sim.run() == 0


class TestRunBounds:
    def test_until_zero(self):
        sim = Simulator()

        class Busy(Component):
            def tick(self, now):
                pass

            @property
            def busy(self):
                return True

        sim.register(Busy("b"))
        assert sim.run(until=0) == 0

    def test_until_beyond_max_cycles_is_a_value_error(self):
        # Asking for a bound past the safety limit is a caller error and is
        # rejected up front (the old behaviour silently clamped the bound,
        # then raised SimulationError after grinding to max_cycles).
        sim = Simulator(max_cycles=5)

        class Busy(Component):
            def tick(self, now):
                pass

            @property
            def busy(self):
                return True

        sim.register(Busy("b"))
        with pytest.raises(ValueError):
            sim.run(until=100)
        assert sim.cycle == 0  # rejected before any cycle executed

    def test_until_at_max_cycles_still_allowed(self):
        sim = Simulator(max_cycles=5)

        class Busy(Component):
            def tick(self, now):
                pass

            @property
            def busy(self):
                return True

        sim.register(Busy("b"))
        assert sim.run(until=5) == 5

    def test_cycle_counter_monotone_across_runs(self):
        sim = Simulator()
        sim.run_cycles(5)
        sim.run_cycles(3)
        assert sim.cycle == 8
