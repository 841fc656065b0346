"""Cycle-window sampling of per-component occupancy and utilization.

A :class:`TimelineSampler` is an ordinary engine :class:`Component` that
wakes once per sampling window (``--sample-every N``) and reads every
*probe* the simulated components expose via ``obs_probes()`` -- e.g. the
combining store's occupancy, the number of busy DRAM channels, a cache
bank's MSHR count.  Each probe produces a :class:`Timeline` of
``(cycle, value)`` samples that the exporters turn into Chrome-trace
counter tracks and ``metrics.json`` series.

Cost model:

- **Disabled** (the default): no sampler is registered at all, so the
  overhead is exactly zero per cycle -- O(1) in the strongest sense.
- **Enabled**: one extra component that sleeps between windows under the
  event scheduler (``next_wake`` returns the next window boundary), so the
  cost is O(probes) per *window*, not per cycle.  Because the sampler
  never reports busy and never touches a channel, it cannot change cycle
  counts, quiescence or simulation results.
"""

from repro.sim.engine import Component


class Timeline:
    """One probe's sampled series: parallel cycle/value arrays."""

    __slots__ = ("name", "cycles", "values")

    def __init__(self, name):
        self.name = name
        self.cycles = []
        self.values = []

    def append(self, cycle, value):
        self.cycles.append(cycle)
        self.values.append(value)

    def __len__(self):
        return len(self.cycles)

    def as_dict(self):
        return {"cycles": list(self.cycles), "values": list(self.values)}

    def __repr__(self):
        return "Timeline(%r, %d samples)" % (self.name, len(self.cycles))


def gather_probes(components):
    """Collect ``(qualified_name, fn)`` probes from engine components."""
    probes = []
    for component in components:
        for suffix, fn in component.obs_probes():
            probes.append(("%s.%s" % (component.name, suffix), fn))
    return probes


class TimelineSampler(Component):
    """Samples every probe once per `every`-cycle window.

    Samples land exactly on window boundaries (cycles ``0, N, 2N, ...``),
    independent of when the run starts or how the event scheduler skips
    idle gaps; the legacy scheduler produces the identical sample set
    because off-boundary ticks are no-ops.
    """

    def __init__(self, every, probes, name="obs.sampler"):
        super().__init__(name)
        if every < 1:
            raise ValueError("sampling window must be >= 1 cycle (got %r)"
                             % (every,))
        self.every = every
        self._probes = probes
        self.timelines = [Timeline(name) for name, __ in probes]
        self._last_sampled = None

    def tick(self, now):
        if now % self.every:
            return  # legacy scheduler ticks every cycle; off-window = no-op
        if now == self._last_sampled:
            return  # re-armed at a boundary (run() called twice)
        self._last_sampled = now
        for timeline, (__, fn) in zip(self.timelines, self._probes):
            timeline.append(now, fn(now))

    def flush(self, now):
        """Record one final sample at `now` (the run's quiescent cycle).

        Tick-driven samples land only on window boundaries, so a run ending
        mid-window would otherwise lose its final partial window; harness
        code calls this once after ``sim.run()`` returns.  Flushing exactly
        on an already-sampled boundary is a no-op.
        """
        if now == self._last_sampled:
            return
        self._last_sampled = now
        for timeline, (__, fn) in zip(self.timelines, self._probes):
            timeline.append(now, fn(now))

    def next_wake(self, now):
        return now + self.every - (now % self.every)

    @property
    def busy(self):
        return False  # never keeps the simulation alive
