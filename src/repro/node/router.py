"""On-chip request router between the AGUs and the banked memory system.

Moves word requests from the address generators' output FIFOs to the
scatter-add unit in front of the owning cache bank, up to the stream
cache's total bandwidth per cycle.  A full target FIFO head-of-line blocks
its source for the cycle -- this is what turns a narrow index range into
the *hot bank effect* of Figure 7 ("successive scatter-add requests map to
the same cache bank, leaving some of the scatter-add units idle").

Wake/sleep protocol: between two router ticks nothing the router can see
changes (only pushes to its sources and pops from its targets do, and both
wake it), so while it sleeps the blocked-source set is frozen.  The
``hol_blocks`` counter exploits that: the blocked-source count at the end
of a tick is charged retroactively for every slept cycle at the next tick,
reproducing the legacy per-tick count exactly.
"""

from repro.sim.engine import Component


class Router(Component):
    """Crossbar from source FIFOs to target FIFOs, selected by address."""

    def __init__(self, sim, config, stats, sources, targets, target_of,
                 name="router", width=None):
        super().__init__(name)
        self.stats = stats
        self.sources = list(sources)
        self.targets = list(targets)
        self.target_of = target_of
        self.width = width if width is not None else config.cache_words_per_cycle
        # Typed metric handle (see repro.obs.metrics).
        self._m_hol_blocks = stats.counter(name + ".hol_blocks")
        self._last_tick = -1
        self._moved = 0  # moves made by the most recent tick
        self._sleep_blocked = 0  # blocked sources at the end of that tick
        self.watch(*self.sources)
        self.feeds(*self.targets)

    def tick(self, now):
        if self._sleep_blocked and now - self._last_tick > 1:
            # Every slept cycle would have re-observed the same blocked
            # heads (state frozen while asleep); charge them now.
            self._m_hol_blocks.inc(
                self._sleep_blocked * (now - self._last_tick - 1))
        self._last_tick = now
        moved = 0
        blocked = 0
        count = len(self.sources)
        # Rotate the starting source each cycle for fairness.  The cycle
        # number is the rotation (identical to a per-tick increment under
        # the legacy stepper, and well-defined across skipped cycles).
        start = now % count
        for offset in range(count):
            source = self.sources[(start + offset) % count]
            while len(source) and moved < self.width:
                request = source.peek()
                target = self.targets[self.target_of(request.addr)]
                if not target.can_push():
                    self._m_hol_blocks.inc()
                    blocked += 1
                    break
                target.push(source.pop())
                if request.trace is not None:
                    request.trace.leg(self.name, "router.queue", now)
                moved += 1
            if moved >= self.width:
                break
        self._moved = moved
        self._sleep_blocked = blocked

    def next_wake(self, now):
        if self._moved >= self.width:
            return now + 1  # bandwidth-limited: there may be more to move
        # Otherwise every remaining head is blocked on a full target (a pop
        # wakes us) or every source is empty (a push wakes us).
        return None

    @property
    def busy(self):
        return False  # holds no state; FIFOs carry all pending work

    def obs_probes(self):
        return (
            ("queued", lambda now: sum(
                source.occupancy for source in self.sources)),
            # Engine-independent: the sampler ticks after the router, so
            # the sampled value is the current cycle's move count.  A
            # sleeping router (idle-skip schedulers) moved nothing this
            # cycle, even though its most recent actual tick did.
            ("moved_last_tick",
             lambda now: self._moved if self._last_tick == now else 0),
        )
