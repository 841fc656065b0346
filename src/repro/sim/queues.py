"""Bounded queues and delay lines used for all inter-component communication.

Two-phase semantics: values pushed into a :class:`FIFO` during cycle *t* are
not visible to ``pop``/``peek`` until cycle *t+1*.  The owning
:class:`~repro.sim.engine.Simulator` calls :meth:`FIFO.sync` between cycles
to commit staged pushes.  This decouples component evaluation order from
simulation results and models single-cycle hop latency between pipeline
stages.

Channels created by (or adopted into) a simulator also feed its event
scheduler: a push wakes the channel's registered readers, a pop of a full
FIFO wakes its registered writers, and idle transitions maintain the O(1)
quiescence count.  Standalone channels (``_engine is None``) skip all of
that and behave exactly as before.
"""

from collections import deque


class FIFO:
    """A bounded first-in first-out queue with one-cycle visibility delay.

    Parameters
    ----------
    capacity:
        Maximum number of entries the queue can hold, counting both
        committed and staged entries.  ``None`` means unbounded (useful for
        response paths that are sized by construction elsewhere).
    name:
        Optional identifier used in traces and error messages.
    """

    def __init__(self, capacity=None, name=""):
        if capacity is not None and capacity < 1:
            raise ValueError("FIFO capacity must be >= 1, got %r" % (capacity,))
        self.capacity = capacity
        self.name = name
        self._committed = deque()
        self._staged = deque()
        self.total_pushed = 0
        self.total_popped = 0
        self._engine = None  # owning Simulator, set on register/adopt
        self._readers = []  # components woken when data arrives
        self._writers = []  # components woken when a full queue frees
        self._dirty = False  # staged pushes pending (engine sync list)

    def __len__(self):
        """Number of committed (poppable) entries."""
        return len(self._committed)

    @property
    def occupancy(self):
        """Total entries held, committed plus staged."""
        return len(self._committed) + len(self._staged)

    def can_push(self, count=1):
        """True if `count` more entries fit this cycle."""
        if self.capacity is None:
            return True
        return self.occupancy + count <= self.capacity

    def push(self, item):
        """Stage `item`; it becomes poppable after the next sync."""
        if not self.can_push():
            raise OverflowError(
                "push to full FIFO %r (capacity %d)" % (self.name, self.capacity)
            )
        was_idle = not self._committed and not self._staged
        self._staged.append(item)
        self.total_pushed += 1
        if self._engine is not None:
            self._engine._fifo_pushed(self, was_idle)

    def peek(self):
        """Return the oldest committed entry without removing it."""
        if not self._committed:
            raise IndexError("peek on empty FIFO %r" % (self.name,))
        return self._committed[0]

    def pop(self):
        """Remove and return the oldest committed entry."""
        if not self._committed:
            raise IndexError("pop from empty FIFO %r" % (self.name,))
        was_full = (self.capacity is not None
                    and self.occupancy >= self.capacity)
        self.total_popped += 1
        item = self._committed.popleft()
        if self._engine is not None:
            self._engine._fifo_popped(self, was_full, self.idle)
        return item

    def sync(self):
        """Commit staged pushes.  Called by the simulator between cycles."""
        if self._staged:
            self._committed.extend(self._staged)
            self._staged.clear()

    @property
    def idle(self):
        """True when the queue holds nothing at all."""
        return not self._committed and not self._staged

    def drain(self):
        """Pop and return every committed entry (bulk helper for tests)."""
        items = list(self._committed)
        if not items:
            return items
        was_full = (self.capacity is not None
                    and self.occupancy >= self.capacity)
        self.total_popped += len(items)
        self._committed.clear()
        if self._engine is not None:
            self._engine._fifo_popped(self, was_full, self.idle)
        return items

    def __repr__(self):
        cap = "inf" if self.capacity is None else str(self.capacity)
        return "FIFO(%r, %d/%s committed, %d staged)" % (
            self.name,
            len(self._committed),
            cap,
            len(self._staged),
        )


class LatencyPipe:
    """A delay line: entries become available `latency` cycles after push.

    Models fixed-latency paths such as DRAM access latency or a pipelined
    functional unit.  The pipe is fully pipelined -- any number of entries
    may be in flight -- unless `bandwidth` limits how many can be pushed per
    cycle.

    The owning simulator must call :meth:`advance` with the current cycle
    once per cycle (the simulator does this automatically for registered
    pipes) before components pop from it.
    """

    def __init__(self, latency, bandwidth=None, name=""):
        if latency < 0:
            raise ValueError("latency must be >= 0, got %r" % (latency,))
        self.latency = latency
        self.bandwidth = bandwidth
        self.name = name
        self._in_flight = deque()  # (ready_cycle, item)
        self._ready = deque()
        self._pushed_this_cycle = 0
        self.total_pushed = 0
        self._engine = None
        self._readers = []
        self._writers = []

    def can_push(self):
        """True if per-cycle bandwidth allows another push this cycle."""
        if self.bandwidth is None:
            return True
        return self._pushed_this_cycle < self.bandwidth

    def push(self, item, now):
        """Insert `item`, to become ready at cycle ``now + latency``."""
        if not self.can_push():
            raise OverflowError(
                "push exceeds bandwidth %r on pipe %r" % (self.bandwidth, self.name)
            )
        was_idle = not self._in_flight and not self._ready
        self._pushed_this_cycle += 1
        self.total_pushed += 1
        ready_cycle = now + self.latency
        self._in_flight.append((ready_cycle, item))
        if self._engine is not None:
            self._engine._pipe_pushed(self, was_idle, ready_cycle)

    def advance(self, now):
        """Move entries whose delay elapsed into the ready queue."""
        self._pushed_this_cycle = 0
        while self._in_flight and self._in_flight[0][0] <= now:
            self._ready.append(self._in_flight.popleft()[1])

    def ready(self):
        """True if an entry is available to pop this cycle."""
        return bool(self._ready)

    def next_ready(self):
        """Ready cycle of the oldest in-flight entry, or ``None`` if none."""
        return self._in_flight[0][0] if self._in_flight else None

    def peek(self):
        if not self._ready:
            raise IndexError("peek on empty pipe %r" % (self.name,))
        return self._ready[0]

    def pop(self):
        if not self._ready:
            raise IndexError("pop from empty pipe %r" % (self.name,))
        item = self._ready.popleft()
        if self._engine is not None:
            self._engine._pipe_popped(
                self, not self._in_flight and not self._ready
            )
        return item

    @property
    def occupancy(self):
        """Entries in the pipe, whether still delayed or ready to pop."""
        return len(self._in_flight) + len(self._ready)

    @property
    def idle(self):
        return not self._in_flight and not self._ready

    def __repr__(self):
        return "LatencyPipe(%r, latency=%d, %d in flight, %d ready)" % (
            self.name,
            self.latency,
            len(self._in_flight),
            len(self._ready),
        )
