"""The engine's channel (:class:`FIFO`) and a component-owned delay line.

Two-phase semantics: values pushed into a :class:`FIFO` during cycle *t* are
not visible to ``pop``/``peek`` until cycle *t+1*.  The owning
:class:`~repro.sim.engine.Simulator` calls :meth:`FIFO.sync` between cycles
to commit staged pushes.  This decouples component evaluation order from
simulation results and models single-cycle hop latency between pipeline
stages.

FIFOs created by a simulator (``Simulator.fifo``) also feed its event
scheduler: a push wakes the FIFO's registered readers, a pop of a full FIFO
wakes its registered writers, and idle transitions maintain the O(1)
quiescence count.  Standalone FIFOs (``_engine is None``) skip all of that.

A :class:`LatencyPipe` is not a channel of the engine: the component that
pushes and pops it keeps it as internal state, answers from ``now``, and
covers it in ``busy``.
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
        self._engine = None  # owning Simulator, set by Simulator.fifo
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
    """A delay line: an entry pushed at cycle *t* pops from *t + latency* on.

    Models a fixed-latency network link.  The component that pushes and
    pops a pipe owns it: it tests :meth:`ready` before popping and reports
    the pipe's :attr:`occupancy` in its ``busy``, as it does for any other
    in-flight state.  The pipe is fully pipelined: any number of entries
    may be pushed per cycle and be in flight at once.  A latency of at
    least one cycle keeps an entry pushed during a tick out of reach of
    that same tick.
    """

    def __init__(self, latency, name=""):
        if latency < 1:
            raise ValueError("latency must be >= 1, got %r" % (latency,))
        self.latency = latency
        self.name = name
        self._in_flight = deque()  # (ready_cycle, item), in push order

    def push(self, item, now):
        """Insert `item`, to become ready at cycle ``now + latency``."""
        self._in_flight.append((now + self.latency, item))

    def ready(self, now):
        """True if the oldest entry may be popped at cycle `now`."""
        in_flight = self._in_flight
        return bool(in_flight) and in_flight[0][0] <= now

    def next_ready(self):
        """Ready cycle of the oldest entry, or ``None`` when empty."""
        return self._in_flight[0][0] if self._in_flight else None

    def pop(self):
        """Remove and return the oldest entry (test :meth:`ready` first)."""
        if not self._in_flight:
            raise IndexError("pop from empty pipe %r" % (self.name,))
        return self._in_flight.popleft()[1]

    @property
    def occupancy(self):
        """Entries in the pipe, whether still delayed or ready to pop."""
        return len(self._in_flight)

    def __repr__(self):
        return "LatencyPipe(%r, latency=%d, %d in flight)" % (
            self.name, self.latency, len(self._in_flight),
        )
