"""Address generator units.

The memory-system address generators of the DPA "produce a vector (referred
to as a stream in some architectures) of memory addresses ... along with a
vector of values to be summed" (Section 3.2).  Each AGU executes one
:class:`StreamMemOp` at a time, issuing up to its per-cycle width of word
requests into the router and retiring the operation when every request has
been acknowledged (for scatter-add, the acknowledgement arrives once the
sum has been computed in the scatter-add unit -- step 6 of Figure 4).
"""

from collections import deque

from repro.memory.request import (
    OP_FETCH_ADD,
    OP_READ,
    OP_SCATTER_ADD,
    OP_WRITE,
    MemoryRequest,
)
from repro.sim.engine import Component

_KIND_TO_OP = {
    "gather": OP_READ,
    "scatter": OP_WRITE,
    "scatter_add": OP_SCATTER_ADD,
    "fetch_add": OP_FETCH_ADD,
}


class StreamMemOp:
    """One memory stream operation: a vector of addresses (and values).

    Parameters
    ----------
    kind:
        ``"gather"``, ``"scatter"``, ``"scatter_add"``, ``"fetch_add"``, or
        any ``OP_*`` atomic constant (for the min/max/mul extensions).
    addrs:
        Sequence of word addresses.
    values:
        Sequence of operands (scatter/atomics), or a scalar broadcast to
        every address -- the paper's second ``scatterAdd`` signature -- or
        ``None`` for gathers.
    combining:
        Multi-node cache-combining hint, forwarded on every request.
    """

    def __init__(self, kind, addrs, values=None, combining=False, name=""):
        self.op = _KIND_TO_OP.get(kind, kind)
        self.addrs = addrs
        self.values = values
        self.combining = combining
        self.name = name or kind
        self.result = [None] * len(addrs) if self._wants_data else None
        self.done = False
        self.start_cycle = None
        self.end_cycle = None

    @property
    def _wants_data(self):
        return self.op in (OP_READ, OP_FETCH_ADD)

    def __len__(self):
        return len(self.addrs)

    def value_at(self, index):
        if self.values is None:
            return 0.0
        try:
            return self.values[index]
        except TypeError:  # scalar broadcast
            return self.values

    def __repr__(self):
        return "StreamMemOp(%s, %d refs, done=%r)" % (
            self.op, len(self.addrs), self.done,
        )


class AddressGeneratorUnit(Component):
    """Issues one stream memory operation at a time into the router.

    `tracer` is the observation scope's per-request
    :class:`~repro.obs.tracing.RequestTracer` (``None`` when request
    tracing is off): the AGU is where application requests are born, so
    it is where the 1-in-N sampling decision stamps a trace on one.
    """

    def __init__(self, sim, config, stats, name="agu", tracer=None):
        super().__init__(name)
        self.stats = stats
        self.tracer = tracer
        self.width = config.agu_words_per_cycle
        # Typed metric handles (see repro.obs.metrics): one per-AGU refs
        # counter plus the shared memory-system total.
        self._m_refs = stats.counter(name + ".refs")
        self._m_memsys_refs = stats.counter("memsys.refs")
        self.out = sim.fifo(capacity=2 * self.width, name=name + ".out")
        self.ack_in = sim.fifo(capacity=None, name=name + ".ack_in")
        self._queue = deque()
        self._current = None
        self._next_index = 0
        self._acked = 0
        # Wake/sleep protocol: acknowledgements wake the AGU; so does a
        # pop of its (full) output FIFO by the downstream router.
        self.watch(self.ack_in)
        self.feeds(self.out)

    def start(self, op):
        """Enqueue a stream operation (runs after earlier ones finish)."""
        self._queue.append(op)

    @property
    def idle(self):
        return self._current is None and not self._queue

    def tick(self, now):
        self._collect_acks(now)
        if self._current is None and self._queue:
            self._current = self._queue.popleft()
            self._current.start_cycle = now
            self._next_index = 0
            self._acked = 0
        op = self._current
        if op is None:
            return
        issued = 0
        total = len(op)
        while (self._next_index < total and issued < self.width
               and self.out.can_push()):
            index = self._next_index
            request = MemoryRequest(
                op.op,
                op.addrs[index],
                value=op.value_at(index),
                reply_to=self.ack_in,
                tag=(op, index),
                combining=op.combining,
            )
            if self.tracer is not None:
                request.trace = self.tracer.maybe_trace(
                    request.op, request.addr, now)
            self.out.push(request)
            self._next_index += 1
            issued += 1
        if issued:
            self._m_refs.inc(issued)
            self._m_memsys_refs.inc(issued)
        if self._next_index >= total and self._acked >= total:
            op.done = True
            op.end_cycle = now
            self._current = None

    def next_wake(self, now):
        if self.ack_in.occupancy:
            return now + 1
        if self._current is None:
            return now + 1 if self._queue else None
        if self._next_index < len(self._current) and self.out.can_push():
            return now + 1
        # Blocked on a full output (its pop wakes us) or waiting for the
        # remaining acknowledgements (their arrival wakes us).
        return None

    def _collect_acks(self, now):
        while len(self.ack_in):
            response = self.ack_in.pop()
            if response.trace is not None:
                response.trace.leg(self.name, "reply", now)
                response.trace.finish(now)
            op, index = response.tag
            if op.result is not None:
                op.result[index] = response.value
            self._acked += 1

    @property
    def busy(self):
        return self._current is not None or bool(self._queue)

    def obs_probes(self):
        return (
            ("active", lambda now: 0 if self._current is None else 1),
            ("queued_ops", lambda now: len(self._queue)),
            ("unacked", lambda now: 0 if self._current is None
             else self._next_index - self._acked),
        )
