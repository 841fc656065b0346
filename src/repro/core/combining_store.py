"""The combining store: a CAM-indexed buffer of pending atomic requests.

The combining store is "analogous to the miss status handling register
(MSHR) and write combining buffer of memory data caches" (Section 3.2).  It
serves two purposes:

1. buffer scatter-add requests until the original memory value is fetched;
2. buffer them while the multi-cycle addition executes.

Each pending request occupies one entry from arrival until *its* sum
completes in the functional unit.  The store maintains per-address arrival
order (the paper's "simple ordering mechanism" that makes a single CAM
lookup suffice), so chained additions to the same address complete in
arrival order -- making every run deterministic, as Section 3.3 promises.

:class:`CombiningTable` is the store's *network-side* sibling: a bounded
CAM-indexed output queue held by each switch of the interconnect, merging
same-address scatter requests while they wait for link bandwidth
(NYU-Ultracomputer-style in-network combining).
"""

from collections import deque

from repro.memory.request import (
    OP_SCATTER_ADD,
    OP_SCATTER_MAX,
    OP_SCATTER_MIN,
    OP_SCATTER_MUL,
    combine,
)

#: Operations a network combining table may merge.  Fetch-add is excluded:
#: its acknowledgement carries the *global pre-update* value, which only
#: the home node's scatter-add unit can produce, so fetch-adds must reach
#: memory individually.  Reads and writes are not reductions at all.
NETWORK_COMBINABLE_OPS = frozenset(
    (OP_SCATTER_ADD, OP_SCATTER_MIN, OP_SCATTER_MAX, OP_SCATTER_MUL)
)


class _Entry:
    __slots__ = ("addr", "value", "op", "reply_to", "tag", "trace")

    def __init__(self, addr, value, op, reply_to, tag, trace=None):
        self.addr = addr
        self.value = value
        self.op = op
        self.reply_to = reply_to
        self.tag = tag
        self.trace = trace


class CombiningStore:
    """Fixed-capacity associative buffer of pending atomic requests."""

    def __init__(self, entries):
        if entries < 1:
            raise ValueError("combining store needs >= 1 entry")
        self.capacity = entries
        self._free = list(range(entries))
        self._entries = [None] * entries
        self._waiting = {}  # addr -> deque of entry ids, arrival order
        self.peak_occupancy = 0
        self._occupancy_hist = None
        self._peak_gauge = None

    def attach_metrics(self, stats, prefix):
        """Report occupancy into a :class:`~repro.sim.stats.Stats` store.

        Creates ``<prefix>.occupancy`` -- a fixed-bucket histogram of the
        store occupancy observed at each allocation (power-of-two edges up
        to the capacity, so Figure 11/12-style store-size sweeps share
        comparable buckets) -- and a ``<prefix>.peak_occupancy`` gauge.
        """
        edges = []
        edge = 1
        while edge < self.capacity:
            edges.append(edge)
            edge *= 2
        edges.append(self.capacity)
        self._occupancy_hist = stats.histogram(prefix + ".occupancy", edges)
        self._peak_gauge = stats.gauge(prefix + ".peak_occupancy")

    @property
    def occupancy(self):
        return self.capacity - len(self._free)

    @property
    def full(self):
        return not self._free

    @property
    def window_uniform(self):
        """True when the store holds no state a uniform window could cross.

        A fast-forward window must not straddle an insert/evict boundary:
        an allocated entry means a pending FU issue or completion, and a
        waiting queue means a chain in flight.  An empty store has neither,
        so every cycle until the next external arrival is predictable.
        """
        return not self._waiting and self.occupancy == 0

    def allocate(self, addr, value, op, reply_to=None, tag=None, trace=None):
        """Place a request in a free entry; returns the entry id.

        Raises :class:`OverflowError` when no entry is free -- callers must
        check :attr:`full` first and stall, exactly as the hardware does
        ("if no such entry exists, the scatter-add operation stalls").
        """
        if not self._free:
            raise OverflowError("combining store full")
        entry_id = self._free.pop()
        self._entries[entry_id] = _Entry(addr, value, op, reply_to, tag,
                                         trace=trace)
        self._waiting.setdefault(addr, deque()).append(entry_id)
        occupancy = self.occupancy
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy
            if self._peak_gauge is not None:
                self._peak_gauge.set(occupancy)
        if self._occupancy_hist is not None:
            self._occupancy_hist.observe(occupancy)
        return entry_id

    def pop_waiting(self, addr):
        """Remove and return (entry_id, entry) of the oldest waiting request.

        The entry remains allocated (it is being buffered "while the
        addition is performed") until :meth:`release`.
        """
        queue = self._waiting.get(addr)
        if not queue:
            raise KeyError("no waiting entry for address %d" % (addr,))
        entry_id = queue.popleft()
        if not queue:
            del self._waiting[addr]
        return entry_id, self._entries[entry_id]

    def release(self, entry_id):
        """Free an entry once its sum has been computed."""
        if self._entries[entry_id] is None:
            raise KeyError("entry %d is not allocated" % (entry_id,))
        self._entries[entry_id] = None
        self._free.append(entry_id)

    def waiting_count(self, addr):
        queue = self._waiting.get(addr)
        return len(queue) if queue else 0

    def __repr__(self):
        return "CombiningStore(%d/%d occupied, %d addresses waiting)" % (
            self.occupancy, self.capacity, len(self._waiting),
        )


class CombiningTable:
    """A switch's bounded output queue with in-flight request merging.

    Requests leave in arrival order (it *is* the output queue), but while
    one waits for link bandwidth a newly arriving request for the same
    (op, addr) merges into it via the operation's reduction --
    ``combine(op, old, new)`` -- instead of occupying a second entry.
    Merging is exact because every combinable operation is associative and
    commutative (:data:`NETWORK_COMBINABLE_OPS`); fetch-adds, reads and
    writes are never merged and simply queue.

    The CAM index tracks one waiting entry per merge key; requests whose
    operand has already been drained into the link pipe are past merging,
    exactly like combining-store entries past FU issue.
    """

    __slots__ = ("capacity", "merges", "peak_occupancy", "_queue", "_index")

    def __init__(self, entries):
        if entries < 1:
            raise ValueError("combining table needs >= 1 entry")
        self.capacity = entries
        self.merges = 0
        self.peak_occupancy = 0
        self._queue = deque()
        self._index = {}  # merge key -> waiting MemoryRequest

    @staticmethod
    def merge_key(request):
        """CAM key: operation, address, and routing/combining intent.

        A cache-combining delta (``combining=True``) must not merge with a
        direct home-bound update for the same address -- they take
        different paths at the destination -- and hierarchically-routed
        partial sums only merge when bound for the same intermediate node.
        """
        return (request.op, request.addr, request.combining,
                request.route_to)

    def try_merge(self, request):
        """Fold `request` into a waiting same-key entry; True on success."""
        if request.op not in NETWORK_COMBINABLE_OPS:
            return False
        waiting = self._index.get(self.merge_key(request))
        if waiting is None:
            return False
        waiting.value = combine(request.op, waiting.value, request.value)
        self.merges += 1
        return True

    def append(self, request):
        """Queue a request (callers must check :attr:`full` and stall)."""
        if len(self._queue) >= self.capacity:
            raise OverflowError("combining table full")
        self._queue.append(request)
        if request.op in NETWORK_COMBINABLE_OPS:
            self._index[self.merge_key(request)] = request
        occupancy = len(self._queue)
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy

    def pop(self):
        """Dequeue the oldest request; it can no longer absorb merges."""
        request = self._queue.popleft()
        if request.op in NETWORK_COMBINABLE_OPS:
            key = self.merge_key(request)
            if self._index.get(key) is request:
                del self._index[key]
        return request

    @property
    def full(self):
        return len(self._queue) >= self.capacity

    def __len__(self):
        return len(self._queue)

    def __bool__(self):
        return bool(self._queue)

    def __repr__(self):
        return "CombiningTable(%d/%d queued, %d merges)" % (
            len(self._queue), self.capacity, self.merges,
        )
