"""Memory request and response messages, and the atomic-operation algebra.

Addresses are *word* addresses (one word = 8 bytes, see
:data:`repro.config.WORD_BYTES`).  Besides plain reads and writes, requests
carry the atomic operations the scatter-add unit implements: the paper's
core ``scatter-add``, the commutative/associative extensions it mentions in
Section 3.3 (min, max, multiply), and the parallel ``fetch-add`` variant
with a return path for the pre-update value.
"""

OP_READ = "read"
OP_WRITE = "write"
OP_SCATTER_ADD = "scatter_add"
OP_SCATTER_MIN = "scatter_min"
OP_SCATTER_MAX = "scatter_max"
OP_SCATTER_MUL = "scatter_mul"
OP_FETCH_ADD = "fetch_add"

#: Operations handled by the scatter-add unit (everything except plain
#: reads/writes, which bypass it).
ATOMIC_OPS = frozenset(
    (OP_SCATTER_ADD, OP_SCATTER_MIN, OP_SCATTER_MAX, OP_SCATTER_MUL, OP_FETCH_ADD)
)

_COMBINERS = {
    OP_SCATTER_ADD: lambda old, new: old + new,
    OP_FETCH_ADD: lambda old, new: old + new,
    OP_SCATTER_MIN: min,
    OP_SCATTER_MAX: max,
    OP_SCATTER_MUL: lambda old, new: old * new,
}

_IDENTITIES = {
    OP_SCATTER_ADD: 0.0,
    OP_FETCH_ADD: 0.0,
    OP_SCATTER_MIN: float("inf"),
    OP_SCATTER_MAX: float("-inf"),
    OP_SCATTER_MUL: 1.0,
}


def combine(op, old, new):
    """Apply atomic operation `op` to the memory value `old` and operand `new`."""
    try:
        return _COMBINERS[op](old, new)
    except KeyError:
        raise ValueError("not an atomic operation: %r" % (op,))


def identity_value(op):
    """Identity element of `op` (used by cache allocate-at-identity combining)."""
    try:
        return _IDENTITIES[op]
    except KeyError:
        raise ValueError("not an atomic operation: %r" % (op,))


class MemoryRequest:
    """One word-granularity memory request.

    Attributes
    ----------
    op:
        One of the ``OP_*`` constants.
    addr:
        Word address.
    value:
        Operand for writes and atomic operations; ignored for reads.
    reply_to:
        FIFO to push the :class:`MemoryResponse` / acknowledgement into.
        ``None`` suppresses the response (fire-and-forget write).
    tag:
        Opaque requester tag echoed in the response (stream-slot index,
        originating node, ...).
    words:
        Transfer size in words (line fills/write-backs use the line size;
        ordinary stream references use 1).
    combining:
        Multi-node cache-combining hint: a read miss for a combining
        address allocates the line at the operation identity instead of
        fetching it from the (remote) home node, and its eviction becomes a
        *sum-back* (Section 3.2, multi-node scatter-add).
    route_to:
        Explicit destination node overriding home-of-address routing.
        Used by hierarchical combining (the paper's Section 5 future-work
        optimisation) to send partial sums to an intermediate node of the
        logical combining tree instead of straight home.
    trace:
        The :class:`~repro.obs.tracing.RequestTrace` riding on a sampled
        request (``None`` for the unsampled vast majority).  Components
        record journey legs on it; derived requests (value reads, line
        fills) carry the same trace so the legs tile one timeline.
    """

    __slots__ = ("op", "addr", "value", "reply_to", "tag", "words",
                 "combining", "route_to", "trace")

    def __init__(self, op, addr, value=0.0, reply_to=None, tag=None, words=1,
                 combining=False, route_to=None, trace=None):
        self.op = op
        self.addr = addr
        self.value = value
        self.reply_to = reply_to
        self.tag = tag
        self.words = words
        self.combining = combining
        self.route_to = route_to
        self.trace = trace

    @property
    def is_atomic(self):
        return self.op in ATOMIC_OPS

    def __repr__(self):
        return "MemoryRequest(%s, addr=%d, value=%r, words=%d, tag=%r)" % (
            self.op,
            self.addr,
            self.value,
            self.words,
            self.tag,
        )


class MemoryResponse:
    """Completion message for a request that asked for one.

    For reads and fetch-adds `value` carries data (for fetch-add, the value
    *before* the addition, per the Fetch&Op semantics).  For scatter-adds it
    is the acknowledgement the unit sends to the address generator once the
    sum is computed (step 6 in Figure 4).
    """

    __slots__ = ("op", "addr", "value", "tag", "words", "trace")

    def __init__(self, op, addr, value=0.0, tag=None, words=1, trace=None):
        self.op = op
        self.addr = addr
        self.value = value
        self.tag = tag
        self.words = words
        self.trace = trace

    def __repr__(self):
        return "MemoryResponse(%s, addr=%d, value=%r, tag=%r)" % (
            self.op,
            self.addr,
            self.value,
            self.tag,
        )
