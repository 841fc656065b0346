"""Columnar request machinery: object pools and array-at-a-time kernels.

The columnar scheduler (``Simulator(scheduler="columnar")``) lets hot
components process a *batch* of requests per tick instead of one.  This
module supplies the shared building blocks:

- :class:`RequestPool` -- preallocated, free-list recycled
  :class:`~repro.memory.request.MemoryRequest` objects backed by a numpy
  structured array of the hot fields (addr, value, op, stage, issue
  cycle).  Stream phases issue tens of thousands of requests whose
  lifetime is a few hundred cycles; recycling removes the allocator from
  the hot path and keeps the live set in a compact, inspectable block.
- :func:`combine_batch` / :func:`chain_prefix` -- the group-by-index
  combine kernels.  Both honour the paper's combine algebra (add, min,
  max, multiply) and are **bit-identical** to the scalar
  ``combine(old, new)`` left fold: ``np.ufunc.at`` applies duplicate
  indices in order of appearance and ``np.ufunc.accumulate`` is a
  sequential prefix fold, so floating-point non-associativity never
  produces a divergent bit pattern.
- :class:`AckBatch` -- several acknowledgements delivered as one queue
  entry at the cycle the *last* of them would have arrived (safe because
  only the final acknowledgement of a stream op is observable: it flips
  ``op.done``; earlier ones only increment a counter).
- :class:`ColumnarMetrics` -- the ``sim.columnar.*`` counter family
  (batch sizes, pool high-water mark, scalar fallbacks) reported through
  the :class:`~repro.obs.metrics.MetricRegistry`.
"""

import numpy as np

from repro.memory.request import (
    OP_FETCH_ADD,
    OP_READ,
    OP_SCATTER_ADD,
    OP_SCATTER_MAX,
    OP_SCATTER_MIN,
    OP_SCATTER_MUL,
    OP_WRITE,
    MemoryRequest,
)

#: Numeric codes for the ``op`` column of the structured request block.
OP_CODES = {
    OP_READ: 0,
    OP_WRITE: 1,
    OP_SCATTER_ADD: 2,
    OP_SCATTER_MIN: 3,
    OP_SCATTER_MAX: 4,
    OP_SCATTER_MUL: 5,
    OP_FETCH_ADD: 6,
}

#: Lifecycle stages recorded in the ``stage`` column.
STAGE_FREE = 0
STAGE_ISSUED = 1

#: One row per pooled request: the fields every hot loop touches.
REQUEST_DTYPE = np.dtype([
    ("addr", np.int64),
    ("value", np.float64),
    ("op", np.int8),
    ("stage", np.int8),
    ("issue_cycle", np.int64),
])

_UFUNCS = {
    OP_SCATTER_ADD: np.add,
    OP_FETCH_ADD: np.add,
    OP_SCATTER_MIN: np.minimum,
    OP_SCATTER_MAX: np.maximum,
    OP_SCATTER_MUL: np.multiply,
}


def batch_ufunc(op):
    """The numpy ufunc implementing atomic operation `op` (KeyError-safe)."""
    try:
        return _UFUNCS[op]
    except KeyError:
        raise ValueError("not an atomic operation: %r" % (op,))


def combine_batch(op, target, indices, operands):
    """Apply one batch of atomic updates to `target`, in place.

    Equivalent to the scalar combining-store fold::

        for i, v in zip(indices, operands):
            target[i] = combine(op, target[i], v)

    Duplicate indices within the batch are applied in order of
    appearance (``np.ufunc.at`` is unbuffered and sequential), so the
    result is bit-identical to the scalar loop -- including
    floating-point rounding for chains of additions and tie behaviour
    for min/max.  Empty batches are a no-op.  Returns `target`.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return target
    operands = np.broadcast_to(
        np.asarray(operands, dtype=np.float64), indices.shape)
    batch_ufunc(op).at(target, indices, operands)
    return target


def chain_prefix(op, start, operands):
    """Results of a same-address combining chain, one per operand.

    The scatter-add unit chains same-address updates through the FU:
    ``r0 = combine(start, v0); r1 = combine(r0, v1); ...``.  This computes
    every intermediate result in one vector pass
    (``np.ufunc.accumulate`` is a sequential left fold, so the bit
    patterns match the scalar chain exactly).  Returns a float64 array of
    ``len(operands)`` results; the last element is the final sum.
    """
    operands = np.asarray(operands, dtype=np.float64)
    chain = np.empty(operands.size + 1, dtype=np.float64)
    chain[0] = start
    chain[1:] = operands
    return batch_ufunc(op).accumulate(chain)[1:]


class AckBatch:
    """Several acknowledgements travelling as one queue entry.

    Pushed at the cycle the *last* contained response would have been
    pushed; consumers unpack it in order.  Only used for untraced
    responses (traced ones record per-leg cycle stamps and are delivered
    individually).
    """

    __slots__ = ("responses",)

    def __init__(self, responses):
        self.responses = responses

    def __len__(self):
        return len(self.responses)

    def __repr__(self):
        return "AckBatch(%d responses)" % (len(self.responses),)


class RequestPool:
    """Free-list recycled :class:`MemoryRequest` objects with column backing.

    ``acquire`` hands out a recycled request (allocating a fresh one only
    when the pool is empty, growing the column block geometrically);
    ``release`` returns it once its terminal consumer has copied the
    fields out.  The structured :attr:`columns` array mirrors the hot
    fields of every slot for array-at-a-time inspection and for the
    pool-occupancy metrics.
    """

    def __init__(self, size=64):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self._objects = [MemoryRequest(OP_WRITE, 0) for _ in range(size)]
        for slot, request in enumerate(self._objects):
            request.tag = slot  # temporary: slot id until first acquire
        self._slot_of = {id(obj): slot
                         for slot, obj in enumerate(self._objects)}
        self.columns = np.zeros(size, dtype=REQUEST_DTYPE)
        self._free = list(range(size))
        self.high_water = 0
        self.total_acquired = 0
        self.total_recycled = 0

    @property
    def capacity(self):
        return len(self._objects)

    @property
    def in_use(self):
        return len(self._objects) - len(self._free)

    def _grow(self):
        grown = max(1, len(self._objects))
        for __ in range(grown):
            request = MemoryRequest(OP_WRITE, 0)
            self._slot_of[id(request)] = len(self._objects)
            self._free.append(len(self._objects))
            self._objects.append(request)
        block = np.zeros(len(self._objects), dtype=REQUEST_DTYPE)
        block[:self.columns.size] = self.columns
        self.columns = block

    def acquire(self, op, addr, value=0.0, reply_to=None, tag=None,
                combining=False, now=0):
        """Check a request out of the pool and initialise every field."""
        if not self._free:
            self._grow()
        else:
            self.total_recycled += 1
        slot = self._free.pop()
        request = self._objects[slot]
        request.op = op
        request.addr = addr
        request.value = value
        request.reply_to = reply_to
        request.tag = tag
        request.words = 1
        request.combining = combining
        request.route_to = None
        request.trace = None
        row = self.columns[slot]
        row["addr"] = addr
        row["value"] = value
        row["op"] = OP_CODES.get(op, -1)
        row["stage"] = STAGE_ISSUED
        row["issue_cycle"] = now
        self.total_acquired += 1
        if self.in_use > self.high_water:
            self.high_water = self.in_use
        return request

    def release(self, request):
        """Return a pooled request to the free list (no-op for strangers).

        Requests that were not drawn from this pool -- a trace-stamped
        request kept alive elsewhere, a foreign construction -- are left
        alone, so callers can release unconditionally at the terminal
        consumption point.
        """
        slot = self._slot_of.get(id(request))
        if slot is None:
            return False
        request.reply_to = None
        request.tag = None
        request.trace = None
        self.columns[slot]["stage"] = STAGE_FREE
        self._free.append(slot)
        return True

    def __repr__(self):
        return "RequestPool(%d/%d in use, high water %d)" % (
            self.in_use, self.capacity, self.high_water,
        )


class ColumnarMetrics:
    """The ``sim.columnar.*`` counter family (see ``report.engine_summary``).

    - ``sim.columnar.bursts`` -- batched ticks executed
    - ``sim.columnar.batched_events`` -- per-cycle events folded into them
    - ``sim.columnar.scalar_fallbacks`` -- ticks that ran the scalar path
      while the columnar engine was active (probes installed, tracing on,
      unsupported traffic shape)
    - ``sim.columnar.acks_batched`` -- acknowledgements coalesced into
      :class:`AckBatch` deliveries
    - ``sim.columnar.batch_size`` -- histogram of burst sizes
    - ``sim.columnar.pool_high_water`` -- request-pool peak occupancy
    """

    PREFIX = "sim.columnar"

    def __init__(self, registry):
        prefix = self.PREFIX
        self.bursts = registry.counter(prefix + ".bursts")
        self.batched_events = registry.counter(prefix + ".batched_events")
        self.scalar_fallbacks = registry.counter(prefix + ".scalar_fallbacks")
        self.acks_batched = registry.counter(prefix + ".acks_batched")
        self.batch_size = registry.histogram(
            prefix + ".batch_size", (1, 2, 4, 8, 16, 32, 64, 128, 256))
        self.pool_high_water = registry.gauge(prefix + ".pool_high_water")

    def record_burst(self, events):
        self.bursts.inc()
        self.batched_events.inc(events)
        self.batch_size.observe(events)
