"""DRAM models.

Both models are *endpoints*: they accept :class:`MemoryRequest` messages on
an input FIFO, apply them to a :class:`~repro.memory.backing.MainMemory`
after the modelled delay, and push responses into each request's
``reply_to`` FIFO.  Atomic operations never reach these models -- the
scatter-add unit in front of them turns atomics into plain reads and
writes.

:class:`DRAMSystem` is the banked, channel-interleaved model of the base
configuration; :class:`UniformMemory` is the cache-less fixed
latency/throughput structure the Section 4.4 sensitivity studies use.
"""

import heapq
from collections import deque

import numpy as np

from repro.memory.address import channel_of
from repro.memory.request import OP_READ, OP_WRITE, MemoryResponse
from repro.sim.engine import Component


class _MemoryEndpoint(Component):
    """Shared functional behaviour: apply requests, deliver responses."""

    def __init__(self, memory, stats, name):
        super().__init__(name)
        self.memory = memory
        self.stats = stats
        self._due = []  # heap of (ready_cycle, seq, request)
        self._retry = deque()  # responses blocked on a full reply FIFO
        self._seq = 0
        # Typed metric handles (see repro.obs.metrics); counters write
        # through to `stats` under the exact legacy names.
        self._m_reads = stats.counter(name + ".reads")
        self._m_read_words = stats.counter(name + ".read_words")
        self._m_writes = stats.counter(name + ".writes")
        self._m_write_words = stats.counter(name + ".write_words")
        self._m_busy_cycles = stats.counter(name + ".busy_cycles")

    def _schedule(self, request, ready_cycle):
        heapq.heappush(self._due, (ready_cycle, self._seq, request))
        self._seq += 1

    def _complete_due(self, now):
        """Apply and respond to every request whose delay has elapsed."""
        while self._due and self._due[0][0] <= now:
            __, __, request = heapq.heappop(self._due)
            self._apply(request)
        while self._retry:
            response, reply_to = self._retry[0]
            if not reply_to.can_push():
                break
            reply_to.push(response)
            self._retry.popleft()

    def _apply_functional(self, request):
        """Apply the request to backing memory; returns the read value."""
        if request.op == OP_READ:
            self._m_reads.inc()
            self._m_read_words.inc(request.words)
            if request.words == 1:
                return self.memory.read_word(request.addr)
            return self.memory.read_line(request.addr, request.words)
        if request.op == OP_WRITE:
            self._m_writes.inc()
            self._m_write_words.inc(request.words)
            if request.words == 1:
                self.memory.write_word(request.addr, request.value)
            else:
                self.memory.write_line(request.addr, request.value)
            return None
        raise ValueError(
            "%s received non-read/write request %r; atomics must be "
            "handled by a scatter-add unit" % (self.name, request)
        )

    def _apply(self, request):
        value = self._apply_functional(request)
        if request.reply_to is not None:
            response = MemoryResponse(
                request.op, request.addr, value, tag=request.tag,
                words=request.words, trace=request.trace,
            )
            # Queue behind earlier blocked responses to preserve delivery
            # order (a fresh response must not overtake a retrying one).
            if not self._retry and request.reply_to.can_push():
                request.reply_to.push(response)
            else:
                self._retry.append((response, request.reply_to))

    @property
    def busy(self):
        return bool(self._due) or bool(self._retry)


class DRAMSystem(_MemoryEndpoint):
    """Channel-interleaved DRAM with per-channel word throughput.

    Each channel accepts a new transaction only when idle; a transaction of
    *w* words occupies the channel for ``w * interval`` cycles, and its data
    is available (and its functional effect applied) ``latency`` cycles
    after the transfer completes.  Aggregate peak bandwidth is therefore
    ``channels / interval`` words/cycle -- 38.4 GB/s with the Table 1
    parameters.

    Two detail levels (``config.dram_model``):

    - ``"flat"`` -- every transaction pays the average ``dram_latency``
      (the paper's simplification: "with memory access scheduling this
      variance is kept small").
    - ``"rowbuffer"`` -- each channel keeps one open row; accesses hitting
      it pay ``dram_row_hit_latency``, conflicts pay
      ``dram_row_miss_latency``.  ``config.dram_scheduling`` selects
      in-order service or FR-FCFS (row hits first -- memory access
      scheduling, Rixner et al. [34]).
    """

    #: Scheduler look-ahead window per channel (FR-FCFS).
    SCHED_WINDOW = 8

    def __init__(self, sim, config, memory, stats, name="dram"):
        super().__init__(memory, stats, name)
        self.channels = config.dram_channels
        self.interval = config.dram_channel_interval
        self.latency = config.dram_latency
        self.line_words = config.cache_line_words
        self.row_model = config.dram_model == "rowbuffer"
        self.row_words = config.dram_row_words
        self.hit_latency = config.dram_row_hit_latency
        self.miss_latency = config.dram_row_miss_latency
        self.frfcfs = config.dram_scheduling == "frfcfs"
        self._m_sched_reorders = stats.counter(name + ".sched_reorders")
        self._m_row_hits = stats.counter(name + ".row_hits")
        self._m_row_misses = stats.counter(name + ".row_misses")
        self.req_in = sim.fifo(capacity=4 * self.channels, name=name + ".req_in")
        self._channel_queues = [deque() for _ in range(self.channels)]
        self._channel_free_at = [0] * self.channels
        self._open_rows = [None] * self.channels
        self.watch(self.req_in)
        sim.register(self)

    def _pick(self, queue, channel):
        """Select the next ``(request, row)`` transaction for a channel.

        In-order takes the head.  FR-FCFS scans a small window for the
        oldest request hitting the open row ("first ready"), falling back
        to the oldest request.  Rows were classified when the request was
        routed, so the scan is pure comparisons.
        """
        if not self.row_model or not self.frfcfs:
            return queue.popleft()
        open_row = self._open_rows[channel]
        limit = min(len(queue), self.SCHED_WINDOW)
        for position in range(limit):
            if queue[position][1] == open_row:
                entry = queue[position]
                del queue[position]
                self._m_sched_reorders.inc(1 if position else 0)
                return entry
        return queue.popleft()

    def _access_latency(self, row, channel):
        if not self.row_model:
            return self.latency
        if row == self._open_rows[channel]:
            self._m_row_hits.inc()
            return self.hit_latency
        self._open_rows[channel] = row
        self._m_row_misses.inc()
        return self.miss_latency

    def tick(self, now):
        self._complete_due(now)
        # Route arrived requests to their home channel (one per channel/cycle
        # of routing bandwidth, which never binds in practice).
        routed = 0
        while len(self.req_in) and routed < self.channels:
            request = self.req_in.pop()
            channel = channel_of(request.addr, self.channels, self.line_words)
            row = request.addr // self.row_words if self.row_model else None
            self._channel_queues[channel].append((request, row))
            routed += 1
        # Start one transaction per idle channel.
        for channel in range(self.channels):
            queue = self._channel_queues[channel]
            if not queue or self._channel_free_at[channel] > now:
                continue
            request, row = self._pick(queue, channel)
            transfer = request.words * self.interval
            access = self._access_latency(row, channel)
            # Under the row model a conflict also occupies the channel for
            # the precharge/activate time, costing bandwidth, not just
            # latency.
            occupied = transfer
            if self.row_model:
                occupied += access - self.hit_latency
            self._channel_free_at[channel] = now + occupied
            if request.trace is not None:
                # Queue wait ends when the channel picks the transaction;
                # the burst span covers transfer plus access latency.
                request.trace.leg(self.name, "dram.queue", now)
                request.trace.leg(self.name, "dram.burst",
                                  now + transfer + access)
            self._schedule(request, now + transfer + access)
            self._m_busy_cycles.inc(occupied)

    def next_wake(self, now):
        if self._retry or self.req_in.occupancy:
            return now + 1
        wake = self._due[0][0] if self._due else None
        for channel in range(self.channels):
            if not self._channel_queues[channel]:
                continue
            free_at = self._channel_free_at[channel]
            candidate = free_at if free_at > now else now + 1
            if wake is None or candidate < wake:
                wake = candidate
        if wake is not None and wake <= now:
            wake = now + 1
        return wake

    def open_row_burst(self, releases, words=1, first_is_miss=False,
                       free_at=0):
        """Closed-form FR-FCFS service of a same-row burst on one channel.

        `releases` are the cycles at which each transaction becomes
        schedulable (FIFO commit cycles), sorted ascending.  While every
        transaction targets the channel's open row, FR-FCFS never
        reorders, each transfer occupies the channel for
        ``words * interval`` cycles, and each access pays the row-hit
        latency -- so the start schedule is the
        :func:`~repro.sim.fastforward.maxplus_scan` of the releases with the
        occupancy as the gap.  `first_is_miss` models the row-transition
        boundary: the first access pays the miss latency *and* occupies
        the channel for the extra precharge/activate cycles, after which
        the row is open for the rest of the burst.  Returns ``(starts,
        completions)`` as int64 arrays, bit-identical to stepping
        :meth:`tick` over the same single-channel traffic.
        """
        # Function-local: repro.sim.fastforward imports repro.memory,
        # whose package init imports this module.
        from repro.sim.fastforward import maxplus_scan

        releases = np.asarray(releases, dtype=np.int64)
        if releases.size == 0:
            return releases.copy(), releases.copy()
        if not self.row_model:
            first_is_miss = False
        occupied = np.int64(words * self.interval)
        hit_access = self.hit_latency if self.row_model else self.latency
        first_access = self.miss_latency if first_is_miss else hit_access
        first_occupied = occupied + (first_access - hit_access)
        first_start = max(int(releases[0]), int(free_at))
        rest_starts = maxplus_scan(
            releases[1:], occupied,
            init=first_start + int(first_occupied) - int(occupied))
        starts = np.empty(releases.size, dtype=np.int64)
        starts[0] = first_start
        starts[1:] = rest_starts
        completions = starts + words * self.interval + hit_access
        completions[0] = first_start + words * self.interval + first_access
        return starts, completions

    @property
    def busy(self):
        return super().busy or any(self._channel_queues)

    def obs_probes(self):
        return (
            ("queued", lambda now: self.req_in.occupancy + sum(
                len(queue) for queue in self._channel_queues)),
            ("busy_channels", lambda now: sum(
                1 for free_at in self._channel_free_at if free_at > now)),
            ("inflight", lambda now: len(self._due)),
        )


class UniformMemory(_MemoryEndpoint):
    """The sensitivity-study memory: fixed interval, fixed latency, no banks.

    "Throughput is modeled by a fixed cycle interval between successive
    memory word accesses, and latency by a fixed value which corresponds to
    the average expected memory delay."  (Section 4.4)
    """

    def __init__(self, sim, config, memory, stats, name="mem"):
        super().__init__(memory, stats, name)
        self.interval = config.uniform_interval
        self.latency = config.uniform_latency
        self.req_in = sim.fifo(capacity=64, name=name + ".req_in")
        self._free_at = 0
        self.watch(self.req_in)
        sim.register(self)

    def tick(self, now):
        self._complete_due(now)
        if len(self.req_in) and self._free_at <= now:
            request = self.req_in.pop()
            transfer = request.words * self.interval
            self._free_at = now + transfer
            if request.trace is not None:
                request.trace.leg(self.name, "dram.queue", now)
                request.trace.leg(self.name, "dram.burst",
                                  now + transfer + self.latency)
            self._schedule(request, now + transfer + self.latency)
            self._m_busy_cycles.inc(transfer)

    def uniform_window_ready(self):
        """True when a uniform fast-forward window may start here.

        The fixed-function memory has no rows or banks, so the only
        state that can perturb a window is a transiting request or a
        blocked response: the input FIFO must be idle and no in-flight
        transaction or response may be pending.  (``_free_at`` is
        analytic history, honoured by the fast-forward recurrence.)
        """
        return self.req_in.idle and not self._due and not self._retry

    def next_wake(self, now):
        if self._retry:
            return now + 1
        wake = self._due[0][0] if self._due else None
        if self.req_in.occupancy:
            candidate = self._free_at if self._free_at > now else now + 1
            if wake is None or candidate < wake:
                wake = candidate
        if wake is not None and wake <= now:
            wake = now + 1
        return wake

    def obs_probes(self):
        return (
            ("queued", lambda now: self.req_in.occupancy),
            ("port_busy", lambda now: 1 if self._free_at > now else 0),
            ("inflight", lambda now: len(self._due)),
        )
