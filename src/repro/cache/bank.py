"""One bank of the address-partitioned stream cache.

Each bank is a set-associative, write-back, write-allocate cache slice with
miss-status holding registers (MSHRs).  Banks own an interleaved slice of
the address space, so a given line is only ever present in one bank -- the
property that lets a per-bank scatter-add unit guarantee atomicity.

Multi-node combining support (Section 3.2 of the paper):

- a read carrying ``combining=True`` that misses allocates its line filled
  with zeros instead of fetching from the (remote) home node;
- evicting a combining line performs a *sum-back*: the dirty words are
  handed to ``sumback_sink`` (the network interface turns them into remote
  scatter-adds) instead of being written back;
- :meth:`request_flush` initiates the flush-with-sum-back synchronisation
  step, which proceeds at the bank's eviction bandwidth.
"""

import heapq
from collections import OrderedDict, deque

from repro.memory.address import line_base
from repro.memory.request import (
    OP_READ,
    OP_WRITE,
    MemoryRequest,
    MemoryResponse,
    combine,
    identity_value,
)
from repro.sim.engine import Component


class _Line:
    __slots__ = ("base", "values", "dirty", "combining", "identity")

    def __init__(self, base, values, combining=False, identity=0.0):
        self.base = base
        self.values = values
        self.dirty = [False] * len(values)
        self.combining = combining
        #: Neutral element the line was allocated at; a summed-back word
        #: resets to this so a later reclaim cannot re-send its delta.
        self.identity = identity

    @property
    def any_dirty(self):
        return any(self.dirty)


class CacheBank(Component):
    """A single cache bank in front of one slice of DRAM.

    Parameters
    ----------
    sim, config, stats:
        Simulation engine, machine configuration and shared counters.
    mem_req_out:
        FIFO feeding the DRAM model (line fills and write-backs go here).
    sumback_sink:
        Callable ``(addr, value) -> bool`` used to dispose of dirty words of
        combining lines; returns False to ask the bank to retry later.
        ``None`` makes combining evictions fall back to write-backs.
    """

    def __init__(self, sim, config, stats, mem_req_out, name="bank",
                 sumback_sink=None):
        super().__init__(name)
        self.stats = stats
        self.line_words = config.cache_line_words
        self.assoc = config.cache_associativity
        self.sets = config.cache_sets_per_bank
        self.hit_latency = config.cache_hit_latency
        self.width = config.bank_words_per_cycle
        self.mshr_count = max(4, config.combining_store_entries)
        self.mem_req_out = mem_req_out
        self.sumback_sink = sumback_sink

        # Banks are line-interleaved across the cache, so consecutive lines
        # *within this bank* differ by `cache_banks`; divide that stride out
        # before set selection or only 1/banks of the sets would be used.
        self._bank_stride = config.cache_banks

        # Typed metric handles (see repro.obs.metrics): created once,
        # bumped on the hot path; counters write through to `stats`.
        self._m_hits = stats.counter(name + ".hits")
        self._m_misses = stats.counter(name + ".misses")
        self._m_mshr_hits = stats.counter(name + ".mshr_hits")
        self._m_writebacks = stats.counter(name + ".writebacks")
        self._m_sumbacks = stats.counter(name + ".sumbacks")
        self._m_sumback_words = stats.counter(name + ".sumback_words")
        self._m_victim_reclaims = stats.counter(name + ".victim_reclaims")
        self._m_combining_allocs = stats.counter(name + ".combining_allocs")

        self.req_in = sim.fifo(capacity=8, name=name + ".req_in")
        self.fill_in = sim.fifo(capacity=None, name=name + ".fill_in")

        # Sets are allocated on first use: most runs touch few of them,
        # and building them all dominated machine construction.
        self._sets = [None] * self.sets  # OrderedDict line_idx -> _Line
        self._mshrs = {}  # line_idx -> list of waiting MemoryRequest
        self._mshr_issue = deque()  # fills not yet accepted by mem_req_out
        self._evict_retry = deque()  # (line, kind) blocked write-backs/sum-backs
        self._due = []  # heap of (ready_cycle, seq, response, reply_to)
        self._seq = 0
        self._flushing = False
        # Wake/sleep protocol: requests and fills wake the bank; a pop of a
        # full mem_req_out unblocks queued fill issues and write-backs.
        self.watch(self.req_in, self.fill_in)
        self.feeds(mem_req_out)
        sim.register(self)

    def uniform_window_ready(self):
        """True when no bank-side state can perturb a uniform window.

        Pending MSHRs, unissued fills, blocked evictions, queued responses
        or an in-progress flush all make the next cycles depend on future
        arbitration; resident lines (clean or dirty) are pure history and
        do not disqualify a window.  Kept for collapsing all-hit cached
        windows; the fast-forward declines every cached topology today.
        """
        return (self.req_in.idle and self.fill_in.idle
                and not self._mshrs and not self._mshr_issue
                and not self._evict_retry and not self._due
                and not self._flushing)

    # ------------------------------------------------------------------ #
    # set bookkeeping
    # ------------------------------------------------------------------ #
    def _set_of(self, line_idx):
        index = (line_idx // self._bank_stride) % self.sets
        lines = self._sets[index]
        if lines is None:
            lines = self._sets[index] = OrderedDict()
        return lines

    def _lookup(self, line_idx):
        lines = self._set_of(line_idx)
        line = lines.get(line_idx)
        if line is not None:
            lines.move_to_end(line_idx)
        return line

    def _install(self, line_idx, line):
        lines = self._set_of(line_idx)
        while len(lines) >= self.assoc:
            __, victim = lines.popitem(last=False)
            self._evict(victim)
        lines[line_idx] = line

    def _evict(self, line):
        if line.combining and self.sumback_sink is not None:
            if line.any_dirty:
                self._evict_retry.append((line, "sumback"))
            return
        if line.any_dirty:
            self._evict_retry.append((line, "writeback"))

    def _drain_evictions(self):
        """Issue blocked write-backs / sum-backs, respecting back-pressure."""
        progressed = True
        while self._evict_retry and progressed:
            line, kind = self._evict_retry[0]
            if kind == "writeback":
                if not self.mem_req_out.can_push():
                    progressed = False
                    continue
                self.mem_req_out.push(
                    MemoryRequest(OP_WRITE, line.base, list(line.values),
                                  words=self.line_words)
                )
                self._m_writebacks.inc()
                self._evict_retry.popleft()
            else:  # sum-back: one request per dirty word
                while line.any_dirty:
                    offset = line.dirty.index(True)
                    if not self.sumback_sink(line.base + offset,
                                             line.values[offset]):
                        progressed = False
                        break
                    line.dirty[offset] = False
                    # The delta has left the line; reset to identity so a
                    # victim reclaim cannot double-count it.
                    line.values[offset] = line.identity
                    self._m_sumback_words.inc()
                else:
                    self._m_sumbacks.inc()
                    self._evict_retry.popleft()
                    continue
                break

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #
    def _respond(self, request, value, now):
        if request.reply_to is None:
            return
        response = MemoryResponse(request.op, request.addr, value,
                                  tag=request.tag, words=request.words,
                                  trace=request.trace)
        heapq.heappush(
            self._due, (now + self.hit_latency, self._seq, response,
                        request.reply_to)
        )
        self._seq += 1

    def _apply_to_line(self, request, line, now):
        offset = request.addr - line.base
        if request.op == OP_READ:
            self._respond(request, line.values[offset], now)
        elif request.op == OP_WRITE:
            line.values[offset] = request.value
            line.dirty[offset] = True
            self._respond(request, None, now)
        elif request.is_atomic and request.combining:
            # Cache-combining merge (multi-node, Section 3.2): the line
            # accumulates a delta that eviction will sum-back to the home
            # node.  Applied in one access, so no eviction can interleave.
            line.values[offset] = combine(request.op, line.values[offset],
                                          request.value)
            line.dirty[offset] = True
            self._respond(request, None, now)
        else:
            raise ValueError(
                "%s received atomic request %r; non-combining atomics are "
                "handled by the scatter-add unit in front of the bank"
                % (self.name, request)
            )

    def _reclaim_victim(self, line_idx):
        """Pull a pending eviction of `line_idx` back out of the retry queue.

        A miss must not fetch a line from DRAM while that line's dirty
        victim is still waiting to be written (or summed) back -- the fetch
        would overtake the write-back in the memory system and return stale
        data.  Real write-back buffers forward such hits; we reinstall the
        victim (any words already summed back stay clean, so combining
        deltas are not double counted).
        """
        for position, (line, __) in enumerate(self._evict_retry):
            if line.base // self.line_words == line_idx:
                del self._evict_retry[position]
                self._m_victim_reclaims.inc()
                return line
        return None

    def _handle_request(self, request, now):
        """Returns True if the request was consumed."""
        line_idx = request.addr // self.line_words
        line = self._lookup(line_idx)
        if line is None:
            line = self._reclaim_victim(line_idx)
            if line is not None:
                self._install(line_idx, line)
        if line is not None:
            if request.trace is not None:
                request.trace.leg(self.name, "bank.queue", now)
            self._m_hits.inc()
            self._apply_to_line(request, line, now)
            return True
        if line_idx in self._mshrs:
            # Secondary miss: piggyback on the outstanding fill.
            if request.trace is not None:
                request.trace.leg(self.name, "bank.queue", now)
            self._mshrs[line_idx].append(request)
            self._m_mshr_hits.inc()
            return True
        if len(self._mshrs) >= self.mshr_count:
            return False  # stall: all MSHRs busy
        if request.trace is not None:
            request.trace.leg(self.name, "bank.queue", now)
        self._m_misses.inc()
        base = line_base(request.addr, self.line_words)
        if request.combining:
            # Allocate at the operation identity without fetching.
            fill = identity_value(request.op) if request.is_atomic else 0.0
            line = _Line(base, [fill] * self.line_words, combining=True,
                         identity=fill)
            self._install(line_idx, line)
            self._m_combining_allocs.inc()
            self._apply_to_line(request, line, now)
            return True
        self._mshrs[line_idx] = [request]
        # The primary miss's trace rides the line fill through DRAM.
        self._mshr_issue.append((line_idx, base, request.trace))
        return True

    def _handle_fill(self, response, now):
        line_idx = response.addr // self.line_words
        waiting = self._mshrs.pop(line_idx, [])
        line = _Line(response.addr, list(response.value))
        self._install(line_idx, line)
        if response.trace is not None:
            response.trace.leg(self.name, "bank.fill", now)
        for request in waiting:
            if (request.trace is not None
                    and request.trace is not response.trace):
                # Secondary traced miss: it waited on someone else's fill.
                request.trace.leg(self.name, "bank.mshr", now)
            self._apply_to_line(request, line, now)

    # ------------------------------------------------------------------ #
    # flush support (multi-node synchronisation step)
    # ------------------------------------------------------------------ #
    def request_flush(self):
        """Begin evicting every resident line (flush-with-sum-back)."""
        self._flushing = True

    @property
    def flush_done(self):
        if not self._flushing:
            return True
        return (not any(self._sets) and not self._evict_retry
                and not self._mshrs and self.req_in.idle and self.fill_in.idle)

    def _advance_flush(self):
        evicted = 0
        for lines in self._sets:
            while lines and evicted < self.width:
                __, victim = lines.popitem(last=False)
                self._evict(victim)
                evicted += 1
            if evicted >= self.width:
                break
        if self.flush_done:
            self._flushing = False

    # ------------------------------------------------------------------ #
    def tick(self, now):
        # Deliver responses whose hit latency elapsed.
        while self._due and self._due[0][0] <= now:
            __, __, response, reply_to = heapq.heappop(self._due)
            if reply_to.can_push():
                if response.trace is not None:
                    response.trace.leg(self.name, "bank.service", now)
                reply_to.push(response)
            else:  # extremely rare: retry next cycle
                heapq.heappush(self._due, (now + 1, self._seq, response,
                                           reply_to))
                self._seq += 1
                break
        self._drain_evictions()
        # Issue queued fills to memory.
        while self._mshr_issue and self.mem_req_out.can_push():
            line_idx, base, trace = self._mshr_issue.popleft()
            self.mem_req_out.push(
                MemoryRequest(OP_READ, base, reply_to=self.fill_in,
                              words=self.line_words, tag=line_idx,
                              trace=trace)
            )
        # Accept returned fills.
        while len(self.fill_in):
            self._handle_fill(self.fill_in.pop(), now)
        # Service the head request.
        if len(self.req_in) and self._handle_request(self.req_in.peek(), now):
            self.req_in.pop()
        if self._flushing:
            self._advance_flush()

    def next_wake(self, now):
        if (self._evict_retry or self._flushing or self.req_in.occupancy
                or self.fill_in.occupancy):
            # Evictions may be blocked on an external sum-back sink the
            # engine cannot observe, so poll while any are queued.
            return now + 1
        if self._mshr_issue and self.mem_req_out.can_push():
            return now + 1  # else: a pop of mem_req_out wakes us
        if self._due:
            due = self._due[0][0]
            return due if due > now else now + 1
        return None

    @property
    def busy(self):
        return bool(self._due or self._mshrs or self._mshr_issue
                    or self._evict_retry or self._flushing)

    # ------------------------------------------------------------------ #
    # introspection helpers (tests, flushing to memory at end of run)
    # ------------------------------------------------------------------ #
    def obs_probes(self):
        return (
            ("mshrs", lambda now: len(self._mshrs)),
            ("evict_backlog", lambda now: len(self._evict_retry)),
            ("req_queue", lambda now: self.req_in.occupancy),
            ("resident_lines", lambda now: self.resident_lines),
        )

    @property
    def resident_lines(self):
        return sum(map(len, filter(None, self._sets)))

    @property
    def has_combining_state(self):
        """True while any dirty combining delta has not been summed back.

        Hierarchical combining needs multiple flush waves: flushing one
        node's deltas deposits new deltas at intermediate tree nodes.
        """
        for lines in filter(None, self._sets):
            for line in lines.values():
                if line.combining and line.any_dirty:
                    return True
        return any(line.combining and line.any_dirty
                   for line, __ in self._evict_retry)

    def peek_word(self, addr):
        """Return the cached value at `addr`, or None if not resident."""
        line = self._lookup(addr // self.line_words)
        if line is None:
            return None
        return line.values[addr - line.base]

    def drain_to(self, memory):
        """Functionally write every dirty word into `memory` (test helper).

        Combining lines are *added* (sum-back semantics); ordinary lines
        are written back.  This models an instantaneous flush and is only
        used to inspect final memory contents after a run.
        """
        for lines in filter(None, self._sets):
            for line in lines.values():
                for offset, dirty in enumerate(line.dirty):
                    if not dirty:
                        continue
                    addr = line.base + offset
                    if line.combining:
                        memory.write_word(
                            addr, memory.read_word(addr) + line.values[offset]
                        )
                        line.values[offset] = line.identity
                    else:
                        memory.write_word(addr, line.values[offset])
                    line.dirty[offset] = False
