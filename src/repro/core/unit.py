"""The scatter-add unit: combining controller of Figures 4b and 5.

Placement (chosen by the node model): one unit in front of each stream
cache bank in the base configuration (Figure 4a), or a single unit at the
memory interface in the cache-less sensitivity configuration (Figure 3).

Operation, following the Figure 5 flow diagram:

- Ordinary reads and writes bypass the unit straight to the cache / memory
  interface.
- An atomic request is placed in a free combining-store entry (stalling
  when none is free).  A CAM lookup decides whether the address is already
  *active*: if not, a read of the current memory value is issued; if so, no
  memory access is needed -- the request will be *combined*.
- When a value for an address arrives (from memory, or a freshly computed
  sum chained back per step *d* of Figure 4b), the oldest waiting entry for
  that address issues into the pipelined functional unit.
- When a sum completes, an acknowledgement goes back to the address
  generator, and the combining store is checked once more: a further
  waiting entry consumes the sum directly (chaining); otherwise the sum is
  written out to memory and the address becomes inactive.

Atomicity holds by construction: exactly one value token exists per active
address, so same-address updates serialise through the FU while different
addresses pipeline at one per cycle.

The multi-node *cache-combining* mode (Section 3.2) skips the initial read:
the chain starts from the operation identity and the final "write" is a
delta merged into the local cache line (allocated at identity on miss), to
be sum-back'ed to the home node on eviction.

``chaining=False`` is an ablation handle (see DESIGN.md): each same-address
update then round-trips through memory instead of chaining in the store.
"""

from collections import deque

from repro.core.combining_store import CombiningStore
from repro.core.fu import AddPipeline
from repro.memory.request import (
    OP_FETCH_ADD,
    OP_READ,
    OP_WRITE,
    MemoryRequest,
    MemoryResponse,
    identity_value,
)
from repro.sim.engine import Component


class ScatterAddUnit(Component):
    """One scatter-add unit in front of a cache bank or memory interface."""

    def __init__(self, sim, config, stats, mem_out, name="sau", chaining=True,
                 trace=None, tracer=None):
        super().__init__(name)
        self.stats = stats
        self.trace = trace
        # Per-request tracer (repro.obs.tracing); also enables the
        # combining-fanout distribution (elements absorbed per active
        # address), which needs per-chain bookkeeping kept off the hot
        # path when tracing is disabled.
        self.tracer = tracer
        self._chain_absorbed = {} if tracer is not None else None
        self.store = CombiningStore(config.combining_store_entries)
        self.fu = AddPipeline(config.fu_latency)
        # Typed metric handles (see repro.obs.metrics): created once here,
        # bumped on the hot path; counters write through to `stats`.
        self.store.attach_metrics(stats, name + ".store")
        self._m_sums = stats.counter(name + ".sums")
        self._m_fu_sums = stats.counter("fu.sums")
        self._m_chained = stats.counter(name + ".chained")
        self._m_result_writes = stats.counter(name + ".result_writes")
        self._m_value_reads = stats.counter(name + ".value_reads")
        self._m_bypassed = stats.counter(name + ".bypassed")
        self._m_stall_cycles = stats.counter(name + ".stall_cycles")
        self._m_atomics = stats.counter(name + ".atomics")
        self._m_combined = stats.counter(name + ".combined")
        self.mem_out = mem_out
        self.chaining = chaining
        self.req_in = sim.fifo(capacity=4, name=name + ".req_in")
        self.value_in = sim.fifo(capacity=None, name=name + ".value_in")
        self._chained = deque()  # (addr, value) sums re-entering as tokens
        self._mem_retry = deque()  # requests blocked on a full mem_out
        self._ack_retry = deque()  # (response, reply_to) blocked acks
        self._active = set()  # addresses holding a value token
        self._combining_addrs = set()  # active addresses in combining mode
        self._stall_since = None  # first cycle the head atomic found the store full
        # Wake/sleep protocol: new requests and value returns wake the
        # unit; a pop of a full mem_out unblocks bypasses/writes.
        self.watch(self.req_in, self.value_in)
        self.feeds(mem_out)

    # ------------------------------------------------------------------ #
    def _push_mem(self, request):
        if not self._mem_retry and self.mem_out.can_push():
            self.mem_out.push(request)
        else:
            self._mem_retry.append(request)

    def _drain_retries(self):
        while self._mem_retry and self.mem_out.can_push():
            self.mem_out.push(self._mem_retry.popleft())
        while self._ack_retry:
            response, reply_to = self._ack_retry[0]
            if not reply_to.can_push():
                break
            reply_to.push(response)
            self._ack_retry.popleft()

    def _send_ack(self, op, addr, old_value, reply_to, tag, trace=None):
        if reply_to is None:
            return
        value = old_value if op == OP_FETCH_ADD else None
        response = MemoryResponse(op, addr, value, tag=tag, trace=trace)
        if not self._ack_retry and reply_to.can_push():
            reply_to.push(response)
        else:
            self._ack_retry.append((response, reply_to))

    # ------------------------------------------------------------------ #
    def _handle_completion(self, now):
        done = self.fu.completed(now)
        if done is None:
            return
        result, old_value, meta = done
        entry_id, addr, reply_to, tag, op, req_trace = meta
        self.store.release(entry_id)
        if req_trace is not None:
            req_trace.leg(self.name, "fu", now)
        self._send_ack(op, addr, old_value, reply_to, tag, trace=req_trace)
        self._m_sums.inc()
        self._m_fu_sums.inc()
        if self.trace is not None:
            self.trace.emit(now, self.name, "sum", addr=addr, result=result)
        pending = self.store.waiting_count(addr)
        if self.chaining and pending:
            self._chained.append((addr, result))
            self._m_chained.inc()
            return
        combining = addr in self._combining_addrs
        if combining:
            self._push_mem(MemoryRequest(op, addr, result, combining=True))
        else:
            self._push_mem(MemoryRequest(OP_WRITE, addr, result))
        self._m_result_writes.inc()
        if pending:
            # Ablation path (chaining disabled): round-trip through memory.
            # The read is queued behind the write, so the bank's in-order
            # processing returns the just-written value.
            if combining:
                self._chained.append((addr, identity_value(op)))
            else:
                self._push_mem(
                    MemoryRequest(OP_READ, addr, reply_to=self.value_in)
                )
                self._m_value_reads.inc()
        else:
            self._active.discard(addr)
            self._combining_addrs.discard(addr)
            if self._chain_absorbed is not None:
                self.tracer.record_fanout(self._chain_absorbed.pop(addr, 1))

    def _consume_value(self, now):
        if not self.fu.can_issue(now):
            return
        if self._chained:
            addr, value = self._chained.popleft()
        elif len(self.value_in):
            response = self.value_in.pop()
            addr, value = response.addr, response.value
        else:
            return
        entry_id, entry = self.store.pop_waiting(addr)
        if entry.trace is not None:
            entry.trace.leg(self.name, "store.wait", now)
        meta = (entry_id, addr, entry.reply_to, entry.tag, entry.op,
                entry.trace)
        self.fu.issue(entry.op, value, entry.value, meta, now)

    def _accept_request(self, now):
        if not len(self.req_in):
            return
        request = self.req_in.peek()
        if not request.is_atomic:
            if self._mem_retry or not self.mem_out.can_push():
                return  # back-pressure: keep request at head
            self.mem_out.push(self.req_in.pop())
            if request.trace is not None:
                request.trace.leg(self.name, "sau.queue", now)
            self._m_bypassed.inc()
            return
        if self.store.full:
            # Interval stall accounting: remember when the blocked span
            # began and charge the whole span at acceptance time, so the
            # unit can sleep through the stall without losing the count.
            if self._stall_since is None:
                self._stall_since = now
            return
        if self._stall_since is not None:
            self._m_stall_cycles.inc(now - self._stall_since)
            self._stall_since = None
        self.req_in.pop()
        if request.trace is not None:
            request.trace.leg(self.name, "sau.queue", now)
        self._m_atomics.inc()
        self.store.allocate(request.addr, request.value, request.op,
                            reply_to=request.reply_to, tag=request.tag,
                            trace=request.trace)
        if request.addr in self._active:
            if self._chain_absorbed is not None:
                self._chain_absorbed[request.addr] += 1
            self._m_combined.inc()
            if self.trace is not None:
                self.trace.emit(now, self.name, "combine",
                                addr=request.addr, value=request.value)
            return
        if self.trace is not None:
            self.trace.emit(now, self.name, "activate",
                            addr=request.addr, value=request.value)
        self._active.add(request.addr)
        if self._chain_absorbed is not None:
            self._chain_absorbed[request.addr] = 1
        if request.combining:
            # Cache-combining mode: start the chain from the identity; the
            # current (remote) memory value is never read.
            self._combining_addrs.add(request.addr)
            self._chained.append((request.addr, identity_value(request.op)))
        else:
            # The value read rides the activator's trace: its bank/DRAM
            # legs are exactly the activator's wait for the memory value.
            self._push_mem(
                MemoryRequest(OP_READ, request.addr, reply_to=self.value_in,
                              trace=request.trace)
            )
            self._m_value_reads.inc()

    # ------------------------------------------------------------------ #
    def tick(self, now):
        self._drain_retries()
        self._handle_completion(now)
        self._consume_value(now)
        self._accept_request(now)

    def next_wake(self, now):
        if self._mem_retry or self._ack_retry or self._chained:
            return now + 1
        if self.value_in.occupancy:
            return now + 1
        wake = None
        completion = self.fu.next_completion()
        if completion is not None:
            wake = completion if completion > now else now + 1
        if self.req_in.occupancy:
            if self.req_in._staged:
                return now + 1  # head arrives (commits) next cycle
            request = self.req_in.peek()
            if request.is_atomic:
                if not self.store.full:
                    return now + 1
                if self._stall_since is None:
                    # Observe the stall onset next cycle so the interval
                    # accounting starts exactly where the legacy stepper
                    # would have counted the first blocked tick.
                    return now + 1
                # Stalled and accounted: the next release is an FU
                # completion (wake above) or a value/chain arrival.
            elif self.mem_out.can_push():
                return now + 1
            # else blocked on a full mem_out: its pop wakes us (feeds).
        return wake

    @property
    def busy(self):
        return bool(
            self.store.occupancy
            or self.fu.busy
            or self._chained
            or self._mem_retry
            or self._ack_retry
        )

    @property
    def window_quiescent(self):
        """True when a uniform fast-forward window may start at this unit.

        Stricter than ``not busy``: the analytic replay seeds its plan from
        a pipeline with *no* request, token or retry state in flight, so
        every queue (including the two-phase FIFOs' staged slots) must be
        idle and the combining store must satisfy
        :attr:`~repro.core.combining_store.CombiningStore.window_uniform`.
        """
        return (
            self.req_in.idle
            and self.value_in.idle
            and not self._chained
            and not self._mem_retry
            and not self._ack_retry
            and self._stall_since is None
            and not self.fu.busy
            and self.store.window_uniform
        )

    def obs_probes(self):
        return (
            ("store_occupancy", lambda now: self.store.occupancy),
            ("fu_inflight", lambda now: self.fu.in_flight),
            ("req_queue", lambda now: self.req_in.occupancy),
        )
