"""Max-plus fast-forward: analytic burst execution of the uniform pipeline.

The cache-less sensitivity configuration (Section 4.4) is a linear
pipeline -- AGUs -> router -> scatter-add unit -> uniform memory -- in
which every stage has a deterministic latency and a deterministic service
discipline.  Between *structural events* (a request acceptance, an FU
completion, a value-token return, a head-of-line block forming or
clearing) nothing in the model changes: every component's tick is
provably a no-op.  The occupancy evolution of such a window is a (max,+)
linear system, so the whole run can be executed by visiting only the
event cycles and jumping over the frozen gaps, in one flat replay loop
with no engine involvement.

:class:`PipelineFastForward` implements that as *plan-then-commit*:

1. **Uniformity predicate** (:meth:`_eligible`): the window may only
   start from a fully quiescent pipeline -- empty FIFOs, empty combining
   store (no insert/evict boundary, see
   :meth:`~repro.core.combining_store.CombiningStore.window_uniform`),
   idle FU, fusable memory (no DRAM transaction in flight), no pending
   timed engine operations, no observation hooks (live probes, request
   tracing and the event tracelog read intermediate state at exact
   cycles, so observed runs step on the event loop).  Anything
   unsupported declines, mutating nothing.
2. **Visited-cycle replay** (:meth:`_replay`): handlers replicate the
   per-component tick semantics in exact registration order (AGUs,
   memory, scatter-add unit, router) at each visited cycle; after every
   visited cycle the next candidate event cycle is derived from the
   pending state (FU head completion, token availability under the
   single-issue gate, request commit cycles, memory service starts from
   the max-plus recurrence ``start = max(commit, last_start + interval)``).
   Cycles between candidates are provably frozen; per-cycle counters that
   accumulate across them (router head-of-line blocks) are charged for
   the gap in closed form, exactly like the event scheduler's retro
   charge -- that is what makes the collapsed window *bit-exact*, not
   just statistically equivalent.
3. **One way to finish**: the loop runs until no candidate event is
   left.  The memory-latency shadow at the end of a phase (result
   write-backs and acknowledgements still in flight) is not stepped
   cycle by cycle: it is a frozen gap between candidate cycles, jumped
   like any other.  :func:`maxplus_scan` is the vector form of the same
   service recurrence, used by
   :meth:`~repro.memory.dram.DRAMSystem.open_row_burst`.
4. **Commit**: only after the whole phase replayed successfully are
   counters bumped (through the same typed-metric handles the scalar
   path uses), histogram observations recorded, memory written, stream
   ops retired and the clock jumped with
   :meth:`~repro.sim.engine.Simulator.collapse_window`.  A decline at
   any point leaves the model untouched and the caller falls back to
   ``sim.run()``, which steps the window on the event loop, so
   equivalence holds unconditionally.

Why bit-exactness holds: the replay performs the *same arithmetic in the
same order* as the scalar model (``combine`` folds issue in FU order,
memory applies in transaction-start order, which the max-plus recurrence
keeps strictly increasing), and every counter increment is attached to
the same logical event.  The golden equivalence suite
(``tests/sim/test_scheduler_equivalence.py``) pins this against legacy
and against the event engine's stepping loop for stats, results and
metrics payloads.  Declined windows need no argument of their own: they
run the stepping loop, which the same suite pins to legacy.
"""

from collections import deque

import numpy as np

from repro.memory.request import ATOMIC_OPS, OP_FETCH_ADD, OP_READ, OP_WRITE, combine

_SUPPORTED_OPS = ATOMIC_OPS | frozenset((OP_READ, OP_WRITE))

#: Visited-cycle budget per window; a replay exceeding it declines and
#: falls back to the stepping engine (which has its own deadlock bound).
MAX_VISITED = 4_000_000


def maxplus_scan(releases, gap, init=None):
    """Service-start times of a single server under a (max,+) recurrence.

    A pipeline stage that accepts at most one item per `gap` cycles and
    cannot serve an item before its release cycle follows::

        s[0] = max(releases[0], init + gap)
        s[k] = max(releases[k], s[k-1] + gap)

    (`init` is the start cycle of the item served *before* the window;
    ``None`` means the server starts idle and unconstrained.)  This is a
    max-plus prefix product, computed exactly in one vector pass by the
    running-max identity ``s[k] = gap*k + max_{j<=k}(releases[j] - gap*j)``
    -- pure int64 arithmetic, so the result is bit-identical to the scalar
    fold for any cycle counts a simulation can produce.  Empty inputs
    return an empty array (a zero-length window collapses to nothing).
    """
    releases = np.asarray(releases, dtype=np.int64)
    if releases.size == 0:
        return releases.copy()
    gap = np.int64(gap)
    offsets = gap * np.arange(releases.size, dtype=np.int64)
    shifted = releases - offsets
    if init is not None:
        shifted[0] = max(shifted[0], np.int64(init) + gap)
    return np.maximum.accumulate(shifted) + offsets


class PipelineFastForward:
    """Window detector + analytic executor for the uniform-memory pipeline.

    The ``event`` scheduler's window collapse: a
    :class:`~repro.node.processor.StreamProcessor` on a uniform memory
    model builds one per memory phase.  :meth:`attempt` tries to execute
    the whole pending phase analytically; it returns the quiescence cycle
    (like ``sim.run()``) or ``None`` to decline, and the phase then steps
    on the event loop.
    """

    def __init__(self, sim, config, agus, memsys):
        self.sim = sim
        self.config = config
        self.agus = list(agus)
        self.memsys = memsys
        self.unit = memsys.units[0] if len(memsys.units) == 1 else None
        self.mem = memsys.dram
        self.router = memsys.router

    # ------------------------------------------------------------------ #
    def _eligible(self):
        """The uniformity predicate: may this window start analytically?"""
        sim = self.sim
        unit = self.unit
        if unit is None:
            return False
        if self.memsys.banks:
            # Cached topology: per-bank windows are future work (the
            # CacheBank.uniform_window_ready predicate exists for them);
            # the replay only models the uniform pipeline.
            return False
        if sim.live_probes or unit.trace is not None or unit.tracer is not None:
            return False  # observation hooks read intermediate state
        if not unit.chaining:
            return False  # memory round-trip ablation: steps on event
        if not (unit.window_quiescent and self.mem.uniform_window_ready()):
            return False
        router = self.router
        if router._sleep_blocked:
            return False
        for agu in self.agus:
            if agu._current is not None:
                return False
            if not (agu.ack_in.idle and agu.out.idle):
                return False
            for op in agu._queue:
                if op.op not in _SUPPORTED_OPS or op.combining:
                    return False
        return True

    def attempt(self):
        """Analytically execute the pending phase; end cycle or ``None``."""
        return self._replay() if self._eligible() else None

    # ------------------------------------------------------------------ #
    def _replay(self):
        """Visited-cycle replay of the whole phase (plan-then-commit)."""
        sim = self.sim
        unit = self.unit
        mem = self.mem
        agus = self.agus
        t0 = sim.cycle

        # --- flatten the queued stream ops into parallel plan arrays ----
        op_obj = []
        op_agu = []
        op_code = []
        op_atomic = []
        op_total = []
        a_queue = []
        for a, agu in enumerate(agus):
            pending = deque()
            for op in agu._queue:
                oi = len(op_obj)
                op_obj.append(op)
                op_agu.append(a)
                op_code.append(op.op)
                op_atomic.append(op.op in ATOMIC_OPS)
                op_total.append(len(op))
                pending.append(oi)
            a_queue.append(pending)
        if not op_obj:
            return None
        n_ops = len(op_obj)
        op_start = [None] * n_ops
        op_end = [None] * n_ops
        op_fills = [([None] * total if op.result is not None else None)
                    for op, total in zip(op_obj, op_total)]

        # --- per-AGU plan state -----------------------------------------
        A = len(agus)
        agu_width = agus[0].width
        out_cap = 2 * agu_width
        a_cur = [None] * A
        a_next = [0] * A
        a_acked = [0] * A
        a_out = [deque() for _ in range(A)]       # (commit, addr, value, oi, idx)
        a_acks_sau = [deque() for _ in range(A)]  # (visible, value, oi, idx)
        a_acks_mem = [deque() for _ in range(A)]  # (visible, value, oi, idx)
        a_refs = [0] * A

        # --- scatter-add unit plan state --------------------------------
        req_in = deque()   # (commit, addr, value, oi, idx)
        vtok = deque()     # (avail, addr, value)
        chained = deque()  # (addr, value)
        fu = deque()       # (done, result, old, addr, oi, idx, entry_op)
        store_wait = {}    # addr -> deque of (value, oi, idx, entry_op)
        store_cap = unit.store.capacity
        store_occ = 0
        store_peak = 0
        occ_observed = {}  # occupancy value -> count (histogram plan)
        active = set()
        stall_since = None
        fu_last_issue = unit.fu._last_issue
        fu_lat = unit.fu.latency
        sau_retry = deque()  # (code, addr, value, reply_kind, oi, idx)
        req_cap = unit.req_in.capacity
        n_sums = 0
        n_chained = 0
        n_result_writes = 0
        n_value_reads = 0
        n_bypassed = 0
        n_stall_cycles = 0
        n_atomics = 0
        n_combined = 0

        # --- memory plan state (analytic service) ------------------------
        memory = mem.memory
        mem_read = memory.read_word
        m_interval = mem.interval
        m_latency = mem.latency
        m_state = [mem._free_at, mem._last_start]
        mem_cap = mem.req_in.capacity
        mem_inq = deque()  # start cycles of queued/occupying transactions
        overlay = {}       # functional write overlay, applied at commit
        mem_counts = [0, 0, 0]  # reads, writes, busy_cycles (words == counts)
        max_done = t0 - 1

        def mem_push(commit, code, addr, value, reply_kind, oi, idx):
            """Analytic UniformMemory service: start/done in closed form.

            ``reply_kind``: 0 fire-and-forget write, 1 value read for the
            unit's token path, 2 response to the issuing AGU.  Exact per
            the scalar model: one transaction start per cycle, FIFO
            order, ``start = max(commit, free_at, last_start + 1)``,
            apply-at-done (starts strictly increase, so applying in push
            order *is* applying in done order).
            """
            nonlocal max_done
            free_at, last_start = m_state
            start = commit if commit > free_at else free_at
            if start <= last_start:
                start = last_start + 1
            m_state[0] = start + m_interval
            m_state[1] = start
            done = start + m_interval + m_latency
            if done > max_done:
                max_done = done
            mem_inq.append(start)
            mem_counts[2] += m_interval
            if code == OP_READ:
                mem_counts[0] += 1
                read_value = overlay.get(addr)
                if read_value is None:
                    read_value = mem_read(addr)
                if reply_kind == 1:
                    vtok.append((done + 1, addr, read_value))
                else:
                    a_acks_mem[op_agu[oi]].append((done + 1, read_value,
                                                   oi, idx))
            else:
                mem_counts[1] += 1
                overlay[addr] = value
                if reply_kind == 2:
                    a_acks_mem[op_agu[oi]].append((done + 1, None, oi, idx))

        # --- router plan state -------------------------------------------
        router = self.router
        r_width = router.width
        r_last = router._last_tick
        r_blocked = 0
        hol = 0

        # ----------------------------------------------------------------- #
        # the visited-cycle loop
        # ----------------------------------------------------------------- #
        t = t0
        last_work = t0 - 1
        visited = 0
        while True:
            visited += 1
            if visited > MAX_VISITED:
                return None
            work = False
            while mem_inq and mem_inq[0] <= t:
                mem_inq.popleft()

            # --- AGU handlers (registration order 0..A-1) ----------------
            for a in range(A):
                acks = a_acks_sau[a]
                while acks and acks[0][0] <= t:
                    __, value, oi, idx = acks.popleft()
                    fills = op_fills[oi]
                    if fills is not None and value is not None:
                        fills[idx] = value
                    a_acked[a] += 1
                    work = True
                acks = a_acks_mem[a]
                while acks and acks[0][0] <= t:
                    __, value, oi, idx = acks.popleft()
                    fills = op_fills[oi]
                    if fills is not None:
                        fills[idx] = value
                    a_acked[a] += 1
                    work = True
                cur = a_cur[a]
                if cur is None and a_queue[a]:
                    cur = a_queue[a].popleft()
                    a_cur[a] = cur
                    op_start[cur] = t
                    a_next[a] = 0
                    a_acked[a] = 0
                    work = True
                if cur is None:
                    continue
                total = op_total[cur]
                nxt = a_next[a]
                if nxt < total:
                    out = a_out[a]
                    op = op_obj[cur]
                    addrs = op.addrs
                    commit = t + 1
                    issued = 0
                    while (nxt < total and issued < agu_width
                           and len(out) < out_cap):
                        out.append((commit, addrs[nxt], op.value_at(nxt),
                                    cur, nxt))
                        nxt += 1
                        issued += 1
                    if issued:
                        a_next[a] = nxt
                        a_refs[a] += issued
                        work = True
                if nxt >= total and a_acked[a] >= total:
                    op_end[cur] = t
                    a_cur[a] = None
                    work = True

            # --- memory handler: fully analytic (drained above) ----------

            # --- scatter-add unit handler --------------------------------
            while sau_retry and len(mem_inq) < mem_cap:
                code, addr, value, reply_kind, oi, idx = sau_retry.popleft()
                mem_push(t + 1, code, addr, value, reply_kind, oi, idx)
                work = True
            if fu and fu[0][0] <= t:
                __, result, old, addr, oi, idx, eop = fu.popleft()
                store_occ -= 1
                ack_value = old if eop == OP_FETCH_ADD else None
                a_acks_sau[op_agu[oi]].append((t + 1, ack_value, oi, idx))
                n_sums += 1
                waitq = store_wait.get(addr)
                if waitq:
                    chained.append((addr, result))
                    n_chained += 1
                else:
                    if not sau_retry and len(mem_inq) < mem_cap:
                        mem_push(t + 1, OP_WRITE, addr, result, 0, oi, idx)
                    else:
                        sau_retry.append((OP_WRITE, addr, result, 0, oi, idx))
                    n_result_writes += 1
                    active.discard(addr)
                work = True
            if fu_last_issue < t:
                token = None
                if chained:
                    addr, value = chained.popleft()
                    token = True
                elif vtok and vtok[0][0] <= t:
                    __, addr, value = vtok.popleft()
                    token = True
                if token:
                    waitq = store_wait[addr]
                    entry_value, oi, idx, eop = waitq.popleft()
                    if not waitq:
                        del store_wait[addr]
                    fu.append((t + fu_lat, combine(eop, value, entry_value),
                               value, addr, oi, idx, eop))
                    fu_last_issue = t
                    work = True
            if req_in and req_in[0][0] <= t:
                __, addr, value, oi, idx = req_in[0]
                if not op_atomic[oi]:
                    if not sau_retry and len(mem_inq) < mem_cap:
                        req_in.popleft()
                        n_bypassed += 1
                        mem_push(t + 1, op_code[oi], addr, value, 2, oi, idx)
                        work = True
                    # else back-pressure: keep the head
                elif store_occ >= store_cap:
                    if stall_since is None:
                        stall_since = t
                else:
                    if stall_since is not None:
                        n_stall_cycles += t - stall_since
                        stall_since = None
                    req_in.popleft()
                    n_atomics += 1
                    store_occ += 1
                    if store_occ > store_peak:
                        store_peak = store_occ
                    occ_observed[store_occ] = occ_observed.get(store_occ,
                                                               0) + 1
                    eop = op_code[oi]
                    waitq = store_wait.get(addr)
                    if waitq is None:
                        store_wait[addr] = deque(((value, oi, idx, eop),))
                    else:
                        waitq.append((value, oi, idx, eop))
                    if addr in active:
                        n_combined += 1
                    else:
                        active.add(addr)
                        if not sau_retry and len(mem_inq) < mem_cap:
                            mem_push(t + 1, OP_READ, addr, 0.0, 1, oi, idx)
                        else:
                            sau_retry.append((OP_READ, addr, 0.0, 1, oi, idx))
                        n_value_reads += 1
                    work = True

            # --- router handler (last in registration order) -------------
            if r_blocked and t - r_last > 1:
                # Every frozen gap cycle re-observed the same blocked
                # heads; charge them in closed form (the event engine's
                # retro charge, exact because gaps hold no state change).
                hol += r_blocked * (t - r_last - 1)
            moved = 0
            blocked = 0
            start_rot = t % A
            for offset in range(A):
                out = a_out[(start_rot + offset) % A]
                while out and out[0][0] <= t and moved < r_width:
                    if len(req_in) >= req_cap:
                        hol += 1
                        blocked += 1
                        break
                    commit, addr, value, oi, idx = out.popleft()
                    req_in.append((t + 1, addr, value, oi, idx))
                    moved += 1
                if moved >= r_width:
                    break
            r_last = t
            r_blocked = blocked
            if moved:
                work = True

            if work:
                last_work = t

            # --- next structural event -----------------------------------
            candidate = None
            t1 = t + 1
            for a in range(A):
                acks = a_acks_sau[a]
                if acks:
                    c = acks[0][0]
                    if candidate is None or c < candidate:
                        candidate = c
                acks = a_acks_mem[a]
                if acks:
                    c = acks[0][0]
                    if candidate is None or c < candidate:
                        candidate = c
                cur = a_cur[a]
                if cur is None:
                    if a_queue[a] and (candidate is None or t1 < candidate):
                        candidate = t1
                elif (a_next[a] < op_total[cur] and len(a_out[a]) < out_cap
                      and (candidate is None or t1 < candidate)):
                    candidate = t1
            if sau_retry:
                c = mem_inq[0] if mem_inq else t1
                if c < t1:
                    c = t1
                if candidate is None or c < candidate:
                    candidate = c
            if fu:
                c = fu[0][0]
                if c < t1:
                    c = t1
                if candidate is None or c < candidate:
                    candidate = c
            next_issue = fu_last_issue + 1
            if chained:
                c = next_issue if next_issue > t1 else t1
                if candidate is None or c < candidate:
                    candidate = c
            if vtok:
                c = vtok[0][0]
                if c < next_issue:
                    c = next_issue
                if c < t1:
                    c = t1
                if candidate is None or c < candidate:
                    candidate = c
            if req_in:
                commit = req_in[0][0]
                oi = req_in[0][3]
                if op_atomic[oi] and store_occ >= store_cap:
                    # A stalled, accounted head unblocks via an FU
                    # completion (candidate above); a not-yet-observed
                    # stall onset needs one visit at the commit cycle.
                    if stall_since is None:
                        c = commit if commit > t1 else t1
                        if candidate is None or c < candidate:
                            candidate = c
                elif (not op_atomic[oi]
                      and (sau_retry or len(mem_inq) >= mem_cap)):
                    if mem_inq:
                        c = mem_inq[0]
                        if c < t1:
                            c = t1
                        if candidate is None or c < candidate:
                            candidate = c
                else:
                    c = commit if commit > t1 else t1
                    if candidate is None or c < candidate:
                        candidate = c
            for out in a_out:
                if out:
                    head_commit = out[0][0]
                    if head_commit > t:
                        if candidate is None or head_commit < candidate:
                            candidate = head_commit
                    elif len(req_in) < req_cap:
                        if candidate is None or t1 < candidate:
                            candidate = t1
                    # else: frozen head-of-line block, charged at the
                    # next visited cycle's retro charge

            if candidate is None:
                break
            t = candidate

        # --- drained? anything left means an unmodelled dependency -------
        if (req_in or vtok or chained or fu or store_wait or sau_retry
                or any(a_out) or any(a_queue)
                or any(cur is not None for cur in a_cur)
                or any(q for q in a_acks_sau) or any(q for q in a_acks_mem)):
            return None

        end = (last_work if last_work > max_done else max_done) + 1
        if end <= t0:
            end = t0

        # ----------------------------------------------------------------- #
        # commit: every observable effect, through the scalar handles
        # ----------------------------------------------------------------- #
        for a, agu in enumerate(agus):
            if a_refs[a]:
                agu._m_refs.inc(a_refs[a])
                agu._m_memsys_refs.inc(a_refs[a])
            agu._queue.clear()
            agu._current = None
            agu._next_index = 0
            agu._acked = 0
        if hol:
            router._m_hol_blocks.inc(hol)
        router._last_tick = r_last
        router._moved = 0
        router._sleep_blocked = 0
        if n_sums:
            unit._m_sums.inc(n_sums)
            unit._m_fu_sums.inc(n_sums)
            unit.fu.total_ops += n_sums
        if n_chained:
            unit._m_chained.inc(n_chained)
        if n_result_writes:
            unit._m_result_writes.inc(n_result_writes)
        if n_value_reads:
            unit._m_value_reads.inc(n_value_reads)
        if n_bypassed:
            unit._m_bypassed.inc(n_bypassed)
        if n_stall_cycles:
            unit._m_stall_cycles.inc(n_stall_cycles)
        if n_atomics:
            unit._m_atomics.inc(n_atomics)
        if n_combined:
            unit._m_combined.inc(n_combined)
        store = unit.store
        if store_peak > store.peak_occupancy:
            store.peak_occupancy = store_peak
            if store._peak_gauge is not None:
                store._peak_gauge.set(store_peak)
        if store._occupancy_hist is not None:
            for occupancy in sorted(occ_observed):
                store._occupancy_hist.observe(occupancy,
                                              occ_observed[occupancy])
        unit.fu._last_issue = fu_last_issue
        if mem_counts[0]:
            mem._m_reads.inc(mem_counts[0])
            mem._m_read_words.inc(mem_counts[0])
        if mem_counts[1]:
            mem._m_writes.inc(mem_counts[1])
            mem._m_write_words.inc(mem_counts[1])
        if mem_counts[2]:
            mem._m_busy_cycles.inc(mem_counts[2])
        mem._free_at = m_state[0]
        mem._last_start = m_state[1]
        write_word = memory.write_word
        for addr, value in overlay.items():
            write_word(addr, value)
        for oi, op in enumerate(op_obj):
            fills = op_fills[oi]
            if fills is not None:
                op.result = fills
            op.start_cycle = int(op_start[oi])
            op.end_cycle = int(op_end[oi])
            op.done = True
        return sim.collapse_window(int(end))
