"""Sampled per-request lifecycle tracing and latency attribution.

Aggregate metrics (counters, timelines) say *how much* each component
worked; they cannot say *where one scatter-add element spent its cycles*.
This module adds that record-level view:

- A :class:`RequestTracer` stamps one in every N application requests
  (``--trace-requests N``) with a :class:`RequestTrace` at the address
  generator.  The trace object rides on the
  :class:`~repro.memory.request.MemoryRequest` (and the responses derived
  from it) through every pipeline stage.
- Components record *legs*: :meth:`RequestTrace.leg` closes the span from
  the trace's running cursor to ``now`` and advances the cursor.  Legs
  therefore **partition** the request's lifetime -- contiguous,
  non-overlapping, gap-free -- so the per-stage attribution sums
  reconcile with measured end-to-end latency *by construction*, not by
  accounting discipline at every call site.
- Completed traces feed per-stage latency :class:`~repro.obs.metrics.Histogram`
  handles (p50/p90/p99 via :meth:`~repro.obs.metrics.Histogram.percentile`),
  a queueing-vs-service attribution table (:meth:`RequestTracer.breakdown`,
  surfaced as ``harness.report.latency_breakdown``), and Chrome-trace
  *flow events* that link one element's spans across component tracks in
  ``chrome://tracing`` / Perfetto.

Cost model: tracing off means no tracer exists and every hot-path hook is
a single ``request.trace is not None`` attribute check -- no allocation,
no arithmetic, no new components.  Tracing on adds bookkeeping for the
sampled requests only and **never** changes simulated behaviour: the
golden suite asserts cycle counts and ``Stats.as_dict()`` are
bit-identical with tracing on vs. off (tracing records histograms only,
never counters).

Span taxonomy (stage -> queueing or service):

================  =======  ====================================================
``router.queue``  queue    AGU output FIFO until the on-chip router moves it
``nif.queue``     queue    AGU output until the node interface routes it
``xbar.queue``    queue    crossbar input-port wait (head-of-line blocking)
``xbar.hop``      service  switch traversal and delivery into ``remote_in``
``sau.queue``     queue    scatter-add unit input wait, incl. store-full stalls
``store.wait``    queue    combining-store residency until the FU issues
``fu``            service  pipelined functional-unit addition
``bank.queue``    queue    cache-bank input wait
``bank.mshr``     queue    secondary miss waiting on an in-flight line fill
``bank.service``  service  bank access latency and response delivery
``bank.fill``     service  fill reply transit from DRAM back into the bank
``dram.queue``    queue    DRAM channel queue (uniform memory: port) wait
``dram.burst``    service  transfer interval plus access latency
``reply``         queue    acknowledgement transit back to the AGU
================  =======  ====================================================
"""

#: Bucket edges (cycles) shared by every per-stage latency histogram, so
#: sweeps with different combining-store sizes or DRAM latencies merge.
LATENCY_EDGES = tuple(2 ** k for k in range(17))  # 1 .. 65536 cycles

#: Bucket edges for the combining-fanout distribution (elements absorbed
#: per active-address chain -- the paper's combining mechanism).
FANOUT_EDGES = tuple(2 ** k for k in range(11))  # 1 .. 1024 elements

#: Stage name -> attribution class for the queueing-vs-service table.
STAGE_KINDS = {
    "router.queue": "queue",
    "nif.queue": "queue",
    "xbar.queue": "queue",
    "xbar.hop": "service",
    "net.queue": "queue",
    "net.hop": "service",
    "sau.queue": "queue",
    "store.wait": "queue",
    "fu": "service",
    "bank.queue": "queue",
    "bank.mshr": "queue",
    "bank.service": "service",
    "bank.fill": "service",
    "dram.queue": "queue",
    "dram.burst": "service",
    "reply": "queue",
}


class Span:
    """One closed leg of a traced request's journey."""

    __slots__ = ("stage", "component", "start", "end")

    def __init__(self, stage, component, start, end):
        self.stage = stage
        self.component = component
        self.start = start
        self.end = end

    @property
    def duration(self):
        return self.end - self.start

    def __repr__(self):
        return "Span(%s@%s, %d..%d)" % (
            self.stage, self.component, self.start, self.end)


class RequestTrace:
    """The lifecycle record riding on one sampled memory request.

    Holds a running *cursor*: each :meth:`leg` call closes the span from
    the cursor to ``now`` and moves the cursor, so the recorded spans
    tile ``[issue_cycle, done_cycle]`` exactly.  Derived requests (the
    value read a scatter-add triggers, the line fill a miss triggers)
    carry the *same* trace object, so their legs slot into the parent's
    timeline chronologically.
    """

    __slots__ = ("rid", "op", "addr", "issue_cycle", "done_cycle",
                 "spans", "_cursor", "_tracer")

    def __init__(self, rid, op, addr, issue_cycle, tracer=None):
        self.rid = rid
        self.op = op
        self.addr = addr
        self.issue_cycle = issue_cycle
        self.done_cycle = None
        self.spans = []
        self._cursor = issue_cycle
        self._tracer = tracer

    def leg(self, component, stage, now):
        """Close the journey leg ending at `now` and advance the cursor."""
        self.spans.append(Span(stage, component, self._cursor, now))
        self._cursor = now

    def finish(self, now):
        """Mark the request complete (cursor must have reached `now`)."""
        self.done_cycle = now
        if self._tracer is not None:
            self._tracer._complete(self)

    @property
    def latency(self):
        if self.done_cycle is None:
            return None
        return self.done_cycle - self.issue_cycle

    def __repr__(self):
        return "RequestTrace(rid=%d, %s@%d, %d spans)" % (
            self.rid, self.op, self.addr, len(self.spans))


class RequestTracer:
    """Samples 1-in-`every` requests and aggregates their completed traces.

    One tracer per observation scope.  Latency distributions live in the
    scope's :class:`~repro.sim.stats.Stats` under
    ``reqtrace.stage.<stage>`` / ``reqtrace.e2e`` /
    ``reqtrace.combine_fanout`` (histograms only -- no counter is
    touched, keeping golden stats bit-identical).  Completed
    trace objects are kept (up to `max_traces`) for flow-event export.
    """

    def __init__(self, every, stats, max_traces=10_000):
        if every < 1:
            raise ValueError("trace-requests sampling period must be >= 1 "
                             "(got %r)" % (every,))
        self.every = every
        self.stats = stats
        self.max_traces = max_traces
        self.traces = []
        self.dropped = 0
        self._seen = 0
        self._next_rid = 0
        self._e2e = stats.histogram("reqtrace.e2e", LATENCY_EDGES)
        self._fanout = stats.histogram("reqtrace.combine_fanout",
                                       FANOUT_EDGES)
        self._stages = {}  # stage name -> Histogram

    # ------------------------------------------------------------------ #
    def maybe_trace(self, op, addr, now):
        """Return a fresh :class:`RequestTrace` for 1-in-`every` calls.

        Called by the address generator at issue time; the 1-in-N choice
        is by issue order, so it is deterministic for a given workload.
        """
        index = self._seen
        self._seen += 1
        if index % self.every:
            return None
        rid = self._next_rid
        self._next_rid += 1
        return RequestTrace(rid, op, addr, now, tracer=self)

    def record_fanout(self, absorbed):
        """One active-address chain retired having absorbed `absorbed` elements."""
        self._fanout.observe(absorbed)

    def _stage_histogram(self, stage):
        histogram = self._stages.get(stage)
        if histogram is None:
            histogram = self.stats.histogram("reqtrace.stage." + stage,
                                             LATENCY_EDGES)
            self._stages[stage] = histogram
        return histogram

    def _complete(self, trace):
        self._e2e.observe(trace.latency)
        for span in trace.spans:
            self._stage_histogram(span.stage).observe(span.duration)
        if len(self.traces) < self.max_traces:
            self.traces.append(trace)
        else:
            self.dropped += 1

    # ------------------------------------------------------------------ #
    def breakdown(self):
        """The queueing-vs-service latency attribution table.

        Returns a dict with one row per stage (count, total cycles, mean,
        p50/p90/p99, share of end-to-end time, queue/service kind), the
        end-to-end summary, queue/service rollups, and
        ``unattributed_cycles`` -- which is exactly ``0.0`` because legs
        partition each request's lifetime (asserted by the test suite).
        """
        stages = []
        attributed = 0.0
        rollup = {"queue": 0.0, "service": 0.0}
        e2e_cycles = self._e2e.sum
        for stage in sorted(self._stages):
            histogram = self._stages[stage]
            kind = STAGE_KINDS.get(stage, "queue")
            attributed += histogram.sum
            rollup[kind] += histogram.sum
            stages.append({
                "stage": stage,
                "kind": kind,
                "count": histogram.total,
                "cycles": histogram.sum,
                "mean": histogram.mean,
                "p50": histogram.percentile(50),
                "p90": histogram.percentile(90),
                "p99": histogram.percentile(99),
                "share": histogram.sum / e2e_cycles if e2e_cycles else 0.0,
            })
        return {
            "requests": self._e2e.total,
            "sample_every": self.every,
            "end_to_end": {
                "cycles": e2e_cycles,
                "mean": self._e2e.mean,
                "p50": self._e2e.percentile(50),
                "p90": self._e2e.percentile(90),
                "p99": self._e2e.percentile(99),
            },
            "stages": stages,
            "queue_cycles": rollup["queue"],
            "service_cycles": rollup["service"],
            "unattributed_cycles": e2e_cycles - attributed,
            "combine_fanout": self._fanout.as_dict(),
            "traces_dropped": self.dropped,
        }

    def __repr__(self):
        return "RequestTracer(1-in-%d, %d sampled, %d completed)" % (
            self.every, self._next_rid, self._e2e.total)
