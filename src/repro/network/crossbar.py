"""Input-queued crossbar with back-pressure.

Each node owns one input port (a bounded FIFO) and one output port (the
destination node's ``remote_in`` FIFO).  Per cycle, every input port may
inject up to ``bw_words`` requests and every output port may accept up to
``bw_words`` -- the per-node network bandwidth limit the paper sweeps
("low" = 1 word/cycle, "high" = 8).  A blocked head-of-queue request
stalls its whole input port: classic input-queued head-of-line blocking,
which is part of why the low-bandwidth configurations stop scaling.

Requests traverse the switch with a fixed pipeline latency.

This is the degenerate case of the :mod:`repro.network.fabric` topology
family (``NetworkConfig(topology="crossbar", combine_site="memory")``);
:func:`~repro.network.fabric.build_network` instantiates this class
unchanged on that path, so legacy multi-node runs stay bit-identical.
"""

from repro.sim.engine import Component

#: Fixed switch traversal latency in cycles (arbitration + flight time).
HOP_LATENCY = 16


class Crossbar(Component):
    """N-port input-queued crossbar."""

    def __init__(self, sim, stats, nodes, bw_words, dest_of, outputs,
                 name="xbar"):
        super().__init__(name)
        self.stats = stats
        self.nodes = nodes
        self.bw_words = bw_words
        self.dest_of = dest_of
        self.outputs = outputs  # list of destination FIFOs, one per node
        self.inputs = [
            sim.fifo(capacity=4 * bw_words, name="%s.in%d" % (name, port))
            for port in range(nodes)
        ]
        # Typed metric handles (see repro.obs.metrics).  Per-destination
        # counters are pre-created so the arbitration loop never formats a
        # counter name per word.
        self._m_hol_blocks = stats.counter(name + ".hol_blocks")
        self._m_words = stats.counter(name + ".words")
        self._m_words_to = [
            stats.counter("%s.words_to%d" % (name, dest))
            for dest in range(nodes)
        ]
        self._pipes = [
            sim.pipe(HOP_LATENCY, name="%s.pipe%d" % (name, port))
            for port in range(nodes)
        ]
        # Wake/sleep protocol: injections wake the switch; a pop of a full
        # destination FIFO unblocks delivery of traversed requests.
        self.watch(*self.inputs)
        self.feeds(*outputs)

    def tick(self, now):
        # Deliver requests that finished traversing the switch.
        for dest, pipe in enumerate(self._pipes):
            while pipe.ready():
                if not self.outputs[dest].can_push():
                    break
                request = pipe.pop()
                if request.trace is not None:
                    request.trace.leg(self.name, "xbar.hop", now)
                self.outputs[dest].push(request)
        # Arbitrate: each input injects up to bw_words; each output accepts
        # up to bw_words.
        out_budget = [self.bw_words] * self.nodes
        for port in range(self.nodes):
            source = self.inputs[port]
            injected = 0
            while len(source) and injected < self.bw_words:
                request = source.peek()
                if request.route_to is not None:
                    dest = request.route_to
                else:
                    dest = self.dest_of(request.addr)
                if out_budget[dest] <= 0 or not self._pipes[dest].can_push():
                    self._m_hol_blocks.inc()
                    break  # head-of-line blocking
                self._pipes[dest].push(source.pop(), now)
                if request.trace is not None:
                    request.trace.leg(self.name, "xbar.queue", now)
                out_budget[dest] -= 1
                injected += 1
                self._m_words.inc()
                self._m_words_to[dest].inc()

    def next_wake(self, now):
        # Stay awake while any input holds requests: the per-tick
        # ``hol_blocks`` count (and arbitration) must run every cycle,
        # exactly as under the legacy stepper.
        for source in self.inputs:
            if source.occupancy:
                return now + 1
        wake = None
        for pipe in self._pipes:
            if pipe.ready():
                return now + 1  # deliverable (possibly output-blocked)
            head = pipe.next_ready()
            if head is not None and (wake is None or head < wake):
                wake = head
        if wake is not None and wake <= now:
            wake = now + 1
        return wake

    @property
    def busy(self):
        return False  # FIFOs and pipes carry all pending state

    def obs_probes(self):
        return (
            ("queued_words", lambda now: sum(
                source.occupancy for source in self.inputs)),
            ("inflight_words", lambda now: sum(
                len(pipe) for pipe in self._pipes)),
        )
