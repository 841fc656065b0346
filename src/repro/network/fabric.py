"""Combining interconnect fabrics: switches with merge tables, tree topologies.

The paper's multi-node system combines scatter requests only at the home
node's scatter-add unit; Tascade and the NYU-Ultracomputer line of work
combine *in the network*.  This module grows ``repro.network`` beyond the
single input-queued :class:`~repro.network.crossbar.Crossbar`:

- :class:`Switch` -- an input-queued switch whose per-output queue is a
  :class:`~repro.core.combining_store.CombiningTable`: while a scatter
  request waits for link bandwidth, same-address requests merge into it
  (add/min/max/mul algebra), and the absorbed request is acknowledged on
  the spot.  Fetch-adds never merge -- their acknowledgement carries the
  global pre-update value only the home unit can produce -- and simply
  queue.  Congestion widens the merge window, so combining helps exactly
  when the network is the bottleneck.
- :func:`build_network` -- the topology factory.  ``topology="tree"``
  builds a reduction tree of switches with configurable radix (requests
  climb to the lowest common ancestor and descend to the home leaf,
  merging at every hop); ``topology="crossbar"`` is the degenerate case --
  a single switch spanning every node -- and, with network combining
  disabled, instantiates the legacy :class:`Crossbar` unchanged, keeping
  runs bit-identical to the pre-fabric stepper.

All combining counters live in the ``sim.network.*`` family (created only
when the new fabric is active, so legacy-path stats bags are untouched):
``injected``, ``delivered``, ``combined_in_flight``, ``hops``,
``hol_blocks``, and a ``table_peak_occupancy`` gauge.
"""

from repro.core.combining_store import CombiningTable
from repro.memory.request import MemoryResponse
from repro.network.crossbar import HOP_LATENCY, Crossbar
from repro.sim.engine import Component
from repro.sim.queues import LatencyPipe

#: Per-switch traversal latency in a reduction tree.  Tree switches are
#: small (radix-degree) and sit closer together than the monolithic
#: crossbar, so one hop is cheaper -- but a leaf-to-leaf trip crosses
#: up to 2*ceil(log_r N) of them.
TREE_HOP_LATENCY = 4


class NetworkMetrics:
    """Shared ``sim.network.*`` metric handles for one fabric.

    One instance per :func:`build_network` call; every switch of the
    fabric increments the same family, so the counters describe the
    network as a whole (matching how ``latency_breakdown()`` attributes
    the ``net.queue`` / ``net.hop`` stages).
    """

    PREFIX = "sim.network"

    def __init__(self, stats):
        self.injected = stats.counter(self.PREFIX + ".injected")
        self.delivered = stats.counter(self.PREFIX + ".delivered")
        self.combined = stats.counter(self.PREFIX + ".combined_in_flight")
        self.hops = stats.counter(self.PREFIX + ".hops")
        self.hol_blocks = stats.counter(self.PREFIX + ".hol_blocks")
        self._peak_gauge = stats.gauge(self.PREFIX + ".table_peak_occupancy")
        self._peak = 0

    def observe_table(self, occupancy):
        if occupancy > self._peak:
            self._peak = occupancy
            self._peak_gauge.set(occupancy)


class _OutPort:
    """One switch output: combining table -> link pipe -> destination FIFO."""

    __slots__ = ("lo", "hi", "table", "pipe", "dest", "final")

    def __init__(self, lo, hi, table, pipe, dest, final):
        self.lo = lo
        self.hi = hi
        self.table = table
        self.pipe = pipe
        self.dest = dest
        self.final = final  # delivers into a node's remote_in


class Switch(Component):
    """Input-queued switch with per-output combining tables.

    Covers the contiguous leaf range ``[lo, hi)``.  Child ports partition
    that range (span 1 at the leaf level, a whole subtree above it); the
    optional parent port carries everything else.  A request targets
    ``route_to`` when set (hierarchical combining) and the home of its
    address otherwise.

    Per cycle, in order: (1) requests leaving a link pipe are delivered to
    their destination FIFO, (2) each output drains up to ``bw_words`` from
    its combining table into the pipe, (3) each input injects up to
    ``bw_words`` into the target tables -- merging into a waiting
    same-address entry when combining is on, stalling on a full table
    (head-of-line blocking) otherwise.  Draining before injecting gives
    every request at least one cycle of table residency: the minimum merge
    window, which back-pressure then widens.
    """

    def __init__(self, sim, name, lo, hi, child_span, dest_of, bw_words,
                 hop_latency, combine, table_entries, metrics):
        super().__init__(name)
        self._sim_handle = sim
        self.lo = lo
        self.hi = hi
        self.child_span = child_span
        self.dest_of = dest_of
        self.bw_words = bw_words
        self.hop_latency = hop_latency
        self.combine = combine
        self.table_entries = table_entries
        self.metrics = metrics
        self.inputs = []  # (fifo, is_injection) in service order
        self.ports = []  # child ports, in leaf order
        self.parent_port = None

    # --- wiring (done by build_network before the run starts) ----------- #
    def new_input(self, label, injection=False):
        """Add an input FIFO (a node's injection port or an inter-switch
        link) and return it for the upstream side to push into."""
        fifo = self._sim_handle.fifo(
            capacity=4 * self.bw_words,
            name="%s.in_%s" % (self.name, label),
        )
        self.inputs.append((fifo, injection))
        self.watch(fifo)
        return fifo

    def _make_port(self, lo, hi, dest, final, label):
        port = _OutPort(
            lo, hi,
            table=CombiningTable(self.table_entries),
            pipe=LatencyPipe(self.hop_latency,
                             name="%s.pipe_%s" % (self.name, label)),
            dest=dest,
            final=final,
        )
        self.feeds(dest)
        return port

    def add_child_port(self, dest, lo, hi, final):
        self.ports.append(self._make_port(lo, hi, dest, final,
                                          "down%d" % len(self.ports)))

    def set_parent_port(self, dest):
        self.parent_port = self._make_port(-1, -1, dest, False, "up")

    # --- routing -------------------------------------------------------- #
    def route_port(self, request):
        """The output port a request leaves through."""
        target = request.route_to
        if target is None:
            target = self.dest_of(request.addr)
        if self.lo <= target < self.hi:
            child = (target - self.lo) // self.child_span
            return self.ports[min(child, len(self.ports) - 1)]
        return self.parent_port

    def _all_ports(self):
        if self.parent_port is not None:
            return self.ports + [self.parent_port]
        return self.ports

    # --- simulation ----------------------------------------------------- #
    def tick(self, now):
        metrics = self.metrics
        # 1. Deliver requests that finished traversing a link.
        for port in self._all_ports():
            pipe = port.pipe
            while pipe.ready(now):
                if not port.dest.can_push():
                    break
                request = pipe.pop()
                if request.trace is not None:
                    request.trace.leg(self.name, "net.hop", now)
                port.dest.push(request)
                if port.final:
                    metrics.delivered.inc()
        # 2. Drain combining tables into the link pipes (link bandwidth).
        for port in self._all_ports():
            budget = self.bw_words
            table = port.table
            while budget and table:
                port.pipe.push(table.pop(), now)
                metrics.hops.inc()
                budget -= 1
        # 3. Inject from the input queues, merging where possible.
        for source, is_injection in self.inputs:
            injected = 0
            while len(source) and injected < self.bw_words:
                request = source.peek()
                port = self.route_port(request)
                table = port.table
                if self.combine and table.try_merge(request):
                    source.pop()
                    self._ack_absorbed(request, now)
                    metrics.combined.inc()
                    if is_injection:
                        metrics.injected.inc()
                    injected += 1
                    continue
                if table.full:
                    metrics.hol_blocks.inc()
                    break  # head-of-line blocking
                source.pop()
                if request.trace is not None:
                    request.trace.leg(self.name, "net.queue", now)
                table.append(request)
                metrics.observe_table(len(table))
                if is_injection:
                    metrics.injected.inc()
                injected += 1

    def _ack_absorbed(self, request, now):
        """Acknowledge a request that merged into an in-flight one.

        The merge target now carries its operand, so the request itself is
        complete the moment it is absorbed; the issuing address generator
        gets its acknowledgement from the switch instead of the home
        scatter-add unit.  (Only non-fetch ops merge, so the ack never
        needs a data value.)
        """
        if request.trace is not None:
            request.trace.leg(self.name, "net.queue", now)
        if request.reply_to is not None:
            request.reply_to.push(MemoryResponse(
                request.op, request.addr, 0.0,
                tag=request.tag, trace=request.trace,
            ))

    def next_wake(self, now):
        # Stay awake while anything is queued: injection, merging and HOL
        # accounting must run every cycle, exactly like the crossbar.
        for source, _ in self.inputs:
            if source.occupancy:
                return now + 1
        wake = None
        for port in self._all_ports():
            if port.table:
                return now + 1
            if port.pipe.ready(now):
                return now + 1  # deliverable (possibly output-blocked)
            head = port.pipe.next_ready()
            if head is not None and (wake is None or head < wake):
                wake = head
        if wake is not None and wake <= now:
            wake = now + 1
        return wake

    @property
    def busy(self):
        # Combining tables and link pipes are the switch's own state; the
        # simulator tracks only the input FIFOs.
        return any(port.table or port.pipe.occupancy
                   for port in self._all_ports())

    def obs_probes(self):
        return (
            ("queued_words", lambda now: sum(
                source.occupancy for source, _ in self.inputs)),
            ("table_words", lambda now: sum(
                len(port.table) for port in self._all_ports())),
            ("inflight_words", lambda now: sum(
                port.pipe.occupancy for port in self._all_ports())),
        )


class Fabric:
    """Handle returned by :func:`build_network`.

    ``inputs[node]`` is the FIFO node `node` injects into -- the uniform
    wiring surface whatever the topology.  ``switches`` is empty for the
    degenerate legacy crossbar (``crossbar`` holds it instead).
    """

    def __init__(self, inputs, switches=(), crossbar=None, metrics=None):
        self.inputs = inputs
        self.switches = list(switches)
        self.crossbar = crossbar
        self.metrics = metrics


def build_network(sim, stats, network, dest_of, outputs, name="net"):
    """Instantiate the interconnect a :class:`NetworkConfig` describes.

    Parameters
    ----------
    network:
        :class:`~repro.config.NetworkConfig`.
    dest_of:
        ``addr -> home node`` map.
    outputs:
        Per-node destination FIFOs (``remote_in``).

    With ``topology="crossbar"`` and network combining off this returns
    the unchanged legacy :class:`Crossbar` -- same components, counters
    and cycle behaviour as every run before the fabric existed.  Anything
    else builds combining :class:`Switch` es and the ``sim.network.*``
    metric family.
    """
    nodes = network.nodes
    if network.topology == "crossbar" and not network.network_combining:
        crossbar = Crossbar(sim, stats, nodes, network.link_bw_words,
                            dest_of=dest_of, outputs=outputs)
        sim.register(crossbar)
        return Fabric(inputs=crossbar.inputs, crossbar=crossbar)

    metrics = NetworkMetrics(stats)
    combine = network.network_combining
    if network.topology == "crossbar":
        switch = Switch(
            sim, name + ".x0", lo=0, hi=nodes, child_span=1,
            dest_of=dest_of, bw_words=network.link_bw_words,
            hop_latency=HOP_LATENCY, combine=combine,
            table_entries=network.combining_table_entries, metrics=metrics,
        )
        for leaf in range(nodes):
            switch.add_child_port(outputs[leaf], leaf, leaf + 1, final=True)
        inputs = [switch.new_input("inj%d" % leaf, injection=True)
                  for leaf in range(nodes)]
        sim.register(switch)
        return Fabric(inputs=inputs, switches=[switch], metrics=metrics)

    # Reduction tree: complete radix-r tree over the leaf range [0, N).
    radix = network.tree_radix

    def make_switch(level, index, lo, hi, child_span):
        return Switch(
            sim, "%s.l%ds%d" % (name, level, index), lo=lo, hi=hi,
            child_span=child_span, dest_of=dest_of,
            bw_words=network.link_bw_words, hop_latency=TREE_HOP_LATENCY,
            combine=combine, table_entries=network.combining_table_entries,
            metrics=metrics,
        )

    level = []
    for index, lo in enumerate(range(0, nodes, radix)):
        hi = min(lo + radix, nodes)
        switch = make_switch(0, index, lo, hi, child_span=1)
        for leaf in range(lo, hi):
            switch.add_child_port(outputs[leaf], leaf, leaf + 1, final=True)
        level.append(switch)
    switches = list(level)
    span = radix
    level_num = 0
    while len(level) > 1:
        level_num += 1
        span *= radix
        parents = []
        for index, lo in enumerate(range(0, nodes, span)):
            hi = min(lo + span, nodes)
            children = level[index * radix:(index + 1) * radix]
            parent = make_switch(level_num, index, lo, hi,
                                 child_span=span // radix)
            for child in children:
                down = child.new_input("parent")
                parent.add_child_port(down, child.lo, child.hi, final=False)
                up = parent.new_input("c%d" % (len(parent.ports) - 1))
                child.set_parent_port(up)
            parents.append(parent)
        switches.extend(parents)
        level = parents
    inputs = [
        switches[leaf // radix].new_input("inj%d" % leaf, injection=True)
        for leaf in range(nodes)
    ]
    for switch in switches:
        sim.register(switch)
    return Fabric(inputs=inputs, switches=switches, metrics=metrics)
