"""Per-node network interface.

Splits the node's outgoing request stream by home node: local requests go
straight into the node's memory system; remote requests either cross the
network to the home node's scatter-add unit (base mechanism), or -- with
cache combining enabled -- are retargeted at the *local* cache with
``combining=True``, accumulating a delta that eviction will sum-back.

The interface also owns the sum-back path: dirty words of evicted
combining lines become remote scatter-add requests on the home node.
"""

from repro.memory.request import OP_FETCH_ADD, OP_SCATTER_ADD, MemoryRequest
from repro.sim.engine import Component


def _tree_next_hop(source, home):
    """Next node on the logical combining tree from `source` toward `home`.

    Each hop at least halves the index distance, so any partial sum
    reaches its home within ceil(log2(N)) hops.
    """
    distance = home - source
    if abs(distance) <= 1:
        return home
    # Step to the node halfway toward home, rounding toward home, so the
    # remaining distance is floor(d/2) and the hop count is ceil(log2 d).
    return home - (distance - (1 if distance > 0 else -1)) // 2


class NodeInterface(Component):
    """Routes one node's memory requests between local memory and network."""

    def __init__(self, sim, config, stats, node_id, home_of, name=None):
        super().__init__(name or "node%d.nif" % node_id)
        self.stats = stats
        self.node_id = node_id
        self.home_of = home_of
        self.cache_combining = config.cache_combining
        self.hierarchical = config.hierarchical_combining
        self.width = config.cache_words_per_cycle
        # Typed metric handles (see repro.obs.metrics).
        self._m_sumbacks = stats.counter(self.name + ".sumbacks")
        self._m_tree_hops = stats.counter(self.name + ".tree_hops")
        self._m_local_refs = stats.counter(self.name + ".local_refs")
        self._m_combined_refs = stats.counter(self.name + ".combined_refs")
        self._m_remote_refs = stats.counter(self.name + ".remote_refs")
        # Sources filled by the node's AGUs; set by the system.
        self.sources = []
        #: Feeds the node's local memory-system router.
        self.local_out = sim.fifo(capacity=2 * self.width,
                                  name=self.name + ".local_out")
        #: Crossbar input port; set by the system after the crossbar exists.
        self.net_out = None

    def connect(self, sources, net_out):
        self.sources = list(sources)
        self.net_out = net_out
        # Wake/sleep protocol: pushes into any source wake the interface;
        # while a source holds requests it polls (covers full outputs).
        self.watch(*self.sources)

    def send_sumback(self, addr, value):
        """Dispose of one dirty word of an evicted combining line.

        Returns False when the network input port is full, asking the cache
        bank to retry; sum-backs to *this* node's own memory short-circuit
        into the local path.

        Under hierarchical combining, a sum-back whose home is more than
        one tree hop away travels to an intermediate node and *combines in
        that node's cache* (the request stays tagged ``combining``), so
        N-1 per-node partial sums reach the home in O(log N) waves instead
        of N-1 direct messages.
        """
        home = self.home_of(addr)
        if home == self.node_id:
            if not self.local_out.can_push():
                return False
            self.local_out.push(MemoryRequest(OP_SCATTER_ADD, addr, value))
            self._m_sumbacks.inc()
            return True
        if not self.net_out.can_push():
            return False
        if self.hierarchical:
            next_hop = _tree_next_hop(self.node_id, home)
            if next_hop == home:
                request = MemoryRequest(OP_SCATTER_ADD, addr, value)
            else:
                request = MemoryRequest(OP_SCATTER_ADD, addr, value,
                                        combining=True, route_to=next_hop)
                self._m_tree_hops.inc()
        else:
            request = MemoryRequest(OP_SCATTER_ADD, addr, value)
        self.net_out.push(request)
        self._m_sumbacks.inc()
        return True

    def tick(self, now):
        moved = 0
        for source in self.sources:
            while len(source) and moved < self.width:
                request = source.peek()
                home = self.home_of(request.addr)
                if home == self.node_id:
                    if not self.local_out.can_push():
                        break
                    self.local_out.push(source.pop())
                    self._m_local_refs.inc()
                elif (self.cache_combining and request.is_atomic
                      and request.op != OP_FETCH_ADD):
                    # Combine remotely-homed updates in the local cache.
                    # Fetch-adds are excluded: their return value is the
                    # *global* pre-update value, which only the home
                    # node's unit can produce.
                    if not self.local_out.can_push():
                        break
                    request = source.pop()
                    request.combining = True
                    self.local_out.push(request)
                    self._m_combined_refs.inc()
                else:
                    if not self.net_out.can_push():
                        break
                    self.net_out.push(source.pop())
                    self._m_remote_refs.inc()
                if request.trace is not None:
                    request.trace.leg(self.name, "nif.queue", now)
                moved += 1

    def next_wake(self, now):
        for source in self.sources:
            if source.occupancy:
                return now + 1
        return None

    @property
    def busy(self):
        return False  # FIFOs carry all pending state

    def obs_probes(self):
        return (
            ("queued", lambda now: sum(
                source.occupancy for source in self.sources)),
        )
