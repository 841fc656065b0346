"""The multi-node system: N Table-1 nodes around an input-queued crossbar.

Global memory is block-partitioned across nodes (each node owns a
contiguous range of the target array).  Every node runs the single-node
memory system unchanged; a :class:`~repro.multinode.interface.NodeInterface`
in front of each decides whether a request is local, crosses the network to
its home node's scatter-add unit, or (cache combining) accumulates locally.

:meth:`MultiNodeSystem.scatter_add` reproduces the Section 4.5 methodology:
the update trace is equally partitioned across the nodes, the run ends when
every addition has reached its home memory -- including, under combining,
the final flush-with-sum-back synchronisation step -- and throughput is
reported in additions' bytes per wall-clock time (GB/s at 1 GHz), the
y-axis of Figure 13.
"""

import math

import numpy as np

from repro.api import ScatterRun
from repro.config import WORD_BYTES
from repro.multinode.interface import NodeInterface
from repro.network.fabric import build_network
from repro.node.agu import AddressGeneratorUnit
from repro.node.memsys import MemorySystem
from repro.node.program import ScatterAdd
from repro.memory.backing import MainMemory
from repro.obs import session as obs_session
from repro.sim.engine import Simulator
from repro.sim.stats import Stats

#: Version tag of the serialized :class:`MultiNodeRun` format.
MULTI_RUN_SCHEMA = "repro.multirun/2"


class MultiNodeRun(ScatterRun):
    """Outcome of a multi-node scatter-add.

    A :class:`~repro.api.ScatterRun` whose ``mem_refs`` counts the
    scatter-add references spread over the nodes; it adds the Figure 13
    throughput views and serializes under its own schema tag with an
    extra ``refs`` key.
    """

    SCHEMA = MULTI_RUN_SCHEMA

    @property
    def refs(self):
        """Scatter-add references issued across all nodes."""
        return self.mem_refs

    @property
    def throughput_gbs(self):
        """Scatter-add bandwidth in GB/s (Figure 13's y-axis)."""
        if self.cycles == 0:
            return 0.0
        words_per_cycle = self.refs / self.cycles
        return words_per_cycle * WORD_BYTES * self.config.frequency_ghz

    @property
    def additions_per_cycle(self):
        return self.refs / self.cycles if self.cycles else 0.0

    def to_dict(self):
        data = super().to_dict()
        data["refs"] = int(self.refs)
        return data

    def __repr__(self):
        return "MultiNodeRun(%d nodes, %d cycles, %.1f GB/s)" % (
            self.config.nodes, self.cycles, self.throughput_gbs,
        )


class MultiNodeSystem:
    """N stream-processor nodes, an interconnect fabric, and
    block-partitioned memory.

    The interconnect is whatever ``config.network`` describes: the
    input-queued crossbar (the degenerate, bit-exact default), a
    combining crossbar switch, or a radix-r reduction tree of combining
    switches (see :mod:`repro.network.fabric`).  With combine site
    ``"network"`` the home scatter-add units run without combining-store
    chaining — merging happens in flight instead; ``"both"`` enables both
    sites.
    """

    def __init__(self, config, address_space, obs=None, engine=None,
                 chaining=True):
        self.config = config
        netcfg = config.network
        self.sim = Simulator(scheduler=engine)
        self.stats = Stats()
        observation = obs if obs is not None else obs_session.active()
        self.obs_scope = None
        trace = None
        tracer = None
        if observation is not None:
            self.obs_scope = observation.attach(
                self.sim, self.stats,
                label="multinode%d" % config.nodes, config=config)
            if observation.trace_enabled:
                trace = self.obs_scope.tracelog
            tracer = self.obs_scope.request_tracer
        self.memory = MainMemory()
        line = config.cache_line_words
        per_node = int(math.ceil(address_space / config.nodes / line)) * line
        self.words_per_node = max(per_node, line)
        nodes = config.nodes

        def home_of(addr, _w=self.words_per_node, _n=nodes):
            return min(addr // _w, _n - 1)

        self.home_of = home_of

        self.agus = []
        self.interfaces = []
        self.memsystems = []
        remote_ins = []
        for node in range(nodes):
            node_agus = [
                self.sim.register(AddressGeneratorUnit(
                    self.sim, config, self.stats,
                    name="node%d.agu%d" % (node, index), tracer=tracer,
                ))
                for index in range(config.address_generators)
            ]
            self.agus.append(node_agus)
            interface = NodeInterface(self.sim, config, self.stats, node,
                                      home_of)
            self.sim.register(interface)
            self.interfaces.append(interface)
            remote_in = self.sim.fifo(
                capacity=4 * netcfg.link_bw_words,
                name="node%d.remote_in" % node,
            )
            remote_ins.append(remote_in)
            memsys = MemorySystem(
                self.sim, config, self.stats,
                sources=[interface.local_out, remote_in],
                memory=self.memory,
                chaining=chaining and netcfg.memory_combining,
                sumback_sink=interface.send_sumback,
                name="node%d" % node,
                trace=trace, tracer=tracer,
            )
            self.memsystems.append(memsys)

        self.network = build_network(
            self.sim, self.stats, netcfg,
            dest_of=home_of, outputs=remote_ins,
        )
        for node in range(nodes):
            self.interfaces[node].connect(
                sources=[agu.out for agu in self.agus[node]],
                net_out=self.network.inputs[node],
            )
        if self.obs_scope is not None:
            self.obs_scope.install_sampler()

    # ------------------------------------------------------------------ #
    def load_array(self, base, array):
        self.memory.load_array(base, array)

    def scatter_add(self, indices, values=1.0, num_targets=None, base=0):
        """Run a scatter-add trace partitioned equally across the nodes."""
        indices = np.asarray(indices, dtype=np.int64)
        count = len(indices)
        if num_targets is None:
            num_targets = int(indices.max()) + 1 if count else 0
        if np.isscalar(values):
            value_array = np.full(count, float(values))
        else:
            value_array = np.asarray(values, dtype=np.float64)

        nodes = self.config.nodes
        slice_size = int(math.ceil(count / nodes)) if count else 0
        start_cycle = self.sim.cycle
        for node in range(nodes):
            lo = node * slice_size
            hi = min(count, lo + slice_size)
            if lo >= hi:
                continue
            # Split the node's slice across its address generators.
            node_agus = self.agus[node]
            agu_chunk = int(math.ceil((hi - lo) / len(node_agus)))
            for position, agu in enumerate(node_agus):
                alo = lo + position * agu_chunk
                ahi = min(hi, alo + agu_chunk)
                if alo >= ahi:
                    continue
                op = ScatterAdd(
                    [base + int(i) for i in indices[alo:ahi]],
                    list(value_array[alo:ahi]),
                )
                agu.start(op)
        self.sim.run()
        if self.obs_scope is not None:
            self.obs_scope.span("scatter_add", start_cycle,
                                self.sim.cycle - start_cycle)
        if self.config.cache_combining:
            # Flush-with-sum-back synchronisation step (Section 3.2).
            # Hierarchical combining deposits partial sums at intermediate
            # tree nodes, so flushing repeats until no dirty combining
            # delta remains anywhere (at most ~log2(N) waves).
            for _ in range(2 * self.config.nodes + 2):
                wave_start = self.sim.cycle
                for memsys in self.memsystems:
                    for bank in memsys.banks:
                        bank.request_flush()
                self.sim.run()
                if self.obs_scope is not None:
                    self.obs_scope.span("flush_wave", wave_start,
                                        self.sim.cycle - wave_start)
                if not any(bank.has_combining_state
                           for memsys in self.memsystems
                           for bank in memsys.banks):
                    break
            else:
                raise RuntimeError(
                    "combining flush did not converge; partial sums stuck"
                )
        cycles = self.sim.cycle - start_cycle
        self.stats.record_engine(self.sim)
        if self.obs_scope is not None:
            self.obs_scope.flush_sampler(self.sim.cycle)

        for memsys in self.memsystems:
            memsys.drain_to_memory()
        result = self.memory.export_array(base, num_targets)
        observation = None
        if self.obs_scope is not None:
            observation = self.obs_scope.observation
        return MultiNodeRun(result, self.config, cycles, self.stats, count,
                            observation=observation)
