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

import json
import math

import numpy as np

from repro.config import WORD_BYTES, MachineConfig
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
MULTI_RUN_SCHEMA = "repro.multirun/1"


class MultiNodeRun:
    """Outcome of a multi-node scatter-add.

    Shares the :class:`~repro.api.ScatterRun` surface — ``to_dict`` /
    ``from_dict`` / ``save`` / ``load`` round-trip exactly and
    ``write_metrics`` routes through :mod:`repro.obs.export` — so
    multi-node runs save, reload and export metrics the same way
    single-node runs do.
    """

    def __init__(self, config, cycles, refs, result, stats,
                 observation=None):
        self.config = config
        self.cycles = cycles
        self.refs = refs
        self.result = result
        self.stats = stats
        self.observation = observation
        # Populated on deserialized runs (see from_dict); live runs read
        # these from the observation / metric registry instead.
        self._breakdown = None
        self._timelines = None
        self._gauges = None
        self._histograms = None

    @property
    def microseconds(self):
        return self.config.cycles_to_us(self.cycles)

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

    @property
    def mem_refs(self):
        """ScatterRun-compatible alias for the reference count."""
        return self.refs

    def bottlenecks(self, top=None):
        """Components ranked by busy fraction (see ``repro.harness.report``)."""
        from repro.harness.report import bottlenecks

        return bottlenecks(self.stats, self.cycles, config=self.config,
                           top=top)

    def latency_breakdown(self):
        """Per-stage latency attribution of the sampled requests.

        Requires the run to have been observed with request tracing (e.g.
        ``Simulation(..., trace_requests=N)``).  Network stages appear as
        ``net.queue`` (combining-table residency; absorbed requests end
        here) and ``net.hop`` (link traversal).  On a deserialized run the
        table captured at serialization time is returned.
        """
        from repro.harness.report import latency_breakdown

        if self._breakdown is not None:
            return self._breakdown
        if self.observation is None:
            raise ValueError(
                "run was not request-traced; use "
                "Simulation(..., trace_requests=N)")
        for scope in self.observation.scopes:
            if scope.request_tracer is not None:
                return latency_breakdown(scope.request_tracer)
        raise ValueError(
            "run was not request-traced; use "
            "Simulation(..., trace_requests=N)")

    def write_trace(self, path):
        """Write a chrome://tracing JSON file for this run.

        Requires the run to have been observed with ``trace=True``.
        """
        from repro.obs.export import write_chrome_trace

        if self.observation is None:
            raise ValueError(
                "run was not traced; use Simulation(..., trace=True)")
        return write_chrome_trace(path, self.observation)

    def write_metrics(self, path):
        """Write the machine-readable metrics.json for this run.

        Observed runs export their full observation; otherwise the payload
        derives from :meth:`to_dict` — the same serialized form
        :meth:`save` writes — so reloaded and live multi-node runs emit
        byte-identical metrics.json.
        """
        if self.observation is not None:
            from repro.obs.export import write_metrics

            return write_metrics(path, self.observation)
        from repro.obs.export import write_run_metrics

        return write_run_metrics(path, self.to_dict())

    # ------------------------------------------------------------------ #
    # serialization (ScatterRun-parallel)
    # ------------------------------------------------------------------ #
    def to_dict(self):
        """Lossless, JSON-serializable form of this run.

        ``MultiNodeRun.from_dict(run.to_dict())`` round-trips exactly.
        The keys mirror :meth:`repro.api.ScatterRun.to_dict` (plus
        ``refs``), so :func:`repro.obs.export.run_metrics_payload` handles
        both run kinds identically.
        """
        gauges, histograms = self._gauges, self._histograms
        if gauges is None:
            snapshot = self.stats.registry.snapshot()
            gauges = snapshot["gauges"]
            histograms = snapshot["histograms"]
        timelines = self._timelines
        breakdown = self._breakdown
        if self.observation is not None:
            for scope in self.observation.scopes:
                if timelines is None and scope.sampler is not None:
                    timelines = {timeline.name: timeline.as_dict()
                                 for timeline in scope.timelines}
                if breakdown is None and scope.request_tracer is not None:
                    breakdown = scope.request_tracer.breakdown()
        return {
            "schema": MULTI_RUN_SCHEMA,
            "result": [float(value)
                       for value in np.asarray(self.result).ravel()],
            "cycles": int(self.cycles),
            "microseconds": float(self.microseconds),
            "refs": int(self.refs),
            "mem_refs": int(self.refs),
            "stats": self.stats.as_dict(),
            "gauges": gauges,
            "histograms": histograms,
            "config": self.config.to_dict(),
            "timelines": timelines,
            "latency_breakdown": breakdown,
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild a run from :meth:`to_dict` output."""
        if not isinstance(data, dict) or data.get("schema") != MULTI_RUN_SCHEMA:
            raise ValueError(
                "not a serialized MultiNodeRun (schema %r != %r)"
                % (data.get("schema") if isinstance(data, dict)
                   else type(data).__name__, MULTI_RUN_SCHEMA))
        run = cls.__new__(cls)
        run.config = MachineConfig.from_dict(data["config"])
        run.cycles = int(data["cycles"])
        run.refs = int(data["refs"])
        run.result = np.asarray(data["result"], dtype=np.float64)
        run.stats = Stats()
        for name, value in data["stats"].items():
            run.stats.set(name, value)
        run.observation = None
        run._breakdown = data.get("latency_breakdown")
        run._timelines = data.get("timelines")
        run._gauges = data.get("gauges") or {}
        run._histograms = data.get("histograms") or {}
        return run

    def save(self, path):
        """Write the serialized run (:meth:`to_dict`) as JSON to `path`."""
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def load(cls, path):
        """Read a run written by :meth:`save`; exact round-trip."""
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    def __repr__(self):
        return "MultiNodeRun(%d nodes, %d cycles, %.1f GB/s)" % (
            self.config.nodes, self.cycles, self.throughput_gbs,
        )


class MultiNodeSystem:
    """N stream-processor nodes, an interconnect fabric, and
    block-partitioned memory.

    The interconnect is whatever ``config.network_config`` describes: the
    legacy input-queued crossbar (the degenerate, bit-exact default), a
    combining crossbar switch, or a radix-r reduction tree of combining
    switches (see :mod:`repro.network.fabric`).  With combine site
    ``"network"`` the home scatter-add units run without combining-store
    chaining — merging happens in flight instead; ``"both"`` enables both
    sites.
    """

    def __init__(self, config, address_space, obs=None, engine=None,
                 chaining=True):
        if config.nodes < 1:
            raise ValueError("need at least one node")
        self.config = config
        netcfg = config.network_config
        self.network_config = netcfg
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
        #: The legacy switch when the degenerate topology is in use
        #: (kept for backward compatibility); ``None`` under the fabric.
        self.crossbar = self.network.crossbar
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
        return MultiNodeRun(self.config, cycles, count, result, self.stats,
                            observation=observation)
