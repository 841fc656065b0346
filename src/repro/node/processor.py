"""The single-node stream processor: ties AGUs, memory system and clusters.

Executes :class:`~repro.node.program.StreamProgram` objects phase by phase.
Memory stream operations are simulated cycle-accurately through the banked
memory system; kernels are costed analytically on the cluster array; a
phase takes as long as its slowest member (memory streams and kernels
overlap, as stream architectures software-pipeline them), and phases run
back to back.
"""

from repro.node.agu import AddressGeneratorUnit
from repro.node.cluster import ClusterArray
from repro.node.memsys import MemorySystem
from repro.node.program import StreamProgram
from repro.obs import session as obs_session
from repro.sim.engine import Simulator
from repro.sim.fastforward import PipelineFastForward
from repro.sim.stats import Stats


class ProgramResult:
    """Outcome of running a stream program on the simulated node."""

    def __init__(self, config, cycles, stats, phase_cycles):
        self.config = config
        self.cycles = cycles
        self.stats = stats
        self.phase_cycles = phase_cycles

    @property
    def microseconds(self):
        return self.config.cycles_to_us(self.cycles)

    @property
    def mem_refs(self):
        """Word references issued by the application to the memory system."""
        return int(self.stats.get("memsys.refs"))

    @property
    def fp_ops(self):
        """Floating-point operations: kernels plus scatter-add FU sums."""
        return int(self.stats.get("cluster.fp_ops") + self.stats.total("fu"))

    def __repr__(self):
        return "ProgramResult(%d cycles, %.3f us)" % (
            self.cycles, self.microseconds,
        )


class StreamProcessor:
    """One simulated node executing stream programs."""

    def __init__(self, config, chaining=True, memory=None, obs=None,
                 engine=None):
        self.config = config
        self.sim = Simulator(scheduler=engine)
        self.stats = Stats()
        # Attach to an explicit observation, or the ambient one installed
        # by ``repro.obs.observe`` (None -> no instrumentation overhead).
        observation = obs if obs is not None else obs_session.active()
        self.obs_scope = None
        trace = None
        tracer = None
        if observation is not None:
            self.obs_scope = observation.attach(
                self.sim, self.stats, label="node", config=config)
            if observation.trace_enabled:
                trace = self.obs_scope.tracelog
            tracer = self.obs_scope.request_tracer
        self.agus = [
            self.sim.register(
                AddressGeneratorUnit(self.sim, config, self.stats,
                                     name="agu%d" % index, tracer=tracer)
            )
            for index in range(config.address_generators)
        ]
        self.memsys = MemorySystem(
            self.sim, config, self.stats,
            sources=[agu.out for agu in self.agus],
            memory=memory, chaining=chaining, trace=trace, tracer=tracer,
        )
        self.clusters = ClusterArray(config, self.stats)
        if self.obs_scope is not None:
            self.obs_scope.install_sampler()

    # ------------------------------------------------------------------ #
    def load_array(self, base, array):
        """Initialise backing memory with `array` at word address `base`."""
        self.memsys.memory.load_array(base, array)

    def read_result(self, base, length):
        """Final memory contents (dirty cache state flushed functionally)."""
        return self.memsys.read_result(base, length)

    # ------------------------------------------------------------------ #
    def run(self, program):
        """Execute `program`; returns a :class:`ProgramResult`."""
        if not isinstance(program, StreamProgram):
            program = StreamProgram(program)
        phase_cycles = []
        for index, phase in enumerate(program):
            phase_start = self.sim.cycle
            mem_cycles = self._run_mem_phase(phase.mem_ops)
            kernel_cycles = sum(
                self.clusters.kernel_cycles(kernel) for kernel in phase.kernels
            )
            bulk_cycles = sum(
                self.clusters.bulk_cycles(bulk) for bulk in phase.bulk_ops
            )
            duration = max(mem_cycles, kernel_cycles, bulk_cycles)
            phase_cycles.append(duration)
            if self.obs_scope is not None:
                self.obs_scope.span(phase.name or ("phase%d" % index),
                                    phase_start, duration)
        total = sum(phase_cycles)
        if self.obs_scope is not None:
            # Report measured cycles (engine time plus launch overheads),
            # matching the number every ProgramResult consumer sees.
            self.obs_scope._cycles = (self.obs_scope._cycles or 0) + total
        return ProgramResult(self.config, total, self.stats, phase_cycles)

    def _run_mem_phase(self, mem_ops):
        if not mem_ops:
            return 0
        agu_load = [0] * len(self.agus)
        for index, op in enumerate(mem_ops):
            agu = index % len(self.agus)
            self.agus[agu].start(op)
            agu_load[agu] += 1
        start = self.sim.cycle
        end = None
        if self.sim._collapse and self.config.memory_model == "uniform":
            # The event engine's analytic window collapse; None declines
            # (observation hooks, unsupported traffic shape) and the
            # window steps on the event loop instead.
            end = PipelineFastForward(
                self.sim, self.config, self.agus, self.memsys).attempt()
        if end is None:
            end = self.sim.run()
        self.stats.record_engine(self.sim)
        if self.obs_scope is not None:
            # Capture the final partial timeline window (and any sampler
            # state) at the phase's quiescent cycle.
            self.obs_scope.flush_sampler(end)
        # Per-op launch overhead; ops on one AGU serialise their overheads.
        overhead = self.config.stream_op_overhead * max(agu_load)
        self.stats.add("memsys.stream_ops", len(mem_ops))
        return (end - start) + overhead

    # ------------------------------------------------------------------ #
    def scatter_add_cycles(self, addrs, values=1.0, base=0):
        """Convenience: simulate a single scatterAdd stream op.

        Returns (cycles, result_read_callback); used by the histogram
        experiments where the scatter-add itself is the unit under test.
        """
        from repro.node.program import Phase, ScatterAdd

        op = ScatterAdd(addrs, values)
        result = self.run(StreamProgram([Phase([op])]))
        return result
