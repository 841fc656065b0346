"""The benchmark's four workloads.

Each workload turns a seed into inputs, runs them on a freshly built
machine (caches start empty, as in the paper) and knows the numpy answer
the run must produce.  The simulator only ever sees the generated inputs.
``small=True`` shrinks every workload to a size the tests can afford.
"""

from contextlib import nullcontext

import numpy as np

from repro.api import Simulation, scatter_add_reference
from repro.config import MachineConfig, NetworkConfig
from repro.harness.paper_data import FIGURE9
from repro.multinode.system import MultiNodeSystem
from repro.node.processor import StreamProcessor
from repro.sim.engine import use_scheduler
from repro.workloads.fem import build_tet_mesh
from repro.workloads.spmv import SpMVWorkload


class Outcome:
    """What one run produced: simulated cycles, counters and the result."""

    def __init__(self, cycles, stats, result):
        self.cycles = int(cycles)
        self.stats = stats.as_dict()
        self.result = np.asarray(result, dtype=np.float64)


class SpMVEBE:
    """Figure 9 element-by-element SpMV with hardware scatter-add."""

    name = "spmv_ebe"
    why = ("paper headline app: x-gathers share the cache banks with "
           "scatter-adds and most accesses hit")
    #: Exec cycles the paper reports for EBE with hardware scatter-add.
    paper_cycles = FIGURE9["EBE HW scatter-add"]["exec_cycles_M"] * 1e6

    def __init__(self, small=False):
        self.mesh_dims = (2, 2, 2) if small else (8, 8, 5)
        self.config = MachineConfig.table1()

    def build(self, seed):
        mesh = build_tet_mesh(*self.mesh_dims, seed=seed)
        return SpMVWorkload(mesh, seed=seed)

    def machine(self, inputs):
        return StreamProcessor(self.config)

    def run(self, inputs, engine=None):
        # run_ebe_hardware builds its processor with the process default
        # scheduler, so a named engine is selected through use_scheduler.
        with use_scheduler(engine) if engine else nullcontext():
            run = inputs.run_ebe_hardware(self.config)
        return Outcome(run.cycles, run.stats, run.y)

    def reference(self, inputs):
        return inputs.reference()

    def matches(self, result, expected):
        # The hardware sums each row in arrival order, the CSR reference
        # in column order: equal up to float rounding.
        return (result.shape == expected.shape
                and np.allclose(result, expected, rtol=1e-9, atol=1e-9))


class ScatterTrace:
    """A scatter-add of ones over ``targets`` words, driven by `draw`."""

    paper_cycles = None

    def __init__(self, name, why, config, refs, targets, draw):
        self.name = name
        self.why = why
        self.config = config
        self.refs = refs
        self.targets = targets
        self._draw = draw

    def build(self, seed):
        return self._draw(np.random.default_rng(seed), self.refs,
                          self.targets, self.config.nodes)

    def machine(self, inputs):
        if self.config.nodes > 1:
            return MultiNodeSystem(self.config, address_space=self.targets)
        return StreamProcessor(self.config)

    def run(self, inputs, engine=None):
        run = Simulation(self.config, engine=engine).run(
            "scatter_add", inputs, 1.0, num_targets=self.targets)
        return Outcome(run.cycles, run.stats, run.result)

    def reference(self, inputs):
        return scatter_add_reference(np.zeros(self.targets), inputs, 1.0)

    def matches(self, result, expected):
        # Sums of ones are exact in float64 whatever the combining order.
        return np.array_equal(result, expected)


def uniform_indices(rng, refs, targets, nodes):
    return rng.integers(0, targets, size=refs)


def hot_indices(rng, refs, targets, nodes):
    """80% of references to 8 hot words, one homed on each node's block.

    Spreading the hot words over the homes keeps the simulated time from
    swinging with the seed (a seed that homes several hot words on one
    node would serialise them there).
    """
    block = targets // nodes
    hot = np.arange(nodes) * block + rng.integers(0, block, size=nodes)
    pick = rng.random(refs) < 0.8
    return np.where(pick, hot[rng.integers(0, nodes, size=refs)],
                    rng.integers(0, targets, size=refs))


def workloads(small=False):
    """The benchmark's workloads by name, in run order."""
    table1 = MachineConfig.table1()
    tree = table1.with_changes(network=NetworkConfig(
        nodes=8, topology="tree", tree_radix=4, combine_site="network",
        link_bw_words=2))
    refs = 1024 if small else 32768
    suite = [
        SpMVEBE(small),
        ScatterTrace(
            "hist_wide",
            "miss path: uniform scatter-adds over a target 8x the cache, "
            "so DRAM does the work and nothing reads beside them",
            table1, refs, 1 << (16 if small else 20), uniform_indices),
        ScatterTrace(
            "fig11_uniform",
            "Fig. 11 uniform memory (latency 256, interval 2): the only "
            "workload where the max-plus fast-forward collapses windows",
            MachineConfig.uniform(latency=256, interval=2), refs,
            4096 if small else 65536, uniform_indices),
        ScatterTrace(
            "net_tree",
            "8 Table-1 nodes on a radix-4 combining tree: the only "
            "workload where switches and node interfaces do work",
            tree, refs, 128, hot_indices),
    ]
    return {workload.name: workload for workload in suite}
