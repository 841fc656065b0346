"""Performance-regression guards on simulated cycles.

These are not paper comparisons.  ``TestCycleBrackets`` keeps canonical
runs inside wide brackets so an accidental 5-10x timing regression (a
lost overlap, an accidental serialisation) fails CI while legitimate
small model changes do not.  ``test_smoke_cycles_are_pinned`` pins four
small canonical runs exactly under every scheduler, so any change to the
timing model, or any divergence between schedulers, shows up as a
different cycle count.
"""

import numpy as np
import pytest

from repro.api import Simulation
from repro.config import MachineConfig, NetworkConfig
from repro.sim.engine import _stepping, use_scheduler
from repro.workloads.fem import build_tet_mesh
from repro.workloads.spmv import SpMVWorkload


@pytest.fixture(scope="module")
def trace():
    return np.random.default_rng(0).integers(0, 2048, size=8192)


class TestCycleBrackets:
    def test_base_machine_histogram(self, trace):
        run = Simulation().run("scatter_add", trace, 1.0, num_targets=2048)
        # 8192 adds: >= n/8 (bank bound), expect a few k cycles.
        assert 1024 <= run.cycles <= 15_000

    def test_uniform_machine(self, trace):
        config = MachineConfig.uniform()
        run = Simulation(config).run("scatter_add", trace[:512], 1.0,
                                     num_targets=2048)
        # read+write per add at 1 word / 2 cycles: ~2k cycles + latency.
        assert 1_000 <= run.cycles <= 10_000

    def test_hot_address_chain(self):
        indices = np.zeros(512, dtype=np.int64)
        run = Simulation().run("scatter_add", indices, 1.0, num_targets=1)
        # one chain: ~fu_latency per add, plus overheads.
        config = MachineConfig.table1()
        lower = 512 * config.fu_latency
        assert lower <= run.cycles <= 3 * lower

    def test_steady_state_throughput_floor(self, trace):
        # The 8-bank machine must sustain at least 1.2 adds/cycle on
        # uniform traffic (measured ~1.8-2.3; guard well below).
        run = Simulation().run("scatter_add", trace, 1.0, num_targets=2048)
        assert len(trace) / run.cycles > 1.2

    def test_overhead_floor_small_input(self):
        run = Simulation().run("scatter_add", [0, 1, 2], 1.0, num_targets=4)
        config = MachineConfig.table1()
        assert run.cycles >= config.stream_op_overhead
        assert run.cycles <= 4 * config.stream_op_overhead


@pytest.fixture(scope="module")
def smoke_runners():
    """Four small canonical runs, one per simulator regime.

    A Table-1 histogram, the Fig. 9 EBE SpMV with hardware scatter-add,
    the Fig. 11 uniform memory (latency 256, interval 2) where the event
    engine collapses windows, and an 8-node radix-4 combining tree fed a
    skewed trace.  The inputs come from one ``default_rng(0)`` in a fixed
    draw order, so the pinned counts below are reproducible.
    """
    rng = np.random.default_rng(0)
    table1 = MachineConfig.table1()
    hist_indices = rng.integers(0, 2048, size=512)
    spmv = SpMVWorkload(build_tet_mesh(3, 3, 2, seed=0), seed=0)
    fig11 = MachineConfig.uniform(latency=256, interval=2)
    fig11_indices = rng.integers(0, 65536, size=512)
    network = NetworkConfig(nodes=8, topology="tree", tree_radix=4,
                            combine_site="both", link_bw_words=2)
    multinode = table1.with_changes(network=network)
    # 80% of references go to 8 hot indices, so the switches merge.
    targets, refs = 128, 128
    hot = rng.integers(0, targets, size=8)
    pick = rng.random(refs) < 0.8
    net_indices = np.where(pick, hot[rng.integers(0, 8, size=refs)],
                           rng.integers(0, targets, size=refs))
    return {
        "histogram": lambda: Simulation(table1).run(
            "scatter_add", hist_indices, 1.0, num_targets=2048),
        "spmv_ebe_hw": lambda: spmv.run_ebe_hardware(table1),
        "fig11_latency256": lambda: Simulation(fig11).run(
            "scatter_add", fig11_indices, 1.0, num_targets=65536),
        "network_ablation": lambda: Simulation(multinode).run(
            "scatter_add", net_indices, 1.0, num_targets=targets),
    }


@pytest.mark.parametrize("engine", ["legacy", "event", "stepping"])
@pytest.mark.parametrize("workload, cycles", [
    ("histogram", 903),
    ("spmv_ebe_hw", 9_890),
    ("fig11_latency256", 17_532),
    ("network_ablation", 133),
])
def test_smoke_cycles_are_pinned(smoke_runners, workload, cycles, engine):
    with (_stepping() if engine == "stepping" else use_scheduler(engine)):
        run = smoke_runners[workload]()
    assert run.cycles == cycles
