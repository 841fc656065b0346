"""CI topology axis: the multi-node stack under a selectable interconnect.

CI's engine-matrix jobs export ``REPRO_NET_TOPOLOGY`` (``crossbar`` or
``tree4``); locally the suite runs the crossbar by default.  Whatever the
topology, the multi-node system must produce exact results, all four
schedulers must agree on the cycle count, and the combining counters must
balance -- so a topology regression fails every job of that matrix row,
not just a hand-picked test.
"""

import os

import numpy as np
import pytest

from repro.config import MachineConfig, NetworkConfig
from repro.multinode.system import MultiNodeSystem
from repro.sim.engine import use_scheduler

#: Matrix value -> NetworkConfig keywords.
TOPOLOGIES = {
    "crossbar": {"topology": "crossbar", "combine_site": "network"},
    "tree4": {"topology": "tree", "tree_radix": 4, "combine_site": "both"},
}

AXIS = os.environ.get("REPRO_NET_TOPOLOGY", "crossbar")


@pytest.fixture(scope="module")
def network():
    if AXIS not in TOPOLOGIES:
        raise RuntimeError("unknown REPRO_NET_TOPOLOGY %r (expected %s)"
                           % (AXIS, "|".join(sorted(TOPOLOGIES))))
    return NetworkConfig(nodes=8, link_bw_words=2, **TOPOLOGIES[AXIS])


@pytest.fixture(scope="module")
def trace():
    rng = np.random.default_rng(11)
    targets = 128
    hot = rng.integers(0, targets, size=8)
    pick = rng.random(640) < 0.8
    indices = np.where(pick, hot[rng.integers(0, 8, size=640)],
                       rng.integers(0, targets, size=640))
    return indices, targets


class TestTopologyMatrix:
    def test_exact_result(self, network, trace):
        indices, targets = trace
        config = MachineConfig(network=network)
        system = MultiNodeSystem(config, address_space=targets)
        run = system.scatter_add(indices, 1.0, num_targets=targets)
        expected = np.zeros(targets)
        np.add.at(expected, indices, 1.0)
        np.testing.assert_array_equal(run.result, expected)

    def test_engines_agree_on_cycles(self, network, trace):
        indices, targets = trace
        config = MachineConfig(network=network)
        cycles = {}
        for engine in ("legacy", "event", "columnar"):
            with use_scheduler(engine):
                system = MultiNodeSystem(config, address_space=targets)
                run = system.scatter_add(indices, 1.0,
                                         num_targets=targets)
            cycles[engine] = run.cycles
        assert len(set(cycles.values())) == 1, cycles

    def test_network_counters_balance(self, network, trace):
        indices, targets = trace
        config = MachineConfig(network=network)
        system = MultiNodeSystem(config, address_space=targets)
        run = system.scatter_add(indices, 1.0, num_targets=targets)
        stats = run.stats.as_dict()
        assert (stats["sim.network.injected"]
                == stats["sim.network.delivered"]
                + stats["sim.network.combined_in_flight"])
        assert stats["sim.network.combined_in_flight"] > 0
