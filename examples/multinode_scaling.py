#!/usr/bin/env python
"""Multi-node scatter-add scaling with cache combining (Figure 13).

Runs the narrow-range histogram trace on 1-8 nodes under three network
configurations and shows the paper's Section 4.5 findings: high bandwidth
scales nearly linearly, low bandwidth does not scale at all, and the
two-phase cache-combining optimisation (local combining + sum-back +
flush) recovers most of the scaling on the low-bandwidth network.

Run:  python examples/multinode_scaling.py
"""

import numpy as np

from repro import MachineConfig, NetworkConfig, scatter_add_reference
from repro.multinode.system import MultiNodeSystem

REFS = 16384
BINS = 256


def run(indices, nodes, bandwidth, combining):
    config = MachineConfig(
        network=NetworkConfig(nodes=nodes, link_bw_words=bandwidth),
        cache_combining=combining,
    )
    system = MultiNodeSystem(config, address_space=BINS)
    return system.scatter_add(indices, 1.0, num_targets=BINS)


def main():
    rng = np.random.default_rng(0)
    indices = rng.integers(0, BINS, size=REFS)
    expected = scatter_add_reference(np.zeros(BINS), indices, 1.0)

    series = [
        ("high bandwidth (8 w/c)", 8, False),
        ("low bandwidth (1 w/c)", 1, False),
        ("low bw + cache combining", 1, True),
    ]
    print("Narrow histogram trace: %d scatter-adds over %d bins\n"
          % (REFS, BINS))
    print("%-26s" % "configuration", end="")
    node_counts = (1, 2, 4, 8)
    for nodes in node_counts:
        print("%10s" % ("%d node%s" % (nodes, "s" if nodes > 1 else "")),
              end="")
    print("   (scatter-add GB/s)")

    for name, bandwidth, combining in series:
        print("%-26s" % name, end="")
        for nodes in node_counts:
            result = run(indices, nodes, bandwidth, combining)
            assert np.array_equal(result.result, expected)
            print("%10.1f" % result.throughput_gbs, end="")
        print()

    print("\nAs in the paper: high bandwidth scales ~7x at 8 nodes, low "
          "bandwidth is flat,\nand cache combining recovers scaling by "
          "keeping partial sums local.")


if __name__ == "__main__":
    main()
