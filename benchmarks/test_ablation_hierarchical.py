"""Ablation: hierarchical (tree) combining vs direct sum-back.

The paper's Section 5 proposes "an optimization to our multi-node cached
algorithm that will arrange the nodes in a logical hierarchy and allow
the combining across nodes to occur in logarithmic instead of linear
complexity" -- and leaves it as future work.  We implemented it
(``hierarchical_combining=True``) and measure both sides of the trade:

- the tree **does** cut the words delivered into the hot home node's
  network port (the linear-vs-logarithmic claim), but
- at <= 8 nodes the flush proceeds in serialised waves (one per tree
  level), which costs more cycles than the port relief saves.

An honest negative result at this scale -- consistent with the paper
proposing it for larger systems.
"""

import numpy as np

from repro.harness.report import ExperimentResult
from repro import MachineConfig, NetworkConfig, scatter_add_reference
from repro.multinode.system import MultiNodeSystem


def run_ablation():
    rng = np.random.default_rng(0)
    space = 8192
    # Every update homed at the last node (worst-case port pressure) over
    # a range small enough that per-node delta sets overlap heavily --
    # the regime where tree combining merges the most.
    indices = rng.integers(space - space // 8, space, size=16384)
    expected = scatter_add_reference(np.zeros(space), indices, 1.0)
    rows = []
    for hierarchical in (False, True):
        config = MachineConfig(network=NetworkConfig(nodes=8, link_bw_words=1),
                               cache_combining=True,
                               hierarchical_combining=hierarchical)
        system = MultiNodeSystem(config, address_space=space)
        run = system.scatter_add(indices, 1.0, num_targets=space)
        assert np.array_equal(run.result, expected)
        home = config.nodes - 1
        rows.append({
            "mode": "tree" if hierarchical else "direct",
            "cycles": run.cycles,
            "home_port_words": int(
                run.stats.get("xbar.words_to%d" % home)),
            "total_net_words": int(run.stats.get("xbar.words")),
        })
    return ExperimentResult(
        "ablation_hierarchical",
        "Hierarchical vs direct combining (8 nodes, hot home)",
        ["mode", "cycles", "home_port_words", "total_net_words"],
        rows,
        notes="tree trades home-port congestion for serialized flush "
              "waves; at 8 nodes direct wins on cycles",
    )


def test_ablation_hierarchical(benchmark, record):
    result = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    record(result)

    rows = {row["mode"]: row for row in result.rows}
    # The logarithmic claim: far fewer words into the home port.
    assert rows["tree"]["home_port_words"] < \
        0.6 * rows["direct"]["home_port_words"]
    # The cost at this scale: serialized waves make it slower end to end.
    assert rows["tree"]["cycles"] > rows["direct"]["cycles"]
