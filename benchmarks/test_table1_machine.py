"""Table 1: machine parameters of the base configuration.

Regenerates the parameter table and benchmarks the simulator's raw
throughput on the base machine (a sanity-level number: simulated
scatter-adds per host second).
"""

import numpy as np

from repro import MachineConfig, Simulation
from repro.harness import table1


def test_table1_parameters(benchmark, record):
    result = benchmark.pedantic(table1, rounds=1, iterations=1)
    record(result)
    parameters = dict(zip(result.column("parameter"),
                          result.column("value")))
    assert parameters["cache_banks"] == 8
    assert parameters["combining_store_entries"] == 8
    assert parameters["fu_latency"] == 4


def test_simulator_throughput(benchmark):
    """Host-side speed of the cycle model (not a paper figure)."""
    rng = np.random.default_rng(0)
    indices = rng.integers(0, 2048, size=8192)

    def run():
        return Simulation(MachineConfig.table1()).run("scatter_add", indices,
                                                      1.0, num_targets=2048)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.cycles > 0
