"""Ablation: number of scatter-add units (banks x units per bank).

The paper places one unit per cache bank.  This bench sweeps the bank
count (each bank hosts one unit) and units-per-bank to show where
scatter-add throughput saturates against the other machine limits (AGU
issue rate, DRAM bandwidth).
"""

import numpy as np

from repro.harness.report import ExperimentResult
from repro import MachineConfig, Simulation


def run_ablation():
    rng = np.random.default_rng(0)
    indices = rng.integers(0, 4096, size=8192)
    rows = []
    for banks, per_bank in ((1, 1), (2, 1), (4, 1), (8, 1), (8, 2)):
        config = MachineConfig(cache_banks=banks,
                               scatter_add_units_per_bank=per_bank)
        run = Simulation(config).run("scatter_add", indices, 1.0,
                                     num_targets=4096)
        rows.append({
            "units": banks * per_bank,
            "banks": banks,
            "per_bank": per_bank,
            "time_us": run.microseconds,
            "adds_per_cycle": len(indices) / run.cycles,
        })
    return ExperimentResult(
        "ablation_units",
        "Scatter-add unit count sweep (n=8192, range 4096)",
        ["units", "banks", "per_bank", "time_us", "adds_per_cycle"],
        rows,
        notes="the paper's 8 units match the stream-cache bandwidth; "
              "beyond that other limits bind",
    )


def test_ablation_units(benchmark, record):
    result = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    record(result)

    times = result.column("time_us")
    # More units monotonically help until saturation.
    assert times[0] > times[1] > times[2]
    # Eight banks clearly beat one.
    assert times[0] > 2.5 * times[3]
    # Doubling units per bank past the cache bandwidth gains little.
    assert times[4] > 0.7 * times[3]
