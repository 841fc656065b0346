"""Ablation: combining-store chaining (Figure 4b step *d*).

With chaining disabled, every same-address update round-trips through
memory instead of consuming the freshly computed sum, so hot addresses
serialise on the memory latency rather than the FU latency.  This bench
quantifies what the chaining path is worth.
"""

import numpy as np

from repro.harness.report import ExperimentResult
from repro import MachineConfig, Simulation


def run_ablation():
    rng = np.random.default_rng(0)
    rows = []
    for index_range in (1, 16, 256, 4096):
        indices = rng.integers(0, index_range, size=4096)
        chained = Simulation(chaining=True).run("scatter_add", indices, 1.0,
                                                num_targets=index_range)
        unchained = Simulation(chaining=False).run("scatter_add", indices, 1.0,
                                                   num_targets=index_range)
        rows.append({
            "range": index_range,
            "chaining_us": chained.microseconds,
            "no_chaining_us": unchained.microseconds,
            "chaining_gain": unchained.cycles / chained.cycles,
        })
    return ExperimentResult(
        "ablation_chaining",
        "Combining-store chaining on/off (n=4096)",
        ["range", "chaining_us", "no_chaining_us", "chaining_gain"],
        rows,
        notes="chaining matters most when many updates share addresses",
    )


def test_ablation_chaining(benchmark, record):
    result = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    record(result)

    gains = dict(zip(result.column("range"),
                     result.column("chaining_gain")))
    # Hot single address: chaining is worth a lot.
    assert gains[1] > 2.0
    # Chaining never hurts.
    assert min(gains.values()) > 0.9
    # The benefit shrinks as collisions disappear.
    assert gains[4096] < gains[1]
