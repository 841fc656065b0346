"""Histogram / binning workload (the paper's running example).

``histogram[data[i]] += 1`` over a dataset of uniform random integers.
The stream program is the one Section 3.2 sketches: gather the dataset,
compute the bin mapping in a kernel, then scatter-add constant 1 into the
bins.  The input range equals the number of bins, as in the paper's
experiments.
"""

import numpy as np

from repro.api import scatter_add_reference
from repro.node.processor import StreamProcessor
from repro.node.program import Bulk, Kernel, Phase, ScatterAdd, StreamProgram
from repro.software.privatization import PrivatizationScatterAdd
from repro.software.sortscan import SortScanScatterAdd
from repro.workloads.result import WorkloadResult

#: FP/integer ops per element for the bin-mapping kernel.
MAP_OPS_PER_ELEM = 2


def generate_dataset(length, index_range, seed=0):
    """Uniform random integer dataset, as in Section 4.1."""
    if index_range < 1:
        raise ValueError("index_range must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.integers(0, index_range, size=length, dtype=np.int64)


class HistogramWorkload:
    """Histogram computation via hardware or software scatter-add."""

    def __init__(self, length, index_range, seed=0):
        self.length = length
        self.index_range = index_range
        self.data = generate_dataset(length, index_range, seed)

    def reference(self):
        """Ground-truth bin counts."""
        return scatter_add_reference(
            np.zeros(self.index_range), self.data, 1.0
        )

    def _prefix_phases(self):
        """Shared gather + map phases (identical for every method)."""
        return [
            Phase([Bulk("dataset", self.length)]),
            Phase([Kernel("bin_map", self.length * MAP_OPS_PER_ELEM,
                          integer=True)]),
        ]

    def run_hardware(self, config, chaining=True):
        """Hardware scatter-add implementation."""
        processor = StreamProcessor(config, chaining=chaining)
        program = StreamProgram(
            self._prefix_phases()
            + [Phase([ScatterAdd([int(i) for i in self.data], 1.0)])],
            name="histogram_hw",
        )
        result = processor.run(program)
        bins = processor.read_result(0, self.index_range)
        return WorkloadResult(config, "hardware", result.cycles, bins,
                              processor.stats)

    def _run_software(self, config, engine, method):
        prefix_proc = StreamProcessor(config)
        prefix = prefix_proc.run(StreamProgram(self._prefix_phases()))
        run = engine.run(self.data, 1.0, num_targets=self.index_range)
        stats = prefix_proc.stats.merge(run.stats)
        return WorkloadResult(config, method, prefix.cycles + run.cycles,
                              run.result, stats)

    def run_sortscan(self, config, batch=256):
        """Software sort + segmented-scan implementation."""
        return self._run_software(
            config, SortScanScatterAdd(config, batch=batch), "sortscan"
        )

    def run_privatization(self, config):
        """Software privatization implementation."""
        return self._run_software(
            config, PrivatizationScatterAdd(config), "privatization"
        )
