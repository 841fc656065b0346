"""End-to-end tests for the single-node stream processor."""

import numpy as np

from repro.api import scatter_add_reference
from repro.config import MachineConfig
from repro.node.processor import StreamProcessor
from repro.node.program import (
    Bulk,
    Gather,
    Kernel,
    Phase,
    Scatter,
    ScatterAdd,
    StreamProgram,
)


class TestStreamProcessor:
    def test_scatter_add_program_matches_reference(self, rng, table1):
        indices = rng.integers(0, 64, size=500)
        values = rng.standard_normal(500)
        processor = StreamProcessor(table1)
        processor.run(StreamProgram([
            Phase([ScatterAdd([int(i) for i in indices], list(values))]),
        ]))
        expected = scatter_add_reference(np.zeros(64), indices, values)
        assert np.allclose(processor.read_result(0, 64), expected)

    def test_uniform_memory_model_matches_reference(self, rng):
        config = MachineConfig.uniform()
        indices = rng.integers(0, 32, size=200)
        processor = StreamProcessor(config)
        processor.run(StreamProgram([
            Phase([ScatterAdd([int(i) for i in indices], 1.0)]),
        ]))
        expected = scatter_add_reference(np.zeros(32), indices, 1.0)
        assert np.allclose(processor.read_result(0, 32), expected)

    def test_gather_reads_initial_memory(self, table1):
        processor = StreamProcessor(table1)
        processor.load_array(0, np.arange(8, dtype=np.float64))
        gather = Gather([3, 1, 7])
        processor.run(StreamProgram([Phase([gather])]))
        assert gather.result == [3.0, 1.0, 7.0]

    def test_scatter_then_gather(self, table1):
        processor = StreamProcessor(table1)
        processor.run(StreamProgram([
            Phase([Scatter([4, 5], [1.5, 2.5])]),
        ]))
        gather = Gather([5, 4])
        processor.run(StreamProgram([Phase([gather])]))
        assert gather.result == [2.5, 1.5]

    def test_phases_are_sequential(self, table1):
        processor = StreamProcessor(table1)
        result = processor.run(StreamProgram([
            Phase([Kernel("a", 12800)]),
            Phase([Kernel("b", 12800)]),
        ]))
        assert len(result.phase_cycles) == 2
        assert result.cycles == sum(result.phase_cycles)

    def test_phase_takes_max_of_concurrent_ops(self, table1):
        processor = StreamProcessor(table1)
        big_kernel = Kernel("big", 1_280_000)  # 10k cycles
        result = processor.run(StreamProgram([
            Phase([big_kernel, Bulk("small", 48)]),
        ]))
        solo = StreamProcessor(table1).run(StreamProgram([
            Phase([Kernel("big", 1_280_000)]),
        ]))
        assert result.cycles == solo.cycles

    def test_empty_program(self, table1):
        processor = StreamProcessor(table1)
        result = processor.run(StreamProgram([]))
        assert result.cycles == 0

    def test_empty_phase(self, table1):
        processor = StreamProcessor(table1)
        result = processor.run(StreamProgram([Phase([])]))
        assert result.cycles == 0

    def test_list_program_coerced(self, table1):
        processor = StreamProcessor(table1)
        result = processor.run([Phase([Kernel("k", 128)])])
        assert result.cycles > 0

    def test_mem_ops_split_across_agus(self, table1):
        processor = StreamProcessor(table1)
        ops = [Scatter([i], [1.0]) for i in range(4)]
        processor.run(StreamProgram([Phase(ops)]))
        assert processor.stats.get("agu0.refs") == 2
        assert processor.stats.get("agu1.refs") == 2

    def test_mem_refs_and_fp_ops_exposed(self, rng, table1):
        processor = StreamProcessor(table1)
        indices = [int(i) for i in rng.integers(0, 16, size=64)]
        result = processor.run(StreamProgram([
            Phase([Kernel("k", 1000), Bulk("b", 500)]),
            Phase([ScatterAdd(indices, 1.0)]),
        ]))
        assert result.mem_refs == 500 + 64
        # kernel ops + FU sums, the counters the Fig. 9/10 bars add up
        assert (result.stats.get("cluster.fp_ops")
                + result.stats.get("fu.sums")) == 1000 + 64

    def test_hot_bank_slower_than_spread(self, table1):
        # All updates to one bank vs spread across banks: the hot-bank
        # effect of Figure 7.
        spread = StreamProcessor(table1)
        line = table1.cache_line_words
        banks = table1.cache_banks
        spread_addrs = [(i % banks) * line for i in range(512)]
        hot_addrs = [0 for _ in range(512)]
        spread_cycles = spread.run(StreamProgram([
            Phase([ScatterAdd(spread_addrs, 1.0)])])).cycles
        hot = StreamProcessor(table1)
        hot_cycles = hot.run(StreamProgram([
            Phase([ScatterAdd(hot_addrs, 1.0)])])).cycles
        assert hot_cycles > 2 * spread_cycles
