"""Loose performance-regression guards.

These are not paper comparisons; they pin simulated cycle counts for
canonical runs inside wide brackets so an accidental 5-10x timing
regression (a lost overlap, an accidental serialisation) fails CI while
legitimate small model changes do not.
"""

import numpy as np
import pytest

from repro.api import Simulation
from repro.config import MachineConfig


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
