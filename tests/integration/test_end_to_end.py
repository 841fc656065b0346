"""End-to-end properties of the whole simulated system."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Simulation, scatter_add_reference
from repro.config import MachineConfig


CONFIG_VARIANTS = {
    "table1": MachineConfig.table1(),
    "uniform": MachineConfig.uniform(),
    "tiny_cache": MachineConfig(cache_size_bytes=2048,
                                cache_associativity=2),
    "one_entry_store": MachineConfig(combining_store_entries=1),
    "single_bank": MachineConfig(cache_banks=1),
    "two_units_per_bank": MachineConfig(scatter_add_units_per_bank=2),
    "slow_uniform": MachineConfig.uniform(latency=128, interval=8),
}


class TestEveryConfigurationIsExact:
    @pytest.mark.parametrize("name", sorted(CONFIG_VARIANTS))
    def test_random_trace_exact(self, name, rng):
        config = CONFIG_VARIANTS[name]
        indices = rng.integers(0, 512, size=4096)
        values = rng.standard_normal(4096)
        run = Simulation(config).run("scatter_add", indices, values,
                                     num_targets=512)
        expected = scatter_add_reference(np.zeros(512), indices, values)
        assert np.allclose(run.result, expected, rtol=1e-12, atol=1e-9), name

    @pytest.mark.parametrize("name", sorted(CONFIG_VARIANTS))
    def test_hotspot_trace_exact(self, name):
        config = CONFIG_VARIANTS[name]
        indices = np.zeros(512, dtype=np.int64)
        run = Simulation(config).run("scatter_add", indices, 1.0,
                                     num_targets=4)
        assert run.result[0] == 512.0


class TestDeterminism:
    def test_same_input_same_cycles_and_result(self, rng):
        indices = rng.integers(0, 256, size=2048)
        values = rng.standard_normal(2048)
        first = Simulation().run("scatter_add", indices, values,
                                 num_targets=256)
        second = Simulation().run("scatter_add", indices, values,
                                  num_targets=256)
        assert first.cycles == second.cycles
        # Bitwise identical, not just close: the hardware's reordering is
        # "consistent in the hardware and repeatable for each run" (S3.3).
        assert np.array_equal(first.result, second.result)

    def test_floating_point_order_repeatable(self):
        # Values chosen so different addition orders give different
        # rounding; repeatability means the same order every run.
        values = np.array([1e16, 1.0, -1e16, 1.0] * 64)
        indices = np.zeros(len(values), dtype=np.int64)
        runs = [Simulation().run("scatter_add", indices, values, num_targets=1)
                for _ in range(3)]
        results = {float(run.result[0]) for run in runs}
        assert len(results) == 1


class TestPerformanceSanity:
    def test_throughput_bounded_by_bank_rate(self, rng):
        # 8 banks x 1 request/cycle: n adds can never finish faster than
        # n/8 cycles.
        indices = rng.integers(0, 4096, size=8192)
        run = Simulation().run("scatter_add", indices, 1.0, num_targets=4096)
        assert run.cycles >= 8192 / 8

    def test_more_banks_only_help_spread_traffic(self, rng):
        indices = rng.integers(0, 4096, size=4096)
        one_bank = Simulation(MachineConfig(cache_banks=1)).run(
            "scatter_add", indices, 1.0, num_targets=4096)
        eight_banks = Simulation(MachineConfig(cache_banks=8)).run(
            "scatter_add", indices, 1.0, num_targets=4096)
        assert eight_banks.cycles < one_bank.cycles

    def test_chaining_ablation_slower_on_hotspots(self):
        indices = np.zeros(256, dtype=np.int64)
        chained = Simulation(chaining=True).run("scatter_add", indices, 1.0,
                                                num_targets=1)
        unchained = Simulation(chaining=False).run("scatter_add", indices, 1.0,
                                                   num_targets=1)
        assert unchained.cycles > chained.cycles

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 6))
    def test_work_scales_cycles(self, doubling):
        indices = np.arange(64 * (1 << doubling)) % 1024
        run = Simulation().run("scatter_add", indices, 1.0, num_targets=1024)
        # cycles grow at least linearly past the fixed overhead
        assert run.cycles >= len(indices) / 8
