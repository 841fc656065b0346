"""Stress tests: tiny resources, adversarial traces, no deadlock, no loss.

These tests exist to prove the back-pressure web (FIFOs, combining
store, MSHRs, eviction retries, crossbar ports) cannot deadlock or drop
updates under resource starvation -- the bug class that produced both
real defects found during development.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Simulation, scatter_add_reference
from repro.config import MachineConfig, NetworkConfig
from repro.multinode.system import MultiNodeSystem


class TestStarvedSingleNode:
    def test_one_entry_store_tiny_cache(self, rng):
        config = MachineConfig(combining_store_entries=1,
                               cache_size_bytes=512,
                               cache_associativity=1)
        indices = rng.integers(0, 1024, size=2048)
        run = Simulation(config).run("scatter_add", indices, 1.0,
                                     num_targets=1024)
        expected = scatter_add_reference(np.zeros(1024), indices, 1.0)
        assert np.array_equal(run.result, expected)

    def test_slow_memory_deep_store(self, rng):
        config = MachineConfig.uniform(latency=300, interval=16,
                                       combining_store_entries=64)
        indices = rng.integers(0, 64, size=1024)
        run = Simulation(config).run("scatter_add", indices, 1.0,
                                     num_targets=64)
        assert run.result.sum() == 1024

    def test_single_bank_hotspot_storm(self):
        config = MachineConfig(cache_banks=1, combining_store_entries=2)
        indices = np.zeros(2048, dtype=np.int64)
        run = Simulation(config).run("scatter_add", indices, 1.0,
                                     num_targets=1)
        assert run.result[0] == 2048

    def test_adversarial_bank_conflict_pattern(self, rng):
        # Every request maps to bank 0 but different lines/sets: maximal
        # MSHR and eviction pressure on one bank.
        config = MachineConfig(cache_size_bytes=2048,
                               cache_associativity=1)
        line = config.cache_line_words
        banks = config.cache_banks
        stride = line * banks  # stays on bank 0
        indices = (rng.integers(0, 512, size=2048) * stride)
        targets = int(indices.max()) + 1
        run = Simulation(config).run("scatter_add", indices, 1.0,
                                     num_targets=targets)
        expected = scatter_add_reference(np.zeros(targets), indices, 1.0)
        assert np.array_equal(run.result, expected)

    @settings(max_examples=10, deadline=None)
    @given(
        entries=st.sampled_from([1, 2, 8]),
        cache_kb=st.sampled_from([1, 4, 64]),
        assoc=st.sampled_from([1, 2]),
        fu_latency=st.sampled_from([1, 4, 16]),
    )
    def test_property_random_starved_configs(self, entries, cache_kb,
                                             assoc, fu_latency):
        config = MachineConfig(
            combining_store_entries=entries,
            cache_size_bytes=cache_kb * 1024,
            cache_associativity=assoc,
            fu_latency=fu_latency,
        )
        rng = np.random.default_rng(entries * 100 + cache_kb)
        indices = rng.integers(0, 256, size=512)
        run = Simulation(config).run("scatter_add", indices, 1.0,
                                     num_targets=256)
        expected = scatter_add_reference(np.zeros(256), indices, 1.0)
        assert np.array_equal(run.result, expected)


class TestStarvedMultiNode:
    def test_minimum_bandwidth_everything_combining(self, rng):
        config = MachineConfig(
            network=NetworkConfig(nodes=8, link_bw_words=1),
            cache_combining=True,
        ).with_changes(cache_size_bytes=4096, cache_associativity=1,
                       combining_store_entries=2)
        indices = rng.integers(0, 512, size=4096)
        system = MultiNodeSystem(config, address_space=512)
        run = system.scatter_add(indices, 1.0, num_targets=512)
        expected = scatter_add_reference(np.zeros(512), indices, 1.0)
        assert np.array_equal(run.result, expected)

    def test_tiny_cache_forces_continuous_sumbacks(self, rng):
        # The cache can barely hold any combining lines: sum-backs flow
        # during the run, not just at the flush.
        config = MachineConfig(
            network=NetworkConfig(nodes=4, link_bw_words=1),
            cache_combining=True,
        ).with_changes(cache_size_bytes=1024, cache_associativity=1)
        indices = rng.integers(0, 2048, size=4096)
        system = MultiNodeSystem(config, address_space=2048)
        run = system.scatter_add(indices, 1.0, num_targets=2048)
        expected = scatter_add_reference(np.zeros(2048), indices, 1.0)
        assert np.array_equal(run.result, expected)
        # Sum-backs must have happened before the final flush too.
        total_sumbacks = sum(
            run.stats.get("node%d.nif.sumbacks" % node)
            for node in range(4))
        assert total_sumbacks > 0

    def test_hierarchical_under_starvation(self, rng):
        config = MachineConfig(
            network=NetworkConfig(nodes=8, link_bw_words=1),
            cache_combining=True, hierarchical_combining=True,
        ).with_changes(cache_size_bytes=2048, cache_associativity=1)
        indices = rng.integers(0, 1024, size=4096)
        system = MultiNodeSystem(config, address_space=1024)
        run = system.scatter_add(indices, 1.0, num_targets=1024)
        expected = scatter_add_reference(np.zeros(1024), indices, 1.0)
        assert np.array_equal(run.result, expected)
