"""Tests for the multi-processor partition + reduce scatter-add."""

import numpy as np

from repro.api import scatter_add_reference
from repro.config import MachineConfig, NetworkConfig
from repro.software.partition import PartitionReduceScatterAdd


class TestPartitionReduce:
    def test_matches_reference(self, rng):
        config = MachineConfig(network=NetworkConfig(nodes=4))
        indices = rng.integers(0, 64, size=512)
        values = rng.standard_normal(512)
        run = PartitionReduceScatterAdd(config).run(indices, values,
                                                    num_targets=64)
        expected = scatter_add_reference(np.zeros(64), indices, values)
        assert np.allclose(run.result, expected)

    def test_local_phase_scales_down_with_nodes(self, rng):
        indices = rng.integers(0, 64, size=2048)
        one = PartitionReduceScatterAdd(
            MachineConfig(network=NetworkConfig(nodes=1))).run(
                indices, 1.0, num_targets=64)
        eight = PartitionReduceScatterAdd(
            MachineConfig(network=NetworkConfig(nodes=8))).run(
                indices, 1.0, num_targets=64)
        assert eight.detail["local_cycles"] < one.detail["local_cycles"] / 4

    def test_reduction_cost_grows_with_targets(self, rng):
        config = MachineConfig(network=NetworkConfig(nodes=8))
        indices = rng.integers(0, 16, size=256)
        small = PartitionReduceScatterAdd(config).run(
            indices, 1.0, num_targets=16)
        large = PartitionReduceScatterAdd(config).run(
            indices, 1.0, num_targets=100_000)
        # Growth is dominated by the full-array transfers; the fixed
        # per-level overhead damps the ratio below the pure 6250x.
        assert (large.detail["reduce_cycles"]
                > 30 * small.detail["reduce_cycles"])

    def test_single_node_no_reduction(self, rng):
        config = MachineConfig(network=NetworkConfig(nodes=1))
        run = PartitionReduceScatterAdd(config).run(
            rng.integers(0, 8, size=64), 1.0, num_targets=8)
        assert run.detail["reduce_cycles"] == 0

    def test_initial_added(self, rng):
        config = MachineConfig(network=NetworkConfig(nodes=2))
        initial = np.full(8, 5.0)
        indices = rng.integers(0, 8, size=32)
        run = PartitionReduceScatterAdd(config).run(
            indices, 1.0, num_targets=8, initial=initial)
        expected = scatter_add_reference(initial, indices, 1.0)
        assert np.allclose(run.result, expected)
