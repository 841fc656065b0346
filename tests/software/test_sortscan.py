"""Tests for the sort + segmented-scan software scatter-add."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import scatter_add_reference
from repro.config import MachineConfig
from repro.software.sortscan import SortScanScatterAdd


class TestSortScan:
    def test_matches_reference(self, rng, table1):
        indices = rng.integers(0, 100, size=1000)
        values = rng.standard_normal(1000)
        run = SortScanScatterAdd(table1).run(indices, values,
                                             num_targets=100)
        expected = scatter_add_reference(np.zeros(100), indices, values)
        assert np.allclose(run.result, expected)

    def test_scalar_values(self, rng, table1):
        indices = rng.integers(0, 32, size=300)
        run = SortScanScatterAdd(table1).run(indices, 2.0, num_targets=32)
        expected = scatter_add_reference(np.zeros(32), indices, 2.0)
        assert np.allclose(run.result, expected)

    def test_initial_array_respected(self, rng, table1):
        initial = rng.standard_normal(16)
        indices = rng.integers(0, 16, size=64)
        run = SortScanScatterAdd(table1).run(indices, 1.0, num_targets=16,
                                             initial=initial)
        expected = scatter_add_reference(initial, indices, 1.0)
        assert np.allclose(run.result, expected)

    def test_cross_batch_accumulation(self, table1):
        # Same address in many batches must accumulate across them.
        indices = np.zeros(1000, dtype=np.int64)
        run = SortScanScatterAdd(table1, batch=128).run(indices, 1.0,
                                                        num_targets=1)
        assert run.result[0] == 1000.0

    def test_batch_count_recorded(self, rng, table1):
        indices = rng.integers(0, 8, size=1000)
        run = SortScanScatterAdd(table1, batch=256).run(indices, 1.0,
                                                        num_targets=8)
        assert run.detail["batches"] == 4  # ceil(1000/256)

    def test_empty_input(self, table1):
        run = SortScanScatterAdd(table1).run([], 1.0, num_targets=4)
        assert list(run.result) == [0.0] * 4
        assert run.cycles == 0

    def test_linear_scaling_with_input(self, rng, table1):
        small = SortScanScatterAdd(table1).run(
            rng.integers(0, 64, size=512), 1.0, num_targets=64)
        large = SortScanScatterAdd(table1).run(
            rng.integers(0, 64, size=4096), 1.0, num_targets=64)
        ratio = large.cycles / small.cycles
        assert 5.0 < ratio < 11.0  # ~8x work -> ~8x time (O(n))

    def test_mem_refs_and_fp_ops_counted(self, rng, table1):
        run = SortScanScatterAdd(table1).run(
            rng.integers(0, 16, size=256), 1.0, num_targets=16)
        assert run.stats.get("memsys.refs") > 0
        assert run.stats.get("cluster.fp_ops") > 0

    def test_invalid_batch(self, table1):
        with pytest.raises(ValueError):
            SortScanScatterAdd(table1, batch=0)

    def test_value_length_mismatch(self, table1):
        with pytest.raises(ValueError):
            SortScanScatterAdd(table1).run([1, 2], [1.0], num_targets=4)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=400),
           st.sampled_from([32, 256, 1024]))
    def test_property_exact_for_any_batch(self, indices, batch):
        config = MachineConfig.table1()
        run = SortScanScatterAdd(config, batch=batch).run(
            indices, 1.0, num_targets=31)
        expected = scatter_add_reference(np.zeros(31), indices, 1.0)
        assert np.array_equal(run.result, expected)
