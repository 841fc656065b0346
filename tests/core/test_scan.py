"""Tests for prefix sums on the scatter-add hardware."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MachineConfig
from repro.core.scan import (
    ScanResult,
    blocked_prefix_sum,
    fetch_add_prefix_sum,
)
from repro.sim.stats import Stats


def exclusive_reference(values):
    values = np.asarray(values, dtype=np.float64)
    return np.cumsum(values) - values


class TestFetchAddScan:
    def test_exclusive_prefix_exact(self, rng, table1):
        values = rng.standard_normal(128)
        scan = fetch_add_prefix_sum(values, table1)
        assert np.allclose(scan.exclusive, exclusive_reference(values),
                           rtol=1e-12, atol=1e-12)
        assert scan.total == pytest.approx(values.sum())

    def test_inclusive_view(self, table1):
        values = np.array([1.0, 2.0, 3.0])
        scan = fetch_add_prefix_sum(values, table1)
        assert list(scan.inclusive) == [1.0, 3.0, 6.0]

    def test_inclusive_view_of_directly_built_result(self, table1):
        scan = ScanResult(table1, [1, 2, 3], np.array([0.0, 1.0, 3.0]),
                          6.0, 0, Stats())
        assert list(scan.inclusive) == [1.0, 3.0, 6.0]

    def test_serialises_at_fu_latency(self, table1):
        values = np.ones(256)
        scan = fetch_add_prefix_sum(values, table1)
        # one chain: at least fu_latency cycles per element
        assert scan.cycles >= 256 * table1.fu_latency

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1,
                    max_size=100))
    def test_property_matches_cumsum(self, values):
        scan = fetch_add_prefix_sum(values, MachineConfig.table1())
        assert np.allclose(scan.exclusive, exclusive_reference(values),
                           rtol=1e-9, atol=1e-9)


class TestBlockedScan:
    def test_exclusive_prefix_exact(self, rng, table1):
        values = rng.standard_normal(1000)
        scan = blocked_prefix_sum(values, table1, block=128)
        assert np.allclose(scan.exclusive, exclusive_reference(values),
                           rtol=1e-12, atol=1e-9)

    def test_much_faster_than_naive_chain(self, rng, table1):
        values = rng.standard_normal(2048)
        naive = fetch_add_prefix_sum(values, table1)
        blocked = blocked_prefix_sum(values, table1, block=256)
        assert blocked.cycles < naive.cycles / 3

    def test_block_boundary_cases(self, table1):
        for count in (1, 255, 256, 257, 512):
            values = np.arange(count, dtype=np.float64)
            scan = blocked_prefix_sum(values, table1, block=256)
            assert np.allclose(scan.exclusive,
                               exclusive_reference(values)), count

    def test_invalid_block(self, table1):
        with pytest.raises(ValueError):
            blocked_prefix_sum([1.0], table1, block=0)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1,
                    max_size=300),
           st.sampled_from([16, 64, 256]))
    def test_property_any_block_size(self, values, block):
        scan = blocked_prefix_sum(values, MachineConfig.table1(),
                                  block=block)
        assert np.allclose(scan.exclusive, exclusive_reference(values),
                           rtol=1e-9, atol=1e-9)
