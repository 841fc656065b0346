"""Tests for the bitonic / merge sorting primitives."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.software.sort import bitonic_sort_pairs, dpa_sort_pairs


class TestBitonicSort:
    def test_sorts_small_array(self):
        keys, values, __ = bitonic_sort_pairs([3, 1, 2, 0],
                                              [30.0, 10.0, 20.0, 0.0])
        assert list(keys) == [0, 1, 2, 3]
        assert list(values) == [0.0, 10.0, 20.0, 30.0]

    def test_handles_non_power_of_two(self):
        keys, values, __ = bitonic_sort_pairs([5, 1, 4], [0.5, 0.1, 0.4])
        assert list(keys) == [1, 4, 5]
        assert list(values) == [0.1, 0.4, 0.5]

    def test_empty_and_singleton(self):
        keys, __, ces = bitonic_sort_pairs([], [])
        assert len(keys) == 0 and ces == 0
        keys, values, ces = bitonic_sort_pairs([9], [1.0])
        assert list(keys) == [9] and ces == 0

    def test_duplicate_keys_keep_all_values(self):
        keys, values, __ = bitonic_sort_pairs([2, 2, 1, 2],
                                              [1.0, 2.0, 9.0, 3.0])
        assert list(keys) == [1, 2, 2, 2]
        assert values[0] == 9.0
        assert sorted(values[1:]) == [1.0, 2.0, 3.0]

    def test_compare_exchange_count_is_data_independent(self):
        __, __, sorted_ces = bitonic_sort_pairs(list(range(16)),
                                                [0.0] * 16)
        __, __, reversed_ces = bitonic_sort_pairs(list(range(16))[::-1],
                                                  [0.0] * 16)
        assert sorted_ces == reversed_ces
        assert sorted_ces == 10 * 8  # log2(16)=4: 4*5/2 passes, n/2 CEs each

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 1000), max_size=80))
    def test_property_matches_numpy_sort(self, data):
        values = np.arange(len(data), dtype=np.float64)
        keys, carried, __ = bitonic_sort_pairs(data, values)
        assert list(keys) == sorted(data)
        # Every (key, value) pairing must survive the sort.
        original = sorted(zip(data, values))
        result = sorted(zip(keys, carried))
        assert [k for k, __ in original] == [k for k, __ in result]
        assert sorted(v for __, v in original) == sorted(
            v for __, v in result)


class TestDPASort:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 500), min_size=1, max_size=600))
    def test_property_block_merge_sorts(self, data):
        values = np.arange(len(data), dtype=np.float64)
        keys, carried, ops = dpa_sort_pairs(data, values, block=64)
        assert list(keys) == sorted(data)
        if len(data) > 1:
            assert ops > 0
        # value multiset preserved
        assert sorted(carried) == sorted(values)

    def test_single_block_equals_bitonic(self):
        data = [5, 3, 8, 1]
        k1, v1, __ = dpa_sort_pairs(data, [0.0] * 4, block=8)
        k2, v2, __ = bitonic_sort_pairs(data, [0.0] * 4)
        assert list(k1) == list(k2)

    def test_empty(self):
        keys, values, ops = dpa_sort_pairs([], [])
        assert len(keys) == 0 and ops == 0


class TestCostModel:
    def test_bitonic_passes(self):
        # k(k+1)/2 passes of n/2 compare-exchanges, k = ceil(log2 n).
        for n, passes in ((1, 0), (2, 1), (5, 6), (256, 36), (1024, 55)):
            __, __, ces = bitonic_sort_pairs(list(range(n)), [0.0] * n)
            padded = 1 << (n - 1).bit_length() if n > 1 else 1
            assert ces == passes * (padded // 2)

    def test_sort_ops_grow_superlinearly(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 1 << 20, size=4096)
        __, __, ops_256 = dpa_sort_pairs(keys[:256], np.zeros(256))
        __, __, ops_4096 = dpa_sort_pairs(keys, np.zeros(4096))
        assert ops_4096 / 4096 > ops_256 / 256
