"""Tests for the software cost-model helpers."""

from repro.software import costmodel


class TestMergeMemoryWords:
    def test_no_spill_within_block(self):
        assert costmodel.merge_memory_words(costmodel.BITONIC_BLOCK) == 0
        assert costmodel.merge_memory_words(64) == 0

    def test_spill_grows_with_merge_depth(self):
        one_level = costmodel.merge_memory_words(2 * costmodel.BITONIC_BLOCK)
        two_level = costmodel.merge_memory_words(4 * costmodel.BITONIC_BLOCK)
        assert one_level > 0
        assert two_level > 2 * one_level  # more passes over more data
