"""Tests for the functional backing store."""

import numpy as np
from hypothesis import given, strategies as st

from repro.memory.backing import MainMemory


class TestMainMemory:
    def test_default_zero(self):
        memory = MainMemory()
        assert memory.read_word(12345) == 0.0

    def test_write_read_word(self):
        memory = MainMemory()
        memory.write_word(4, 2.5)
        assert memory.read_word(4) == 2.5

    def test_line_round_trip(self):
        memory = MainMemory()
        memory.write_line(8, [1.0, 2.0, 3.0, 4.0])
        assert memory.read_line(8, 4) == [1.0, 2.0, 3.0, 4.0]
        assert memory.read_line(6, 4) == [0.0, 0.0, 1.0, 2.0]

    def test_load_and_export_array(self):
        memory = MainMemory()
        data = np.arange(10, dtype=np.float64)
        memory.load_array(100, data)
        out = memory.export_array(100, 10)
        assert np.array_equal(out, data)

    def test_export_includes_untouched_zeros(self):
        memory = MainMemory()
        memory.write_word(2, 9.0)
        assert list(memory.export_array(0, 4)) == [0.0, 0.0, 9.0, 0.0]

    def test_export_mostly_empty_window_at_nonzero_base(self):
        memory = MainMemory()
        base, length = 1000, 4096
        outside = {0: 1.0, base - 1: 2.0, base + length: 3.0,
                   base + length + 7: 4.0}
        inside = {base: 5.0, base + 1234: 6.0, base + length - 1: 7.0}
        for addr, value in {**outside, **inside}.items():
            memory.write_word(addr, value)
        expected = np.zeros(length)
        for addr, value in inside.items():
            expected[addr - base] = value
        assert np.array_equal(memory.export_array(base, length), expected)

    def test_touched_addresses_sorted(self):
        memory = MainMemory()
        memory.write_word(9, 1.0)
        memory.write_word(3, 1.0)
        assert list(np.flatnonzero(memory.export_array(0, 16))) == [3, 9]
        assert len(memory) == 2

    @given(st.dictionaries(st.integers(0, 1000),
                           st.floats(allow_nan=False, allow_infinity=False),
                           max_size=50))
    def test_writes_are_last_writer_wins(self, writes):
        memory = MainMemory()
        for addr, value in writes.items():
            memory.write_word(addr, 0.0)
            memory.write_word(addr, value)
        for addr, value in writes.items():
            assert memory.read_word(addr) == value
