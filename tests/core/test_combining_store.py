"""Tests for the combining store."""

import pytest
from hypothesis import given, strategies as st

from repro.core.combining_store import CombiningStore


class TestCombiningStore:
    def test_allocate_and_occupancy(self):
        store = CombiningStore(4)
        store.allocate(10, 1.0, "scatter_add")
        assert store.occupancy == 1
        assert not store.full

    def test_full_raises(self):
        store = CombiningStore(2)
        store.allocate(1, 1.0, "scatter_add")
        store.allocate(2, 1.0, "scatter_add")
        assert store.full
        with pytest.raises(OverflowError):
            store.allocate(3, 1.0, "scatter_add")

    def test_release_frees_entry(self):
        store = CombiningStore(1)
        entry = store.allocate(1, 1.0, "scatter_add")
        store.pop_waiting(1)
        store.release(entry)
        assert store.occupancy == 0
        store.allocate(2, 1.0, "scatter_add")  # reusable

    def test_release_unallocated_raises(self):
        store = CombiningStore(2)
        with pytest.raises(KeyError):
            store.release(0)

    def test_cam_lookup(self):
        store = CombiningStore(4)
        store.allocate(7, 1.0, "scatter_add")
        assert store.waiting_count(7) == 1
        assert store.waiting_count(8) == 0

    def test_pop_waiting_fifo_order_per_address(self):
        store = CombiningStore(4)
        store.allocate(5, 1.0, "scatter_add", tag="first")
        store.allocate(5, 2.0, "scatter_add", tag="second")
        __, entry = store.pop_waiting(5)
        assert entry.tag == "first"
        __, entry = store.pop_waiting(5)
        assert entry.tag == "second"
        with pytest.raises(KeyError):
            store.pop_waiting(5)

    def test_popped_entry_still_occupies_slot(self):
        # "buffers scatter-add requests while an addition is performed"
        store = CombiningStore(1)
        store.allocate(5, 1.0, "scatter_add")
        store.pop_waiting(5)
        assert store.full  # not yet released

    def test_waiting_count(self):
        store = CombiningStore(4)
        assert store.waiting_count(9) == 0
        store.allocate(9, 1.0, "scatter_add")
        store.allocate(9, 1.0, "scatter_add")
        assert store.waiting_count(9) == 2
        store.pop_waiting(9)
        assert store.waiting_count(9) == 1

    def test_min_capacity_validated(self):
        with pytest.raises(ValueError):
            CombiningStore(0)

    def test_peak_occupancy_tracked(self):
        store = CombiningStore(4)
        entries = [store.allocate(i, 1.0, "scatter_add") for i in range(3)]
        for addr, entry in enumerate(entries):
            store.pop_waiting(addr)
            store.release(entry)
        assert store.peak_occupancy == 3

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=16))
    def test_per_address_order_preserved(self, addrs):
        store = CombiningStore(len(addrs))
        for order, addr in enumerate(addrs):
            store.allocate(addr, float(order), "scatter_add", tag=order)
        for addr in sorted(set(addrs)):
            tags = []
            while store.waiting_count(addr):
                __, entry = store.pop_waiting(addr)
                tags.append(entry.tag)
            assert tags == sorted(tags)
