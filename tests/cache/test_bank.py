"""Tests for the cache bank: hits, misses, MSHRs, evictions, combining."""

import numpy as np
import pytest

from repro.cache.bank import CacheBank
from repro.config import MachineConfig
from repro.memory.backing import MainMemory
from repro.memory.dram import DRAMSystem
from repro.memory.request import (
    OP_READ,
    OP_SCATTER_ADD,
    OP_WRITE,
    MemoryRequest,
)
from repro.sim.engine import Simulator
from repro.sim.stats import Stats

from tests.conftest import Feeder, Sink


class BankHarness:
    """One cache bank over a DRAM system."""

    def __init__(self, config=None, sumback_sink=None):
        self.config = config or MachineConfig(
            cache_size_bytes=1024, cache_associativity=2, cache_banks=1,
        )
        self.sim = Simulator()
        self.stats = Stats()
        self.memory = MainMemory()
        self.dram = DRAMSystem(self.sim, self.config, self.memory,
                               self.stats)
        self.bank = CacheBank(self.sim, self.config, self.stats,
                              self.dram.req_in, sumback_sink=sumback_sink)
        self.sink = Sink(self.sim)
        self.sim.register(self.sink)

    def run(self, requests):
        self.sim.register(Feeder(self.bank.req_in, requests, per_cycle=1))
        return self.sim.run()


def read(addr, sink):
    return MemoryRequest(OP_READ, addr, reply_to=sink.fifo)


def write(addr, value, sink=None):
    return MemoryRequest(OP_WRITE, addr, value,
                         reply_to=sink.fifo if sink else None)


class TestCacheBank:
    def test_read_miss_fetches_from_memory(self):
        harness = BankHarness()
        harness.memory.write_word(5, 3.5)
        harness.run([read(5, harness.sink)])
        assert harness.sink.received[0].value == 3.5
        assert harness.stats.get(harness.bank.name + ".misses") == 1

    def test_read_hit_after_fill(self):
        harness = BankHarness()
        harness.memory.write_word(5, 3.5)
        harness.run([read(5, harness.sink)])  # fill completes
        harness.bank.req_in.push(read(5, harness.sink))
        harness.sim.run()
        assert [r.value for r in harness.sink.received] == [3.5, 3.5]
        assert harness.stats.get(harness.bank.name + ".hits") == 1
        assert harness.stats.get(harness.bank.name + ".misses") == 1

    def test_same_line_read_is_hit(self):
        harness = BankHarness()
        harness.memory.write_line(4, [1.0, 2.0, 3.0, 4.0])
        harness.run([read(4, harness.sink), read(7, harness.sink)])
        assert [r.value for r in harness.sink.received] == [1.0, 4.0]
        assert harness.stats.get(harness.bank.name + ".misses") == 1

    def test_write_read_through_cache(self):
        harness = BankHarness()
        harness.run([write(9, 7.0), read(9, harness.sink)])
        assert harness.sink.received[0].value == 7.0

    def test_dirty_eviction_writes_back(self):
        config = MachineConfig(cache_size_bytes=64, cache_associativity=1,
                               cache_banks=1)  # 2 lines of 4 words
        harness = BankHarness(config)
        # Write to line 0, then touch enough lines to evict it.
        requests = [write(0, 42.0)]
        line = config.cache_line_words
        sets = config.cache_sets_per_bank
        for i in range(1, 4):
            requests.append(read(i * line * sets, harness.sink))
        harness.run(requests)
        assert harness.memory.read_word(0) == 42.0
        assert harness.stats.get(harness.bank.name + ".writebacks") >= 1

    def test_eviction_victim_reclaimed_not_stale(self):
        """Regression: a miss must not overtake its line's pending
        write-back (the multi-node lost-update bug)."""
        config = MachineConfig(cache_size_bytes=64, cache_associativity=1,
                               cache_banks=1)
        harness = BankHarness(config)
        line = config.cache_line_words
        sets = config.cache_sets_per_bank
        requests = [write(0, 42.0)]
        # Conflict-evict line 0, then immediately read it back.
        requests.append(read(line * sets, harness.sink))
        requests.append(read(0, harness.sink))
        harness.run(requests)
        values = [r.value for r in harness.sink.received if r.addr == 0]
        assert values == [42.0]

    def test_mshr_piggyback_single_fill(self):
        harness = BankHarness()
        harness.memory.write_line(0, [1.0, 2.0, 3.0, 4.0])
        harness.run([read(0, harness.sink), read(1, harness.sink),
                     read(2, harness.sink)])
        assert [r.value for r in harness.sink.received] == [1.0, 2.0, 3.0]
        assert harness.stats.get(harness.bank.name + ".misses") == 1
        assert harness.stats.get(harness.bank.name + ".mshr_hits") >= 1
        assert harness.stats.get("dram.reads") == 1

    def test_combining_allocate_at_zero(self):
        harness = BankHarness()
        harness.memory.write_word(3, 100.0)  # must NOT be fetched
        request = MemoryRequest(OP_SCATTER_ADD, 3, 2.0, combining=True)
        harness.run([request])
        assert harness.bank.peek_word(3) == 2.0
        assert harness.stats.get(
            harness.bank.name + ".combining_allocs") == 1
        assert harness.stats.get("dram.reads") == 0

    def test_combining_merge_accumulates(self):
        harness = BankHarness()
        requests = [MemoryRequest(OP_SCATTER_ADD, 3, float(v), combining=True)
                    for v in (1, 2, 3)]
        harness.run(requests)
        assert harness.bank.peek_word(3) == 6.0

    def test_sumback_on_eviction(self):
        received = []

        def sink_fn(addr, value):
            received.append((addr, value))
            return True

        config = MachineConfig(cache_size_bytes=64, cache_associativity=1,
                               cache_banks=1)
        harness = BankHarness(config, sumback_sink=sink_fn)
        line = config.cache_line_words
        sets = config.cache_sets_per_bank
        requests = [MemoryRequest(OP_SCATTER_ADD, 0, 5.0, combining=True)]
        # Conflict-evict the combining line.
        requests.append(read(line * sets, harness.sink))
        harness.run(requests)
        assert received == [(0, 5.0)]
        # A sum-back is not a write-back: DRAM must not see the value.
        assert harness.memory.read_word(0) == 0.0

    def test_sumback_backpressure_retries(self):
        calls = {"n": 0}

        def stubborn_sink(addr, value):
            calls["n"] += 1
            return calls["n"] > 3  # reject the first three attempts

        config = MachineConfig(cache_size_bytes=64, cache_associativity=1,
                               cache_banks=1)
        harness = BankHarness(config, sumback_sink=stubborn_sink)
        line = config.cache_line_words
        sets = config.cache_sets_per_bank
        requests = [MemoryRequest(OP_SCATTER_ADD, 0, 5.0, combining=True),
                    read(line * sets, harness.sink)]
        harness.run(requests)
        assert calls["n"] == 4  # three rejections, one success

    def test_flush_writes_everything_back(self):
        harness = BankHarness()
        harness.run([write(0, 1.0), write(40, 2.0)])
        assert harness.memory.read_word(0) == 0.0  # still only in cache
        harness.bank.request_flush()
        harness.sim.run()
        assert harness.bank.flush_done
        assert harness.memory.read_word(0) == 1.0
        assert harness.memory.read_word(40) == 2.0
        assert harness.bank.resident_lines == 0

    def test_flush_visits_sets_in_index_order(self):
        # Sets are allocated on first use, so the flush walks a mix of
        # allocated and never-touched slots; sum-backs must still leave
        # in set-index order, whatever order the lines arrived in.
        summed = []

        def sink(addr, value):
            summed.append((addr, value))
            return True

        harness = BankHarness(sumback_sink=sink)
        line = harness.config.cache_line_words
        touched = [5, 2, 7, 0]
        harness.run([MemoryRequest(OP_SCATTER_ADD, s * line, float(s + 1),
                                   combining=True) for s in touched])
        assert harness.bank.resident_lines == len(touched)
        assert harness.bank.has_combining_state
        harness.bank.request_flush()
        harness.sim.run()
        assert harness.bank.flush_done
        assert harness.bank.resident_lines == 0
        assert not harness.bank.has_combining_state
        assert summed == [(s * line, float(s + 1)) for s in sorted(touched)]

    def test_drain_to_functional_flush(self):
        harness = BankHarness()
        harness.run([write(2, 9.0)])
        harness.bank.drain_to(harness.memory)
        assert harness.memory.read_word(2) == 9.0

    def test_drain_to_adds_combining_lines(self):
        harness = BankHarness()
        harness.memory.write_word(2, 10.0)
        harness.run([MemoryRequest(OP_SCATTER_ADD, 2, 5.0, combining=True)])
        harness.bank.drain_to(harness.memory)
        assert harness.memory.read_word(2) == 15.0

    def test_non_combining_atomic_rejected(self):
        harness = BankHarness()
        harness.bank.req_in.push(MemoryRequest(OP_SCATTER_ADD, 0, 1.0))
        with pytest.raises(ValueError):
            harness.sim.run()

    def test_lru_keeps_recent_lines(self):
        config = MachineConfig(cache_size_bytes=64, cache_associativity=2,
                               cache_banks=1)  # one set of 2 lines
        harness = BankHarness(config)
        line = config.cache_line_words
        sets = config.cache_sets_per_bank
        stride = line * sets
        # Fill both ways with lines A and B; touch A; then C evicts B.
        harness.run([read(0, harness.sink), read(stride, harness.sink),
                     read(0, harness.sink), read(2 * stride, harness.sink),
                     read(0, harness.sink)])
        # The final read of A must be a hit (A stayed resident).
        misses = harness.stats.get(harness.bank.name + ".misses")
        assert misses == 3  # A, B, C only -- A never refetched

    def test_capacity_eviction_large_sweep(self, rng):
        config = MachineConfig(cache_size_bytes=256, cache_associativity=2,
                               cache_banks=1)
        harness = BankHarness(config)
        addrs = rng.integers(0, 4096, size=200)
        requests = [write(int(a), float(i)) for i, a in enumerate(addrs)]
        harness.run(requests)
        harness.bank.drain_to(harness.memory)
        # last write per address wins
        expected = {}
        for i, a in enumerate(addrs):
            expected[int(a)] = float(i)
        for addr, value in expected.items():
            assert harness.memory.read_word(addr) == value
