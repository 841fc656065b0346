"""Tests for the row-buffer DRAM model and FR-FCFS scheduling."""

import numpy as np

from repro.api import Simulation, scatter_add_reference
from repro.config import MachineConfig
from repro.memory.backing import MainMemory
from repro.memory.dram import DRAMSystem
from repro.memory.request import OP_READ, MemoryRequest
from repro.sim.engine import Simulator
from repro.sim.stats import Stats

from tests.conftest import Feeder, Sink


def make_dram(**overrides):
    config = MachineConfig(dram_model="rowbuffer", **overrides)
    sim = Simulator()
    stats = Stats()
    memory = MainMemory()
    endpoint = DRAMSystem(sim, config, memory, stats)
    sink = Sink(sim)
    sim.register(sink)
    return config, sim, endpoint, sink, stats


def feed(sim, endpoint, requests):
    sim.register(Feeder(endpoint.req_in, requests, per_cycle=2))


def sequential_reads(sim, endpoint, sink, count, stride, start=0):
    feed(sim, endpoint, [
        MemoryRequest(OP_READ, start + index * stride,
                      reply_to=sink.fifo, words=4)
        for index in range(count)
    ])


class TestRowBuffer:
    def test_sequential_stream_mostly_hits(self):
        config, sim, endpoint, sink, stats = make_dram(dram_channels=1)
        sequential_reads(sim, endpoint, sink, 16, stride=4)
        sim.run()
        assert stats.get("dram.row_hits") > stats.get("dram.row_misses")

    def test_row_conflicts_all_miss(self):
        # In-order service: FR-FCFS would regroup these into row hits.
        config, sim, endpoint, sink, stats = make_dram(
            dram_channels=1, dram_scheduling="inorder")
        # Alternate between two rows on one channel: every access conflicts.
        row = config.dram_row_words * 16  # channel-0 rows are 16 rows apart
        feed(sim, endpoint, [
            MemoryRequest(OP_READ, (index % 2) * row,
                          reply_to=sink.fifo, words=4)
            for index in range(8)
        ])
        sim.run()
        assert stats.get("dram.row_misses") == 8
        assert stats.get("dram.row_hits") == 0

    def test_sequential_faster_than_conflicting(self):
        def run(addrs):
            __, sim, endpoint, sink, __ = make_dram(dram_channels=1)
            feed(sim, endpoint, [
                MemoryRequest(OP_READ, addr, reply_to=sink.fifo, words=4)
                for addr in addrs
            ])
            return sim.run()

        config = MachineConfig(dram_model="rowbuffer")
        row = config.dram_row_words * 16
        sequential = run([i * 4 for i in range(12)])
        conflicting = run([(i % 2) * row for i in range(12)])
        assert conflicting > sequential

    def test_frfcfs_reorders_for_row_hits(self):
        # Interleave two rows; FR-FCFS groups same-row requests.
        def run(scheduling):
            config, sim, endpoint, sink, stats = make_dram(
                dram_channels=1)
            config = config.with_changes(dram_scheduling=scheduling)
            sim2 = Simulator()
            stats2 = Stats()
            endpoint2 = DRAMSystem(sim2, config, MainMemory(), stats2)
            sink2 = Sink(sim2)
            sim2.register(sink2)
            row = config.dram_row_words * 16
            sim2.register(Feeder(endpoint2.req_in, [
                MemoryRequest(OP_READ, (index % 2) * row + (index // 2) * 4,
                              reply_to=sink2.fifo, words=4)
                for index in range(16)
            ], per_cycle=8))
            cycles = sim2.run()
            return cycles, stats2

        frfcfs_cycles, frfcfs_stats = run("frfcfs")
        inorder_cycles, inorder_stats = run("inorder")
        assert frfcfs_stats.get("dram.row_hits") > \
            inorder_stats.get("dram.row_hits")
        assert frfcfs_cycles < inorder_cycles

    def test_functionally_identical_to_flat(self, rng):
        indices = rng.integers(0, 4096, size=2048)
        expected = scatter_add_reference(np.zeros(4096), indices, 1.0)
        for scheduling in ("inorder", "frfcfs"):
            config = MachineConfig(dram_model="rowbuffer",
                                   dram_scheduling=scheduling)
            run = Simulation(config).run("scatter_add", indices, 1.0,
                                         num_targets=4096)
            assert np.array_equal(run.result, expected), scheduling

    def test_flat_model_unaffected(self, rng):
        # The default config must not touch row-buffer counters.
        indices = rng.integers(0, 512, size=512)
        run = Simulation().run("scatter_add", indices, 1.0, num_targets=512)
        assert "dram.row_hits" not in run.stats.names()
