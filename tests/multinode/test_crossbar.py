"""Tests for the input-queued crossbar."""

import pytest

from repro.memory.request import OP_WRITE, MemoryRequest
from repro.network.crossbar import HOP_LATENCY, Crossbar
from repro.sim.engine import Simulator, use_scheduler
from repro.sim.queues import FIFO
from repro.sim.stats import Stats


def make_crossbar(nodes=4, bw=2, words_per_node=16, out_capacity=None):
    sim = Simulator()
    stats = Stats()
    outputs = [sim.fifo(capacity=out_capacity, name="out%d" % i)
               for i in range(nodes)]
    crossbar = sim.register(Crossbar(
        sim, stats, nodes, bw,
        dest_of=lambda addr: min(addr // words_per_node, nodes - 1),
        outputs=outputs,
    ))
    return sim, crossbar, outputs, stats


class TestCrossbar:
    def test_delivers_to_home_node(self):
        sim, crossbar, outputs, __ = make_crossbar()
        crossbar.inputs[0].push(MemoryRequest(OP_WRITE, 20, 0.0))  # node 1
        crossbar.inputs[2].push(MemoryRequest(OP_WRITE, 50, 0.0))  # node 3
        sim.run_cycles(HOP_LATENCY + 4)
        assert [r.addr for r in outputs[1].drain()] == [20]
        assert [r.addr for r in outputs[3].drain()] == [50]

    def test_hop_latency_applied(self):
        sim, crossbar, outputs, __ = make_crossbar()
        crossbar.inputs[0].push(MemoryRequest(OP_WRITE, 20, 0.0))
        sim.run_cycles(HOP_LATENCY - 2)
        assert outputs[1].occupancy == 0
        sim.run_cycles(6)
        assert outputs[1].occupancy == 1

    def test_input_bandwidth_limit(self):
        sim, crossbar, outputs, __ = make_crossbar(bw=1)
        # bw=1 sizes the input port at 4 entries; fill it exactly.
        for i in range(4):
            crossbar.inputs[0].push(MemoryRequest(OP_WRITE, 20 + i, 0.0))
        sim.run_cycles(2)
        # After 2 cycles at 1 word/cycle at most 2 have been injected.
        assert crossbar.inputs[0].occupancy >= 2
        sim.run_cycles(HOP_LATENCY + 10)
        assert len(outputs[1].drain()) == 4

    def test_output_port_contention(self):
        # All four inputs target node 0: output port accepts bw per cycle.
        sim, crossbar, outputs, stats = make_crossbar(bw=1)
        for port in range(4):
            crossbar.inputs[port].push(MemoryRequest(OP_WRITE, 0, 0.0))
            crossbar.inputs[port].push(MemoryRequest(OP_WRITE, 1, 0.0))
        sim.run_cycles(HOP_LATENCY + 20)
        assert len(outputs[0].drain()) == 8
        assert stats.get("xbar.hol_blocks") > 0

    def test_back_pressure_on_full_output(self):
        sim, crossbar, outputs, __ = make_crossbar(out_capacity=1)
        for i in range(3):
            crossbar.inputs[0].push(MemoryRequest(OP_WRITE, 20 + i, 0.0))
        sim.run_cycles(HOP_LATENCY + 5)
        # Output holds at most 1 until drained; nothing is lost.
        total = 0
        for _ in range(10):
            total += len(outputs[1].drain())
            sim.run_cycles(4)
        assert total == 3

    def test_words_counted(self):
        sim, crossbar, __, stats = make_crossbar()
        crossbar.inputs[0].push(MemoryRequest(OP_WRITE, 20, 0.0))
        sim.run_cycles(HOP_LATENCY + 4)
        assert stats.get("xbar.words") == 1

    @pytest.mark.parametrize("scheduler", ["event", "legacy"])
    def test_run_waits_for_word_in_link(self, scheduler):
        # The link pipes are the crossbar's own state: with the only
        # pending word in flight, ``busy`` must hold the run open.
        with use_scheduler(scheduler):
            sim, crossbar, __, __ = make_crossbar()
        # An unregistered output: the engine cannot see the delivery.
        sink = FIFO(name="sink")
        crossbar.outputs[1] = sink
        crossbar.inputs[0].push(MemoryRequest(OP_WRITE, 20, 0.0))
        sim.run_cycles(2)  # commit, then inject into the link
        assert all(port.idle for port in crossbar.inputs)
        assert crossbar.busy and sink.occupancy == 0
        assert sim.run() == 1 + HOP_LATENCY + 1
        assert sink.occupancy == 1
        assert not crossbar.busy
