"""Unit tests for the per-node network interface."""

import pytest

from repro.config import MachineConfig, NetworkConfig
from repro.memory.request import (
    OP_READ,
    OP_SCATTER_ADD,
    MemoryRequest,
)
from repro.multinode.interface import NodeInterface, _tree_next_hop
from repro.sim.engine import Simulator
from repro.sim.stats import Stats


def make_interface(node_id=0, nodes=4, words_per_node=64, **config_kwargs):
    config = MachineConfig(network=NetworkConfig(nodes=nodes),
                           **config_kwargs)
    sim = Simulator()
    stats = Stats()
    interface = sim.register(NodeInterface(
        sim, config, stats, node_id,
        home_of=lambda addr: min(addr // words_per_node, nodes - 1),
    ))
    source = sim.fifo(name="agu_out")
    net_out = sim.fifo(capacity=8, name="net_out")
    interface.connect([source], net_out)
    return sim, interface, source, net_out, stats


def scatter(addr):
    return MemoryRequest(OP_SCATTER_ADD, addr, 1.0)


class TestRoutingDecisions:
    def test_local_request_stays_local(self):
        sim, interface, source, net_out, stats = make_interface(node_id=0)
        source.push(scatter(10))  # home 0
        sim.run_cycles(3)
        assert len(interface.local_out) == 1
        assert net_out.idle
        assert stats.get(interface.name + ".local_refs") == 1

    def test_remote_request_crosses_network(self):
        sim, interface, source, net_out, __ = make_interface(node_id=0)
        source.push(scatter(100))  # home 1
        sim.run_cycles(3)
        assert interface.local_out.idle
        assert len(net_out) == 1
        request = net_out.pop()
        assert not request.combining

    def test_combining_retargets_remote_atomics_locally(self):
        sim, interface, source, net_out, stats = make_interface(
            node_id=0, cache_combining=True)
        source.push(scatter(100))
        sim.run_cycles(3)
        assert net_out.idle
        assert len(interface.local_out) == 1
        assert interface.local_out.pop().combining
        assert stats.get(interface.name + ".combined_refs") == 1

    def test_combining_does_not_capture_fetch_add(self):
        # Fetch-add needs the global pre-update value: it must cross the
        # network to the home node even under combining.
        from repro.memory.request import OP_FETCH_ADD

        sim, interface, source, net_out, __ = make_interface(
            node_id=0, cache_combining=True)
        source.push(MemoryRequest(OP_FETCH_ADD, 100, 1.0))
        sim.run_cycles(3)
        assert len(net_out) == 1
        assert not net_out.pop().combining

    def test_combining_does_not_capture_reads(self):
        # Only atomics combine locally; a remote read must cross.
        sim, interface, source, net_out, __ = make_interface(
            node_id=0, cache_combining=True)
        source.push(MemoryRequest(OP_READ, 100))
        sim.run_cycles(3)
        assert len(net_out) == 1

    def test_width_limits_throughput(self):
        sim, interface, source, __, __ = make_interface(node_id=0)
        for addr in range(20):
            source.push(scatter(addr))
        source.sync()
        sim.step()
        moved = len(interface.local_out._staged) + len(interface.local_out)
        assert moved <= interface.width


class TestSumback:
    def test_remote_sumback_goes_to_network(self):
        sim, interface, __, net_out, stats = make_interface(
            node_id=0, cache_combining=True)
        assert interface.send_sumback(100, 5.0)
        assert net_out.occupancy == 1
        assert stats.get(interface.name + ".sumbacks") == 1

    def test_local_sumback_short_circuits(self):
        sim, interface, __, net_out, __ = make_interface(
            node_id=1, cache_combining=True)
        assert interface.send_sumback(100, 5.0)  # home 1 == self
        assert net_out.idle
        assert interface.local_out.occupancy == 1

    def test_backpressure_reports_false(self):
        sim, interface, __, net_out, __ = make_interface(
            node_id=0, cache_combining=True)
        for _ in range(8):  # fill the port
            assert interface.send_sumback(100, 1.0)
        assert not interface.send_sumback(100, 1.0)

    def test_hierarchical_routes_through_tree(self):
        sim, interface, __, net_out, stats = make_interface(
            node_id=0, nodes=8, cache_combining=True,
            hierarchical_combining=True)
        home = 7
        assert interface.send_sumback(home * 64, 1.0)
        net_out.sync()
        request = net_out.pop()
        assert request.combining
        assert request.route_to == _tree_next_hop(0, home)
        assert stats.get(interface.name + ".tree_hops") == 1

    def test_hierarchical_last_hop_plain(self):
        sim, interface, __, net_out, __ = make_interface(
            node_id=6, nodes=8, cache_combining=True,
            hierarchical_combining=True)
        assert interface.send_sumback(7 * 64, 1.0)
        net_out.sync()
        request = net_out.pop()
        assert not request.combining
        assert request.route_to is None
