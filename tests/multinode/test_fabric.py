"""Tests for the combining interconnect fabric (switches + topologies).

Covers the router combining algebra (fetch-add ordering, min/max
idempotence under merge, the full add/min/max/mul family), the tree
topology builder, the ``sim.network.*`` counters, and the two
equivalence contracts of the redesign:

- combine-site ``memory`` on the degenerate crossbar is *bit-exactly*
  the legacy scalar-kwargs machine (randomized differential sweep, same
  engine on both sides so only the config spelling differs);
- legacy and event agree on the new modes' cycle counts,
  statistics and results (cross-engine sweep at four nodes over ten
  seeds).
"""

import numpy as np
import pytest

from repro.config import MachineConfig, NetworkConfig
from repro.core.combining_store import NETWORK_COMBINABLE_OPS, CombiningTable
from repro.memory.request import (
    OP_FETCH_ADD,
    OP_SCATTER_ADD,
    OP_SCATTER_MAX,
    OP_SCATTER_MIN,
    OP_SCATTER_MUL,
    OP_WRITE,
    MemoryRequest,
)
from repro.multinode.system import MultiNodeSystem
from repro.network.fabric import NetworkMetrics, Switch, build_network
from repro.sim.engine import Simulator, use_scheduler
from repro.sim.stats import Stats

ENGINES = ("legacy", "event", "fastforward")


def _strip_engine(stats):
    """Model stats minus the ``engine.*`` counters (they vary by scheduler)."""
    return {key: value for key, value in stats.as_dict().items()
            if not key.startswith("engine.")}


def _reference(indices, values, targets):
    out = np.zeros(targets)
    np.add.at(out, np.asarray(indices),
              values if np.ndim(values) else float(values))
    return out


def _skewed_trace(rng, refs, targets, hot_frac=0.8, hot_count=8):
    hot = rng.integers(0, targets, size=hot_count)
    pick = rng.random(refs) < hot_frac
    return np.where(pick, hot[rng.integers(0, hot_count, size=refs)],
                    rng.integers(0, targets, size=refs))


class TestCombiningTable:
    def test_add_merges_to_sum(self):
        table = CombiningTable(4)
        first = MemoryRequest(OP_SCATTER_ADD, 7, 2.0)
        table.append(first)
        assert table.try_merge(MemoryRequest(OP_SCATTER_ADD, 7, 3.0))
        assert first.value == 5.0
        assert len(table) == 1
        # In a switch, each merge is one ``combined_in_flight`` count.
        sim, __, inputs, outputs, stats = make_switch(bw=1)
        inputs[0].push(MemoryRequest(OP_SCATTER_ADD, 20, 2.0))
        inputs[1].push(MemoryRequest(OP_SCATTER_ADD, 20, 3.0))
        sim.run_cycles(20)
        assert [r.value for r in outputs[1].drain()] == [5.0]
        assert stats.get("sim.network.combined_in_flight") == 1

    @pytest.mark.parametrize("op,values,expected", [
        (OP_SCATTER_MIN, (5.0, 3.0, 7.0), 3.0),
        (OP_SCATTER_MAX, (5.0, 3.0, 7.0), 7.0),
        (OP_SCATTER_MUL, (2.0, 3.0, 4.0), 24.0),
    ])
    def test_min_max_mul_algebra(self, op, values, expected):
        table = CombiningTable(4)
        first = MemoryRequest(op, 7, values[0])
        table.append(first)
        for value in values[1:]:
            assert table.try_merge(MemoryRequest(op, 7, value))
        assert first.value == expected

    @pytest.mark.parametrize("op", [OP_SCATTER_MIN, OP_SCATTER_MAX])
    def test_min_max_idempotent_under_merge(self, op):
        # Merging the same operand any number of times must not move the
        # result: min/max are idempotent, so duplicates are free.
        table = CombiningTable(4)
        first = MemoryRequest(op, 7, 5.0)
        table.append(first)
        for _ in range(5):
            assert table.try_merge(MemoryRequest(op, 7, 5.0))
        assert first.value == 5.0

    def test_fetch_add_never_merges(self):
        assert OP_FETCH_ADD not in NETWORK_COMBINABLE_OPS
        table = CombiningTable(4)
        table.append(MemoryRequest(OP_FETCH_ADD, 7, 1.0))
        assert not table.try_merge(MemoryRequest(OP_FETCH_ADD, 7, 1.0))
        table.append(MemoryRequest(OP_FETCH_ADD, 7, 1.0))
        assert len(table) == 2

    def test_distinct_keys_do_not_merge(self):
        table = CombiningTable(8)
        table.append(MemoryRequest(OP_SCATTER_ADD, 7, 1.0))
        assert not table.try_merge(MemoryRequest(OP_SCATTER_ADD, 8, 1.0))
        assert not table.try_merge(MemoryRequest(OP_SCATTER_MIN, 7, 1.0))
        assert not table.try_merge(
            MemoryRequest(OP_SCATTER_ADD, 7, 1.0, combining=True))
        assert not table.try_merge(
            MemoryRequest(OP_SCATTER_ADD, 7, 1.0, route_to=3))

    def test_popped_entry_stops_absorbing(self):
        # Once drained toward the link the operand is gone; a later
        # same-key request must start a fresh entry, not mutate the old.
        table = CombiningTable(4)
        table.append(MemoryRequest(OP_SCATTER_ADD, 7, 1.0))
        popped = table.pop()
        assert not table.try_merge(MemoryRequest(OP_SCATTER_ADD, 7, 2.0))
        assert popped.value == 1.0

    def test_capacity_enforced(self):
        table = CombiningTable(1)
        table.append(MemoryRequest(OP_WRITE, 1, 0.0))
        assert table.full
        with pytest.raises(OverflowError):
            table.append(MemoryRequest(OP_WRITE, 2, 0.0))
        with pytest.raises(ValueError):
            CombiningTable(0)


def make_switch(nodes=2, bw=1, words_per_node=16, combine=True,
                table_entries=16):
    sim = Simulator()
    stats = Stats()
    metrics = NetworkMetrics(stats)
    outputs = [sim.fifo(capacity=None, name="out%d" % i)
               for i in range(nodes)]
    switch = Switch(
        sim, "sw", lo=0, hi=nodes, child_span=1,
        dest_of=lambda addr: min(addr // words_per_node, nodes - 1),
        bw_words=bw, hop_latency=4, combine=combine,
        table_entries=table_entries, metrics=metrics,
    )
    for leaf in range(nodes):
        switch.add_child_port(outputs[leaf], leaf, leaf + 1, final=True)
    inputs = [switch.new_input("inj%d" % leaf, injection=True)
              for leaf in range(nodes)]
    sim.register(switch)
    return sim, switch, inputs, outputs, stats


class TestSwitch:
    def test_delivers_to_home_leaf(self):
        sim, __, inputs, outputs, __s = make_switch()
        inputs[0].push(MemoryRequest(OP_WRITE, 20, 0.0))
        sim.run_cycles(12)
        assert [r.addr for r in outputs[1].drain()] == [20]

    def test_congestion_merges_same_address(self):
        # Two injection ports feed one output at 1 word/cycle: the output
        # table backs up, and the waiting entry absorbs the same-address
        # requests arriving behind it -- fewer wire requests than injected.
        sim, __, inputs, outputs, stats = make_switch(bw=1)
        for value in (1.0, 3.0):
            inputs[0].push(MemoryRequest(OP_SCATTER_ADD, 20, value))
            inputs[1].push(MemoryRequest(OP_SCATTER_ADD, 20, value + 1.0))
        sim.run_cycles(30)
        delivered = outputs[1].drain()
        assert sum(r.value for r in delivered) == 10.0
        assert stats.get("sim.network.combined_in_flight") >= 1
        assert stats.get("sim.network.injected") == 4
        assert len(delivered) == 4 - stats.get(
            "sim.network.combined_in_flight")

    def test_conservation_injected_delivered_combined(self):
        rng = np.random.default_rng(3)
        sim, __, inputs, outputs, stats = make_switch(nodes=2, bw=1)
        for addr in rng.integers(0, 32, size=24):
            source = inputs[int(rng.integers(0, 2))]
            if source.can_push():
                source.push(MemoryRequest(OP_SCATTER_ADD, int(addr), 1.0))
            sim.run_cycles(1)
        sim.run_cycles(64)
        delivered = sum(len(out.drain()) for out in outputs)
        assert (stats.get("sim.network.injected")
                == delivered + stats.get("sim.network.combined_in_flight"))

    def test_fetch_add_passes_through_in_order(self):
        # Fetch-adds must reach memory individually and in issue order --
        # the home unit produces each acknowledgement's pre-update value,
        # so reordering or merging would corrupt the returned old values.
        sim, __, inputs, outputs, stats = make_switch(bw=1)
        for tag in range(3):
            inputs[0].push(MemoryRequest(OP_FETCH_ADD, 20, 1.0, tag=tag))
        sim.run_cycles(20)
        delivered = outputs[1].drain()
        assert [r.tag for r in delivered] == [0, 1, 2]
        assert stats.get("sim.network.combined_in_flight") == 0

    def test_absorbed_request_acked_with_tag(self):
        # Input 0 is serviced first, so its request waits in the table
        # and input 1's request merges into it -- and is acknowledged by
        # the switch on the spot, tag echoed.
        sim, __, inputs, outputs, __s = make_switch(bw=1)
        ack = sim.fifo(capacity=None, name="ack")
        inputs[0].push(MemoryRequest(OP_SCATTER_ADD, 20, 1.0,
                                     reply_to=ack, tag="a"))
        inputs[1].push(MemoryRequest(OP_SCATTER_ADD, 20, 2.0,
                                     reply_to=ack, tag="b"))
        sim.run_cycles(20)
        acks = ack.drain()
        assert [response.tag for response in acks] == ["b"]
        assert acks[0].op == OP_SCATTER_ADD
        # The merge survivor carries both operands home.
        assert [r.value for r in outputs[1].drain()] == [3.0]

    def test_combining_disabled_queues_everything(self):
        sim, __, inputs, outputs, stats = make_switch(bw=1, combine=False)
        for value in (1.0, 2.0, 3.0):
            inputs[0].push(MemoryRequest(OP_SCATTER_ADD, 20, value))
        sim.run_cycles(20)
        assert [r.value for r in outputs[1].drain()] == [1.0, 2.0, 3.0]
        assert stats.get("sim.network.combined_in_flight") == 0

    def test_full_table_head_of_line_blocks(self):
        sim, __, inputs, outputs, stats = make_switch(
            bw=1, table_entries=1, combine=False)
        for addr in (20, 21):
            inputs[0].push(MemoryRequest(OP_WRITE, addr, 0.0))
            inputs[1].push(MemoryRequest(OP_WRITE, addr + 2, 0.0))
        sim.run_cycles(40)
        assert len(outputs[1].drain()) == 4  # nothing lost
        assert stats.get("sim.network.hol_blocks") > 0


class TestTreeTopology:
    @pytest.mark.parametrize("nodes,radix", [
        (2, 2), (3, 2), (4, 4), (5, 4), (8, 2), (9, 3), (16, 4),
    ])
    def test_exact_at_every_shape(self, nodes, radix):
        rng = np.random.default_rng(nodes * 10 + radix)
        targets = nodes * 16
        indices = _skewed_trace(rng, 24 * nodes, targets)
        config = MachineConfig(network=NetworkConfig(
            nodes=nodes, topology="tree", tree_radix=radix,
            combine_site="both", link_bw_words=2))
        system = MultiNodeSystem(config, address_space=targets)
        run = system.scatter_add(indices, 1.0, num_targets=targets)
        np.testing.assert_array_equal(
            run.result, _reference(indices, 1.0, targets))

    def test_switch_count_matches_complete_tree(self):
        sim = Simulator()
        stats = Stats()
        outputs = [sim.fifo(capacity=4, name="o%d" % i) for i in range(16)]
        fabric = build_network(
            sim, stats,
            NetworkConfig(nodes=16, topology="tree", tree_radix=4,
                          combine_site="network"),
            dest_of=lambda addr: min(addr // 16, 15), outputs=outputs)
        # 16 leaves at radix 4: four level-0 switches plus one root.
        assert len(fabric.switches) == 5
        assert len(fabric.inputs) == 16
        assert all(switch.combine for switch in fabric.switches)

    def test_degenerate_crossbar_is_the_legacy_component(self):
        sim = Simulator()
        stats = Stats()
        outputs = [sim.fifo(capacity=4, name="o%d" % i) for i in range(4)]
        fabric = build_network(
            sim, stats, NetworkConfig(nodes=4, combine_site="memory"),
            dest_of=lambda addr: min(addr // 16, 3), outputs=outputs)
        assert fabric.crossbar is not None
        assert fabric.switches == []
        assert fabric.metrics is None
        # No sim.network.* counters exist on the legacy path.
        assert not any(key.startswith("sim.network")
                       for key in stats.as_dict())


class TestDifferentialLegacyEquivalence:
    """combine-site ``memory`` on every engine ≡ the ``legacy`` engine.

    Randomized sweep over node counts, link bandwidths and cache
    combining on the degenerate crossbar: cycles, the model counters and
    the result must all be bit-identical to the tick-everything
    reference engine.
    """

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("nodes,bw,combining,seed", [
        (2, 8, False, 0),
        (4, 2, False, 1),
        (4, 8, True, 2),
        (6, 2, False, 3),
        (8, 1, True, 4),
    ])
    def test_randomized_sweep(self, engine, nodes, bw, combining, seed):
        rng = np.random.default_rng(seed)
        targets = nodes * 16
        indices = rng.integers(0, targets, size=40 * nodes)
        values = rng.random(indices.size)

        config = MachineConfig(
            cache_combining=combining,
            network=NetworkConfig(nodes=nodes, link_bw_words=bw,
                                  combine_site="memory"))

        def run(engine):
            system = MultiNodeSystem(config, address_space=targets,
                                     engine=engine)
            run_ = system.scatter_add(indices, values,
                                      num_targets=targets)
            return run_.cycles, _strip_engine(run_.stats), run_.result

        legacy = run("legacy")
        other = run(engine)
        assert other[0] == legacy[0]
        assert other[1] == legacy[1]
        np.testing.assert_array_equal(other[2], legacy[2])


def _four_node_runs(topology, site, seed, engines):
    """Cycles, model stats and result of one skewed 4-node trace per engine."""
    rng = np.random.default_rng(seed)
    targets = 64
    indices = _skewed_trace(rng, 160, targets)
    config = MachineConfig(network=NetworkConfig(
        nodes=4, topology=topology, combine_site=site, link_bw_words=2))
    runs = {}
    for engine in engines:
        with use_scheduler(engine):
            system = MultiNodeSystem(config, address_space=targets)
            run_ = system.scatter_add(indices, 1.0, num_targets=targets)
        runs[engine] = run_.cycles, _strip_engine(run_.stats), run_.result
    np.testing.assert_array_equal(
        runs["legacy"][2], _reference(indices, 1.0, targets))
    return runs


def _assert_matches_legacy(runs, label):
    cycles_ref, stats_ref, result_ref = runs["legacy"]
    for engine, (cycles, stats, result) in runs.items():
        assert cycles == cycles_ref, (engine, label)
        assert stats == stats_ref, (engine, label)
        np.testing.assert_array_equal(result, result_ref, (engine, label))


class TestCrossEngineEquivalence:
    """The schedulers agree on the new fabric modes, on every seed."""

    @pytest.mark.parametrize("topology,site", [
        ("crossbar", "memory"),
        ("crossbar", "network"),
        ("crossbar", "both"),
        ("tree", "memory"),
        ("tree", "network"),
        ("tree", "both"),
    ])
    def test_four_nodes(self, topology, site):
        # Chained congestion at the home scatter-add unit on cached
        # nodes: event must match legacy exactly on every seed, not on a
        # hand-picked one.
        for seed in range(10):
            runs = _four_node_runs(topology, site, seed,
                                   ("legacy", "event"))
            _assert_matches_legacy(runs, seed)


class TestCombiningReducesHomeTraffic:
    def test_skewed_workload(self):
        # The acceptance gate of the redesign: on a hot-index trace the
        # in-network tables absorb requests before the home node sees
        # them, visibly in the sim.network.* counters.
        rng = np.random.default_rng(5)
        targets = 64
        indices = _skewed_trace(rng, 400, targets)

        def run(site):
            config = MachineConfig(network=NetworkConfig(
                nodes=4, topology="tree", combine_site=site,
                link_bw_words=1))
            system = MultiNodeSystem(config, address_space=targets)
            run_ = system.scatter_add(indices, 1.0, num_targets=targets)
            np.testing.assert_array_equal(
                run_.result, _reference(indices, 1.0, targets))
            return run_.stats.as_dict(), run_.cycles

        memory_stats, memory_cycles = run("memory")
        both_stats, both_cycles = run("both")
        assert both_stats["sim.network.combined_in_flight"] > 0
        assert (both_stats["sim.network.delivered"]
                < memory_stats["sim.network.delivered"])
        assert both_cycles < memory_cycles
