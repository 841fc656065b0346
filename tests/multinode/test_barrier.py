"""Tests for the fetch-add barrier."""

import pytest

from repro.config import MachineConfig, NetworkConfig
from repro.multinode.barrier import ScatterAddBarrier
from repro.multinode.system import MultiNodeSystem


def make_system(nodes, bw=8, combining=False):
    config = MachineConfig(
        network=NetworkConfig(nodes=nodes, link_bw_words=bw),
        cache_combining=combining,
    )
    return MultiNodeSystem(config, address_space=64)


class TestScatterAddBarrier:
    @pytest.mark.parametrize("nodes", [1, 2, 4, 8])
    def test_all_nodes_get_unique_tickets(self, nodes):
        system = make_system(nodes)
        barrier = ScatterAddBarrier(system)
        result = barrier.synchronise()
        assert sorted(result.order) == list(range(nodes))

    def test_counter_advances_across_episodes(self):
        system = make_system(4)
        barrier = ScatterAddBarrier(system)
        barrier.synchronise()
        barrier.synchronise()
        barrier.synchronise()
        for memsys in system.memsystems:
            memsys.drain_to_memory()
        assert system.memory.read_word(0) == 12.0

    def test_episode_results_deterministic(self):
        first = ScatterAddBarrier(make_system(4)).synchronise()
        second = ScatterAddBarrier(make_system(4)).synchronise()
        assert first.order == second.order
        assert first.cycles == second.cycles

    def test_cost_grows_with_node_count(self):
        small = ScatterAddBarrier(make_system(2)).synchronise()
        large = ScatterAddBarrier(make_system(8)).synchronise()
        assert large.arrival_cycles >= small.arrival_cycles

    def test_single_node_no_release_broadcast(self):
        result = ScatterAddBarrier(make_system(1)).synchronise()
        assert result.release_cycles == 0

    def test_low_bandwidth_slows_arrival(self):
        fast = ScatterAddBarrier(make_system(8, bw=8)).synchronise()
        slow = ScatterAddBarrier(make_system(8, bw=1)).synchronise()
        assert slow.arrival_cycles >= fast.arrival_cycles

    def test_barrier_correct_under_cache_combining(self):
        # Fetch-adds must bypass local combining (they need the global
        # pre-update value); the barrier stays correct with combining on.
        system = make_system(8, bw=1, combining=True)
        barrier = ScatterAddBarrier(system)
        first = barrier.synchronise()
        second = barrier.synchronise()
        assert sorted(first.order) == list(range(8))
        assert sorted(second.order) == list(range(8))

    def test_custom_counter_address(self):
        system = make_system(4)
        barrier = ScatterAddBarrier(system, counter_addr=48)  # home node 3
        result = barrier.synchronise()
        assert sorted(result.order) == [0, 1, 2, 3]
        for memsys in system.memsystems:
            memsys.drain_to_memory()
        assert system.memory.read_word(48) == 4.0
