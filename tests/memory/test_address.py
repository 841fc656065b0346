"""Tests for address interleaving.

Bank and home-node choice are checked on the functions the simulator
routes with: the router's ``target_of`` of a node's memory system and a
multi-node system's ``home_of``.
"""

import functools

from hypothesis import given, strategies as st

from repro.config import MachineConfig, NetworkConfig
from repro.memory.address import channel_of, line_base
from repro.multinode.system import MultiNodeSystem
from repro.node.memsys import MemorySystem
from repro.sim.engine import Simulator
from repro.sim.stats import Stats


@functools.lru_cache(maxsize=None)
def bank_of(banks, line_words):
    """The bank-routing function of a Table-1 memory system."""
    config = MachineConfig.table1().with_changes(
        cache_banks=banks, cache_line_words=line_words)
    memsys = MemorySystem(Simulator(), config, Stats(), sources=[])
    return memsys.router.target_of


def home_of(nodes, address_space):
    config = MachineConfig(network=NetworkConfig(nodes=nodes))
    return MultiNodeSystem(config, address_space=address_space).home_of


class TestAddressMapping:
    def test_line_base(self):
        assert line_base(5, 4) == 4
        assert line_base(4, 4) == 4
        assert line_base(3, 4) == 0

    def test_bank_interleave_at_line_granularity(self):
        # words 0-3 -> bank 0, words 4-7 -> bank 1, ...
        route = bank_of(8, 4)
        assert [route(w) for w in range(0, 16, 4)] == [0, 1, 2, 3]
        assert route(0) == route(3)
        assert route(4 * 8) == 0  # wraps around after the last bank

    def test_channel_interleave(self):
        assert channel_of(4 * 16, 16, 4) == 0  # wraps around
        assert channel_of(4, 16, 4) == 1

    def test_node_block_partition(self):
        # 400 words over 4 nodes: 100-word blocks (a whole number of lines)
        home = home_of(4, 400)
        assert home(0) == 0
        assert home(99) == 0
        assert home(100) == 1
        assert home(399) == 3

    def test_node_clamped_to_last(self):
        assert home_of(4, 400)(10_000) == 3

    @given(st.integers(0, 1 << 30), st.integers(1, 16))
    def test_same_line_same_bank(self, addr, line_words):
        route = bank_of(8, line_words)
        base = line_base(addr, line_words)
        for offset in range(line_words):
            assert route(base + offset) == route(base)

    @given(st.integers(0, 1 << 30))
    def test_banks_cover_all_values(self, addr):
        assert 0 <= bank_of(8, 4)(addr) < 8
        assert 0 <= channel_of(addr, 16, 4) < 16
