"""Tests for hierarchical (tree) combining -- the Section 5 future-work
optimisation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import scatter_add_reference
from repro.config import MachineConfig, NetworkConfig
from repro.multinode.interface import _tree_next_hop
from repro.multinode.system import MultiNodeSystem


class TestTreeRouting:
    def test_adjacent_goes_home(self):
        assert _tree_next_hop(6, 7) == 7
        assert _tree_next_hop(1, 0) == 0

    def test_each_hop_halves_distance(self):
        for source in range(8):
            for home in range(8):
                if source == home:
                    continue
                node = source
                hops = 0
                while node != home:
                    nxt = _tree_next_hop(node, home)
                    assert abs(nxt - home) < abs(node - home)
                    node = nxt
                    hops += 1
                assert hops <= 3  # ceil(log2(8))


class TestHierarchicalCombining:
    @pytest.mark.parametrize("nodes", [2, 4, 8])
    def test_exact_results(self, rng, nodes):
        indices = rng.integers(0, 128, size=2048)
        expected = scatter_add_reference(np.zeros(128), indices, 1.0)
        config = MachineConfig(
            network=NetworkConfig(nodes=nodes, link_bw_words=1),
            cache_combining=True, hierarchical_combining=True,
        )
        system = MultiNodeSystem(config, address_space=128)
        run = system.scatter_add(indices, 1.0, num_targets=128)
        assert np.array_equal(run.result, expected)

    def test_requires_cache_combining(self):
        with pytest.raises(ValueError):
            MachineConfig(network=NetworkConfig(nodes=4),
                          cache_combining=False, hierarchical_combining=True)

    def test_reduces_home_port_traffic(self, rng):
        space = 8192
        indices = rng.integers(space - space // 8, space, size=8192)
        expected = scatter_add_reference(np.zeros(space), indices, 1.0)
        traffic = {}
        for hierarchical in (False, True):
            config = MachineConfig(
                network=NetworkConfig(nodes=8, link_bw_words=1),
                cache_combining=True, hierarchical_combining=hierarchical,
            )
            system = MultiNodeSystem(config, address_space=space)
            run = system.scatter_add(indices, 1.0, num_targets=space)
            assert np.array_equal(run.result, expected)
            traffic[hierarchical] = run.stats.get("xbar.words_to7")
        assert traffic[True] < traffic[False]

    def test_tree_hops_counted(self, rng):
        config = MachineConfig(network=NetworkConfig(nodes=8, link_bw_words=1),
                               cache_combining=True,
                               hierarchical_combining=True)
        system = MultiNodeSystem(config, address_space=256)
        indices = rng.integers(0, 256, size=4096)
        run = system.scatter_add(indices, 1.0, num_targets=256)
        hops = sum(run.stats.get("node%d.nif.tree_hops" % node)
                   for node in range(8))
        assert hops > 0

    @settings(max_examples=8, deadline=None)
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
    def test_property_exact(self, indices):
        expected = scatter_add_reference(np.zeros(64), indices, 1.0)
        config = MachineConfig(network=NetworkConfig(nodes=8, link_bw_words=1),
                               cache_combining=True,
                               hierarchical_combining=True)
        system = MultiNodeSystem(config, address_space=64)
        run = system.scatter_add(indices, 1.0, num_targets=64)
        assert np.array_equal(run.result, expected)
