"""Tests for the machine configuration (Table 1)."""

import dataclasses

import pytest

from repro.config import WORD_BYTES, MachineConfig, NetworkConfig


class TestTable1Defaults:
    def test_paper_values(self):
        config = MachineConfig.table1()
        assert config.cache_banks == 8
        assert config.scatter_add_units_per_bank == 1
        assert config.fu_latency == 4
        assert config.combining_store_entries == 8
        assert config.dram_channels == 16
        assert config.address_generators == 2
        assert config.frequency_ghz == 1.0
        assert config.peak_dram_bw_gbs == 38.4
        assert config.cache_bw_gbs == 64.0
        assert config.clusters == 16
        assert config.peak_flops_per_cycle == 128
        assert config.srf_bw_gbs == 512.0
        assert config.srf_size_bytes == 1 << 20
        assert config.cache_size_bytes == 1 << 20

    def test_derived_bandwidths(self):
        config = MachineConfig.table1()
        assert config.cache_words_per_cycle == 8  # 64 GB/s at 8B words
        assert config.srf_words_per_cycle == 64  # 512 GB/s
        assert config.dram_words_per_cycle == pytest.approx(4.8)
        assert config.bank_words_per_cycle == 1
        assert config.agu_words_per_cycle == 4

    def test_cache_geometry(self):
        config = MachineConfig.table1()
        lines = config.cache_size_bytes // (config.cache_line_words
                                            * WORD_BYTES)
        assert config.cache_lines_total == lines
        assert (config.cache_sets_per_bank * config.cache_associativity
                * config.cache_banks == lines)

    def test_cycle_conversion(self):
        config = MachineConfig.table1()
        assert config.cycles_to_us(1000) == pytest.approx(1.0)


class TestValidation:
    def test_non_power_of_two_banks_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(cache_banks=6)

    def test_bad_memory_model_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(memory_model="magic")

    @pytest.mark.parametrize("field,value", [
        ("cache_banks", 0),
        ("fu_latency", 0),
        ("combining_store_entries", 0),
        ("dram_channels", 0),
        ("address_generators", 0),
        ("uniform_interval", 0),
        ("nodes", 0),
        ("link_bw_words", 0),
    ])
    def test_positive_fields_enforced(self, field, value):
        if field in ("nodes", "link_bw_words"):
            kwargs = {"network": {field: value}}
        else:
            kwargs = {field: value}
        with pytest.raises(ValueError):
            MachineConfig(**kwargs)

    def test_frozen(self):
        config = MachineConfig.table1()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.cache_banks = 4

    def test_with_changes_revalidates(self):
        config = MachineConfig.table1()
        changed = config.with_changes(fu_latency=8)
        assert changed.fu_latency == 8
        assert config.fu_latency == 4
        with pytest.raises(ValueError):
            config.with_changes(fu_latency=0)


class TestPresets:
    def test_uniform_preset(self):
        config = MachineConfig.uniform(latency=64, interval=4,
                                       combining_store_entries=16)
        assert config.memory_model == "uniform"
        assert config.uniform_latency == 64
        assert config.uniform_interval == 4
        assert config.combining_store_entries == 16


class TestSerialization:
    """to_dict / from_dict."""

    def test_to_dict_covers_every_field_sorted(self):
        config = MachineConfig.table1()
        data = config.to_dict()
        names = [field.name for field in dataclasses.fields(MachineConfig)]
        assert list(data) == sorted(names)
        assert data["network"] == NetworkConfig().to_dict()
        assert all(data[name] == getattr(config, name) for name in data
                   if name != "network")

    def test_to_dict_nests_network_when_set(self):
        config = MachineConfig(network=NetworkConfig(nodes=8,
                                                     topology="tree"))
        data = config.to_dict()
        names = [field.name for field in dataclasses.fields(MachineConfig)]
        assert list(data) == sorted(names)
        assert data["network"] == config.network.to_dict()
        assert data["network"]["nodes"] == 8

    def test_from_dict_round_trips(self):
        config = MachineConfig.uniform(latency=64, interval=4)
        assert MachineConfig.from_dict(config.to_dict()) == config

    def test_from_dict_fills_missing_fields_with_defaults(self):
        config = MachineConfig.from_dict({"fu_latency": 8})
        assert config.fu_latency == 8
        assert config.cache_banks == MachineConfig().cache_banks

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="no_such_field"):
            MachineConfig.from_dict({"no_such_field": 1})

    def test_from_dict_revalidates(self):
        with pytest.raises(ValueError):
            MachineConfig.from_dict({"fu_latency": 0})

    def test_hash_ignores_construction_spelling(self):
        # Frozen configs are hashable: every spelling is one set member.
        via_kwargs = MachineConfig(memory_model="uniform",
                                   uniform_latency=100)
        via_dict = MachineConfig.from_dict(via_kwargs.to_dict())
        via_changes = MachineConfig.uniform().with_changes(
            uniform_latency=100)
        assert via_kwargs == via_dict == via_changes
        assert len({via_kwargs, via_dict, via_changes}) == 1


class TestNetworkConfig:
    """The structured interconnect description and its MachineConfig nest."""

    def test_defaults_are_the_degenerate_crossbar(self):
        net = NetworkConfig()
        assert net.nodes == 1
        assert net.topology == "crossbar"
        assert net.combine_site == "memory"
        assert not net.network_combining
        assert net.memory_combining

    @pytest.mark.parametrize("kwargs", [
        {"nodes": 0},
        {"topology": "mesh"},
        {"tree_radix": 1},
        {"combine_site": "everywhere"},
        {"combining_table_entries": 0},
        {"link_bw_words": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            NetworkConfig(**kwargs)

    def test_round_trip_and_unknown_keys(self):
        net = NetworkConfig(nodes=16, topology="tree", tree_radix=8,
                            combine_site="both", link_bw_words=1)
        assert NetworkConfig.from_dict(net.to_dict()) == net
        with pytest.raises(ValueError, match="no_such_field"):
            NetworkConfig.from_dict({"no_such_field": 1})

    def test_machine_config_accepts_plain_dict(self):
        config = MachineConfig(network={"nodes": 4, "topology": "tree"})
        assert config.network == NetworkConfig(nodes=4, topology="tree")
        assert config.nodes == 4

    def test_scalars_mirror_network(self):
        # `nodes` is a read-only view of the network, not a field.
        net = NetworkConfig(nodes=64, link_bw_words=1)
        config = MachineConfig(network=net)
        assert config.nodes == 64
        assert config.network is net
        assert "nodes" not in config.to_dict()
        with pytest.raises(AttributeError):
            config.nodes = 2

    def test_conflicting_scalars_rejected(self):
        # The network has one spelling: scalar node counts are not
        # accepted beside (or instead of) `network`.
        with pytest.raises(TypeError):
            MachineConfig(nodes=2, network=NetworkConfig(nodes=4))
        with pytest.raises(TypeError):
            MachineConfig.table1().with_changes(nodes=2)

    def test_old_nodes_key_rejected_by_name(self):
        with pytest.raises(ValueError, match="unknown MachineConfig "
                                             "field.*nodes"):
            MachineConfig.from_dict({"nodes": 4})

    def test_hash_stable_for_configs_without_network(self):
        # One machine, one hash: leaving the network out, spelling the
        # default out, and loading an empty dict all build Table 1.
        configs = [MachineConfig(), MachineConfig(network=NetworkConfig()),
                   MachineConfig(network={}), MachineConfig.from_dict({})]
        assert all(config == configs[0] for config in configs)
        assert len(set(configs)) == 1
        structured = MachineConfig(
            network=NetworkConfig(nodes=4, link_bw_words=1))
        assert structured != configs[0]

    def test_round_trip_with_network(self):
        config = MachineConfig(
            cache_combining=True,
            network=NetworkConfig(nodes=8, topology="tree",
                                  combine_site="network"))
        rebuilt = MachineConfig.from_dict(config.to_dict())
        assert rebuilt == config
