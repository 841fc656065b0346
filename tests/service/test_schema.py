"""Content-hash stability of configs and determinism of run payloads.

A saved result is only reusable if every spelling of the same machine
hashes alike (:meth:`MachineConfig.canonical_hash`) and anything that
changes the machine hashes differently, and if the same work always
serializes to the same payload.  These tests pin both directions.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.api import RUN_SCHEMA, ScatterRun, Simulation
from repro.config import CONFIG_SCHEMA, MachineConfig, NetworkConfig
from repro.multinode.system import MULTI_RUN_SCHEMA, MultiNodeRun


def key_of(config):
    return config.canonical_hash()


#: Fields of the nested interconnect description; changing any of them
#: changes the machine just as a top-level field does.
NETWORK_FIELDS = [field.name for field in dataclasses.fields(NetworkConfig)]


class TestKeyStability:
    def test_same_work_same_key(self):
        assert key_of(MachineConfig.uniform()) == key_of(
            MachineConfig.uniform())

    def test_config_spelling_is_irrelevant(self):
        """kwargs, dict and with_changes() spellings hash identically."""
        via_kwargs = MachineConfig(memory_model="uniform",
                                   uniform_latency=32, uniform_interval=1)
        via_dict = MachineConfig.from_dict(via_kwargs.to_dict())
        via_changes = MachineConfig.uniform().with_changes(
            uniform_latency=32, uniform_interval=1)
        keys = {key_of(config)
                for config in (via_kwargs, via_dict, via_changes)}
        assert len(keys) == 1

    def test_defaults_expand_to_explicit_values(self):
        """Omitted fields hash the same as spelling the default out."""
        implicit = MachineConfig.from_dict({"uniform_latency": 32})
        explicit = MachineConfig.from_dict(dict(
            MachineConfig.table1().to_dict(), uniform_latency=32))
        assert key_of(implicit) == key_of(explicit)

    def test_default_sim_section_matches_table1(self):
        assert key_of(MachineConfig()) == key_of(MachineConfig.table1())
        assert key_of(MachineConfig.from_dict({})) == key_of(
            MachineConfig.table1())
        assert key_of(MachineConfig(network=NetworkConfig())) == key_of(
            MachineConfig.table1())

    @pytest.mark.parametrize("field", [
        field.name for field in dataclasses.fields(MachineConfig)
    ] + NETWORK_FIELDS)
    def test_any_semantic_config_change_changes_key(self, field):
        base = MachineConfig.table1()
        if field in NETWORK_FIELDS:
            alternates = {"topology": "tree", "combine_site": "both"}
            value = alternates.get(field)
            if value is None:
                value = getattr(base.network, field) + 1
            network = base.network.with_changes(**{field: value})
            assert key_of(base.with_changes(network=network)) != key_of(base)
            return
        value = getattr(base, field)
        # Valid alternates for fields whose validation constrains them.
        alternates = {
            "memory_model": {"memory_model": "uniform"},
            "dram_model": {"dram_model": "rowbuffer"},
            "dram_scheduling": {"dram_scheduling": "inorder"},
            "cache_banks": {"cache_banks": base.cache_banks * 2},
            "hierarchical_combining": {"hierarchical_combining": True,
                                       "cache_combining": True},
            "network": {"network": {"nodes": 2}},
        }
        if field in alternates:
            override = alternates[field]
        elif isinstance(value, bool):
            override = {field: not value}
        else:
            override = {field: value + 1}
        assert key_of(base.with_changes(**override)) != key_of(base)

    def test_key_is_version_tagged_sha256(self):
        config = MachineConfig.uniform()
        key = key_of(config)
        assert len(key) == 64
        assert CONFIG_SCHEMA == "repro.config/2"
        payload = json.dumps({"schema": CONFIG_SCHEMA,
                              "config": config.to_dict()},
                             sort_keys=True, separators=(",", ":"))
        assert key == hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TestExecuteJob:
    def test_matches_direct_simulation(self):
        """Same work, same payload; a reloaded payload is the same run."""
        def simulate():
            return Simulation(MachineConfig.uniform()).run(
                "scatter_add", [1, 2, 2, 3], 1.0, num_targets=5)

        payload = simulate().to_dict()
        assert payload["schema"] == RUN_SCHEMA
        assert payload == simulate().to_dict()
        assert ScatterRun.from_dict(payload).to_dict() == payload
        assert payload["result"] == [0.0, 1.0, 2.0, 1.0, 0.0]

    def test_multinode_job_served_end_to_end(self):
        # A nested network config rides through the config hash and the
        # payload: the run is a MultiNodeRun with its sim.network.*
        # counters intact after a round trip.
        indices = [1] * 40 + list(range(24))
        config = MachineConfig.from_dict({"network": {
            "nodes": 4, "topology": "tree", "combine_site": "both",
            "link_bw_words": 1}})
        run = Simulation(config).run("scatter_add", indices,
                                     num_targets=32)
        payload = run.to_dict()
        assert payload["schema"] == MULTI_RUN_SCHEMA
        assert payload["stats"]["sim.network.combined_in_flight"] > 0
        assert sum(payload["result"]) == len(indices)
        rebuilt = MultiNodeRun.from_dict(json.loads(json.dumps(payload)))
        assert rebuilt.to_dict() == payload
        assert key_of(rebuilt.config) == key_of(config)
