"""Tests for the multi-node system (correctness and scaling shapes)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import scatter_add_reference
from repro.config import MachineConfig, NetworkConfig
from repro.multinode.system import MultiNodeSystem


def run_system(indices, targets, nodes, bw=8, combining=False, values=1.0):
    config = MachineConfig(
        network=NetworkConfig(nodes=nodes, link_bw_words=bw),
        cache_combining=combining,
    )
    system = MultiNodeSystem(config, address_space=targets)
    return system.scatter_add(np.asarray(indices), values,
                              num_targets=targets)


class TestCorrectness:
    @pytest.mark.parametrize("nodes", [1, 2, 4, 8])
    @pytest.mark.parametrize("bw,combining", [(8, False), (1, False),
                                              (1, True), (8, True)])
    def test_exact_for_all_configurations(self, rng, nodes, bw, combining):
        indices = rng.integers(0, 96, size=2048)
        expected = scatter_add_reference(np.zeros(96), indices, 1.0)
        run = run_system(indices, 96, nodes, bw, combining)
        assert np.array_equal(run.result, expected)

    def test_vector_values(self, rng):
        indices = rng.integers(0, 64, size=512)
        values = rng.standard_normal(512)
        expected = scatter_add_reference(np.zeros(64), indices, values)
        run = run_system(indices, 64, 4, combining=True, values=values)
        assert np.allclose(run.result, expected)

    def test_initial_memory_contents(self, rng):
        config = MachineConfig(network=NetworkConfig(nodes=2),
                               cache_combining=True)
        system = MultiNodeSystem(config, address_space=32)
        initial = rng.standard_normal(32)
        system.load_array(0, initial)
        indices = rng.integers(0, 32, size=256)
        run = system.scatter_add(indices, 1.0, num_targets=32)
        expected = scatter_add_reference(initial, indices, 1.0)
        assert np.allclose(run.result, expected)

    def test_empty_trace(self):
        run = run_system([], 16, 4)
        assert list(run.result) == [0.0] * 16

    def test_single_address_hotspot(self):
        indices = np.zeros(1024, dtype=np.int64)
        run = run_system(indices, 16, 4, combining=True)
        assert run.result[0] == 1024.0

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=300),
           st.sampled_from([2, 4]), st.booleans())
    def test_property_exact(self, indices, nodes, combining):
        expected = scatter_add_reference(np.zeros(64), indices, 1.0)
        run = run_system(indices, 64, nodes, bw=1, combining=combining)
        assert np.array_equal(run.result, expected)


class TestScalingShapes:
    """The qualitative Figure 13 findings, at reduced trace sizes."""

    @pytest.fixture(scope="class")
    def narrow(self):
        rng = np.random.default_rng(0)
        return rng.integers(0, 256, size=8192)

    def test_narrow_high_bandwidth_scales(self, narrow):
        one = run_system(narrow, 256, 1, bw=8)
        eight = run_system(narrow, 256, 8, bw=8)
        assert eight.throughput_gbs > 4 * one.throughput_gbs

    def test_narrow_low_bandwidth_does_not_scale(self, narrow):
        one = run_system(narrow, 256, 1, bw=1)
        eight = run_system(narrow, 256, 8, bw=1)
        assert eight.throughput_gbs < 2 * one.throughput_gbs

    def test_combining_rescues_narrow_low_bandwidth(self, narrow):
        plain = run_system(narrow, 256, 8, bw=1, combining=False)
        combined = run_system(narrow, 256, 8, bw=1, combining=True)
        assert combined.throughput_gbs > 2 * plain.throughput_gbs

    def test_combining_hurts_wide_range(self):
        rng = np.random.default_rng(1)
        wide = rng.integers(0, 1 << 18, size=8192)
        plain = run_system(wide, 1 << 18, 4, bw=1, combining=False)
        combined = run_system(wide, 1 << 18, 4, bw=1, combining=True)
        # "the added overhead ... actually reduce performance"
        assert combined.throughput_gbs < plain.throughput_gbs

    def test_throughput_metric(self, narrow):
        run = run_system(narrow, 256, 2)
        assert run.throughput_gbs == pytest.approx(
            run.refs * 8.0 / run.cycles, rel=1e-9)
        assert run.additions_per_cycle == pytest.approx(
            run.refs / run.cycles, rel=1e-9)


class TestRunSerialization:
    """MultiNodeRun shares ScatterRun's to_dict/save/load contract."""

    def make_run(self):
        rng = np.random.default_rng(2)
        indices = rng.integers(0, 96, size=256)
        return run_system(indices, 96, nodes=4, bw=2)

    def test_round_trips_through_dict(self):
        from repro.multinode.system import MULTI_RUN_SCHEMA, MultiNodeRun

        run = self.make_run()
        data = run.to_dict()
        assert data["schema"] == MULTI_RUN_SCHEMA
        rebuilt = MultiNodeRun.from_dict(data)
        assert rebuilt.to_dict() == data
        assert rebuilt.cycles == run.cycles
        np.testing.assert_array_equal(rebuilt.result, run.result)

    def test_save_load(self, tmp_path):
        from repro.multinode.system import MultiNodeRun

        run = self.make_run()
        path = tmp_path / "run.json"
        run.save(path)
        loaded = MultiNodeRun.load(path)
        assert loaded.to_dict() == run.to_dict()

    def test_from_dict_rejects_other_schemas(self):
        from repro.multinode.system import MultiNodeRun

        with pytest.raises(ValueError):
            MultiNodeRun.from_dict({"schema": "repro.run/1"})

    def test_from_dict_rejects_first_generation_payloads(self):
        from repro.multinode.system import MultiNodeRun

        old = dict(self.make_run().to_dict(), schema="repro.multirun/1")
        with pytest.raises(ValueError, match=r"not a serialized MultiNodeRun "
                                             r"\(schema 'repro.multirun/1'"):
            MultiNodeRun.from_dict(old)

    def test_saved_run_reloads_byte_identically(self, tmp_path):
        from repro.api import ScatterRun
        from repro.multinode.system import MultiNodeRun

        run = self.make_run()
        assert isinstance(run, ScatterRun)
        run.save(tmp_path / "run.json")
        run.write_metrics(tmp_path / "live.json")
        loaded = MultiNodeRun.load(tmp_path / "run.json")
        loaded.save(tmp_path / "again.json")
        loaded.write_metrics(tmp_path / "loaded.json")
        assert loaded.refs == run.refs
        assert loaded.microseconds == run.microseconds
        assert ((tmp_path / "again.json").read_bytes()
                == (tmp_path / "run.json").read_bytes())
        assert ((tmp_path / "loaded.json").read_bytes()
                == (tmp_path / "live.json").read_bytes())

    def test_tree_run_restores_network_gauges(self, tmp_path):
        from repro.api import Simulation
        from repro.multinode.system import MultiNodeRun

        config = MachineConfig(network=NetworkConfig(
            nodes=8, topology="tree", combine_site="both", link_bw_words=1))
        run = Simulation(config).run("scatter_add", [3] * 200 + [77] * 56,
                                     1.0, num_targets=128)
        gauge = "sim.network.table_peak_occupancy"
        assert run.stats.gauge(gauge).value > 0
        run.write_metrics(tmp_path / "live.json")
        loaded = MultiNodeRun.load(run.save(tmp_path / "run.json"))
        assert loaded.stats.gauge(gauge).value == run.stats.gauge(gauge).value
        loaded.write_metrics(tmp_path / "loaded.json")
        assert ((tmp_path / "loaded.json").read_bytes()
                == (tmp_path / "live.json").read_bytes())

    def test_write_metrics_validates(self, tmp_path):
        from repro.obs.export import validate_metrics

        run = self.make_run()
        path = tmp_path / "metrics.json"
        payload = run.write_metrics(path)
        validate_metrics(payload)
        assert path.exists()


class TestSimulationDispatch:
    """Simulation.run serves multi-node configs transparently."""

    def test_returns_multinode_run(self):
        from repro.api import Simulation
        from repro.multinode.system import MultiNodeRun

        rng = np.random.default_rng(4)
        indices = rng.integers(0, 64, size=200)
        run = Simulation({"network": {"nodes": 4, "link_bw_words": 2}}).run(
            "scatter_add", indices, 1.0, num_targets=64)
        assert isinstance(run, MultiNodeRun)
        expected = scatter_add_reference(np.zeros(64), indices, 1.0)
        np.testing.assert_array_equal(run.result, expected)
        assert run.config.network == NetworkConfig(nodes=4,
                                                   link_bw_words=2)

    def test_initial_array_honoured(self):
        from repro.api import Simulation

        initial = np.arange(8, dtype=np.float64)
        run = Simulation({"network": {"nodes": 2}}).run(
            "scatter_add", [0, 1, 1], 1.0, num_targets=8, initial=initial)
        expected = scatter_add_reference(initial.copy(), [0, 1, 1], 1.0)
        np.testing.assert_array_equal(run.result, expected)

    def test_non_add_ops_rejected_multinode(self):
        from repro.api import Simulation

        with pytest.raises(ValueError, match="scatter_add"):
            Simulation({"network": {"nodes": 2}}).run(
                "scatter_min", [0, 1], 1.0, num_targets=4)
