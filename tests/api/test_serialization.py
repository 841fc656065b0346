"""Serializable Simulation API: run round-trips and dict configs.

Pins the serialization contracts: a serialized
:class:`ScatterRun` round-trips exactly, reloaded and live runs emit
byte-identical ``metrics.json``, and :class:`Simulation` accepts plain
dict configs.
"""

import json

import numpy as np
import pytest

from repro.api import RUN_SCHEMA, ScatterRun, Simulation
from repro.config import MachineConfig, NetworkConfig


@pytest.fixture
def run():
    sim = Simulation(MachineConfig.uniform())
    return sim.run("scatter_add", [1, 2, 2, 3, 7], 2.5, num_targets=8)


@pytest.fixture
def observed_run():
    sim = Simulation(MachineConfig.uniform(), sample_every=16,
                     trace_requests=1)
    return sim.run("scatter_add", list(range(32)), 1.0, num_targets=32)


class TestRunRoundTrip:
    def test_to_dict_is_json_serializable(self, run):
        data = run.to_dict()
        assert data["schema"] == RUN_SCHEMA
        restored = json.loads(json.dumps(data))
        assert restored == data

    def test_from_dict_restores_everything(self, run):
        data = run.to_dict()
        rebuilt = ScatterRun.from_dict(data)
        assert np.array_equal(rebuilt.result, run.result)
        assert rebuilt.cycles == run.cycles
        assert rebuilt.microseconds == run.microseconds
        assert rebuilt.mem_refs == run.mem_refs
        assert rebuilt.config == run.config
        assert rebuilt.stats.as_dict() == run.stats.as_dict()
        assert rebuilt.stats.snapshot() == run.stats.snapshot()

    def test_round_trip_is_exact(self, run):
        """to_dict(from_dict(d)) == d, byte for byte."""
        data = run.to_dict()
        again = ScatterRun.from_dict(data).to_dict()
        assert json.dumps(again, sort_keys=True) == json.dumps(
            data, sort_keys=True)

    def test_save_load_round_trip(self, run, tmp_path):
        path = run.save(tmp_path / "run.json")
        loaded = ScatterRun.load(path)
        assert loaded.to_dict() == run.to_dict()
        assert np.array_equal(loaded.result, run.result)

    def test_observed_run_carries_timelines_and_breakdown(self,
                                                          observed_run):
        data = observed_run.to_dict()
        assert data["timelines"]
        assert data["latency_breakdown"]
        rebuilt = ScatterRun.from_dict(data)
        # The attribution table captured at serialization time survives.
        assert rebuilt.latency_breakdown() == \
            observed_run.latency_breakdown()
        assert rebuilt.to_dict() == data

    def test_from_dict_rejects_foreign_payloads(self):
        with pytest.raises(ValueError, match="schema"):
            ScatterRun.from_dict({"schema": "repro.run/999"})
        with pytest.raises(ValueError, match="schema"):
            ScatterRun.from_dict([1, 2, 3])

    def test_from_dict_rejects_first_generation_payloads(self, run):
        old = dict(run.to_dict(), schema="repro.run/1")
        with pytest.raises(ValueError, match=r"not a serialized ScatterRun "
                                             r"\(schema 'repro.run/1'"):
            ScatterRun.from_dict(old)

    def test_gauges_and_histograms_restore_into_stats(self, observed_run):
        rebuilt = ScatterRun.from_dict(observed_run.to_dict())
        histograms = observed_run.stats.snapshot()["histograms"]
        assert histograms
        for name, data in histograms.items():
            restored = rebuilt.stats.histogram(name)
            assert restored.counts == data["counts"]
            assert restored.percentile(90) == data["p90"]

    def test_untraced_run_still_refuses_breakdown(self, run):
        rebuilt = ScatterRun.from_dict(run.to_dict())
        with pytest.raises(ValueError, match="trace_requests"):
            rebuilt.latency_breakdown()


class TestMetricsIdentity:
    def test_loaded_run_emits_identical_metrics(self, run, tmp_path):
        """A reloaded run writes the same metrics.json the live one did."""
        live = tmp_path / "live.json"
        cached = tmp_path / "cached.json"
        run.write_metrics(live)
        ScatterRun.from_dict(run.to_dict()).write_metrics(cached)
        assert live.read_bytes() == cached.read_bytes()

    def test_loaded_observed_run_emits_identical_metrics(self, tmp_path):
        """The saved observation settings reach the reloaded metrics.json.

        A Fig. 8 histogram (Table 1 machine, uniform random indices)
        sampled, traced and request-traced: the reloaded run must write
        the live run's label, ``sample_every`` and ``trace_requests``.
        """
        indices = np.random.default_rng(8).integers(0, 512, size=1500)
        sim = Simulation(MachineConfig.table1(), sample_every=64,
                         trace=True, trace_requests=7)
        live_run = sim.run("scatter_add", indices, 1.0, num_targets=512)
        live_run.write_metrics(tmp_path / "live.json")
        loaded = ScatterRun.load(live_run.save(tmp_path / "run.json"))
        loaded.write_metrics(tmp_path / "loaded.json")
        assert ((tmp_path / "loaded.json").read_bytes()
                == (tmp_path / "live.json").read_bytes())

    def test_metrics_payload_has_run_scope(self, run, tmp_path):
        run.write_metrics(tmp_path / "metrics.json")
        payload = json.loads((tmp_path / "metrics.json").read_text())
        scopes = {scope["label"]: scope for scope in payload["scopes"]}
        assert scopes["run"]["cycles"] == run.cycles
        assert scopes["run"]["counters"] == run.stats.as_dict()
        assert scopes["run"]["bottlenecks"]

    @pytest.mark.parametrize("observe", [
        dict(sample_every=64, trace=True, trace_requests=7),
        dict(trace_requests=3),
    ], ids=["sampled-traced", "request-traced"])
    @pytest.mark.parametrize("config", [
        MachineConfig.table1(),
        MachineConfig(network=NetworkConfig(nodes=8, topology="tree",
                                            tree_radix=4,
                                            combine_site="both")),
        MachineConfig.uniform(),
    ], ids=["table1", "tree8-both", "uniform"])
    def test_run_and_observation_write_identical_metrics(
            self, config, observe, tmp_path):
        """The run's serialized form and its observation agree on bytes."""
        from repro.obs.export import write_metrics

        indices = np.random.default_rng(5).integers(0, 256, size=600)
        run = Simulation(config, **observe).run("scatter_add", indices, 1.0,
                                                num_targets=256)
        write_metrics(tmp_path / "observation.json", run.observation)
        run.write_metrics(tmp_path / "run.json")
        assert ((tmp_path / "observation.json").read_bytes()
                == (tmp_path / "run.json").read_bytes())


class TestSimulationConfigForms:
    def test_dict_config_equals_object_config(self):
        config = MachineConfig.uniform(latency=64)
        from_object = Simulation(config).run("scatter_add", [0, 1, 1],
                                             1.0, num_targets=2)
        from_dict = Simulation(config.to_dict()).run("scatter_add",
                                                     [0, 1, 1], 1.0,
                                                     num_targets=2)
        assert from_dict.cycles == from_object.cycles
        assert np.array_equal(from_dict.result, from_object.result)

    def test_bad_dict_config_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            Simulation({"no_such_field": 1})
