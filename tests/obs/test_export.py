"""Tests for the Chrome-trace and metrics.json exporters."""

import json

import pytest

from repro.api import Simulation
from repro.obs import (
    METRICS_SCHEMA,
    observe,
    validate_chrome_trace,
    validate_metrics,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.validate import main as validate_main


@pytest.fixture
def traced_run(rng):
    indices = rng.integers(0, 64, size=300)
    sim = Simulation(sample_every=32, trace=True)
    return sim.run("scatter_add", indices, 1.0, num_targets=64)


class TestChromeTrace:
    def test_written_file_is_loadable_schema(self, traced_run, tmp_path):
        path = tmp_path / "out.trace.json"
        traced_run.write_trace(path)
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert events, "trace must not be empty"
        for event in events:
            assert event["ph"] in ("X", "i", "C", "M")
            assert isinstance(event["ts"], (int, float))
            assert "pid" in event
        # At least one phase span, one instant, one counter sample.
        phases = {event["ph"] for event in events}
        assert {"X", "i", "C", "M"} <= phases

    def test_process_and_thread_metadata(self, traced_run, tmp_path):
        path = tmp_path / "out.trace.json"
        payload = write_chrome_trace(path, traced_run.observation)
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta
                 if e["name"] == "thread_name"}
        assert any("sau" in name for name in names)
        assert any(e["name"] == "process_name" for e in meta)

    def test_validator_accepts_bare_event_array(self):
        validate_chrome_trace([{"ph": "i", "ts": 0, "pid": 0, "s": "t"}])

    def test_validator_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([{"ph": "i", "ts": 0}])  # no pid
        with pytest.raises(ValueError):
            validate_chrome_trace([{"ph": "Z", "ts": 0, "pid": 0}])
        with pytest.raises(ValueError):
            validate_chrome_trace({"events": []})  # wrong key
        with pytest.raises(ValueError):
            validate_chrome_trace(
                [{"ph": "X", "ts": 0, "pid": 0}])  # X without dur

    def test_untraced_run_refuses_export(self, tmp_path):
        run = Simulation().run("scatter_add", [1, 2], 1.0, num_targets=4)
        with pytest.raises(ValueError):
            run.write_trace(tmp_path / "nope.json")


class TestFlowEventSchema:
    def _flow(self, ph, rid, ts=0, pid=0):
        return {"ph": ph, "name": "request", "cat": "request", "id": rid,
                "ts": ts, "pid": pid, "tid": 1}

    def test_accepts_matched_flow_chain(self):
        validate_chrome_trace([
            self._flow("s", 1, ts=0),
            self._flow("t", 1, ts=5),
            self._flow("f", 1, ts=9),
        ])

    def test_rejects_flow_event_without_id(self):
        with pytest.raises(ValueError, match="lacks an 'id'"):
            validate_chrome_trace(
                [{"ph": "s", "ts": 0, "pid": 0, "tid": 1}])

    def test_rejects_finish_without_start(self):
        with pytest.raises(ValueError, match="without a matching start"):
            validate_chrome_trace([self._flow("f", 7)])

    def test_rejects_step_without_start(self):
        with pytest.raises(ValueError, match="without a matching start"):
            validate_chrome_trace(
                [self._flow("s", 1), self._flow("f", 1),
                 self._flow("t", 2)])

    def test_rejects_start_without_finish(self):
        with pytest.raises(ValueError, match="without a matching finish"):
            validate_chrome_trace([self._flow("s", 3)])

    def test_rejects_non_monotone_request_spans(self):
        span = {"ph": "X", "name": "fu", "cat": "request", "dur": 1,
                "pid": 0, "tid": 1, "args": {"rid": 4}}
        with pytest.raises(ValueError, match="back in time"):
            validate_chrome_trace([
                dict(span, ts=10), dict(span, ts=3),
            ])

    def test_non_request_spans_need_not_be_ordered(self):
        validate_chrome_trace([
            {"ph": "X", "name": "a", "cat": "phase", "dur": 1,
             "pid": 0, "tid": 0, "ts": 10},
            {"ph": "X", "name": "b", "cat": "phase", "dur": 1,
             "pid": 0, "tid": 0, "ts": 3},
        ])

    def test_request_traced_run_exports_valid_flows(self, rng, tmp_path):
        indices = rng.integers(0, 64, size=300)
        run = Simulation(trace_requests=5).run(
            "scatter_add", indices, 1.0, num_targets=64)
        payload = run.write_trace(tmp_path / "req.trace.json")
        events = validate_chrome_trace(payload)
        phases = {event["ph"] for event in events}
        assert {"s", "t", "f"} <= phases
        spans = [e for e in events
                 if e["ph"] == "X" and e.get("cat") == "request"]
        assert spans, "request spans expected"


class TestMetricsJson:
    def test_schema_and_content(self, traced_run, tmp_path):
        path = tmp_path / "metrics.json"
        payload = traced_run.write_metrics(path)
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == METRICS_SCHEMA
        scope = loaded["scopes"][0]
        assert scope["cycles"] == traced_run.cycles
        assert scope["counters"]["memsys.refs"] == 300
        assert len(scope["bottlenecks"]) >= 4
        ranked = [row["busy_fraction"] for row in scope["bottlenecks"]]
        assert ranked == sorted(ranked, reverse=True)
        assert all(0.0 <= fraction <= 1.0 for fraction in ranked)
        assert scope["timelines"], "sampled run must export timelines"
        assert scope["histograms"], "store occupancy histogram expected"
        validate_metrics(loaded)

    def test_untraced_run_still_exports_metrics(self, tmp_path, rng):
        run = Simulation().run("scatter_add",
                               rng.integers(0, 32, size=100), 1.0,
                               num_targets=32)
        payload = run.write_metrics(tmp_path / "metrics.json")
        validate_metrics(payload)
        assert payload["scopes"][0]["cycles"] == run.cycles

    def test_validator_rejects_bad_payloads(self):
        with pytest.raises(ValueError):
            validate_metrics({"schema": "other/1", "scopes": []})
        with pytest.raises(ValueError):
            validate_metrics({"schema": METRICS_SCHEMA})  # no scopes
        with pytest.raises(ValueError):
            validate_metrics({
                "schema": METRICS_SCHEMA,
                "scopes": [{"counters": {"x": "NaN-ish"}}],
            })
        with pytest.raises(ValueError):
            validate_metrics({
                "schema": METRICS_SCHEMA,
                "scopes": [{
                    "counters": {},
                    "histograms": {"h": {"edges": [1], "counts": [1]}},
                }],
            })


class TestNetworkInvariant:
    """validate_metrics enforces network flow conservation per scope."""

    def _payload(self, injected, delivered, combined):
        return {
            "schema": METRICS_SCHEMA,
            "scopes": [{"counters": {
                "sim.network.injected": injected,
                "sim.network.delivered": delivered,
                "sim.network.combined_in_flight": combined,
            }}],
        }

    def test_conserved_counters_pass(self):
        validate_metrics(self._payload(141, 127, 14))

    def test_violated_conservation_fails(self):
        with pytest.raises(ValueError, match="flow conservation"):
            validate_metrics(self._payload(141, 127, 13))

    def test_scopes_without_network_counters_are_exempt(self):
        validate_metrics({"schema": METRICS_SCHEMA,
                          "scopes": [{"counters": {"sim.cycles": 5}}]})

    def test_real_multinode_run_satisfies_the_invariant(self, rng,
                                                        tmp_path):
        from repro.config import MachineConfig, NetworkConfig

        config = MachineConfig.table1().with_changes(
            network=NetworkConfig(nodes=4, topology="tree", tree_radix=2,
                                  combine_site="both"))
        with observe() as observation:
            Simulation(config).run("scatter_add",
                                   rng.integers(0, 64, size=200), 1.0,
                                   num_targets=64)
        payload = write_metrics(tmp_path / "metrics.json", observation)
        validate_metrics(payload)
        counters = next(
            scope["counters"] for scope in payload["scopes"]
            if "sim.network.injected" in scope["counters"])
        assert counters["sim.network.injected"] == (
            counters["sim.network.delivered"]
            + counters["sim.network.combined_in_flight"])


class TestValidatorCli:
    def test_ok_files(self, traced_run, tmp_path, capsys):
        trace = tmp_path / "out.trace.json"
        metrics = tmp_path / "metrics.json"
        traced_run.write_trace(trace)
        traced_run.write_metrics(metrics)
        assert validate_main([str(trace), str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "(trace)" in out and "(metrics)" in out

    def test_invalid_file_fails(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "i"}]}))
        assert validate_main([str(bad)]) != 0

    def test_non_json_file_is_invalid(self, tmp_path, capsys):
        text = tmp_path / "metrics.prom"
        text.write_text("# TYPE repro_ok_total counter\nrepro_ok_total 1\n")
        assert validate_main([str(text)]) == 1
        assert capsys.readouterr().err.startswith("INVALID " + str(text))


class TestAmbientObservation:
    def test_observe_collects_scopes_from_deep_construction(self, rng):
        from repro.config import MachineConfig
        from repro.workloads.histogram import HistogramWorkload

        workload = HistogramWorkload(length=200, index_range=64, seed=1)
        with observe(sample_every=64, trace=True) as observation:
            workload.run_hardware(MachineConfig.table1())
        assert observation.scopes, "StreamProcessor should auto-attach"
        scope = observation.scopes[0]
        assert scope.cycles > 0
        assert scope.timelines

    def test_no_ambient_session_outside_block(self):
        from repro.obs import session

        with observe(trace=True):
            assert session.active() is not None
        assert session.active() is None
