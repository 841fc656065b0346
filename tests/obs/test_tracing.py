"""Tests for sampled per-request span tracing and latency attribution.

The central property: legs *partition* each traced request's lifetime, so
the per-stage attribution sums reconcile with measured end-to-end latency
exactly -- not approximately -- for every configuration (cached, uniform,
multi-node, cache-combining).
"""

import math

import numpy as np
import pytest

from repro.api import Simulation
from repro.config import MachineConfig, NetworkConfig
from repro.harness.report import latency_breakdown, render_latency_breakdown
from repro.multinode.system import MultiNodeSystem
from repro.obs.export import chrome_trace_events, validate_chrome_trace
from repro.obs.session import observe
from repro.obs.tracing import STAGE_KINDS, RequestTrace, RequestTracer
from repro.sim.stats import Stats


def _traced_run(rng, *, every=7, updates=1500, targets=512, op="scatter_add",
                **sim_kwargs):
    indices = rng.integers(0, targets, size=updates)
    sim = Simulation(trace_requests=every, **sim_kwargs)
    return sim.run(op, indices, 1.0, num_targets=targets)


def _tracer_of(run):
    return run.observation.scopes[0].request_tracer


class TestSampling:
    def test_one_in_n_by_issue_order(self, rng):
        run = _traced_run(rng, every=7, updates=1500)
        tracer = _tracer_of(run)
        # Every sampled request retired, so all of them are in the table.
        requests = tracer.breakdown()["requests"]
        assert requests == math.ceil(1500 / 7)
        assert len(tracer.traces) == requests

    def test_every_one_traces_every_request(self, rng):
        run = _traced_run(rng, every=1, updates=200, targets=64)
        assert _tracer_of(run).breakdown()["requests"] == 200

    def test_rejects_non_positive_period(self):
        with pytest.raises(ValueError):
            RequestTracer(0, Stats())

    def test_max_traces_drops_overflow_but_keeps_histograms(self, rng):
        stats = Stats()
        tracer = RequestTracer(1, stats, max_traces=3)
        for rid in range(5):
            trace = tracer.maybe_trace("scatter_add", rid, now=0)
            trace.leg("agu0", "reply", 4)
            trace.finish(4)
        assert len(tracer.traces) == 3
        assert tracer.dropped == 2
        # histograms still see every trace, and the drop is reported
        breakdown = tracer.breakdown()
        assert breakdown["requests"] == 5
        assert breakdown["traces_dropped"] == 2
        assert "2 traces dropped" in render_latency_breakdown(breakdown)


class TestLegPartition:
    def test_spans_tile_lifetime_exactly(self, rng):
        tracer = _tracer_of(_traced_run(rng))
        assert tracer.traces
        for trace in tracer.traces:
            assert trace.spans
            assert trace.spans[0].start == trace.issue_cycle
            assert trace.spans[-1].end == trace.done_cycle
            for earlier, later in zip(trace.spans, trace.spans[1:]):
                assert earlier.end == later.start  # contiguous, gap-free
            total = sum(span.duration for span in trace.spans)
            assert total == trace.latency

    def test_every_stage_is_classified(self, rng):
        tracer = _tracer_of(_traced_run(rng))
        for trace in tracer.traces:
            for span in trace.spans:
                assert span.stage in STAGE_KINDS, span.stage

    def test_cursor_never_goes_backwards(self):
        trace = RequestTrace(0, "scatter_add", 0, issue_cycle=5)
        trace.leg("a", "router.queue", 7)
        trace.leg("b", "fu", 7)  # zero-length leg is legal
        assert [span.duration for span in trace.spans] == [2, 0]


class TestBreakdownReconciliation:
    def test_stage_sums_reconcile_with_end_to_end(self, rng):
        # The acceptance criterion: per-stage cycle sums equal the summed
        # end-to-end latency exactly, with nothing unattributed.
        breakdown = _tracer_of(_traced_run(rng)).breakdown()
        attributed = sum(row["cycles"] for row in breakdown["stages"])
        assert attributed == breakdown["end_to_end"]["cycles"]
        assert breakdown["unattributed_cycles"] == 0.0
        assert (breakdown["queue_cycles"] + breakdown["service_cycles"]
                == attributed)

    def test_rows_have_distribution_fields(self, rng):
        breakdown = _tracer_of(_traced_run(rng)).breakdown()
        assert breakdown["requests"] > 0
        for row in breakdown["stages"]:
            assert row["kind"] in ("queue", "service")
            assert row["count"] > 0
            assert row["p50"] <= row["p90"] <= row["p99"]
            assert 0.0 <= row["share"] <= 1.0
        shares = sum(row["share"] for row in breakdown["stages"])
        assert shares == pytest.approx(1.0)

    def test_reconciles_on_uniform_memory_config(self, rng):
        config = MachineConfig.uniform(latency=64, interval=2)
        run = Simulation(config, trace_requests=5).run(
            "scatter_add", rng.integers(0, 256, size=600), 1.0,
            num_targets=256)
        breakdown = _tracer_of(run).breakdown()
        assert breakdown["requests"] > 0
        assert breakdown["unattributed_cycles"] == 0.0
        stages = {row["stage"] for row in breakdown["stages"]}
        assert "dram.burst" in stages  # uniform memory shares the taxonomy

    def test_reconciles_for_fetch_add_replies(self, rng):
        run = _traced_run(rng, every=3, updates=300, targets=64,
                          op="fetch_add")
        breakdown = _tracer_of(run).breakdown()
        assert breakdown["requests"] == 100
        assert breakdown["unattributed_cycles"] == 0.0


class TestCombiningFanout:
    def test_fanout_accounts_for_every_update(self, rng):
        # Chains are counted for *all* requests (not only sampled ones):
        # the fanout histogram's weighted sum equals the update count.
        run = _traced_run(rng, updates=1500)
        fanout = _tracer_of(run).breakdown()["combine_fanout"]
        assert fanout["sum"] == 1500
        assert fanout["total"] <= 1500  # one entry per retired chain

    def test_hot_address_produces_large_fanout(self):
        run = Simulation(trace_requests=10).run(
            "scatter_add", [5] * 400, 1.0, num_targets=8)
        fanout = _tracer_of(run).breakdown()["combine_fanout"]
        assert fanout["sum"] == 400
        # All updates target one address: far fewer chains than updates.
        assert fanout["total"] < 40


class TestLatencyBreakdownApi:
    def test_scatter_run_latency_breakdown(self, rng):
        run = _traced_run(rng)
        breakdown = run.latency_breakdown()
        assert breakdown == latency_breakdown(_tracer_of(run))

    def test_untraced_run_raises(self, rng):
        run = Simulation().run("scatter_add", [1, 2], 1.0, num_targets=4)
        with pytest.raises(ValueError, match="trace_requests"):
            run.latency_breakdown()

    def test_render_produces_aligned_table(self, rng):
        text = render_latency_breakdown(_traced_run(rng).latency_breakdown())
        lines = text.splitlines()
        assert lines[0].split()[:2] == ["stage", "kind"]
        assert "requests traced" in lines[-1]
        assert "unattributed 0" in lines[-1]

    def test_render_empty_breakdown(self):
        tracer = RequestTracer(4, Stats())
        assert "no completed" in render_latency_breakdown(tracer.breakdown())

    def test_registry_histograms_exported_per_stage(self, rng):
        run = _traced_run(rng)
        snapshot = run.stats.snapshot()["histograms"]
        assert "reqtrace.e2e" in snapshot
        stage_names = [name for name in snapshot
                       if name.startswith("reqtrace.stage.")]
        assert len(stage_names) >= 5
        assert snapshot["reqtrace.e2e"]["p99"] >= snapshot[
            "reqtrace.e2e"]["p50"]


class TestFlowExport:
    def test_flow_events_link_spans_across_three_component_tracks(self, rng):
        # The acceptance criterion: the exported Chrome trace passes the
        # extended validator and links at least one sampled request's
        # spans across >= 3 component tracks via flow events.
        run = _traced_run(rng)
        events = chrome_trace_events(run.observation)
        validate_chrome_trace({"traceEvents": events})
        tids_by_rid = {}
        for event in events:
            if event["ph"] == "X" and event.get("cat") == "request":
                rid = event["args"]["rid"]
                tids_by_rid.setdefault(rid, set()).add(event["tid"])
        flow_ids = {event["id"] for event in events if event["ph"] == "s"}
        linked = [rid for rid, tids in tids_by_rid.items()
                  if len(tids) >= 3 and rid in flow_ids]
        assert linked, "no request linked across >= 3 component tracks"

    def test_flow_chains_are_well_formed(self, rng):
        run = _traced_run(rng)
        events = chrome_trace_events(run.observation)
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert len(starts) == len(finishes) == (
            _tracer_of(run).breakdown()["requests"])
        assert all(e.get("bp") == "e" for e in finishes)


class TestMultiNodeTracing:
    def _run(self, rng, **config_kwargs):
        config = MachineConfig(network=NetworkConfig(nodes=4, link_bw_words=2),
                               **config_kwargs)
        with observe(trace_requests=5) as observation:
            system = MultiNodeSystem(config, address_space=4096)
        indices = rng.integers(0, 4096, size=800)
        run = system.scatter_add(indices, 1.0, num_targets=4096)
        reference = np.zeros(4096)
        np.add.at(reference, indices, 1.0)
        assert np.array_equal(run.result, reference)
        return observation.scopes[0].request_tracer

    def test_network_stages_appear_and_reconcile(self, rng):
        tracer = self._run(rng)
        breakdown = tracer.breakdown()
        assert breakdown["unattributed_cycles"] == 0.0
        stages = {row["stage"] for row in breakdown["stages"]}
        assert {"nif.queue", "xbar.queue", "xbar.hop"} <= stages

    def test_cache_combining_reconciles(self, rng):
        tracer = self._run(rng, cache_combining=True)
        breakdown = tracer.breakdown()
        assert breakdown["requests"] > 0
        assert breakdown["unattributed_cycles"] == 0.0

    def test_multinode_tracing_is_cycle_neutral(self, rng):
        config = MachineConfig(network=NetworkConfig(nodes=2, link_bw_words=2))
        indices = rng.integers(0, 2048, size=400)

        def cycles():
            system = MultiNodeSystem(config, address_space=2048)
            return system.scatter_add(indices, 1.0, num_targets=2048).cycles

        plain = cycles()
        with observe(trace_requests=3) as observation:
            traced = cycles()
        assert observation.scopes[0].request_tracer.traces
        assert plain == traced


class TestUnitTracing:
    """The Figure 5 flow of one scatter-add unit, read off request spans."""

    def test_unit_flow_in_request_spans(self):
        # Four updates to one address: the first activates it and reads
        # memory (its trace carries the memory legs); the other three
        # combine in the store and never reach memory.  Every update is
        # retired by exactly one FU addition.
        run = Simulation(MachineConfig.uniform(), trace_requests=1).run(
            "scatter_add", [5] * 4, 1.0, num_targets=8)
        traces = _tracer_of(run).traces
        assert len(traces) == 4
        with_memory = [trace for trace in traces
                       if any(span.stage.startswith("dram.")
                              for span in trace.spans)]
        assert len(with_memory) == 1
        for trace in traces:
            assert [span.stage for span in trace.spans].count("fu") == 1
            assert trace.addr == 5
        assert run.result[5] == 4.0

    def test_tracing_does_not_change_results(self):
        indices = [i % 3 for i in range(30)]
        plain = Simulation(MachineConfig.uniform()).run(
            "scatter_add", indices, 1.0, num_targets=3)
        traced = Simulation(MachineConfig.uniform(), trace_requests=1).run(
            "scatter_add", indices, 1.0, num_targets=3)
        assert np.array_equal(traced.result, plain.result)
        assert traced.cycles == plain.cycles
