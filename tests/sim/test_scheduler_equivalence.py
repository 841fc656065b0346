"""Golden equivalence: every scheduler matches legacy bit-exactly.

The event scheduler may only *skip* ticks that are provably no-ops and
only collapse windows whose end state it computes analytically -- so
every workload must produce bit-identical final cycle counts,
statistics (modulo the ``engine.*`` observability counters), metrics
payloads, latency breakdowns and numerical results under legacy, event
and the event scheduler's stepping loop alone (window collapse switched
off, so declined windows stay pinned to legacy).  These tests run real
workloads through each and diff everything.
"""

import random

import numpy as np
import pytest

from repro.api import Simulation, scatter_add_reference
from repro.config import MachineConfig, NetworkConfig
from repro.multinode.system import MultiNodeSystem
from repro.sim.engine import SCHEDULERS, _stepping, use_scheduler

#: Counter/gauge/histogram prefix that legitimately differs between
#: schedulers: it describes the engine's own work, not the machine's.
ENGINE_PREFIX = "engine."


def _strip_engine(stats):
    return {key: value for key, value in stats.as_dict().items()
            if not key.startswith(ENGINE_PREFIX)}


def _strip_metrics(payload):
    """Drop engine-internal entries from a metrics.json payload."""
    for scope in payload.get("scopes", []):
        for family in ("counters", "gauges", "histograms"):
            scope[family] = {
                key: value for key, value in scope.get(family, {}).items()
                if not key.startswith(ENGINE_PREFIX)
            }
    return payload


#: The engines diffed against legacy; "stepping" is event without window
#: collapse.
ENGINES = ("event", "stepping")


def _run_all(fn):
    """Run `fn` under legacy and every engine; returns {engine: result}."""
    runs = {}
    for engine in ("legacy",) + ENGINES:
        with (_stepping() if engine == "stepping"
              else use_scheduler(engine)):
            runs[engine] = fn()
    return runs


def _assert_equivalent(runs):
    cycles_ref, stats_ref, result_ref = runs["legacy"]
    for scheduler in ENGINES:
        cycles, stats, result = runs[scheduler]
        assert cycles == cycles_ref, scheduler
        assert stats == stats_ref, scheduler
        np.testing.assert_array_equal(np.asarray(result),
                                      np.asarray(result_ref))


class TestSingleNode:
    def test_histogram(self):
        rng = random.Random(42)
        indices = [rng.randrange(512) for _ in range(3000)]
        values = [rng.random() for _ in range(3000)]

        def run():
            run_ = Simulation().run("scatter_add", indices, values,
                                    num_targets=512)
            return run_.cycles, _strip_engine(run_.stats), run_.result

        runs = _run_all(run)
        _assert_equivalent(runs)
        expected = scatter_add_reference(np.zeros(512), indices, values)
        np.testing.assert_allclose(np.asarray(runs["event"][2]),
                                   expected, atol=1e-9)

    def test_hot_bank_single_address(self):
        # Maximal combining pressure: every update hits one address, so
        # the stall/chaining paths (interval accounting) are exercised.
        def run():
            run_ = Simulation().run("scatter_add", [7] * 2000, 1.0,
                                    num_targets=16)
            return run_.cycles, _strip_engine(run_.stats), run_.result

        _assert_equivalent(_run_all(run))

    def test_spmv_ebe_hardware(self):
        from repro.workloads.fem import build_tet_mesh
        from repro.workloads.spmv import SpMVWorkload

        workload = SpMVWorkload(build_tet_mesh(3, 3, 2, seed=0), seed=0)
        config = MachineConfig.table1()

        def run():
            result = workload.run_ebe_hardware(config)
            return result.cycles, _strip_engine(result.stats), result.y

        _assert_equivalent(_run_all(run))

    def test_spmv_csr(self):
        from repro.workloads.fem import build_tet_mesh
        from repro.workloads.spmv import SpMVWorkload

        workload = SpMVWorkload(build_tet_mesh(3, 3, 2, seed=0), seed=0)
        config = MachineConfig.table1()

        def run():
            result = workload.run_csr(config)
            return result.cycles, _strip_engine(result.stats), result.y

        _assert_equivalent(_run_all(run))

    def test_molecular_dynamics(self):
        from repro.workloads.md import MDWorkload

        workload = MDWorkload(molecules=48, seed=1)
        config = MachineConfig.table1()

        def run():
            result = workload.run_hardware(config)
            return (result.cycles, _strip_engine(result.stats),
                    result.forces)

        _assert_equivalent(_run_all(run))

    def test_uniform_memory_latency_sensitivity(self):
        # The Figure 11 configuration: long fixed latency over a huge
        # index range -- the event scheduler's best case, where whole
        # phases collapse analytically, so divergence would show here.
        rng = random.Random(5)
        indices = [rng.randrange(65536) for _ in range(512)]
        config = MachineConfig.uniform(latency=256, interval=2)

        def run():
            run_ = Simulation(config).run("scatter_add", indices, 1.0,
                                          num_targets=65536)
            return run_.cycles, _strip_engine(run_.stats), run_.result

        _assert_equivalent(_run_all(run))

    @pytest.mark.parametrize("op", ["scatter_min", "scatter_max",
                                    "scatter_mul", "fetch_add"])
    def test_non_add_operations(self, op):
        # Every combining algebra, not just addition, must agree.
        rng = np.random.default_rng(11)
        indices = rng.integers(0, 64, size=600)
        values = rng.normal(size=600)
        initial = rng.normal(size=64)

        def run():
            run_ = Simulation(MachineConfig.table1()).run(
                op, indices, values, num_targets=64, initial=initial)
            return run_.cycles, _strip_engine(run_.stats), run_.result

        _assert_equivalent(_run_all(run))


class TestMultiNode:
    @pytest.mark.parametrize("combining,hierarchical", [
        (False, False),
        (True, False),
        (True, True),
    ], ids=["base", "cache-combining", "hierarchical"])
    def test_four_nodes(self, combining, hierarchical):
        rng = random.Random(3)
        indices = [rng.randrange(256) for _ in range(1200)]
        values = [rng.random() for _ in range(1200)]

        def run():
            config = MachineConfig.table1().with_changes(
                network=NetworkConfig(nodes=4),
                cache_combining=combining,
                hierarchical_combining=hierarchical,
            )
            system = MultiNodeSystem(config, 256)
            outcome = system.scatter_add(indices, values)
            return (outcome.cycles, _strip_engine(system.stats),
                    outcome.result)

        _assert_equivalent(_run_all(run))


class TestObservabilityEquivalence:
    """metrics.json and latency breakdowns are engine-independent."""

    # sample_every=0 matters: without live probes the event engine
    # collapses uniform windows instead of stepping them, so that
    # variant diffs the collapse itself.
    @pytest.mark.parametrize("sample_every", [0, 64])
    @pytest.mark.parametrize("config_name", ["table1", "uniform"])
    def test_metrics_payload_identical(self, config_name, sample_every):
        from repro.obs.export import metrics_payload

        rng = random.Random(9)
        if config_name == "table1":
            config = MachineConfig.table1()
            indices = [rng.randrange(2048) for _ in range(1500)]
            targets = 2048
        else:
            config = MachineConfig.uniform(latency=256, interval=2)
            indices = [rng.randrange(65536) for _ in range(384)]
            targets = 65536

        def run():
            sim = Simulation(config, sample_every=sample_every,
                             trace_requests=16)
            run_ = sim.run("scatter_add", indices, 1.0, num_targets=targets)
            payload = _strip_metrics(metrics_payload(run_.observation))
            return payload, run_.latency_breakdown()

        runs = _run_all(run)
        payload_ref, breakdown_ref = runs["legacy"]
        for scheduler in ENGINES:
            payload, breakdown = runs[scheduler]
            assert payload == payload_ref, scheduler
            assert breakdown == breakdown_ref, scheduler


class TestEngineCounters:
    def test_event_run_records_skips(self):
        # The stepping loop alone: window collapse would jump the whole
        # phase without stepping or skipping any tick.
        rng = random.Random(5)
        indices = [rng.randrange(65536) for _ in range(256)]
        config = MachineConfig.uniform(latency=256, interval=2)
        with _stepping():
            run_ = Simulation(config).run("scatter_add", indices, 1.0,
                                          num_targets=65536)
        stats = run_.stats.as_dict()
        assert stats["engine.scheduler_event"] == 1
        assert stats["engine.windows_collapsed"] == 0
        assert stats["engine.ticks_skipped"] > 0
        # Long fixed-latency gaps must actually be jumped over: most of
        # the simulated time should be fast-forwarded, not executed.
        assert stats["engine.cycles_fast_forwarded"] > 0
        assert stats["engine.cycles_executed"] < run_.cycles

    def test_legacy_run_skips_nothing(self):
        with use_scheduler("legacy"):
            run_ = Simulation().run("scatter_add", [1, 2, 3], 1.0,
                                    num_targets=8)
        stats = run_.stats.as_dict()
        assert stats["engine.scheduler_event"] == 0
        assert stats["engine.ticks_skipped"] == 0
        assert stats["engine.cycles_fast_forwarded"] == 0

    def test_event_run_collapses_windows(self):
        rng = random.Random(5)
        indices = [rng.randrange(65536) for _ in range(256)]
        config = MachineConfig.uniform(latency=256, interval=2)
        with use_scheduler("event"):
            run_ = Simulation(config).run("scatter_add", indices, 1.0,
                                          num_targets=65536)
        stats = run_.stats.as_dict()
        assert stats["engine.scheduler_event"] == 1
        # The whole phase is one uniform window: it must have been
        # collapsed analytically, with every cycle fast-forwarded and
        # none stepped.
        assert stats["engine.windows_collapsed"] == 1
        assert stats["engine.cycles_fast_forwarded"] > 0
        assert stats["engine.cycles_executed"] == 0
        assert stats["engine.ticks_executed"] == 0
        # Without collapse the same phase is stepped tick by tick.
        with _stepping():
            stepped = Simulation(config).run("scatter_add", indices, 1.0,
                                             num_targets=65536)
        assert stepped.cycles == run_.cycles
        assert stepped.stats.as_dict()["engine.ticks_executed"] > 0

    def test_event_declines_under_observation(self):
        # Live probes read intermediate state at exact cycles, so the
        # uniformity predicate must refuse the window and fall back to
        # stepping it on the event loop.
        rng = random.Random(5)
        indices = [rng.randrange(65536) for _ in range(256)]
        config = MachineConfig.uniform(latency=256, interval=2)
        with use_scheduler("event"):
            sim = Simulation(config, sample_every=64)
            run_ = sim.run("scatter_add", indices, 1.0, num_targets=65536)
        stats = run_.stats.as_dict()
        assert stats["engine.scheduler_event"] == 1
        assert stats["engine.windows_collapsed"] == 0
        assert stats["engine.cycles_executed"] > 0

    @pytest.mark.parametrize("nodes", [1, 4], ids=["cached", "multinode"])
    def test_event_declines_cached(self, nodes):
        # Cached runs never collapse, so they step start to finish on the
        # event loop.
        rng = random.Random(7)
        indices = [rng.randrange(256) for _ in range(600)]
        config = MachineConfig(network=NetworkConfig(nodes=nodes))
        with use_scheduler("event"):
            run_ = Simulation(config).run("scatter_add", indices, 1.0,
                                          num_targets=256)
        stats = run_.stats.as_dict()
        assert stats["engine.scheduler_event"] == 1
        assert stats["engine.windows_collapsed"] == 0
        assert stats["engine.cycles_executed"] > 0

    def test_schedulers_registry_is_closed(self):
        assert set(SCHEDULERS) == {"legacy", "event", "columnar",
                                   "fastforward"}


class TestMaxPlusKernels:
    """Edge cases of the closed-form (max,+) kernels."""

    def test_zero_length_window(self):
        from repro.sim.fastforward import maxplus_scan

        empty = maxplus_scan([], 3)
        assert empty.size == 0

    def test_scan_matches_scalar_fold(self):
        from repro.sim.fastforward import maxplus_scan

        rng = random.Random(23)
        for init in (None, 0, 17):
            for gap in (1, 2, 7):
                releases = sorted(rng.randrange(200) for _ in range(64))
                expected = []
                prev = None if init is None else init
                for release in releases:
                    start = release
                    if prev is not None and prev + gap > start:
                        start = prev + gap
                    expected.append(start)
                    prev = start
                got = maxplus_scan(releases, gap, init=init)
                assert got.tolist() == expected

    def test_single_request_burst(self):
        from repro.sim.fastforward import maxplus_scan

        assert maxplus_scan([42], 3).tolist() == [42]
        assert maxplus_scan([42], 3, init=41).tolist() == [44]

    @pytest.mark.parametrize("first_is_miss", [True, False],
                             ids=["row-transition", "row-open"])
    def test_open_row_burst_matches_stepped_dram(self, first_is_miss):
        # The closed-form FR-FCFS burst must be bit-identical to
        # stepping the live DRAM model over the same single-channel,
        # same-row traffic -- including the row-transition boundary,
        # where the first access pays the miss latency and the extra
        # channel occupancy.
        from repro.memory.backing import MainMemory
        from repro.memory.dram import DRAMSystem
        from repro.memory.request import OP_WRITE, MemoryRequest
        from repro.sim.engine import Component, Simulator
        from repro.sim.stats import Stats

        config = MachineConfig.table1().with_changes(
            dram_channels=1, dram_model="rowbuffer",
            dram_scheduling="frfcfs")
        sim = Simulator(scheduler="legacy")
        stats = Stats()
        dram = DRAMSystem(sim, config, MainMemory(), stats, name="dram")
        row_base = 3 * config.dram_row_words
        releases = [1, 2, 3, 9, 40, 41]
        if not first_is_miss:
            dram._open_rows[0] = row_base // config.dram_row_words

        completions = []
        original_schedule = dram._schedule

        def recording_schedule(request, ready_cycle):
            completions.append(ready_cycle)
            original_schedule(request, ready_cycle)

        dram._schedule = recording_schedule

        class _Driver(Component):
            def __init__(self):
                super().__init__("driver")
                self.pending = [(release - 1, row_base + k)
                                for k, release in enumerate(releases)]
                self.sent = 0

            def tick(self, now):
                while (self.sent < len(self.pending)
                       and self.pending[self.sent][0] == now):
                    dram.req_in.push(
                        MemoryRequest(OP_WRITE,
                                      self.pending[self.sent][1],
                                      value=1.0))
                    self.sent += 1

            @property
            def busy(self):
                return self.sent < len(self.pending)

        sim.register(_Driver())
        sim.run()
        __, expected = dram.open_row_burst(releases,
                                           first_is_miss=first_is_miss)
        assert completions == expected.tolist()
