"""Golden guarantee: typed metric handles never perturb the counters.

Counter handles (``stats.counter(name)``) and raw ``stats.add`` calls must
leave ``Stats.as_dict()`` bit-identical: same key set, same values, no new
keys from gauges/histograms/samplers.  Pinned on the Figure 8 histogram
configuration (Table 1 machine, uniform random indices).
"""

import numpy as np

from repro.api import Simulation
from repro.config import MachineConfig


def _figure8_run(**sim_kwargs):
    rng = np.random.default_rng(8)
    indices = rng.integers(0, 512, size=1500)
    sim = Simulation(MachineConfig.table1(), **sim_kwargs)
    return sim.run("scatter_add", indices, 1.0, num_targets=512)


class TestGoldenStats:
    def test_as_dict_deterministic_across_runs(self):
        first = _figure8_run().stats.as_dict()
        second = _figure8_run().stats.as_dict()
        assert first == second

    def test_observation_does_not_change_as_dict(self):
        # Sampling and tracing add no model counters and change no values
        # (``trace.dropped`` appears only if events are actually dropped).
        # Only the ``engine.*`` scheduler bookkeeping may differ: the
        # sampler is one extra component, so it legitimately runs ticks.
        def model_counters(values):
            return {name: value for name, value in values.items()
                    if not name.startswith("engine.")}

        plain = _figure8_run().stats.as_dict()
        observed = _figure8_run(sample_every=64,
                                trace=True).stats.as_dict()
        assert model_counters(observed) == model_counters(plain)

    def test_request_tracing_is_bit_identical(self):
        # The tentpole guarantee: request tracing must be a pure observer.
        # Cycle counts, results and the full Stats.as_dict() (engine
        # scheduler counters included -- the tracer registers no
        # components) are bit-identical with tracing on vs. off.
        plain = _figure8_run()
        traced = _figure8_run(trace_requests=7)
        assert traced.cycles == plain.cycles
        assert traced.stats.as_dict() == plain.stats.as_dict()
        assert np.array_equal(traced.result, plain.result)

    def test_request_tracing_sampling_rate_is_neutral(self):
        # Any sampling period gives the same simulation.
        dense = _figure8_run(trace_requests=1)
        sparse = _figure8_run(trace_requests=100)
        assert dense.cycles == sparse.cycles
        assert dense.stats.as_dict() == sparse.stats.as_dict()

    def test_expected_counter_families_present(self):
        values = _figure8_run().stats.as_dict()
        expected = [
            "memsys.refs",
            "memsys.stream_ops",
            "agu0.refs",
            "memsys.router.hol_blocks",
            "memsys.bank0.hits",
            "memsys.bank0.misses",
            "memsys.sau0_0.sums",
            "memsys.sau0_0.atomics",
            "fu.sums",
            "memsys.dram.reads",
            "memsys.dram.read_words",
            "memsys.dram.busy_cycles",
        ]
        for key in expected:
            assert key in values, "missing golden counter %r" % key

    def test_registry_counters_equal_stats_values(self):
        stats = _figure8_run().stats
        values = stats.as_dict()
        for name in values:
            assert stats.counter(name).value == values[name], name

    def test_cross_invariants(self):
        run = _figure8_run()
        stats = run.stats
        n = 1500
        # Every update issues exactly one memory reference...
        assert stats.get("memsys.refs") == n
        # ...is accepted as exactly one atomic...
        atomics = sum(value for name, value in stats.as_dict().items()
                      if name.endswith(".atomics"))
        assert atomics == n
        # ...and completes exactly one sum; fu.sums aggregates all units.
        unit_sums = sum(value for name, value in stats.as_dict().items()
                        if name.endswith(".sums") and "sau" in name)
        assert unit_sums == n
        assert stats.get("fu.sums") == n
        assert run.mem_refs == n

    def test_store_occupancy_histogram_totals_atomics(self):
        stats = _figure8_run().stats
        snapshot = stats.snapshot()
        histograms = {name: data
                      for name, data in snapshot["histograms"].items()
                      if name.endswith(".store.occupancy")}
        assert histograms, "per-unit occupancy histograms expected"
        total = sum(data["total"] for data in histograms.values())
        assert total == 1500  # one observation per accepted atomic
        for data in histograms.values():
            assert data["edges"] == [1, 2, 4, 8]  # Table 1: 8 entries
            assert len(data["counts"]) == len(data["edges"]) + 1
