"""Tests for cycle-window timeline sampling."""

import numpy as np
import pytest

from repro.api import Simulation
from repro.config import MachineConfig, NetworkConfig
from repro.obs.sampling import TimelineSampler, gather_probes
from repro.sim.engine import Component, Simulator


class Clock(Component):
    """Keeps the simulation alive for a fixed number of cycles."""

    def __init__(self, until):
        super().__init__("clock")
        self.until = until
        self.level = 0

    def tick(self, now):
        self.level = now

    def next_wake(self, now):
        return now + 1 if now < self.until else None

    @property
    def busy(self):
        return self.level < self.until

    def obs_probes(self):
        return (("level", lambda now: self.level),)


class TestSamplerBoundaries:
    def test_samples_exactly_on_window_boundaries(self):
        sim = Simulator()
        clock = sim.register(Clock(100))
        sampler = TimelineSampler(16, gather_probes([clock]))
        sim.register(sampler)
        sim.run()
        timeline = sampler.timelines[0]
        assert timeline.name == "clock.level"
        assert timeline.cycles == [0, 16, 32, 48, 64, 80, 96]

    def test_window_of_one_samples_every_cycle(self):
        sim = Simulator()
        clock = sim.register(Clock(5))
        sampler = TimelineSampler(1, gather_probes([clock]))
        sim.register(sampler)
        sim.run()
        assert sampler.timelines[0].cycles == [0, 1, 2, 3, 4, 5]

    def test_no_duplicate_sample_across_two_runs(self):
        # A second run() starting on a boundary must not re-sample it.
        sim = Simulator()
        clock = sim.register(Clock(32))
        sampler = TimelineSampler(16, gather_probes([clock]))
        sim.register(sampler)
        sim.run()
        first = list(sampler.timelines[0].cycles)
        sim.run()  # quiesced: nothing new
        assert sampler.timelines[0].cycles == first

    def test_rejects_non_positive_window(self):
        with pytest.raises(ValueError):
            TimelineSampler(0, [])


class TestSamplerNeutrality:
    def test_sampling_does_not_change_cycles_or_result(self, rng):
        indices = rng.integers(0, 128, size=600)
        plain = Simulation().run("scatter_add", indices, 1.0,
                                 num_targets=128)
        sampled = Simulation(sample_every=8).run("scatter_add", indices, 1.0,
                                                 num_targets=128)
        assert sampled.cycles == plain.cycles
        assert np.array_equal(sampled.result, plain.result)

    def test_disabled_means_no_sampler_component(self):
        run = Simulation().run("scatter_add", [1, 2, 2], 1.0, num_targets=4)
        assert run.observation is None

    def test_enabled_produces_component_timelines(self, rng):
        indices = rng.integers(0, 64, size=400)
        run = Simulation(sample_every=32).run("scatter_add", indices, 1.0,
                                              num_targets=64)
        scope = run.observation.scopes[0]
        names = {timeline.name for timeline in scope.timelines}
        # Probes from every modeled layer: AGU, router, SAUs, banks, DRAM.
        assert any(name.startswith("agu0.") for name in names)
        assert any(".bank0." in name for name in names)
        assert any(".sau0_0." in name for name in names)
        assert any(".dram." in name for name in names)
        for timeline in scope.timelines:
            assert len(timeline.cycles) == len(timeline.values)
            # Every sample lands on a window boundary, except the final
            # flush sample capturing the run's last partial window.
            assert all(cycle % 32 == 0 for cycle in timeline.cycles[:-1])
            assert timeline.cycles == sorted(set(timeline.cycles))

    def test_crossbar_run_samples_link_occupancy(self):
        config = MachineConfig(network=NetworkConfig(nodes=2))
        run = Simulation(config, sample_every=16).run(
            "scatter_add", [i % 64 for i in range(300)], 1.0,
            num_targets=64)
        timelines = {timeline.name: timeline
                     for scope in run.observation.scopes
                     for timeline in scope.timelines}
        inflight = timelines["xbar.inflight_words"]
        assert inflight.cycles[0] == 0
        assert max(inflight.values) > 0
        assert inflight.values[-1] == 0

    def test_final_partial_window_is_flushed(self, rng):
        indices = rng.integers(0, 64, size=400)
        run = Simulation(sample_every=10_000).run(
            "scatter_add", indices, 1.0, num_targets=64)
        scope = run.observation.scopes[0]
        # The run is far shorter than one window; without the flush the
        # only sample would be the cycle-0 boundary.
        # The flush lands at the engine's quiescent cycle (scope.cycles
        # additionally counts analytic launch overheads).
        for timeline in scope.timelines:
            assert len(timeline.cycles) == 2
            assert timeline.cycles[0] == 0
            assert 0 < timeline.cycles[1] <= scope.cycles


class TestSamplerFlush:
    def test_flush_records_final_partial_window(self):
        sim = Simulator()
        clock = sim.register(Clock(100))
        sampler = TimelineSampler(16, gather_probes([clock]))
        sim.register(sampler)
        end = sim.run()
        sampler.flush(end)
        timeline = sampler.timelines[0]
        assert timeline.cycles == [0, 16, 32, 48, 64, 80, 96, end]
        assert timeline.values[-1] == clock.level

    def test_flush_on_boundary_is_noop(self):
        sim = Simulator()
        clock = sim.register(Clock(32))
        sampler = TimelineSampler(16, gather_probes([clock]))
        sim.register(sampler)
        sim.run()
        before = list(sampler.timelines[0].cycles)
        sampler.flush(before[-1])
        assert sampler.timelines[0].cycles == before

    def test_flush_is_idempotent(self):
        sim = Simulator()
        clock = sim.register(Clock(20))
        sampler = TimelineSampler(16, gather_probes([clock]))
        sim.register(sampler)
        end = sim.run()
        sampler.flush(end)
        sampler.flush(end)
        assert sampler.timelines[0].cycles == [0, 16, end]


class TestProbeGathering:
    def test_default_component_has_no_probes(self):
        assert Component("x").obs_probes() == ()

    def test_gather_qualifies_names(self):
        clock = Clock(1)
        probes = gather_probes([clock, Component("plain")])
        assert [name for name, __ in probes] == ["clock.level"]
