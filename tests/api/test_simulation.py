"""Tests for the unified ``Simulation`` front door."""

import numpy as np
import pytest

from repro.api import (
    Simulation,
    scatter_add_reference,
    scatter_op_reference,
)
from repro.config import MachineConfig


class TestSimulationRun:
    def test_scatter_add_matches_reference(self, rng):
        indices = rng.integers(0, 128, size=500)
        values = rng.uniform(-1, 1, size=500)
        run = Simulation().run("scatter_add", indices, values,
                               num_targets=128)
        expected = scatter_add_reference(np.zeros(128), indices, values)
        assert np.array_equal(run.result, expected)
        assert run.cycles > 0
        assert run.mem_refs == 500
        assert run.config is not None

    def test_min_max_mul_with_initial(self, rng):
        indices = rng.integers(0, 32, size=200)
        values = rng.uniform(0.5, 2.0, size=200)
        cases = {
            "scatter_min": np.full(32, np.inf),
            "scatter_max": np.zeros(32),
            "scatter_mul": np.ones(32),
        }
        sim = Simulation()
        for op, initial in cases.items():
            run = sim.run(op, indices, values, num_targets=32,
                          initial=initial)
            expected = scatter_op_reference(op, initial, indices, values)
            assert np.allclose(run.result, expected, rtol=1e-12), op

    def test_every_run_option(self):
        run = Simulation(MachineConfig.table1(), chaining=False).run(
            "scatter_add", [1, 1, 2], values=2.0, num_targets=4,
            initial=np.ones(4), base=8)
        assert list(run.result) == [1.0, 5.0, 3.0, 1.0]
        assert "ScatterRun" in repr(run)

    def test_fetch_add_supported(self):
        run = Simulation().run("fetch_add", [0, 0, 1], [1.0, 2.0, 3.0],
                               num_targets=2)
        assert list(run.result) == [3.0, 3.0]

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            Simulation().run("scatter_xor", [0], [1.0], num_targets=1)

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(IndexError):
            Simulation().run("scatter_add", [0, 5], 1.0, num_targets=4)
        with pytest.raises(IndexError):
            Simulation().run("scatter_add", [-1], 1.0, num_targets=4)

    def test_tuning_args_are_keyword_only(self):
        with pytest.raises(TypeError):
            Simulation().run("scatter_add", [0], 1.0, 4)  # num_targets

    def test_chaining_knob(self):
        indices = [3] * 300
        chained = Simulation(chaining=True).run("scatter_add", indices, 1.0,
                                                num_targets=4)
        unchained = Simulation(chaining=False).run("scatter_add", indices,
                                                   1.0, num_targets=4)
        assert np.array_equal(chained.result, unchained.result)
        assert chained.cycles < unchained.cycles

    def test_runs_are_independent(self, rng):
        sim = Simulation()
        indices = rng.integers(0, 64, size=200)
        first = sim.run("scatter_add", indices, 1.0, num_targets=64)
        second = sim.run("scatter_add", indices, 1.0, num_targets=64)
        assert first.cycles == second.cycles
        assert np.array_equal(first.result, second.result)
        assert first.stats is not second.stats

    def test_bottlenecks_on_run(self, rng):
        indices = rng.integers(0, 256, size=800)
        run = Simulation().run("scatter_add", indices, 1.0, num_targets=256)
        ranked = run.bottlenecks(top=4)
        assert len(ranked) == 4
        assert {"component", "busy_fraction", "events",
                "capacity"} <= set(ranked[0])


class TestSharedValidation:
    def test_scatter_op_reference_bounds_checked(self):
        with pytest.raises(IndexError):
            scatter_op_reference("scatter_min", np.zeros(4), [0, 4], [1.0,
                                                                      1.0])
        with pytest.raises(IndexError):
            scatter_op_reference("scatter_mul", np.zeros(4), [-1], [1.0])

    def test_scatter_add_reference_bounds_checked(self):
        with pytest.raises(IndexError):
            scatter_add_reference(np.zeros(4), [4], [1.0])
