"""Tests for the extended scatter operations API (Section 3.3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Simulation, scatter_op_reference
from repro.config import MachineConfig


class TestSimulateScatterOp:
    def test_scatter_min(self, rng):
        initial = np.full(16, 100.0)
        indices = rng.integers(0, 16, size=64)
        values = rng.uniform(0, 50, size=64)
        run = Simulation().run("scatter_min", indices, values, num_targets=16,
                               initial=initial)
        expected = scatter_op_reference("scatter_min", initial, indices,
                                        values)
        assert np.array_equal(run.result, expected)

    def test_scatter_max(self, rng):
        initial = np.zeros(16)
        indices = rng.integers(0, 16, size=64)
        values = rng.uniform(0, 50, size=64)
        run = Simulation().run("scatter_max", indices, values, num_targets=16,
                               initial=initial)
        expected = scatter_op_reference("scatter_max", initial, indices,
                                        values)
        assert np.array_equal(run.result, expected)

    def test_scatter_mul(self, rng):
        initial = np.ones(8)
        indices = rng.integers(0, 8, size=32)
        values = rng.uniform(0.5, 2.0, size=32)
        run = Simulation().run("scatter_mul", indices, values, num_targets=8,
                               initial=initial)
        expected = scatter_op_reference("scatter_mul", initial, indices,
                                        values)
        assert np.allclose(run.result, expected, rtol=1e-12)

    def test_scatter_add_through_op_api(self, rng):
        indices = rng.integers(0, 8, size=32)
        run = Simulation().run("scatter_add", indices, 1.0, num_targets=8)
        expected = scatter_op_reference("scatter_add", np.zeros(8),
                                        indices, 1.0)
        assert np.array_equal(run.result, expected)

    def test_unsupported_op_rejected(self):
        with pytest.raises(ValueError):
            Simulation().run("scatter_xor", [0], [1.0], num_targets=1)

    def test_uniform_memory_model(self, rng):
        initial = np.full(8, 10.0)
        indices = rng.integers(0, 8, size=40)
        values = rng.uniform(0, 20, size=40)
        run = Simulation(MachineConfig.uniform()).run("scatter_min", indices,
                                                      values, num_targets=8,
                                                      initial=initial)
        expected = scatter_op_reference("scatter_min", initial, indices,
                                        values)
        assert np.array_equal(run.result, expected)

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from(["scatter_min", "scatter_max"]),
           st.lists(st.tuples(st.integers(0, 7),
                              st.floats(-100, 100, allow_nan=False)),
                    min_size=1, max_size=80))
    def test_property_matches_reference(self, op, updates):
        indices = [addr for addr, __ in updates]
        values = [value for __, value in updates]
        initial = np.zeros(8)
        run = Simulation().run(op, indices, values, num_targets=8,
                               initial=initial)
        expected = scatter_op_reference(op, initial, indices, values)
        assert np.array_equal(run.result, expected)
