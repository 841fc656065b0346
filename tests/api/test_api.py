"""Tests for the public API (functional reference + simulation entry)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (
    Simulation,
    scatter_add_reference,
    scatter_op_reference,
)
from repro.config import MachineConfig


class TestScatterAddReference:
    def test_matches_paper_pseudocode(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([0, 2, 0])
        c = np.array([10.0, 20.0, 30.0])
        result = scatter_add_reference(a, b, c)
        assert list(result) == [41.0, 2.0, 23.0]

    def test_input_not_modified(self):
        a = np.zeros(4)
        scatter_add_reference(a, [1], [5.0])
        assert a[1] == 0.0

    def test_scalar_increment_form(self):
        result = scatter_add_reference(np.zeros(4), [1, 1, 1], 1.0)
        assert result[1] == 3.0

    def test_repeated_index_accumulates(self):
        # The very case np.ufunc.at exists for (a[b] += c would not).
        result = scatter_add_reference(np.zeros(2), [0, 0, 0, 0], 1.0)
        assert result[0] == 4.0

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            scatter_add_reference(np.zeros(4), [4], [1.0])
        with pytest.raises(IndexError):
            scatter_add_reference(np.zeros(4), [-1], [1.0])

    def test_empty_update(self):
        result = scatter_add_reference(np.ones(3), [], [])
        assert list(result) == [1.0, 1.0, 1.0]

    @given(st.lists(st.integers(0, 15), max_size=100))
    def test_property_histogram_equals_bincount(self, indices):
        result = scatter_add_reference(np.zeros(16), indices, 1.0)
        expected = np.bincount(np.asarray(indices, dtype=int), minlength=16)
        assert np.array_equal(result, expected)


class TestScatterOpReference:
    def test_min_max_mul(self):
        a = np.full(2, 4.0)
        assert scatter_op_reference("scatter_min", a, [0], [1.0])[0] == 1.0
        assert scatter_op_reference("scatter_max", a, [0], [9.0])[0] == 9.0
        assert scatter_op_reference("scatter_mul", a, [1], [3.0])[1] == 12.0

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            scatter_op_reference("xor", np.zeros(1), [0], [1.0])


class TestSimulateScatterAdd:
    def test_matches_reference(self, rng):
        indices = rng.integers(0, 128, size=1024)
        values = rng.standard_normal(1024)
        run = Simulation().run("scatter_add", indices, values, num_targets=128)
        expected = scatter_add_reference(np.zeros(128), indices, values)
        assert np.allclose(run.result, expected)

    def test_respects_initial(self, rng):
        initial = rng.standard_normal(32)
        indices = rng.integers(0, 32, size=64)
        run = Simulation().run("scatter_add", indices, 1.0, num_targets=32,
                               initial=initial)
        expected = scatter_add_reference(initial, indices, 1.0)
        assert np.allclose(run.result, expected)

    def test_num_targets_default(self):
        run = Simulation().run("scatter_add", [3, 5], 1.0)
        assert len(run.result) == 6

    def test_uniform_config(self, rng):
        indices = rng.integers(0, 64, size=256)
        run = Simulation(MachineConfig.uniform()).run("scatter_add", indices,
                                                      1.0, num_targets=64)
        expected = scatter_add_reference(np.zeros(64), indices, 1.0)
        assert np.allclose(run.result, expected)

    def test_reports_timing_and_refs(self, rng):
        indices = rng.integers(0, 16, size=100)
        run = Simulation().run("scatter_add", indices, 1.0, num_targets=16)
        assert run.cycles > 0
        assert run.microseconds == pytest.approx(run.cycles / 1000.0)
        assert run.mem_refs == 100

    def test_empty(self):
        run = Simulation().run("scatter_add", [], 1.0, num_targets=4)
        assert list(run.result) == [0.0] * 4

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 31),
                              st.floats(-50, 50, allow_nan=False)),
                    min_size=1, max_size=200),
           st.booleans())
    def test_property_simulation_equals_reference(self, updates, chaining):
        indices = [addr for addr, __ in updates]
        values = [value for __, value in updates]
        run = Simulation(chaining=chaining).run("scatter_add", indices, values,
                                                num_targets=32)
        expected = scatter_add_reference(np.zeros(32), indices, values)
        assert np.allclose(run.result, expected, rtol=1e-12, atol=1e-9)
