"""Tests for the design-space sweep utilities."""

import pytest

from repro.config import MachineConfig
from repro.harness.sweep import grid_sweep, sweep


def fake_measure(config):
    return {"latency_product": config.fu_latency
            * config.combining_store_entries}


def failing_measure(config):
    raise ValueError("boom %d" % config.fu_latency)


class TestSweep:
    def test_rows_per_value(self):
        result = sweep(MachineConfig.table1(), "fu_latency", (1, 2, 4),
                       fake_measure)
        assert result.column("fu_latency") == [1, 2, 4]
        assert result.column("latency_product") == [8, 16, 32]

    def test_columns_include_field_and_measurements(self):
        result = sweep(MachineConfig.table1(), "fu_latency", (1,),
                       fake_measure)
        assert result.columns == ["fu_latency", "latency_product"]

    def test_invalid_value_propagates_validation(self):
        with pytest.raises(ValueError):
            sweep(MachineConfig.table1(), "fu_latency", (0,), fake_measure)

    def test_measure_error_keeps_its_type(self):
        with pytest.raises(ValueError, match="boom 1"):
            sweep(MachineConfig.table1(), "fu_latency", (1, 2),
                  failing_measure)

    def test_custom_ids(self):
        result = sweep(MachineConfig.table1(), "fu_latency", (1,),
                       fake_measure, exp_id="x", title="T")
        assert result.exp_id == "x"
        assert result.title == "T"


class TestGridSweep:
    def test_cartesian_product(self):
        result = grid_sweep(
            MachineConfig.table1(),
            {"fu_latency": (1, 2), "combining_store_entries": (4, 8)},
            fake_measure,
        )
        assert len(result.rows) == 4
        pairs = [(row["fu_latency"], row["combining_store_entries"])
                 for row in result.rows]
        assert pairs == [(1, 4), (1, 8), (2, 4), (2, 8)]

    def test_measurements_use_combined_config(self):
        result = grid_sweep(
            MachineConfig.table1(),
            {"fu_latency": (2,), "combining_store_entries": (16,)},
            fake_measure,
        )
        assert result.rows[0]["latency_product"] == 32

    def test_real_measurement_round_trip(self, rng):
        from repro.api import Simulation

        trace = rng.integers(0, 64, size=256)

        def measure(config):
            run = Simulation(config).run("scatter_add", trace, 1.0,
                                         num_targets=64)
            assert run.result.sum() == 256
            return {"cycles": run.cycles}

        result = sweep(MachineConfig.table1(),
                       "combining_store_entries", (2, 64), measure)
        # more entries never slower
        assert result.rows[0]["cycles"] >= result.rows[1]["cycles"]
