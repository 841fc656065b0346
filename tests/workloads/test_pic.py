"""Tests for the particle-in-cell deposition workload."""

import numpy as np
import pytest

from repro.workloads.pic import PICDeposition


class TestCICWeights:
    def test_charge_conserved(self):
        pic = PICDeposition(500, nx=16, ny=16, charge=2.5, seed=1)
        assert pic.reference().sum() == pytest.approx(500 * 2.5)

    def test_weights_nonnegative(self):
        pic = PICDeposition(200, nx=8, ny=8, seed=2)
        weights = pic._weights
        assert (weights >= 0).all()

    def test_four_updates_per_particle(self):
        pic = PICDeposition(100, nx=8, ny=8)
        indices, weights = pic._indices, pic._weights
        assert len(indices) == 400
        assert len(weights) == 400

    def test_indices_within_grid(self):
        pic = PICDeposition(300, nx=8, ny=8, seed=3)
        indices = pic._indices
        assert indices.min() >= 0
        assert indices.max() < pic.grid_points

    def test_particle_at_cell_center_splits_evenly(self):
        pic = PICDeposition(1, nx=4, ny=4)
        pic.positions = np.array([[1.5, 2.5]])
        pic._indices, pic._weights = pic._cic()
        grid = pic.reference()
        touched = grid[grid > 0]
        assert np.allclose(touched, 0.25)

    def test_sorted_option_reorders_not_changes(self):
        plain = PICDeposition(400, nx=16, ny=16, seed=4)
        ordered = PICDeposition(400, nx=16, ny=16, seed=4,
                                sorted_particles=True)
        assert np.allclose(plain.reference(), ordered.reference())

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            PICDeposition(10, nx=0, ny=4)


class TestPICRuns:
    def test_hardware_matches_reference(self, table1):
        pic = PICDeposition(600, nx=16, ny=16, seed=5)
        __, grid = pic.run_hardware(table1)
        assert np.allclose(grid, pic.reference(), rtol=1e-12, atol=1e-12)

    def test_sortscan_matches_reference(self, table1):
        pic = PICDeposition(600, nx=16, ny=16, seed=5)
        __, grid = pic.run_sortscan(table1)
        assert np.allclose(grid, pic.reference(), rtol=1e-12, atol=1e-12)

    def test_hardware_faster_than_software(self, table1):
        pic = PICDeposition(2000, nx=32, ny=32, seed=6)
        hw_result, __ = pic.run_hardware(table1)
        sw_run, __ = pic.run_sortscan(table1)
        assert hw_result.cycles < sw_run.cycles

    def test_hardware_insensitive_to_particle_order(self, table1):
        # The hardware scatter-add depends on the index *range* (Figure
        # 7), not the update order: sorted and shuffled particle streams
        # deposit in comparable time (sorting clusters same-cell updates,
        # which chain through one FU; shuffling spreads them over banks).
        shuffled = PICDeposition(4096, nx=256, ny=256, seed=7)
        ordered = PICDeposition(4096, nx=256, ny=256, seed=7,
                                sorted_particles=True)
        shuffled_result, __ = shuffled.run_hardware(table1)
        ordered_result, __ = ordered.run_hardware(table1)
        ratio = ordered_result.cycles / shuffled_result.cycles
        assert 0.7 < ratio < 1.4

    def test_sorted_particles_need_chaining(self, table1):
        # Cell-sorted particles maximise same-address runs: without the
        # combining-store chaining path every run round-trips through
        # memory and deposition slows down measurably.
        pic = PICDeposition(2048, nx=16, ny=16, seed=8,
                            sorted_particles=True)
        indices, weights = pic._indices, pic._weights
        from repro.api import Simulation

        chained = Simulation(table1, chaining=True).run(
            "scatter_add", indices, weights, num_targets=pic.grid_points)
        unchained = Simulation(table1, chaining=False).run(
            "scatter_add", indices, weights, num_targets=pic.grid_points)
        assert np.allclose(chained.result, unchained.result,
                           rtol=1e-9, atol=1e-12)
        assert unchained.cycles > 1.3 * chained.cycles
