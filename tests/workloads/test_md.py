"""Tests for the molecular-dynamics workload."""

import numpy as np
import pytest

from repro.workloads.md import (
    MDWorkload,
    WaterBox,
    build_neighbor_pairs,
    water_forces,
)


@pytest.fixture(scope="module")
def small_md():
    return MDWorkload(molecules=60, seed=1)


class TestWaterBox:
    def test_density_sets_box_size(self):
        box = WaterBox(molecules=100)
        volume = box.box ** 3
        assert 100 / volume == pytest.approx(33.4, rel=0.01)

    def test_positions_inside_box(self):
        box = WaterBox(molecules=64, seed=2)
        assert (box.oxygen >= 0).all()
        assert (box.oxygen <= box.box).all()

    def test_atom_positions_shape(self):
        box = WaterBox(molecules=10)
        assert box.atom_positions().shape == (10, 3, 3)

    def test_minimum_image_bounds(self):
        box = WaterBox(molecules=64)
        delta = np.array([[box.box * 0.9, -box.box * 0.9, 0.1]])
        wrapped = box.minimum_image(delta)
        assert (np.abs(wrapped) <= box.box / 2 + 1e-9).all()

    def test_too_few_molecules_rejected(self):
        with pytest.raises(ValueError):
            WaterBox(molecules=1)


class TestNeighborList:
    def test_pairs_within_cutoff(self):
        box = WaterBox(molecules=60, seed=1)
        pairs = build_neighbor_pairs(box, cutoff=1.0)
        for i, j in pairs:
            delta = box.minimum_image(box.oxygen[i] - box.oxygen[j])
            assert np.sqrt(delta @ delta) < 1.0

    def test_half_list_no_duplicates(self):
        box = WaterBox(molecules=60, seed=1)
        pairs = build_neighbor_pairs(box, cutoff=1.0)
        assert (pairs[:, 0] < pairs[:, 1]).all()
        assert len({tuple(p) for p in pairs}) == len(pairs)

    def test_cell_list_matches_brute_force(self):
        box = WaterBox(molecules=40, seed=3)
        cutoff = 0.9
        pairs = {tuple(p) for p in build_neighbor_pairs(box, cutoff)}
        brute = set()
        for i in range(40):
            for j in range(i + 1, 40):
                delta = box.minimum_image(box.oxygen[i] - box.oxygen[j])
                if delta @ delta < cutoff * cutoff:
                    brute.add((i, j))
        assert pairs == brute


class TestForces:
    def test_newtons_third_law(self, small_md):
        forces = small_md.forces
        # Net force on (i) equals minus net force on (j) per pair.
        total_i = forces[:, 0].sum(axis=1)
        total_j = forces[:, 1].sum(axis=1)
        assert np.allclose(total_i, -total_j, atol=1e-9)

    def test_total_force_conserved(self, small_md):
        # Sum of all forces in a periodic system of pair forces is zero.
        assert np.allclose(small_md.reference().reshape(-1, 3).sum(axis=0),
                           0.0, atol=1e-6)

    def test_forces_deterministic(self):
        first = MDWorkload(molecules=30, seed=5)
        second = MDWorkload(molecules=30, seed=5)
        assert np.array_equal(first.forces, second.forces)


class TestMDVariants:
    def test_hardware_matches_reference(self, small_md, table1):
        result = small_md.run_hardware(table1)
        assert np.allclose(result.result, small_md.reference(), atol=1e-9)

    def test_duplicated_matches_reference(self, small_md, table1):
        result = small_md.run_duplicated(table1)
        assert np.allclose(result.result, small_md.reference(), atol=1e-9)

    def test_software_matches_reference(self, small_md, table1):
        result = small_md.run_software(table1)
        assert np.allclose(result.result, small_md.reference(), atol=1e-9)

    def test_duplication_costs_more_flops(self, small_md, table1):
        hardware = small_md.run_hardware(table1)
        duplicated = small_md.run_duplicated(table1)
        assert duplicated.stats.get("cluster.fp_ops") > 1.5 * \
            hardware.stats.get("cluster.fp_ops")

    def test_ordering_hw_fastest_sw_slowest(self, small_md, table1):
        hardware = small_md.run_hardware(table1)
        duplicated = small_md.run_duplicated(table1)
        software = small_md.run_software(table1)
        assert hardware.cycles < duplicated.cycles < software.cycles

    def test_partner_updates_cover_all_molecule_slots(self, small_md):
        indices, values = small_md.partner_updates()
        assert len(indices) == 9 * small_md.num_pairs
        assert indices.max() < small_md.atoms * 3
