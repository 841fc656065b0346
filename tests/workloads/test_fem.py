"""Tests for the synthetic FEM mesh generator."""

import numpy as np
import pytest

from repro.workloads.fem import build_tet_mesh


@pytest.fixture(scope="module")
def small_mesh():
    return build_tet_mesh(2, 2, 2)


class TestMeshStructure:
    def test_element_count(self, small_mesh):
        assert small_mesh.num_elements == 6 * 2 * 2 * 2

    def test_twenty_nodes_per_element(self, small_mesh):
        assert small_mesh.element_nodes.shape == (48, 20)

    def test_nodes_within_element_distinct(self, small_mesh):
        for nodes in small_mesh.element_nodes:
            assert len(set(nodes)) == 20

    def test_all_global_ids_in_range(self, small_mesh):
        assert small_mesh.element_nodes.min() >= 0
        assert small_mesh.element_nodes.max() < small_mesh.num_nodes

    def test_elements_share_nodes(self, small_mesh):
        """C0 continuity: adjacent elements reference shared global DOFs."""
        first = set(int(n) for n in small_mesh.element_nodes[0])
        shared = any(
            first & set(int(n) for n in small_mesh.element_nodes[e])
            for e in range(1, small_mesh.num_elements)
        )
        assert shared

    def test_every_node_used(self, small_mesh):
        used = set(small_mesh.element_nodes.reshape(-1).tolist())
        assert used == set(range(small_mesh.num_nodes))

    def test_element_matrices_symmetric_positive(self, small_mesh):
        matrix = small_mesh.element_matrices[0]
        assert np.allclose(matrix, matrix.T)
        eigenvalues = np.linalg.eigvalsh(matrix)
        assert eigenvalues.min() > 0

    def test_deterministic_given_seed(self):
        first = build_tet_mesh(2, 2, 1, seed=7)
        second = build_tet_mesh(2, 2, 1, seed=7)
        assert np.array_equal(first.element_nodes, second.element_nodes)
        assert np.array_equal(first.element_matrices,
                              second.element_matrices)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            build_tet_mesh(0, 1, 1)


class TestAssembly:
    def test_csr_shapes(self, small_mesh):
        indptr, indices, data = small_mesh.assemble_csr()
        assert len(indptr) == small_mesh.num_nodes + 1
        assert len(indices) == len(data) == indptr[-1]

    def test_csr_matches_dense_assembly(self, small_mesh):
        rows = small_mesh.assemble_dense_rows()
        indptr, indices, data = small_mesh.assemble_csr()
        for row in range(small_mesh.num_nodes):
            lo, hi = indptr[row], indptr[row + 1]
            entries = dict(zip(indices[lo:hi].tolist(), data[lo:hi]))
            assert entries.keys() == rows.get(row, {}).keys()

    def test_matrix_symmetric(self, small_mesh):
        rows = small_mesh.assemble_dense_rows()
        for row, cols in rows.items():
            for col, value in cols.items():
                assert np.isclose(rows[col][row], value)

    def test_paper_scale_statistics(self):
        """The default mesh matches the paper's dataset statistics."""
        mesh = build_tet_mesh()
        assert mesh.num_elements == 1920  # paper: 1,916
        assert abs(mesh.num_nodes - 9978) < 150  # paper: 9,978
        rows = mesh.assemble_dense_rows()
        nnz_per_row = sum(len(cols) for cols in rows.values()) / mesh.num_nodes
        assert abs(nnz_per_row - 44.26) < 1.5  # paper: 44.26
