"""Tests for the SpMV workload (CSR and EBE variants)."""

import numpy as np
import pytest

from repro.workloads.fem import build_tet_mesh
from repro.workloads.spmv import SpMVWorkload


@pytest.fixture(scope="module")
def workload():
    return SpMVWorkload(build_tet_mesh(2, 2, 1, seed=0), seed=0)


class TestSpMV:
    def test_reference_matches_dense_product(self, workload):
        dense = np.zeros((workload.rows, workload.rows))
        indptr, indices, data = (workload.indptr, workload.indices,
                                 workload.data)
        for row in range(workload.rows):
            for position in range(indptr[row], indptr[row + 1]):
                dense[row, indices[position]] = data[position]
        expected = dense @ workload.x
        assert np.allclose(workload.reference(), expected)

    def test_element_products_assemble_to_reference(self, workload):
        indices, values = workload._element_products()
        assembled = np.zeros(workload.rows)
        np.add.at(assembled, indices, values)
        assert np.allclose(assembled, workload.reference())

    def test_csr_run(self, workload, table1):
        result = workload.run_csr(table1)
        assert np.allclose(result.result, workload.reference())
        assert result.cycles > 0
        assert result.mem_refs >= 3 * workload.nnz

    def test_ebe_hardware_exact(self, workload, table1):
        result = workload.run_ebe_hardware(table1)
        assert np.allclose(result.result, workload.reference())

    def test_ebe_software_exact(self, workload, table1):
        result = workload.run_ebe_software(table1)
        assert np.allclose(result.result, workload.reference())

    def test_ebe_fp_ops_exceed_csr(self, workload, table1):
        # The EBE trade: more compute...
        csr = workload.run_csr(table1)
        ebe = workload.run_ebe_hardware(table1)
        assert ebe.fp_ops > csr.fp_ops

    def test_ebe_fewer_mem_refs_than_csr(self, table1):
        # ...for fewer memory references.  Needs a mesh with realistic
        # connectivity (the tiny fixture is too dense in shared nodes).
        workload = SpMVWorkload(build_tet_mesh(4, 4, 2, seed=0), seed=0)
        csr = workload.run_csr(table1)
        ebe = workload.run_ebe_hardware(table1)
        assert ebe.mem_refs < csr.mem_refs

    def test_hw_beats_sw_for_ebe(self, workload, table1):
        hardware = workload.run_ebe_hardware(table1)
        software = workload.run_ebe_software(table1)
        assert hardware.cycles < software.cycles
