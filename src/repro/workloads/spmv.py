"""Sparse matrix-vector multiply: CSR vs element-by-element (Figure 9).

Two algorithms over the same FEM operator (Section 4.1):

- **CSR** stores every assembled nonzero; the multiply streams values,
  column indices and row pointers from memory and gathers the source
  vector.  Gather-based -- no scatter-add needed.
- **EBE** never assembles the matrix: each element performs a dense
  20 x 20 multiply with its own stiffness block, and the per-element
  results are combined into the global result vector with a scatter-add.
  More FLOPs, fewer memory references -- the trade the paper examines.

The EBE scatter-add stream (element_count x 20 references) is simulated
through the memory system; the long unit-stride streams (matrix values,
element blocks) are costed at streaming bandwidth via
:class:`~repro.node.program.Bulk`.
"""

import numpy as np

from repro.node.processor import StreamProcessor
from repro.node.program import (
    Bulk,
    Gather,
    Kernel,
    Phase,
    ScatterAdd,
    StreamProgram,
)
from repro.software.sortscan import SortScanScatterAdd
from repro.workloads.fem import build_tet_mesh
from repro.workloads.result import WorkloadResult

#: Achieved FLOP efficiency of the CSR dot-product kernel (indexed
#: accumulate, short rows).
CSR_EFFICIENCY = 0.4

#: FP ops per nonzero for the CSR kernel: the multiply-add plus the row
#: accumulation/reduction arithmetic the paper's implementation counts
#: (calibrated to the paper's reported 1.217M ops for 442k nonzeros).
CSR_OPS_PER_NNZ = 2.75

#: Achieved FLOP efficiency of the EBE dense 20x20 multiply kernel.
EBE_EFFICIENCY = 0.4

#: Word address where the source vector x lives (clear of the y region).
X_BASE = 1 << 22


class SpMVWorkload:
    """y = A x over the synthetic FEM mesh, CSR and EBE variants."""

    def __init__(self, mesh=None, seed=0):
        self.mesh = mesh if mesh is not None else build_tet_mesh()
        self.indptr, self.indices, self.data = self.mesh.assemble_csr()
        rng = np.random.default_rng(seed)
        self.x = rng.standard_normal(self.mesh.num_nodes)

    @property
    def nnz(self):
        return len(self.data)

    @property
    def rows(self):
        return self.mesh.num_nodes

    def reference(self):
        """Ground-truth product from the assembled CSR arrays."""
        products = self.data * self.x[self.indices]
        sums = np.add.reduceat(products, self.indptr[:-1])
        # reduceat repeats values for empty rows; mask them to zero.
        empty = self.indptr[:-1] == self.indptr[1:]
        sums[empty] = 0.0
        return sums

    # ------------------------------------------------------------------ #
    def _element_products(self):
        """Per-element contributions: indices and values of the scatter-add."""
        nodes = self.mesh.element_nodes
        gathered = self.x[nodes]  # (E, 20)
        contributions = np.einsum(
            "eab,eb->ea", self.mesh.element_matrices, gathered
        )
        return nodes.reshape(-1), contributions.reshape(-1)

    def _ebe_compute_phase(self):
        elements = self.mesh.num_elements
        x_addrs = [X_BASE + int(i) for i in self.mesh.element_nodes.reshape(-1)]
        return Phase([
            Bulk("element_matrices", elements * 400),
            Bulk("connectivity", elements * 20),
            Gather(x_addrs, name="x_gather"),
            Kernel("ebe_matmul", elements * 800, efficiency=EBE_EFFICIENCY),
        ])

    # ------------------------------------------------------------------ #
    def run_csr(self, config):
        """Compressed-sparse-row multiply (gather based, no scatter-add)."""
        processor = StreamProcessor(config)
        program = StreamProgram([
            Phase([
                Bulk("values", self.nnz),
                Bulk("col_indices", self.nnz),
                Bulk("row_ptr", self.rows + 1),
                # The x gather has high reuse (x is cache resident):
                Bulk("x_gather", self.nnz, cached=True),
                Kernel("csr_dot", int(CSR_OPS_PER_NNZ * self.nnz),
                       efficiency=CSR_EFFICIENCY),
            ]),
            Phase([Bulk("y_out", self.rows)]),
        ], name="spmv_csr")
        result = processor.run(program)
        return WorkloadResult(config, "csr", result.cycles, self.reference(),
                              processor.stats)

    def run_ebe_hardware(self, config):
        """Element-by-element multiply with hardware scatter-add."""
        processor = StreamProcessor(config)
        processor.load_array(X_BASE, self.x)
        indices, values = self._element_products()
        # The scatter-add overlaps the element multiplies -- the execution
        # core keeps running while the memory system accumulates results.
        compute = self._ebe_compute_phase()
        compute.ops.append(ScatterAdd([int(i) for i in indices],
                                      list(values)))
        program = StreamProgram([compute], name="spmv_ebe_hw")
        result = processor.run(program)
        y = processor.read_result(0, self.rows)
        return WorkloadResult(config, "ebe_hw", result.cycles, y,
                              processor.stats)

    def run_ebe_software(self, config, batch=256):
        """Element-by-element multiply with sort&scan software scatter-add."""
        processor = StreamProcessor(config)
        processor.load_array(X_BASE, self.x)
        compute = processor.run(StreamProgram([self._ebe_compute_phase()],
                                              name="spmv_ebe_sw"))
        indices, values = self._element_products()
        software = SortScanScatterAdd(config, batch=batch)
        run = software.run(indices, values, num_targets=self.rows)
        stats = processor.stats.merge(run.stats)
        return WorkloadResult(config, "ebe_sw", compute.cycles + run.cycles,
                              run.result, stats)
