#!/usr/bin/env python
"""Sparse matrix-vector multiply: scatter-add enables element-by-element.

Reproduces the paper's Figure 9 story on a reduced FEM mesh: without
hardware scatter-add the assembled CSR form wins; with it, the
element-by-element (EBE) form -- more FLOPs, fewer memory references --
becomes the fastest.

Run:  python examples/sparse_matrix.py [--full]
         --full uses the paper-scale mesh (1,920 elements, ~10k DOF)
"""

import sys

import numpy as np

from repro import MachineConfig
from repro.workloads.fem import build_tet_mesh
from repro.workloads.spmv import SpMVWorkload


def main():
    full = "--full" in sys.argv
    dims = (8, 8, 5) if full else (4, 4, 3)
    mesh = build_tet_mesh(*dims)
    workload = SpMVWorkload(mesh)
    config = MachineConfig.table1()

    print("FEM operator: %d tetrahedra, %d DOF, %.1f nnz/row"
          % (mesh.num_elements, mesh.num_nodes,
             workload.nnz / workload.rows))
    print("(paper dataset: 1,916 tetrahedra, 9,978 DOF, 44.26 nnz/row)\n")

    reference = workload.reference()
    results = [
        ("CSR (gather only)", workload.run_csr(config)),
        ("EBE + SW scatter-add", workload.run_ebe_software(config)),
        ("EBE + HW scatter-add", workload.run_ebe_hardware(config)),
    ]
    print("%-22s %12s %12s %12s" % ("method", "cycles", "FP ops",
                                    "mem refs"))
    for name, result in results:
        assert np.allclose(result.result, reference, atol=1e-6), name
        print("%-22s %12d %12d %12d" % (name, result.cycles,
                                        result.fp_ops, result.mem_refs))

    csr, ebe_sw, ebe_hw = (r for __, r in results)
    print("\nwithout HW scatter-add, CSR beats EBE by %.2fx "
          "(paper: 2.2x)" % (ebe_sw.cycles / csr.cycles))
    print("with HW scatter-add, EBE beats CSR by %.2fx (paper: 1.45x)"
          % (csr.cycles / ebe_hw.cycles))
    print("\nAll three variants produced the same product vector.")


if __name__ == "__main__":
    main()
