#!/usr/bin/env python
"""Molecular-dynamics force accumulation with scatter-add (Figure 10).

One time step of a GROMACS-style non-bonded water kernel on the simulated
stream processor, in the paper's three variants:

- duplicated computation (no scatter-add: every pair evaluated twice),
- software scatter-add (sort + segmented scan),
- hardware scatter-add (single evaluation, partner forces accumulate in
  the memory system while the kernel keeps running).

Run:  python examples/molecular_dynamics.py [--full]
         --full uses the paper-scale box (903 molecules)
"""

import sys

import numpy as np

from repro import MachineConfig
from repro.workloads.md import MDWorkload


def main():
    full = "--full" in sys.argv
    molecules = 903 if full else 150
    workload = MDWorkload(molecules=molecules)
    config = MachineConfig.table1()

    print("Water box: %d molecules (%d atoms), %d neighbour pairs\n"
          % (molecules, workload.atoms, workload.num_pairs))

    reference = workload.reference()
    results = [
        ("no scatter-add (2x work)", workload.run_duplicated(config)),
        ("SW scatter-add", workload.run_software(config)),
        ("HW scatter-add", workload.run_hardware(config)),
    ]
    print("%-26s %12s %14s %12s" % ("method", "cycles", "FP ops",
                                    "mem refs"))
    for name, result in results:
        assert np.allclose(result.result, reference, atol=1e-6), name
        print("%-26s %12d %14d %12d" % (name, result.cycles,
                                        result.fp_ops, result.mem_refs))

    no_sa, software, hardware = (r for __, r in results)
    print("\nduplication beats SW scatter-add by %.1fx (paper: 3.1x)"
          % (software.cycles / no_sa.cycles))
    print("HW scatter-add beats duplication by %.2fx (paper: 1.76x)"
          % (no_sa.cycles / hardware.cycles))
    print("\nAll variants computed identical forces (Newton's third law "
          "exploited only where scatter-add makes it affordable).")


if __name__ == "__main__":
    main()
