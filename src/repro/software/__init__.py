"""Software-only scatter-add implementations (Section 2.1 of the paper).

Three single-node techniques, each functionally exact and costed on the
same machine model as the hardware:

- :mod:`~repro.software.sortscan` -- sort the (index, value) pairs in
  constant-sized batches (bitonic network + merge passes), compute
  per-address sums with a segmented scan, and update memory without
  collisions.  The paper's best general-purpose software method.
- :mod:`~repro.software.privatization` -- iterate over the data once per
  block of privatized accumulators; O(m*n) but collision-free by
  construction.
- :mod:`~repro.software.coloring` -- partition the updates into
  non-colliding *colors* offline and scatter one color at a time.
"""

from repro.software.coloring import ColoringScatterAdd, greedy_color_indices
from repro.software.privatization import PrivatizationScatterAdd
from repro.software.scan import segmented_scan_sums
from repro.software.sort import bitonic_sort_pairs, dpa_sort_pairs
from repro.software.sortscan import SoftwareRun, SortScanScatterAdd

__all__ = [
    "ColoringScatterAdd",
    "PrivatizationScatterAdd",
    "SoftwareRun",
    "SortScanScatterAdd",
    "bitonic_sort_pairs",
    "dpa_sort_pairs",
    "greedy_color_indices",
    "segmented_scan_sums",
]
