"""Particle-in-cell charge deposition (the paper's Section 1 motivation).

"Examples include particle-in-cell methods to solve for plasma behavior
within the self-consistent electromagnetic field [Williams]."

The scatter-add-heavy step of a PIC code is *charge deposition*: every
particle spreads its charge onto the corner nodes of its grid cell with
cloud-in-cell (CIC) bilinear weights -- four atomic updates per particle
on a 2-D grid, colliding wherever particles share cells.  Locality
depends entirely on particle ordering: cell-sorted particles give the
scatter-add stream near-perfect cache behaviour, shuffled particles give
none, which this workload exposes as a knob.
"""

import numpy as np

from repro.api import scatter_add_reference
from repro.node.processor import StreamProcessor
from repro.node.program import Bulk, Kernel, Phase, ScatterAdd, StreamProgram
from repro.software.sortscan import SortScanScatterAdd

#: FP ops per particle for the CIC weight computation (floor, fractions,
#: four weight products).
WEIGHT_OPS_PER_PARTICLE = 14


class PICDeposition:
    """2-D cloud-in-cell charge deposition onto an (nx+1) x (ny+1) grid."""

    def __init__(self, particles, nx=64, ny=64, charge=1.0, seed=0,
                 sorted_particles=False):
        if nx < 1 or ny < 1:
            raise ValueError("grid dimensions must be >= 1")
        self.nx, self.ny = nx, ny
        self.charge = charge
        rng = np.random.default_rng(seed)
        self.positions = np.column_stack([
            rng.uniform(0, nx, size=particles),
            rng.uniform(0, ny, size=particles),
        ])
        if sorted_particles:
            cells = (self.positions[:, 0].astype(int) * ny
                     + self.positions[:, 1].astype(int))
            self.positions = self.positions[np.argsort(cells, kind="stable")]
        self._indices, self._weights = self._cic()

    @property
    def num_particles(self):
        return len(self.positions)

    @property
    def grid_points(self):
        return (self.nx + 1) * (self.ny + 1)

    def _node(self, ix, iy):
        return ix * (self.ny + 1) + iy

    def _cic(self):
        """Indices and weights of the four corner updates per particle."""
        x, y = self.positions[:, 0], self.positions[:, 1]
        ix = np.minimum(x.astype(np.int64), self.nx - 1)
        iy = np.minimum(y.astype(np.int64), self.ny - 1)
        fx, fy = x - ix, y - iy
        weights = np.column_stack([
            (1 - fx) * (1 - fy), (1 - fx) * fy, fx * (1 - fy), fx * fy,
        ]) * self.charge
        indices = np.column_stack([
            self._node(ix, iy), self._node(ix, iy + 1),
            self._node(ix + 1, iy), self._node(ix + 1, iy + 1),
        ])
        return indices.reshape(-1), weights.reshape(-1)

    def reference(self):
        """Ground-truth charge grid via numpy."""
        return scatter_add_reference(
            np.zeros(self.grid_points), self._indices, self._weights)

    # ------------------------------------------------------------------ #
    def _compute_phase(self):
        particles = self.num_particles
        return Phase([
            Bulk("positions", 2 * particles),
            Kernel("cic_weights", particles * WEIGHT_OPS_PER_PARTICLE),
        ])

    def run_hardware(self, config):
        """Deposit via hardware scatter-add (overlapping the weights)."""
        processor = StreamProcessor(config)
        phase = self._compute_phase()
        phase.ops.append(ScatterAdd(
            [int(i) for i in self._indices], list(self._weights)))
        result = processor.run(StreamProgram([phase], name="pic_hw"))
        grid = processor.read_result(0, self.grid_points)
        return result, grid

    def run_sortscan(self, config, batch=256):
        """Deposit via the software sort + segmented-scan scatter-add."""
        processor = StreamProcessor(config)
        compute = processor.run(StreamProgram([self._compute_phase()],
                                              name="pic_sw"))
        software = SortScanScatterAdd(config, batch=batch)
        run = software.run(self._indices, self._weights,
                           num_targets=self.grid_points)
        run.cycles += compute.cycles
        run.stats.merge(processor.stats)
        return run, run.result
