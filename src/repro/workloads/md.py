"""Molecular-dynamics non-bonded force kernel (GROMACS-style, Figure 10).

A synthetic box of SPC-like water molecules at liquid density, with a
cell-list neighbour search and a Lennard-Jones (O-O) + Coulomb (all nine
site pairs) force kernel -- the structure of the GROMACS water-water
kernel the paper's evaluation uses (903 molecules, one time step).

Three algorithm variants, as in Figure 10:

- ``hardware`` -- each molecule pair is evaluated once; forces on the
  *owning* molecule accumulate in registers and are written with a plain
  scatter, forces on the *partner* molecule are scatter-added (9 words per
  pair: 3 atoms x 3 components).
- ``no scatter-add`` -- the paper's duplicated-computation workaround:
  every pair is evaluated twice (once per owner), doubling the force
  arithmetic but leaving only collision-free register-accumulated writes.
- ``software`` -- single evaluation, partner updates folded with the
  sort + segmented-scan software scatter-add.
"""

import math

import numpy as np

from repro.node.processor import StreamProcessor
from repro.node.program import (
    Bulk,
    Kernel,
    Phase,
    Scatter,
    ScatterAdd,
    StreamProgram,
)
from repro.software.sortscan import SortScanScatterAdd
from repro.workloads.result import WorkloadResult

#: Liquid water molecule density, nm^-3.
WATER_DENSITY = 33.4

#: Neighbour cutoff (nm); 1.05 nm gives ~190k molecule pairs for 903
#: molecules, matching the reference-count scale of the paper's kernel.
DEFAULT_CUTOFF = 1.05

#: FP operations per molecule pair for the single-evaluation kernel:
#: nine site-site interactions (distance, reciprocal sqrt via Newton
#: iterations, LJ on O-O, Coulomb on all) plus partner-update preparation.
PAIR_OPS_SINGLE = 324

#: FP operations per molecule pair for the duplicated kernel: the force
#: arithmetic twice, minus the partner-update bookkeeping (~40 ops).
PAIR_OPS_DUPLICATED = 568

#: Achieved FLOP efficiency of the force kernel (irregular inner loop).
MD_EFFICIENCY = 0.41

#: SPC geometry: H sites offset from the oxygen (nm), fixed orientation
#: (orientational averaging is irrelevant to the memory behaviour).
_H_OFFSETS = np.array([
    [0.08164904, 0.0577359, 0.0],
    [-0.08164904, 0.0577359, 0.0],
])

#: LJ parameters for O-O (SPC): epsilon (kJ/mol), sigma (nm).
_LJ_EPSILON = 0.650
_LJ_SIGMA = 0.3166

#: Partial charges (SPC): O, H, H.
_CHARGES = np.array([-0.82, 0.41, 0.41])

#: Coulomb constant in GROMACS-like units (kJ mol^-1 nm e^-2).
_KE = 138.935


class WaterBox:
    """A periodic box of water molecules at liquid density."""

    def __init__(self, molecules=903, density=WATER_DENSITY, seed=0):
        if molecules < 2:
            raise ValueError("need at least two molecules")
        self.molecules = molecules
        self.box = (molecules / density) ** (1.0 / 3.0)
        rng = np.random.default_rng(seed)
        side = int(math.ceil(molecules ** (1.0 / 3.0)))
        spacing = self.box / side
        grid = []
        for x in range(side):
            for y in range(side):
                for z in range(side):
                    grid.append((x + 0.5, y + 0.5, z + 0.5))
        grid = np.array(grid[:molecules]) * spacing
        jitter = rng.uniform(-0.15, 0.15, size=grid.shape) * spacing
        self.oxygen = (grid + jitter) % self.box

    def atom_positions(self):
        """Positions of all 3*molecules atoms (O, H1, H2 per molecule)."""
        atoms = np.empty((self.molecules, 3, 3))
        atoms[:, 0] = self.oxygen
        atoms[:, 1] = self.oxygen + _H_OFFSETS[0]
        atoms[:, 2] = self.oxygen + _H_OFFSETS[1]
        return atoms

    def minimum_image(self, delta):
        """Apply the periodic minimum-image convention to displacements."""
        return delta - self.box * np.round(delta / self.box)


def build_neighbor_pairs(box, cutoff=DEFAULT_CUTOFF):
    """Half neighbour list of molecule pairs within `cutoff` (cell list)."""
    positions = box.oxygen
    cells_per_side = max(1, int(box.box / cutoff))
    cell_size = box.box / cells_per_side
    cell_of = np.floor(positions / cell_size).astype(int) % cells_per_side
    buckets = {}
    for index, (cx, cy, cz) in enumerate(cell_of):
        buckets.setdefault((cx, cy, cz), []).append(index)

    cutoff_sq = cutoff * cutoff
    pairs = []
    for (cx, cy, cz), members in buckets.items():
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    key = ((cx + dx) % cells_per_side,
                           (cy + dy) % cells_per_side,
                           (cz + dz) % cells_per_side)
                    others = buckets.get(key)
                    if not others:
                        continue
                    for i in members:
                        for j in others:
                            if j <= i:
                                continue
                            delta = box.minimum_image(
                                positions[i] - positions[j]
                            )
                            if float(delta @ delta) < cutoff_sq:
                                pairs.append((i, j))
    unique = sorted(set(pairs))
    return np.array(unique, dtype=np.int64).reshape(-1, 2)


def water_forces(box, pairs):
    """LJ + Coulomb forces for each molecule pair (vectorised).

    Returns an array of shape (num_pairs, 2, 3, 3): force on (molecule i,
    molecule j) x (atom O/H1/H2) x (x, y, z component), equal and opposite.
    """
    atoms = box.atom_positions()
    pi = atoms[pairs[:, 0]]  # (P, 3, 3)
    pj = atoms[pairs[:, 1]]
    forces = np.zeros((len(pairs), 2, 3, 3))
    for a in range(3):
        for b in range(3):
            delta = box.minimum_image(pi[:, a] - pj[:, b])  # (P, 3)
            r_sq = np.einsum("pc,pc->p", delta, delta)
            r_sq = np.maximum(r_sq, 1e-6)
            inv_r2 = 1.0 / r_sq
            inv_r = np.sqrt(inv_r2)
            # Coulomb: F = ke*qa*qb / r^2 * rhat
            magnitude = _KE * _CHARGES[a] * _CHARGES[b] * inv_r2 * inv_r
            if a == 0 and b == 0:
                sr2 = (_LJ_SIGMA * _LJ_SIGMA) * inv_r2
                sr6 = sr2 * sr2 * sr2
                magnitude = magnitude + 24.0 * _LJ_EPSILON * inv_r2 * (
                    2.0 * sr6 * sr6 - sr6
                )
            pair_force = magnitude[:, None] * delta
            forces[:, 0, a] += pair_force
            forces[:, 1, b] -= pair_force
    return forces


class MDWorkload:
    """One time step of the non-bonded water force kernel."""

    def __init__(self, molecules=903, cutoff=DEFAULT_CUTOFF, seed=0):
        self.box = WaterBox(molecules, seed=seed)
        self.pairs = build_neighbor_pairs(self.box, cutoff)
        self.forces = water_forces(self.box, self.pairs)
        self.atoms = 3 * molecules

    @property
    def num_pairs(self):
        return len(self.pairs)

    def reference(self):
        """Ground-truth force array, flattened to atoms*3 words."""
        total = np.zeros((self.box.molecules, 3, 3))
        np.add.at(total, self.pairs[:, 0], self.forces[:, 0])
        np.add.at(total, self.pairs[:, 1], self.forces[:, 1])
        return total.reshape(-1)

    # ------------------------------------------------------------------ #
    def _owner_sums(self):
        """Register-accumulated force of each pair's owning molecule i."""
        total = np.zeros((self.box.molecules, 3, 3))
        np.add.at(total, self.pairs[:, 0], self.forces[:, 0])
        return total.reshape(-1)

    def partner_updates(self):
        """The scatter-add stream: 9 words per pair onto molecule j."""
        j = self.pairs[:, 1]
        base = (j * 9)[:, None] + np.arange(9)[None, :]
        indices = base.reshape(-1)
        values = self.forces[:, 1].reshape(len(self.pairs), 9).reshape(-1)
        return indices, values

    def _gather_phase(self, duplicated):
        """Position gathers + the force kernel (positions cache resident)."""
        reads = self.num_pairs * 9 * (2 if duplicated else 1)
        ops = self.num_pairs * (
            PAIR_OPS_DUPLICATED if duplicated else PAIR_OPS_SINGLE
        )
        return Phase([
            Bulk("neighbor_list", self.num_pairs * (2 if duplicated else 1)),
            Bulk("positions", reads, cached=True),
            Kernel("nb_forces", ops, efficiency=MD_EFFICIENCY),
        ])

    # ------------------------------------------------------------------ #
    def run_hardware(self, config):
        """Single evaluation per pair; partner forces via HW scatter-add.

        The scatter-add stream shares the compute phase: "the processor's
        main execution unit can continue running the program, while the
        sums are being updated in memory" (Section 1).  The small owner
        write goes first so the concurrent scatter-adds land on top of it.
        """
        processor = StreamProcessor(config)
        indices, values = self.partner_updates()
        owner = self._owner_sums()
        owner_addrs = list(range(self.atoms * 3))
        compute = self._gather_phase(duplicated=False)
        compute.ops.append(ScatterAdd([int(i) for i in indices],
                                      list(values)))
        program = StreamProgram([
            Phase([Scatter(owner_addrs, list(owner), name="owner_forces")]),
            compute,
        ], name="md_hw")
        result = processor.run(program)
        forces = processor.read_result(0, self.atoms * 3)
        return WorkloadResult(config, "hardware", result.cycles, forces,
                              processor.stats)

    def run_duplicated(self, config):
        """The no-scatter-add workaround: compute every pair twice."""
        processor = StreamProcessor(config)
        program = StreamProgram([
            self._gather_phase(duplicated=True),
            Phase([Bulk("force_out", self.atoms * 3)]),
        ], name="md_noscatter")
        result = processor.run(program)
        return WorkloadResult(config, "no_scatter_add", result.cycles,
                              self.reference(), processor.stats)

    def run_software(self, config, batch=256):
        """Single evaluation per pair; partner forces via sort&scan."""
        processor = StreamProcessor(config)
        owner = self._owner_sums()
        owner_addrs = list(range(self.atoms * 3))
        compute = processor.run(StreamProgram([
            self._gather_phase(duplicated=False),
            Phase([Scatter(owner_addrs, list(owner), name="owner_forces")]),
        ], name="md_sw"))
        indices, values = self.partner_updates()
        software = SortScanScatterAdd(config, batch=batch)
        run = software.run(indices, values, num_targets=self.atoms * 3,
                           initial=processor.read_result(0, self.atoms * 3))
        stats = processor.stats.merge(run.stats)
        return WorkloadResult(config, "software", compute.cycles + run.cycles,
                              run.result, stats)
