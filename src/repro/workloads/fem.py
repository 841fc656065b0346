"""Synthetic tetrahedral finite-element mesh with cubic Lagrange elements.

The paper's SpMV dataset comes from "cubic element discretization with 20
degrees of freedom using C0 continuous Lagrange finite elements of a 1916
tetrahedra finite-element model", yielding a 9,978 x 9,978 matrix with
44.26 nonzeros per row on average.  We rebuild the same *structure* from
scratch: a structured box of cubes, each split into six tetrahedra (Kuhn
subdivision, which is conforming), with the 20 nodes of a cubic Lagrange
tetrahedron (4 vertices + 2 per edge x 6 edges + 1 per face x 4 faces)
numbered globally so shared entities share degrees of freedom.  Element
stiffness matrices are synthetic symmetric positive-definite blocks -- the
paper's evaluation depends only on the sparsity structure and element
connectivity, not on the physics.

The default grid (8 x 8 x 5 cubes -> 1,920 tetrahedra) was chosen to match
the paper's element count (1,916) and DOF count (9,978) as closely as a
structured mesh allows; :func:`build_tet_mesh` reports the achieved
statistics.
"""

from itertools import combinations

import numpy as np

#: The six tetrahedra of the Kuhn subdivision of a unit cube, as chains of
#: vertices along the main diagonal c000 -> c111.  Vertex keys are (dx, dy,
#: dz) corner offsets.
_KUHN_PATHS = [
    ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)),
    ((0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 1, 1)),
    ((0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1)),
    ((0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 1, 1)),
    ((0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)),
    ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)),
]


class TetMesh:
    """A tetrahedral mesh with cubic-Lagrange global node numbering.

    Attributes
    ----------
    element_nodes:
        Integer array of shape (num_elements, 20): the global DOF of each
        element's 20 nodes.
    element_matrices:
        Float array of shape (num_elements, 20, 20): synthetic symmetric
        element stiffness blocks.
    num_nodes:
        Total global DOF count.
    """

    def __init__(self, element_nodes, element_matrices, num_nodes):
        self.element_nodes = element_nodes
        self.element_matrices = element_matrices
        self.num_nodes = num_nodes

    @property
    def num_elements(self):
        return len(self.element_nodes)

    def assemble_dense_rows(self):
        """Assemble the global sparse matrix as {row: {col: value}}."""
        rows = {}
        for nodes, matrix in zip(self.element_nodes, self.element_matrices):
            for a in range(20):
                row = rows.setdefault(int(nodes[a]), {})
                for b in range(20):
                    col = int(nodes[b])
                    row[col] = row.get(col, 0.0) + matrix[a, b]
        return rows

    def assemble_csr(self):
        """Assemble compressed-sparse-row arrays (indptr, indices, data)."""
        rows = self.assemble_dense_rows()
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        total = sum(len(rows.get(r, ())) for r in range(self.num_nodes))
        indices = np.empty(total, dtype=np.int64)
        data = np.empty(total, dtype=np.float64)
        position = 0
        for row in range(self.num_nodes):
            entries = rows.get(row, {})
            for col in sorted(entries):
                indices[position] = col
                data[position] = entries[col]
                position += 1
            indptr[row + 1] = position
        return indptr, indices, data

    def __repr__(self):
        return "TetMesh(%d elements, %d nodes)" % (
            self.num_elements, self.num_nodes,
        )


def build_tet_mesh(nx=8, ny=8, nz=5, seed=0):
    """Build the synthetic cubic-Lagrange tetrahedral mesh.

    Returns a :class:`TetMesh` whose defaults approximate the paper's
    dataset: 1,920 elements (paper: 1,916) and close to 9,978 DOF.
    """
    if min(nx, ny, nz) < 1:
        raise ValueError("grid dimensions must be >= 1")

    def vertex_id(x, y, z):
        return (x * (ny + 1) + y) * (nz + 1) + z

    tets = []
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                for path in _KUHN_PATHS:
                    tets.append(tuple(
                        vertex_id(x + dx, y + dy, z + dz)
                        for (dx, dy, dz) in path
                    ))

    num_vertices = (nx + 1) * (ny + 1) * (nz + 1)
    edge_ids = {}
    face_ids = {}
    next_id = num_vertices

    element_nodes = np.empty((len(tets), 20), dtype=np.int64)
    for index, tet in enumerate(tets):
        nodes = list(tet)
        # Two nodes per edge (cubic Lagrange: points at 1/3 and 2/3).
        for a, b in combinations(sorted(tet), 2):
            key = (a, b)
            if key not in edge_ids:
                edge_ids[key] = next_id
                next_id += 2
            first = edge_ids[key]
            nodes.extend((first, first + 1))
        # One node per face.
        for face in combinations(sorted(tet), 3):
            if face not in face_ids:
                face_ids[face] = next_id
                next_id += 1
            nodes.append(face_ids[face])
        element_nodes[index] = nodes

    rng = np.random.default_rng(seed)
    element_matrices = np.empty((len(tets), 20, 20))
    for index in range(len(tets)):
        factor = rng.standard_normal((20, 20)) / 20.0
        element_matrices[index] = factor @ factor.T + np.eye(20)

    return TetMesh(element_nodes, element_matrices, next_id)
