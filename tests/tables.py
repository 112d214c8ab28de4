"""Dense oracles that only the tests read: tensor Gauss rules on boxes, the
dual tables of a reference space at arbitrary points and the entity ids of
the blocks of a mesh."""

import numpy as np

from quadcurl.mesh import _lattice, edge_lattice_order, face_lattice_order
from quadcurl.polyquad import gauss_rule
from quadcurl.spaces import factored_table

REFERENCE_CELL = ((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))


def gauss_box(q, lo=REFERENCE_CELL[0], hi=REFERENCE_CELL[1]):
    """Tensor Gauss rule of order q on a box: points (q^3, 3), weights
    (q^3,)."""
    t, w = gauss_rule(q)
    axes = [(lo[i] + (hi[i] - lo[i]) * t, (hi[i] - lo[i]) * w)
            for i in range(3)]
    P = np.stack(np.meshgrid(axes[0][0], axes[1][0], axes[2][0], indexing="ij"),
                 axis=-1).reshape(-1, 3)
    W = (axes[0][1][:, None, None] * axes[1][1][None, :, None]
         * axes[2][1][None, None, :]).reshape(-1)
    return P, W


def _dense_table(space, pts, col):
    """Column ``col`` of every dual at reference points: (ndof, npts, K)."""
    table = factored_table(space)[col]
    x, y, z = (pts[:, a, None] ** np.arange(len(table)) for a in range(3))
    return np.einsum("abjck,pa,pb,pc->jpk", table, x, y, z, optimize=True)


def dual_value_table(space, pts):
    """Values of all dual fields at reference points: (ndof, npts, 3)."""
    return _dense_table(space, pts, 2)


def dual_curl_table(space, pts):
    return _dense_table(space, pts, 1)


def dual_gradcurl_table(space, pts):
    """Jacobians of the curls of all duals: (ndof, npts, 3, 3); entry
    [..., i, j] is d(curl f)_i / d x_j."""
    return _dense_table(space, pts, 0).reshape(space.dim, len(pts), 3, 3)


def broadcast_block_entities(mesh, sub):
    """``(cells, vertices, edges, faces)`` ids of every block of sub^3 cells,
    each (blocks, local entities): every local entity's lattice point
    shifted by every block corner, broadcast, and numbered by the id
    functions."""
    low = (sub * _lattice((mesh.n // sub,) * 3)).T[:, :, None]
    cells = mesh.cell_id(*(low + _lattice((sub,) * 3).T[:, None]))
    verts = mesh.vertex_id(*(low + _lattice((sub + 1,) * 3).T[:, None]))
    edges = edge_lattice_order(sub).T
    edges = mesh.edge_id(edges[0], *(low + edges[1:, None]))
    faces = face_lattice_order(sub).T
    faces = mesh.face_id(faces[0], *(low + faces[1:, None]))
    return cells, verts, edges, faces
