"""The discrete symmetries of the manufactured solution.

u = curl(0, 0, phi) with phi = prod_i sin^3(pi x_i) is an eigenvector of each
reflection x_a -> 1 - x_a and of the x <-> y swap.  On the uniform mesh each
map sends edges to edges and faces to faces, and so the V_h DoFs (the
tangential integral of each edge and the two in-plane curl integrals of each
face, every tangent along a positive axis) to DoFs with known signs: u_h and
I_h u must be eigenvectors of the DoF maps too, with u's eigenvalues, to
round-off.  On the entity lattices of ``quadcurl.mesh``:

* reflection R_a, edges: coordinate a goes to n - 1 - c if the edge runs
  along a, else to n - c; the sign is -1 along a, else +1;
* reflection R_a, faces: coordinate a goes to n - c if the normal is a, else
  to n - 1 - c; the curl component along d has sign +1 if d = a, else -1;
* the swap, edges: the axis is swapped and (i, j, k) -> (j, i, k), sign +1;
* the swap, faces: the normal is swapped and the lattice transposed; both
  curl components take sign -1, reordered to the target face's ascending
  in-plane order.

Each sign is that of the tangent, times for a curl component the
determinant of the map (curl is a pseudovector).  The eigenvalues are -1,
-1 and +1 for R_x, R_y and R_z, and -1 for the swap.
"""

import numpy as np

from quadcurl.mesh import edge_lattice_order, face_lattice_order

# name -> (the axis each axis goes to, the reflected axes, u's eigenvalue)
MAPS = {"R_x": ((0, 1, 2), (0,), -1), "R_y": ((0, 1, 2), (1,), -1),
        "R_z": ((0, 1, 2), (2,), 1), "swap_xy": ((1, 0, 2), (), -1)}
# the in-plane axes of a face of each normal, ascending
IN_PLANE = np.array([[1, 2], [0, 2], [0, 1]])


def _moved(rows, n, perm, flips, spans):
    """Rows ``(axis, i, j, k)`` of the images of the lattice entities
    ``rows``; ``spans`` (rows, 3) says which coordinates run over a cell,
    [0, n), and not over a lattice plane, [0, n]."""
    coords = rows[:, 1:].copy()
    for b in flips:
        coords[:, b] = np.where(spans[:, b], n - 1, n) - coords[:, b]
    out = np.empty_like(rows)
    out[:, 0] = np.asarray(perm)[rows[:, 0]]
    out[:, 1 + np.asarray(perm)] = coords
    return out


def dof_map(mesh, gmap, name):
    """``(source, target, sign)`` over the interior V_h DoFs: the map
    ``name`` sends DoF ``source`` to ``sign`` times DoF ``target``."""
    perm, flips, _ = MAPS[name]
    det = round(np.linalg.det(np.eye(3)[list(perm)])) * (-1) ** len(flips)
    n, axes = mesh.n, np.arange(3)
    flipped = np.isin(axes, flips)
    edges = edge_lattice_order(n)
    to = mesh.edge_id(*_moved(edges, n, perm, flips,
                              edges[:, :1] == axes).T)
    parts = [(gmap.edge_dof, gmap.edge_dof[to],
              np.where(flipped[edges[:, 0]], -1, 1))]
    faces = face_lattice_order(n)
    to = mesh.face_id(*_moved(faces, n, perm, flips,
                              faces[:, :1] != axes).T)
    normal = np.asarray(perm)[faces[:, 0]]
    for d in (0, 1):
        along = IN_PLANE[faces[:, 0], d]
        slot = (IN_PLANE[normal, 1] == np.asarray(perm)[along]).astype(int)
        parts.append((gmap.face_dof[:, d], gmap.face_dof[to, slot],
                      det * np.where(flipped[along], -1, 1)))
    source, target, sign = map(np.concatenate, zip(*parts))
    inside = source < gmap.n_vdofs
    return source[inside], target[inside], sign[inside]


def defect(v, mesh, gmap, name):
    """The relative defect ||P v - lambda v|| / ||v|| of V_h coefficients
    ``v`` under the DoF map P of ``name``, lambda u's eigenvalue."""
    source, target, sign = dof_map(mesh, gmap, name)
    moved = np.zeros_like(v)
    moved[target] = sign * v[source]
    return np.linalg.norm(moved - MAPS[name][2] * v) / np.linalg.norm(v)
