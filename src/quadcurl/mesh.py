"""Structured uniform brick partition of the unit cube.

Global entity numbering is axis-major and lexicographic so DoF layouts are
reproducible.  Orientation is fixed globally: every edge tangent and face
normal is the positive coordinate axis direction, which keeps shared DoFs
single-valued without sign bookkeeping.

A cell is the sub = 1 case of a block of sub^3 cells; a macroelement is the
sub = 3 case.  ``BrickMesh.block_table`` fixes the local order of a block's
vertices, edges and faces, which is also the DoF order of the reference
spaces (``macro_partition``: the (macros, 144) fine edges).
"""

from __future__ import annotations

import numpy as np


class NonDivisibleMesh(Exception):
    """Macroelement partition requested on a mesh with n not divisible by 3."""


def _lattice(dims):
    """Points of the integer box ``[0, dims)`` as rows ``(i, j, k)`` in
    lexicographic order, C-contiguous."""
    return np.indices(dims).reshape(3, -1).T.copy()


def _axis_major_lattice(along, across):
    """Rows ``(axis, i, j, k)``, axis-major: for each axis the lattice with
    ``along`` points on that axis and ``across`` on the other two, in
    lexicographic order."""
    blocks = []
    for axis in range(3):
        dims = [across] * 3
        dims[axis] = along
        lat = _lattice(dims)
        blocks.append(np.column_stack([np.full(len(lat), axis), lat]))
    return np.concatenate(blocks).astype(np.int64)


def _within_axis_block(axis, i, j, k, along, across):
    """Position of lattice (i, j, k) inside the block of ``axis`` (scalars or
    arrays, axis included) of :func:`_axis_major_lattice`."""
    axis = np.asarray(axis)
    d1 = np.where(axis == 1, along, across)
    d2 = np.where(axis == 2, along, across)
    return (np.asarray(i) * d1 + np.asarray(j)) * d2 + np.asarray(k)


def edge_lattice_order(n):
    """Canonical edge enumeration of an n x n x n partition.

    Returns an integer array of rows ``(axis, i, j, k)`` where the coordinate
    along ``axis`` runs over ``[0, n)`` and the two transverse coordinates over
    ``[0, n]``.  Row position equals the global edge id.
    """
    return _axis_major_lattice(n, n + 1)


def face_lattice_order(n):
    """Canonical face enumeration; ``axis`` is the normal direction.

    The normal coordinate runs over ``[0, n]`` and the two in-plane
    coordinates over ``[0, n)``.  Row position equals the global face id.
    """
    return _axis_major_lattice(n + 1, n)


class BrickMesh:
    """Uniform n x n x n partition of [0,1]^3 with indexed entities.

    Holds its sizes and boundary flags and no table: the id functions and
    ``edge_lattice`` number the entities by arithmetic, and
    ``block_table`` builds a per-cell or per-block table for one use.
    """

    def __init__(self, n):
        if n < 1:
            raise ValueError("mesh subdivisions must be >= 1")
        self.n = int(n)
        self.h = 1.0 / n

        self.n_cells = n**3
        self.n_vertices = (n + 1) ** 3
        self.edges_per_axis = n * (n + 1) ** 2
        self.faces_per_axis = n**2 * (n + 1)
        self.n_edges = 3 * self.edges_per_axis
        self.n_faces = 3 * self.faces_per_axis

        flags = classify_boundary(self)
        self.vertex_is_boundary = flags["vertices"]
        self.edge_is_boundary = flags["edges"]
        self.face_is_boundary = flags["faces"]

    def vertex_id(self, i, j, k):
        n1 = self.n + 1
        return (np.asarray(i) * n1 + np.asarray(j)) * n1 + np.asarray(k)

    def cell_id(self, i, j, k):
        n = self.n
        return (np.asarray(i) * n + np.asarray(j)) * n + np.asarray(k)

    def edge_id(self, axis, i, j, k):
        """Global id of the edge parallel to ``axis`` at lattice (i, j, k)."""
        within = _within_axis_block(axis, i, j, k, self.n, self.n + 1)
        return np.asarray(axis) * self.edges_per_axis + within

    def face_id(self, axis, i, j, k):
        """Global id of the face with normal ``axis`` at lattice (i, j, k)."""
        within = _within_axis_block(axis, i, j, k, self.n + 1, self.n)
        return np.asarray(axis) * self.faces_per_axis + within

    def edge_lattice(self, ids):
        """``(axis, i, j, k)`` of edge ids, the rows of
        ``edge_lattice_order(n)`` at ``ids``, by division: the inverse of
        ``edge_id``."""
        n = self.n
        axis, within = np.divmod(ids, self.edges_per_axis)
        within, k = np.divmod(within, np.where(axis == 2, n, n + 1))
        i, j = np.divmod(within, np.where(axis == 1, n, n + 1))
        return axis, i, j, k

    def block_table(self, sub, vertices=None, edges=None, faces=None):
        """The entries of per-entity arrays (indexed by vertex, edge or
        face id; any trailing axes flattened per entity) at the local
        vertices, edges and faces of every block of sub^3 cells, one row per
        block, blocks numbered as the cells of the n/sub mesh; local
        vertices in the order of :func:`_lattice`, edges and faces in that
        of :func:`edge_lattice_order` / :func:`face_lattice_order` at
        n = sub, the classes given in that order.

        The local entity (axis, i, j, k) of block (I, J, K) is the entity
        (axis, sub I + i, sub J + j, sub K + k), so each column is one
        strided slice of its class's lattice; the columns fill a (columns,
        blocks) buffer, transposed once."""
        n, nb = self.n, self.n // sub
        parts = []      # (lattice view, local lattice points)
        if vertices is not None:
            parts.append((vertices.reshape((n + 1,) * 3 + (-1,)),
                          _lattice((sub + 1,) * 3)))
        for values, order, along, across in (
                (edges, edge_lattice_order, n, n + 1),
                (faces, face_lattice_order, n + 1, n)):
            if values is not None:      # one class per axis, axis-major
                local = order(sub)
                for axis, block in enumerate(np.split(values, 3)):
                    dims = [across] * 3
                    dims[axis] = along
                    parts.append((block.reshape(dims + [-1]),
                                  local[local[:, 0] == axis, 1:]))
        width = sum(len(local) * view.shape[3] for view, local in parts)
        out = np.empty((width, nb, nb, nb),
                       np.result_type(*(view for view, _ in parts)))
        col = 0
        for view, local in parts:
            step = view.shape[3]
            for i, j, k in local.tolist():
                out[col:col + step] = view[i:i + n:sub, j:j + n:sub,
                                           k:k + n:sub].transpose(3, 0, 1, 2)
                col += step
        return np.ascontiguousarray(out.reshape(width, -1).T)


def build_mesh(n):
    """Build the uniform n x n x n brick mesh of the unit cube."""
    return BrickMesh(n)


def classify_boundary(mesh):
    """Boundary flags per entity, in id order: an entity is boundary iff it
    lies in the closure of the cube boundary, that is iff one of its lattice
    coordinates that run over [0, n] (every one of a vertex, the two across
    an edge, the normal one of a face) is 0 or n."""
    n = mesh.n
    ends = np.zeros(n + 1, dtype=bool)
    ends[[0, n]] = True
    inner = np.zeros(n, dtype=bool)

    def box(x, y, z):
        # lexicographic, as ``_lattice``
        return (x[:, None, None] | y[:, None] | z).ravel()

    def by_axis(along, across):
        # axis-major, as ``_axis_major_lattice``
        return np.concatenate([box(*(along if d == axis else across
                                     for d in range(3))) for axis in range(3)])

    return {"vertices": box(ends, ends, ends), "edges": by_axis(inner, ends),
            "faces": by_axis(ends, inner)}


def macro_partition(mesh):
    """The fine edges of every 3 x 3 x 3 macroelement, (macros, 144), macros
    numbered lexicographically on the macro lattice and edges in the order of
    :func:`edge_lattice_order` at n = 3, the DoF order of the macro space;
    raises NonDivisibleMesh unless n is a multiple of 3."""
    if mesh.n % 3:
        raise NonDivisibleMesh(
            f"macro partition needs n divisible by 3, got n={mesh.n}")
    return mesh.block_table(3, edges=np.arange(mesh.n_edges))

