import numpy as np
import pytest

from quadcurl.mesh import (BrickMesh, NonDivisibleMesh, _lattice, build_mesh,
                           classify_boundary, edge_lattice_order,
                           face_lattice_order, macro_partition)
from tables import broadcast_block_entities


def _id_tables(m, sub=1):
    """``block_table`` of the vertex, edge and face ids, one class at a
    time."""
    return [m.block_table(sub, **{kind: np.arange(count)}) for kind, count
            in (("vertices", m.n_vertices), ("edges", m.n_edges),
                ("faces", m.n_faces))]


@pytest.mark.parametrize("n,cells,verts,edges,faces", [
    (1, 1, 8, 12, 6),
    (2, 8, 27, 54, 36),
    (6, 216, 343, 882, 756),
])
def test_entity_counts(n, cells, verts, edges, faces):
    m = build_mesh(n)
    assert (m.n_cells, m.n_vertices, m.n_edges, m.n_faces) == \
        (cells, verts, edges, faces)


def test_closed_form_counts_small_n():
    for n in range(1, 9):
        m = build_mesh(n)
        assert m.n_edges == 3 * n * (n + 1) ** 2
        assert m.n_faces == 3 * n**2 * (n + 1)


@pytest.mark.parametrize("n,iv,ie,iface", [
    (1, 0, 0, 0),
    (2, 1, 6, 12),
    (3, 8, 36, 54),
])
def test_interior_counts(n, iv, ie, iface):
    m = build_mesh(n)
    flags = classify_boundary(m)
    assert (~flags["vertices"]).sum() == iv
    assert (~flags["edges"]).sum() == ie
    assert (~flags["faces"]).sum() == iface
    # per-axis closed forms
    for axis in range(3):
        sel = edge_lattice_order(n)[:, 0] == axis
        assert (~m.edge_is_boundary[sel]).sum() == n * (n - 1) ** 2
        self_f = face_lattice_order(n)[:, 0] == axis
        assert (~m.face_is_boundary[self_f]).sum() == n**2 * (n - 1)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_boundary_flags_follow_the_midpoint_rule(n):
    # an entity is boundary iff its midpoint lies on the cube boundary; in
    # units of h/2 the midpoint is twice the lattice index plus one along
    # each axis the entity spans
    m = build_mesh(n)
    unit = np.eye(3, dtype=int)
    edges, faces = edge_lattice_order(n), face_lattice_order(n)
    midpoints = {"vertices": 2 * _lattice((n + 1,) * 3),
                 "edges": 2 * edges[:, 1:] + unit[edges[:, 0]],
                 "faces": 2 * faces[:, 1:] + 1 - unit[faces[:, 0]]}
    flags = classify_boundary(m)
    for kind, mid in midpoints.items():
        on_boundary = np.any((mid == 0) | (mid == 2 * n), axis=1)
        assert np.array_equal(flags[kind], on_boundary), kind


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_boundary_flags_follow_cell_incidence(n):
    # oracle: an entity is interior iff every cell around it exists, 8
    # around a vertex, 4 around an edge and 2 around a face, counted over
    # the cell tables
    m = build_mesh(n)
    flags = classify_boundary(m)
    for kind, table, count, around in zip(
            ("vertices", "edges", "faces"), _id_tables(m),
            (m.n_vertices, m.n_edges, m.n_faces), (8, 4, 2)):
        want = np.bincount(table.ravel(), minlength=count) < around
        assert flags[kind].dtype == bool and np.array_equal(flags[kind],
                                                            want), kind
    assert np.array_equal(m.vertex_is_boundary, flags["vertices"])
    assert np.array_equal(m.edge_is_boundary, flags["edges"])
    assert np.array_equal(m.face_is_boundary, flags["faces"])


def test_build_mesh_builds_no_cell_table(monkeypatch):
    # the boundary flags come from the lattice coordinates alone
    def refuse(*args):
        raise AssertionError("block_table called")

    monkeypatch.setattr(BrickMesh, "block_table", refuse)
    for n in range(1, 7):
        build_mesh(n)


def test_rejects_empty_mesh():
    with pytest.raises(ValueError):
        build_mesh(0)


def test_interior_edge_shared_by_four_cells():
    m = build_mesh(3)
    counts = np.zeros(m.n_edges, dtype=int)
    for row in m.block_table(1, edges=np.arange(m.n_edges)):
        counts[row] += 1
    interior = ~m.edge_is_boundary
    assert np.all(counts[interior] == 4)


def test_interior_face_shared_by_two_cells():
    m = build_mesh(3)
    counts = np.zeros(m.n_faces, dtype=int)
    for row in m.block_table(1, faces=np.arange(m.n_faces)):
        counts[row] += 1
    assert np.all(counts[~m.face_is_boundary] == 2)
    assert np.all(counts[m.face_is_boundary] == 1)


def _macro_blocks(m):
    """The oracle's ids of the macros: (cells, vertices, edges, faces)."""
    return broadcast_block_entities(m, 3)


def test_macro_partition_single_block():
    m = build_mesh(3)
    part = macro_partition(m)
    cells, _, edges, faces = _macro_blocks(m)
    assert part.shape == (1, 144)
    assert np.array_equal(part, edges)
    assert faces.shape == (1, 108)
    assert sorted(cells[0]) == list(range(27))


def test_macro_partition_eight_blocks():
    m = build_mesh(6)
    part = macro_partition(m)
    cells, _, edges, _ = _macro_blocks(m)
    assert len(part) == 8
    assert np.array_equal(part, edges)
    # disjoint cover
    all_cells = np.sort(cells.reshape(-1))
    assert np.array_equal(all_cells, np.arange(216))


def test_macro_partition_rejects_nondivisible():
    with pytest.raises(NonDivisibleMesh):
        macro_partition(build_mesh(4))


def test_cell_tables_consistent_with_entity_tables():
    m = build_mesh(2)
    # the first cell's low-corner vertex is (0,0,0) and its x-edges sit at
    # lattice (0, dy, dz)
    cell_vertices, cell_edges, cell_faces = _id_tables(m)
    assert cell_vertices[0, 0] == m.vertex_id(0, 0, 0)
    assert cell_edges[0, 0] == m.edge_id(0, 0, 0, 0)
    assert cell_faces[0, 0] == m.face_id(0, 0, 0, 0)
    assert cell_faces[0, 1] == m.face_id(0, 1, 0, 0)
    # whole tables against a triple loop over the cells: edges axis-major
    # with transverse offsets lexicographic, faces (low, high) per normal
    # axis, vertices with local id dx*4 + dy*2 + dz
    for n in range(1, 5):
        m = build_mesh(n)
        edges, faces, verts = [], [], []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    edges.append(
                        [m.edge_id(0, i, j + a, k + b) for a in (0, 1)
                         for b in (0, 1)]
                        + [m.edge_id(1, i + a, j, k + b) for a in (0, 1)
                           for b in (0, 1)]
                        + [m.edge_id(2, i + a, j + b, k) for a in (0, 1)
                           for b in (0, 1)])
                    faces.append([m.face_id(0, i, j, k),
                                  m.face_id(0, i + 1, j, k),
                                  m.face_id(1, i, j, k),
                                  m.face_id(1, i, j + 1, k),
                                  m.face_id(2, i, j, k),
                                  m.face_id(2, i, j, k + 1)])
                    verts.append([m.vertex_id(i + a, j + b, k + c)
                                  for a in (0, 1) for b in (0, 1)
                                  for c in (0, 1)])
        cell_vertices, cell_edges, cell_faces = _id_tables(m)
        for table, want in ((cell_edges, edges), (cell_faces, faces),
                             (cell_vertices, verts)):
            assert table.shape == (n**3, len(want[0]))
            assert np.array_equal(table, np.array(want))


def test_centers_and_sizes():
    m = build_mesh(4)
    assert m.h == 0.25
    # cell ids number the cell lattice lexicographically
    c0 = (_lattice((4,) * 3)[m.cell_id(1, 2, 3)] + 0.5) * m.h
    assert np.allclose(c0, [0.375, 0.625, 0.875])


def _loop_lattice(along, across):
    # reference enumeration: axis-major, then lexicographic triple loops
    rows = []
    for axis in range(3):
        dims = [across] * 3
        dims[axis] = along
        rows += [(axis, i, j, k) for i in range(dims[0])
                 for j in range(dims[1]) for k in range(dims[2])]
    return np.array(rows, dtype=np.int64)


def test_entity_ids_invert_lattice_tables():
    for n in range(1, 6):
        mesh = build_mesh(n)
        edges, faces = edge_lattice_order(n), face_lattice_order(n)
        assert np.array_equal(edges, _loop_lattice(n, n + 1))
        assert np.array_equal(faces, _loop_lattice(n + 1, n))
        assert np.array_equal(mesh.edge_id(*edges.T), np.arange(mesh.n_edges))
        assert np.array_equal(mesh.face_id(*faces.T), np.arange(mesh.n_faces))
        # and the division back
        ids = np.arange(mesh.n_edges)[::-1]
        assert np.array_equal(np.stack(mesh.edge_lattice(ids), axis=1),
                              edges[ids])


def test_block_table_matches_the_broadcast_construction():
    rng = np.random.default_rng(5)
    for n in range(1, 8):
        mesh = build_mesh(n)
        for sub in (1, 2, 3):
            if n % sub:
                continue
            _, *want = broadcast_block_entities(mesh, sub)
            got = _id_tables(mesh, sub)
            # the classes together, in the order vertices, edges, faces
            got.append(mesh.block_table(sub, np.arange(mesh.n_vertices),
                                        np.arange(mesh.n_edges),
                                        np.arange(mesh.n_faces)))
            want.append(np.hstack(want))
            for table, ids in zip(got, want):
                assert table.dtype == ids.dtype == np.int64
                assert table.flags.c_contiguous
                assert np.array_equal(table, ids)
            # value arrays, a trailing axis flattened per entity
            edge_vals = rng.standard_normal(mesh.n_edges)
            face_vals = rng.standard_normal((mesh.n_faces, 2))
            table = mesh.block_table(sub, edges=edge_vals, faces=face_vals)
            edges, faces = want[1:3]
            assert table.dtype == np.float64 and table.flags.c_contiguous
            assert np.array_equal(table, np.hstack([
                edge_vals[edges], face_vals[faces].reshape(len(faces), -1)]))
