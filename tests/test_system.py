import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from numpy.polynomial import Polynomial

from quadcurl import mesh as mesh_module
from quadcurl import interp, mms, spaces, system
from quadcurl.mesh import build_mesh
from quadcurl.spaces import reference_spaces
from tables import (broadcast_block_entities, dual_gradcurl_table,
                    dual_value_table, gauss_box)


@pytest.fixture(scope="module")
def exact():
    return mms.build_exact_fields()


@pytest.fixture(scope="module")
def setup3(exact):
    mesh = build_mesh(3)
    gmap = system.build_dof_map(mesh)
    return mesh, gmap


def test_dof_counts_match_closed_forms():
    for n in (2, 3, 4, 6):
        mesh = build_mesh(n)
        gmap = system.build_dof_map(mesh)
        interior_edges = 3 * n * (n - 1) ** 2
        interior_faces = 3 * n**2 * (n - 1)
        assert gmap.n_vdofs == interior_edges + 2 * interior_faces
        assert gmap.n_qdofs == (n - 1) ** 3


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dof_tables_number_interior_dofs_once_and_slot_the_rest(n):
    # an eliminated boundary DoF holds the slot just past the numbered DoFs
    mesh = build_mesh(n)
    gmap = system.build_dof_map(mesh)
    nv, nq = gmap.n_vdofs, gmap.n_qdofs
    for table, size in ((gmap.edge_dof, nv), (gmap.face_dof, nv),
                        (gmap.cell_vdofs, nv), (gmap.vertex_dof, nq),
                        (gmap.cell_qdofs, nq)):
        assert table.min() >= 0 and table.max() <= size
    vids = np.concatenate([gmap.edge_dof, gmap.face_dof.ravel()])
    assert np.array_equal(np.sort(vids[vids < nv]), np.arange(nv))
    qids = gmap.vertex_dof[gmap.vertex_dof < nq]
    assert np.array_equal(np.sort(qids), np.arange(nq))
    assert np.all(gmap.edge_dof[mesh.edge_is_boundary] == nv)
    assert np.all(gmap.face_dof[mesh.face_is_boundary] == nv)
    assert np.all(gmap.vertex_dof[mesh.vertex_is_boundary] == nq)
    assert np.all(gmap.edge_dof[~mesh.edge_is_boundary] < nv)
    assert np.all(gmap.face_dof[~mesh.face_is_boundary] < nv)
    assert np.all(gmap.vertex_dof[~mesh.vertex_is_boundary] < nq)
    # the cell tables against the id oracle: edges, then each face's pair
    _, vertices, edges, faces = broadcast_block_entities(mesh, 1)
    assert np.array_equal(gmap.cell_vdofs, np.hstack([
        gmap.edge_dof[edges], gmap.face_dof[faces].reshape(len(faces), -1)]))
    assert np.array_equal(gmap.cell_qdofs, gmap.vertex_dof[vertices])


def test_stiffness_annihilates_gradients(setup3):
    mesh, gmap = setup3
    A = system.assemble_A(mesh, gmap)
    G = system.gradient_inclusion_matrix(mesh, gmap)
    rng = np.random.default_rng(0)
    q = rng.standard_normal(gmap.n_qdofs)
    # A is positive semidefinite: its largest entry lies on the diagonal
    scale = A.diagonal().max()
    assert np.abs(A @ (G @ q)).max() < 1e-12 * scale


@pytest.mark.parametrize("n", [2, 3])
def test_cell_operator_matches_assembled_stiffness(n):
    # reference: each cell matrix added into a dense matrix cell by cell,
    # skipping the eliminated boundary DoFs (the slot past the numbered ones)
    mesh = build_mesh(n)
    gmap = system.build_dof_map(mesh)
    h = mesh.h
    ref = system.reference_matrices()
    vdofs, qdofs = gmap.cell_vdofs, gmap.cell_qdofs
    cases = ((system.assemble_A(mesh, gmap), ref["M2"] / h**3, vdofs, vdofs),
             (system.assemble_B(mesh, gmap), ref["B"] * h, vdofs, qdofs))
    rng = np.random.default_rng(6)
    for op, local, rows, cols in cases:
        dense = np.zeros(op.shape)
        for r, c in zip(rows, cols):
            r_in, c_in = r < op.shape[0], c < op.shape[1]
            dense[np.ix_(r[r_in], c[c_in])] += local[np.ix_(r_in, c_in)]
        tol = 1e-13 * np.abs(dense).max()
        assert np.abs(op.toarray() - dense).max() < tol
        X = rng.standard_normal((op.shape[1], 3))
        Y = rng.standard_normal((op.shape[0], 3))
        assert np.abs(op @ X - dense @ X).max() < tol * np.abs(X).sum(0).max()
        assert np.abs(op.T @ Y - dense.T @ Y).max() < \
            tol * np.abs(Y).sum(0).max()
        if rows is cols:
            assert np.abs(dense - dense.T).max() < tol
            assert np.abs(op.diagonal() - np.diag(dense)).max() < tol
        else:
            with pytest.raises(ValueError):
                op.diagonal()


def test_cell_operator_rejects_out_of_range_dofs():
    # the operators gather without a bounds check per apply, so the DoF
    # tables are checked once, when the operator is built
    dofs = np.array([[0, 1, 3], [1, 3, 2]])
    system.CellOperator(np.eye(3), dofs, dofs, (3, 3))
    for bad in (4, -1):
        dofs[1, 1] = bad
        with pytest.raises(IndexError):
            system.CellOperator(np.eye(3), dofs, dofs, (3, 3))


def test_quadratic_form_matches_direct_integration(setup3):
    # oracle: per-cell Gauss integration of |grad curl v_h|^2
    mesh, gmap = setup3
    A = system.assemble_A(mesh, gmap)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(gmap.n_vdofs)
    pts, wts = gauss_box(6)
    gc = dual_gradcurl_table(reference_spaces()["VK"], pts)
    h = mesh.h
    cols = gmap.cell_vdofs
    d = np.append(v, 0.0)[cols] / h
    gch = np.einsum("ci,igkl->cgkl", d, gc) / h**2
    direct = h**3 * np.einsum("cgkl,g->", gch**2, wts)
    assert float(v @ (A @ v)) == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_q1_inverse_inverts_the_coupling_product(n):
    # the pressure decoupling of solve_saddle rests on G^T B = S, the Q1
    # stiffness that q1_inverse inverts by fast diagonalization
    mesh = build_mesh(n)
    gmap = system.build_dof_map(mesh)
    B = system.assemble_B(mesh, gmap).toarray()
    G = system.gradient_inclusion_matrix(mesh, gmap)
    want = np.linalg.inv(G.T @ B)
    s_inv = system.q1_inverse(n)
    got = np.array([s_inv(e) for e in np.eye(gmap.n_qdofs)]).T
    assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


def test_coupling_entries_match_quadrature_oracle():
    # single-cell mesh: every entry of B is (dual_i, grad q_m) over the cell;
    # boundary elimination removes everything, so assemble the local matrix
    # instead and integrate with Gauss
    ref = system.reference_matrices()
    spcs = reference_spaces()
    pts, wts = gauss_box(6)
    vk_tab = dual_value_table(spcs["VK"], pts)
    q1_grad = np.array([[p.diff(j)(*pts.T) for j in range(3)]
                        for p in spcs["Q1K"].dual]).transpose(0, 2, 1)
    oracle = np.einsum("igk,mgk,g->im", vk_tab, q1_grad, wts)
    assert np.abs(oracle - ref["B"]).max() < 1e-12 * max(1, abs(ref["B"]).max())


def test_saddle_matrix_symmetry():
    for n in (2, 3, 6):
        mesh = build_mesh(n)
        gmap = system.build_dof_map(mesh)
        ex = mms.build_exact_fields()
        sys_ = system.build_system(mesh, gmap, ex, mode="modified")
        K = sys_.full_matrix()
        assert abs(K - K.T).max() <= 1e-12


def test_schemes_share_matrices(setup3, exact):
    mesh, gmap = setup3
    s1 = system.build_system(mesh, gmap, exact, mode="original")
    s2 = system.build_system(mesh, gmap, exact, mode="modified")
    assert np.array_equal(s1.A.toarray(), s2.A.toarray())
    assert np.array_equal(s1.B.toarray(), s2.B.toarray())
    assert not np.array_equal(s1.rhs, s2.rhs)


def test_modified_rhs_face_entries_vanish(setup3, exact):
    mesh, gmap = setup3
    rhs = system.assemble_rhs(mesh, gmap, exact, mode="modified")
    face_ids = gmap.face_dof[gmap.face_dof[:, 0] < gmap.n_vdofs].ravel()
    assert np.abs(rhs[face_ids]).max() == 0.0


def test_load_matches_pointwise_gauss_reference(exact, monkeypatch):
    # oracle: f evaluated point by point at each cell's Gauss points and
    # tested against the reference dual tables, cell by cell.  At n = 9,
    # tiles of 2 x 9 cells cut j into runs of 2 (the last column of tiles
    # partial in j) and tiles of 4 cells cut k into runs of 4 (partial in
    # k), so the load reads f's (y, z) factor of more than one column
    pts, wts = gauss_box(6)
    default = spaces.TILE_POINTS
    for n, tile_points in ((3, ()), (6, ()), (9, (2 * 9 * 6**3, 4 * 6**3))):
        mesh = build_mesh(n)
        gmap = system.build_dof_map(mesh)
        h = mesh.h
        for mode, tag in (("original", "VK"), ("modified", "NedelecK")):
            table = dual_value_table(reference_spaces()[tag], pts)
            want = np.zeros(gmap.n_vdofs)
            centers = (mesh_module._lattice((n,) * 3) + 0.5) * h
            for center, dofs in zip(centers, gmap.cell_vdofs):
                f = exact.f_value(center + h * pts)
                local = h * h * np.einsum("gk,igk,g->i", f, table, wts)
                for dof, val in zip(dofs, local):
                    if dof < gmap.n_vdofs:
                        want[dof] += val
            for points in (default,) + tile_points:
                monkeypatch.setattr(spaces, "TILE_POINTS", points)
                got = system.assemble_rhs(mesh, gmap, exact, mode=mode)
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_rhs_orthogonal_to_gradients(setup3, exact):
    # div f = 0 and the homogeneous boundary give (f, grad q_h) = 0; both
    # load variants must see that at quadrature accuracy
    mesh, gmap = setup3
    G = system.gradient_inclusion_matrix(mesh, gmap)
    rng = np.random.default_rng(3)
    q = rng.standard_normal(gmap.n_qdofs)
    gq = G @ q
    for mode in ("original", "modified"):
        rhs = system.assemble_rhs(mesh, gmap, exact, mode=mode)
        scale = np.linalg.norm(rhs) * np.linalg.norm(gq)
        assert abs(float(rhs @ gq)) < 1e-9 * scale


def test_solver_matches_dense_oracle(exact):
    # the divergence-free load has G^T F ~ 0 and p = 0; a random load has
    # G^T F != 0 and exercises the pressure solve.  At n = 3 the V-cycle has
    # one level; n = 6 (6 -> 3) runs the coarse correction.
    for n in (3, 6):
        mesh = build_mesh(n)
        gmap = system.build_dof_map(mesh)
        sys_ = system.build_system(mesh, gmap, exact, mode="modified")
        G = system.gradient_inclusion_matrix(mesh, gmap)
        K = sys_.full_matrix()
        random_load = np.random.default_rng(5).standard_normal(gmap.n_vdofs)
        for divergence_free, load in ((True, sys_.rhs), (False, random_load)):
            sys_.rhs = load
            u_it, p_it, _ = system.solve_saddle(sys_)
            z = scipy.linalg.solve(K, sys_.full_rhs())
            scale = max(1.0, np.abs(z).max())
            assert np.abs(u_it - z[:gmap.n_vdofs]).max() < 1e-8 * scale
            assert np.abs(p_it - z[gmap.n_vdofs:]).max() < 1e-8 * scale
            assert np.abs(sys_.B.T @ u_it).max() < \
                1e-12 * np.linalg.norm(load)
            if divergence_free:
                assert np.abs(p_it).max() < 1e-8
            else:
                assert np.linalg.norm(G.T @ load) > 0.1 * np.linalg.norm(load)
                assert np.abs(p_it).max() > 0.1


@pytest.mark.parametrize("n", [4, 9, 12])
def test_prolongation_maps_coarse_gradients_to_fine_gradients(n):
    # the averaging P of the V-cycle carries the coarse gradient G_H q to the
    # fine gradient of the same trilinear q sampled at the fine vertices
    # (sub = 2 at n = 4, 12; sub = 3 at n = 9)
    mesh = build_mesh(n)
    gmap = system.build_dof_map(mesh)
    level = system.multigrid_levels(mesh, gmap,
                                    system.assemble_A(mesh, gmap))[0]
    coarse = build_mesh(n // (2 if n % 2 == 0 else 3))
    cmap = system.build_dof_map(coarse)
    values = np.zeros(coarse.n_vertices)
    values[~coarse.vertex_is_boundary] = \
        np.random.default_rng(7).standard_normal(cmap.n_qdofs)
    # 1D linear interpolation from the coarse to the fine vertices, per axis
    fine_x = np.arange(n + 1) * coarse.n / n
    L = np.array([np.interp(fine_x, np.arange(coarse.n + 1), e)
                  for e in np.eye(coarse.n + 1)]).T
    sampled = np.einsum("ia,jb,kc,abc->ijk", L, L, L,
                        values.reshape((coarse.n + 1,) * 3)).ravel()
    want = system.gradient_inclusion_matrix(mesh, gmap) @ \
        sampled[~mesh.vertex_is_boundary]
    got = level.P @ (system.gradient_inclusion_matrix(coarse, cmap)
                     @ values[~coarse.vertex_is_boundary])
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("n", [4, 6, 9, 12, 18])
def test_averaging_folded_into_the_prolongation_keeps_every_bit(n):
    # P, its local rows scaled by 1 / the coarse cells that share their
    # fine DoF, against the unscaled P and the weights counted from its
    # DoF table, on every level: sub = 2 and 3, and n = 4's 2-cell coarse
    # mesh, all of whose cells are corner cells
    mesh = build_mesh(n)
    gmap = system.build_dof_map(mesh)
    levels = system.multigrid_levels(mesh, gmap,
                                     system.assemble_A(mesh, gmap))
    rng = np.random.default_rng(n)
    for level in levels[:-1]:
        P = level.P
        sub = {126: 2, 360: 3}[P.rows.shape[1]]
        plain = system.CellOperator(system.prolongation_matrix(sub),
                                    P.rows, P.cols, P.shape)
        weights = 1.0 / np.bincount(P.rows.ravel(),
                                    minlength=P.shape[0] + 1)[:-1]
        v, r = rng.standard_normal(P.shape[1]), rng.standard_normal(P.shape[0])
        assert np.array_equal(P @ v, weights * (plain @ v))
        assert np.array_equal(P.T @ r, plain.T @ (weights * r))


@pytest.mark.parametrize("start, degree", [
    ("zero", 4), ("nonzero", 4), ("zero", 14), ("nonzero", 14)],
    ids=["zero", "nonzero", "zero-14", "nonzero-14"])
def test_smoother_is_the_fourth_kind_chebyshev_recurrence(start, degree):
    # the smoothing step from x0, x0 + p(D^-1 A) D^-1 (b - A x0) with the
    # scaled residual formed as v_cycle forms it, equals the fourth-kind
    # Chebyshev three-term recurrence (Lottes 2023) on [0, LAMBDA], written
    # out here: x_k = x_{k-1} + d_{k-1}, r_k = r_{k-1} - A d_{k-1},
    # d_k = (2k-1)/(2k+3) d_{k-1} + (8k+4)/((2k+3) LAMBDA) D^-1 r_k; degree
    # 4 by Horner's rule, and the degree of a coarsest level above 3 cells
    # per edge (2 * 7 at n = 7)
    mesh = build_mesh(6)
    gmap = system.build_dof_map(mesh)
    A = system.assemble_A(mesh, gmap)
    level = system.Level(A, 1.0 / A.diagonal(), degree)
    rng = np.random.default_rng(12)
    b = rng.standard_normal(gmap.n_vdofs)
    x0 = (np.zeros(gmap.n_vdofs) if start == "zero"
          else rng.standard_normal(gmap.n_vdofs))
    lam = system.LAMBDA
    x, r = x0, b - A @ x0
    d = 4.0 / (3.0 * lam) * level.inv_diag * r
    for k in range(1, degree):
        x = x + d
        r = r - A @ d
        d = (2 * k - 1) / (2 * k + 3) * d \
            + (8 * k + 4) / ((2 * k + 3) * lam) * level.inv_diag * r
    want = x + d
    got = x0 + system._chebyshev(level, level.inv_diag * (b - A @ x0))
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_horner_coefficients_are_the_fourth_kind_polynomial():
    # the same recurrence as above, expanded on polynomials in t = D^-1 A
    # by numpy.polynomial from x_0 = 0: rho_0 = 1 the scaled residual,
    # d_0 = 4/(3 LAMBDA), rho_k = rho_{k-1} - t d_{k-1}, d_k = (2k-1)/(2k+3)
    # d_{k-1} + (8k+4)/((2k+3) LAMBDA) rho_k; the smoother is sum d_k
    lam, degree = system.LAMBDA, system.CHEBYSHEV_DEGREE
    t, rho = Polynomial([0.0, 1.0]), Polynomial([1.0])
    d = 4.0 / (3.0 * lam) * rho
    p = d
    for k in range(1, degree):
        rho = rho - t * d
        d = (2 * k - 1) / (2 * k + 3) * d \
            + (8 * k + 4) / ((2 * k + 3) * lam) * rho
        p = p + d
    want = p.coef
    got = system.CHEBYSHEV_COEFFICIENTS
    assert got.shape == (degree,)
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
    assert np.allclose(system.HORNER_RATIOS, (want[1:] / want[:-1])[::-1],
                       rtol=1e-15, atol=0)


@pytest.mark.parametrize("n", [5, 6, 7, 10])
def test_preconditioner_projects_onto_divergence_free_fields(n, exact):
    # r -> Q V(r), Q = I - G S^-1 B^T: every output is discretely
    # divergence-free, and on consistent residuals (G^T r = 0) the map is
    # symmetric, as CG needs: n = 5 and 7 have one level, smoothed with
    # degree 10 and 14; n = 6 runs 6 -> 3 and n = 10 runs 10 -> 5, whose
    # coarsest level smooths with degree 10
    mesh = build_mesh(n)
    gmap = system.build_dof_map(mesh)
    sys_ = system.build_system(mesh, gmap, exact, mode="modified")
    B = sys_.B
    G = system.gradient_inclusion_matrix(mesh, gmap)
    s_inv = system.q1_inverse(n)
    precond = system.velocity_preconditioner(sys_, G, s_inv)
    b_norm = np.linalg.norm(B.toarray(), 2)
    rng = np.random.default_rng(8)
    for _ in range(3):
        z = precond(rng.standard_normal(gmap.n_vdofs))
        assert np.linalg.norm(B.T @ z) < 1e-13 * b_norm * np.linalg.norm(z)

    def consistent(x):
        return x - B @ s_inv(G.T @ x)

    r, s = (consistent(rng.standard_normal(gmap.n_vdofs)) for _ in range(2))
    assert np.linalg.norm(G.T @ r) < 1e-12 * np.linalg.norm(r)
    assert float(s @ precond(r)) == pytest.approx(float(precond(s) @ r),
                                                   rel=1e-12)


def test_transpose_shares_the_work_arrays_of_its_operator(monkeypatch):
    # B and B^T, and a prolongation P and P^T, applied in turn: each apply
    # matches its dense product, and both directions keep their views of
    # the one shared pair: a gathered chunk of at most CHUNK table rows and
    # the product of every row.  Every operator of a solve set-up (A, B, G
    # and each V-cycle level's A and P, built fine A first as
    # ``cli._study_n`` does) views the one shared pair both ways, which the
    # fine A sizes
    monkeypatch.setattr(system, "_WORK", [np.empty(0), np.empty(0)])
    mesh = build_mesh(6)
    gmap = system.build_dof_map(mesh)
    A = system.assemble_A(mesh, gmap)
    B = system.assemble_B(mesh, gmap)
    G = system.gradient_inclusion_matrix(mesh, gmap)
    levels = system.multigrid_levels(mesh, gmap, A)
    P = levels[0].P
    rng = np.random.default_rng(9)
    for op in (B, P):
        dense = op.toarray()
        tol = 1e-13 * np.abs(dense).max()
        pair = [id(a) for a in op._work]
        for _ in range(2):
            y = rng.standard_normal(op.shape[1])
            x = rng.standard_normal(op.shape[0])
            assert np.abs(op @ y - dense @ y).max() < tol * np.abs(y).sum()
            assert np.abs(op.T @ x - dense.T @ x).max() < tol * np.abs(x).sum()
        assert [id(a) for a in op._work] == pair
        for way, (cols, rows) in ((op, (op.cols, op.rows)),
                                  (op.T, (op.rows, op.cols))):
            gathered, product = way._work
            assert len(gathered) <= system.CHUNK
            assert gathered.shape[1] == cols.shape[1]
            assert product.shape == rows.shape

    shared = system._WORK
    assert [a.size for a in shared] == [
        min(len(A.cols), system.CHUNK) * A.cols.shape[1], A.rows.size]
    assert len(levels) == 2
    ops = [A, B, G] + [level.A for level in levels] + \
        [level.P for level in levels if level.P is not None]
    for op in ops:
        for way in (op, op.T):
            for work, buf in zip(way._work, shared):
                assert np.shares_memory(work, buf)


def _cell_by_cell(op):
    # reference: the local matrix added into a dense matrix cell by cell,
    # the eliminated DoFs' slot (the size of each side) cut off at the end
    dense = np.zeros((op.shape[0] + 1, op.shape[1] + 1))
    for rows, cols in zip(op.rows, op.cols):
        np.add.at(dense, np.ix_(rows, cols), op.local)
    return dense[:-1, :-1]


def test_chunked_applies_match_dense_products_and_whole_solves(monkeypatch,
                                                               exact):
    # with 5 table rows a chunk, every operator of a solve set-up and its
    # transpose gathers many chunks, the last one short, and still matches
    # its dense product; the solve takes bitwise the steps it takes with
    # every row in one chunk
    mesh = build_mesh(6)
    gmap = system.build_dof_map(mesh)
    monkeypatch.setattr(system, "CHUNK", 5)
    A = system.assemble_A(mesh, gmap)
    G = system.gradient_inclusion_matrix(mesh, gmap)
    B = system.assemble_B(mesh, gmap)
    P = system.multigrid_levels(mesh, gmap, A)[0].P
    rng = np.random.default_rng(11)
    for op in (A, B, B.T, G, P, P.T):
        assert len(op._work[0]) <= 5 < len(op.cols)
        dense = _cell_by_cell(op)
        x = rng.standard_normal(op.shape[1])
        assert np.abs(op @ x - dense @ x).max() <= \
            1e-13 * np.abs(dense).max() * np.abs(x).sum()

    solves = []
    for chunk in (5, mesh.n_cells):
        monkeypatch.setattr(system, "CHUNK", chunk)
        sys_ = system.build_system(mesh, gmap, exact, mode="modified")
        assert len(sys_.A._work[0]) == chunk
        solves.append(system.solve_saddle(sys_))
    (u5, p5, info5), (u, p, info) = solves
    assert info5 == info        # the CG count and every residual norm
    assert np.array_equal(u5, u) and np.array_equal(p5, p)


@pytest.mark.parametrize("n", [3, 6])
def test_applies_return_vectors_that_later_applies_leave_alone(n, exact):
    # every apply writes the shared work pair, so a result that viewed it
    # would change under the next apply; each result kept across the applies
    # of a solve set-up still equals its dense product, and no apply, the
    # preconditioner or the CG changes its input
    mesh = build_mesh(n)
    gmap = system.build_dof_map(mesh)
    sys_ = system.build_system(mesh, gmap, exact, mode="modified")
    G = system.gradient_inclusion_matrix(mesh, gmap)
    levels = system.multigrid_levels(mesh, gmap, sys_.A)
    ops = [sys_.A, sys_.B, sys_.B.T, G, G.T] + \
        [op for level in levels if level.P is not None
         for op in (level.P, level.P.T)]
    dense = [op.toarray() for op in ops]
    rng = np.random.default_rng(10)
    inputs = [rng.standard_normal(op.shape[1]) for op in ops]
    kept = [x.copy() for x in inputs]
    results = [op @ x for op, x in zip(ops, inputs)]
    for d, x, y in zip(dense, kept, results):
        assert np.abs(y - d @ x).max() <= 1e-13 * np.abs(d).max() * \
            np.abs(x).sum()
    for x, x0 in zip(inputs, kept):
        assert np.array_equal(x, x0)

    s_inv = system.q1_inverse(n)
    precond = system.velocity_preconditioner(sys_, G, s_inv)
    r = sys_.rhs - sys_.B @ s_inv(G.T @ sys_.rhs)
    r0 = r.copy()
    z = precond(r)
    assert np.array_equal(r, r0)
    assert not np.shares_memory(z, r)
    x, its, _, _ = system._pcg(sys_.A, r, 1e-10 * np.linalg.norm(r), 100,
                               precond)
    assert its > 0 and np.array_equal(r, r0)
    assert not np.shares_memory(x, r)


def test_second_solve_stays_within_15_velocity_vectors(exact):
    # the tracemalloc peak of a solve on a mesh whose A already exists: the
    # CG vectors, the V-cycle's temporaries and the coarse hierarchy (13.2
    # vectors at n = 12).  It read 14.2 with CG holding the load through
    # its steps, 15.3 with each level's averaging weights
    # a vector of their own and the restricted residual formed out of
    # place, 17.3 with the first-kind smoother's
    # three-term recurrence, 19.3 with the CG's z and q alive through the
    # preconditioner, 23.7 with one work pair per operator, and 24.6 with
    # the V-cycle's fine residual and the projection's copy alive longer.
    # A start from the guess I_h u, made before the measurement, keeps the
    # budget (13.2): its projection becomes the iterate and its product
    # with A the first residual
    mesh = build_mesh(12)
    gmap = system.build_dof_map(mesh)
    sys_ = system.build_system(mesh, gmap, exact, mode="modified")
    for guess in (None, interp.global_interp_Ih(exact, mesh, gmap)):
        system.solve_saddle(sys_, guess=guess)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            system.solve_saddle(sys_, guess=guess)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 15 * 8 * gmap.n_vdofs


def _system_and_ihu(n, exact, mode):
    mesh = build_mesh(n)
    gmap = system.build_dof_map(mesh)
    return (system.build_system(mesh, gmap, exact, mode=mode),
            interp.global_interp_Ih(exact, mesh, gmap))


@pytest.mark.parametrize("mode", ["original", "modified"])
def test_guess_of_a_round_off_load_is_scaled_away(mode, exact):
    # at n = 2 the modified load is round-off by symmetry (~5e-13) while
    # I_h u is O(1): started at Q I_h u unscaled, CG stagnated at a
    # relative residual of 3.6e-2
    sys_, ihu = _system_and_ihu(2, exact, mode)
    _u, _p, info = system.solve_saddle(sys_, guess=ihu)
    assert info["method"] == "mgcg" and info["residual"] <= 1e-10
    if mode == "modified":
        assert abs(info["guess_scale"]) < 1e-12


@pytest.mark.parametrize("n", [3, 6, 12])
def test_scaled_guess_starts_no_worse_than_zero(n, exact):
    # the scale xi minimizes ||b - xi A Q g||, so the first residual from
    # I_h u is at most the load's and CG takes no more steps than from zero
    # to the same u; the guess is left as it was (superclose reads it after
    # the solve), and a zero guess is the zero start bit for bit
    for mode in ("original", "modified"):
        sys_, ihu = _system_and_ihu(n, exact, mode)
        kept = ihu.copy()
        u0, p0, info0 = system.solve_saddle(sys_)
        u, p, info = system.solve_saddle(sys_, guess=ihu)
        assert info0["guess_scale"] is None and info["guess_scale"] > 0
        assert info["norms"][0] <= info0["norms"][0]
        assert info["iterations"] <= info0["iterations"]
        assert np.linalg.norm(u - u0) <= 1e-10 * np.linalg.norm(u0)
        assert np.array_equal(p, p0)
        assert ihu.tobytes() == kept.tobytes()
        uz, pz, infoz = system.solve_saddle(sys_, guess=np.zeros_like(ihu))
        assert infoz["guess_scale"] == 0.0
        assert infoz["norms"] == info0["norms"]
        assert np.array_equal(uz, u0) and np.array_equal(pz, p0)


def test_pressure_vanishes_in_both_schemes(setup3, exact):
    mesh, gmap = setup3
    for mode in ("original", "modified"):
        sys_ = system.build_system(mesh, gmap, exact, mode=mode)
        _u, p, _ = system.solve_saddle(sys_)
        assert np.abs(p).max() < 1e-8


def test_zero_rhs_gives_zero_solution(setup3, exact):
    mesh, gmap = setup3
    sys_ = system.build_system(mesh, gmap, exact, mode="modified")
    sys_.rhs = np.zeros_like(sys_.rhs)
    u, p, info = system.solve_saddle(sys_)
    assert np.abs(u).max() == 0.0
    assert np.abs(p).max() == 0.0


def test_empty_system_for_single_cell(exact):
    mesh = build_mesh(1)
    gmap = system.build_dof_map(mesh)
    assert gmap.n_vdofs == 0 and gmap.n_qdofs == 0
    sys_ = system.build_system(mesh, gmap, exact, mode="modified")
    u, p, info = system.solve_saddle(sys_)
    assert u.size == 0 and p.size == 0


def test_galerkin_residual_random_test_vectors(setup3, exact):
    mesh, gmap = setup3
    sys_ = system.build_system(mesh, gmap, exact, mode="modified")
    u, p, info = system.solve_saddle(sys_, tol=1e-10)
    rng = np.random.default_rng(4)
    K = sys_.full_matrix()
    b = sys_.full_rhs()
    z = np.concatenate([u, p])
    r = K @ z - b
    for _ in range(20):
        v = rng.standard_normal(len(r))
        assert abs(float(r @ v)) <= 1e-9 * np.linalg.norm(b) * np.linalg.norm(v)


def test_solve_returns_the_residual_history(exact):
    mesh = build_mesh(6)
    gmap = system.build_dof_map(mesh)
    sys_ = system.build_system(mesh, gmap, exact, mode="modified")
    tol = 1e-10
    _u, _p, info = system.solve_saddle(sys_, tol=tol)
    norms = info["norms"]
    assert len(norms) == info["iterations"] + 1
    assert norms[-1] < 0.5 * tol * np.linalg.norm(sys_.rhs)
    sys_.rhs = np.zeros_like(sys_.rhs)
    _u, _p, info = system.solve_saddle(sys_)
    assert info["method"] == "trivial"
    assert len(info["norms"]) == info["iterations"] + 1


def test_unreachable_tolerance_raises_max_iterations(setup3, exact):
    mesh, gmap = setup3
    sys_ = system.build_system(mesh, gmap, exact, mode="modified")
    with pytest.raises(system.MaxIterations) as err:
        system.solve_saddle(sys_, tol=1e-16)
    assert err.value.residual is not None
    # the last velocity CG residuals show how far the solve got
    tail = err.value.tail
    assert len(tail) == 5 and np.all(np.isfinite(tail))
    assert f"{tail[-1]:.2e}" in str(err.value)

