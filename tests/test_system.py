import numpy as np
import pytest
import scipy.linalg

from quadcurl import mms, system
from quadcurl.mesh import build_mesh
from quadcurl.spaces import reference_spaces
from tables import dual_gradcurl_table, dual_value_table, gauss_box


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
    # skipping the eliminated boundary DoFs (-1)
    mesh = build_mesh(n)
    gmap = system.build_dof_map(mesh)
    h = mesh.h
    ref = system.reference_matrices()
    vdofs, qdofs = gmap.cell_vdofs, gmap.cell_qdofs
    cases = ((system.assemble_A(mesh, gmap), ref["M2"] / h**3, vdofs, vdofs),
             (system.assemble_B(mesh, gmap), ref["B"] * h, vdofs, qdofs),
             (system.assemble_q1_stiffness(mesh, gmap), ref["S"] * h, qdofs,
              qdofs))
    rng = np.random.default_rng(6)
    for op, local, rows, cols in cases:
        dense = np.zeros(op.shape)
        for r, c in zip(rows, cols):
            dense[np.ix_(r[r >= 0], c[c >= 0])] += local[np.ix_(r >= 0,
                                                                c >= 0)]
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
    dofs = np.array([[0, 1, -1], [1, 3, 2]])
    system.CellOperator(np.eye(3), dofs, dofs, (3, 3))
    dofs[1, 1] = 4
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
    d = np.where(cols >= 0, v[np.clip(cols, 0, None)], 0.0) / h
    gch = np.einsum("ci,igkl->cgkl", d, gc) / h**2
    direct = h**3 * np.einsum("cgkl,g->", gch**2, wts)
    assert float(v @ (A @ v)) == pytest.approx(direct, rel=1e-10)


def test_coupling_reproduces_q1_stiffness(setup3):
    mesh, gmap = setup3
    # the pressure decoupling of solve_saddle rests on G^T B = S
    B = system.assemble_B(mesh, gmap).toarray()
    G = system.gradient_inclusion_matrix(mesh, gmap)
    S = system.assemble_q1_stiffness(mesh, gmap).toarray()
    assert np.abs(G.T @ B - S).max() < 1e-12
    rng = np.random.default_rng(2)
    q = rng.standard_normal(gmap.n_qdofs)
    energy = float(q @ (G.T @ B @ q))
    assert energy > 0


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
    face_ids = gmap.face_dof[gmap.face_dof[:, 0] >= 0].ravel()
    assert np.abs(rhs[face_ids]).max() == 0.0


def test_load_matches_pointwise_gauss_reference(exact):
    # oracle: f evaluated point by point at each cell's Gauss points and
    # tested against the reference dual tables, cell by cell
    pts, wts = gauss_box(6)
    for n in (3, 6):
        mesh = build_mesh(n)
        gmap = system.build_dof_map(mesh)
        h = mesh.h
        for mode, tag in (("original", "VK"), ("modified", "NedelecK")):
            table = dual_value_table(reference_spaces()[tag], pts)
            want = np.zeros(gmap.n_vdofs)
            for center, dofs in zip(mesh.cell_centers, gmap.cell_vdofs):
                f = exact.f_value(center + h * pts)
                local = h * h * np.einsum("gk,igk,g->i", f, table, wts)
                for dof, val in zip(dofs, local):
                    if dof >= 0:
                        want[dof] += val
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
    # the weighted P of the V-cycle carries the coarse gradient G_H q to the
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
    got = level.weights * (level.P @ (
        system.gradient_inclusion_matrix(coarse, cmap)
        @ values[~coarse.vertex_is_boundary]))
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_tree_gauge_is_a_left_inverse_of_the_gradient():
    # T G = I makes Q = I - G T a projector whose range holds no gradient;
    # the adjoint is what Q^T applies
    n = 5
    mesh = build_mesh(n)
    gmap = system.build_dof_map(mesh)
    G = system.gradient_inclusion_matrix(mesh, gmap)
    rng = np.random.default_rng(8)
    q = rng.standard_normal(gmap.n_qdofs)
    z = rng.standard_normal(gmap.n_vdofs)
    assert np.abs(system._tree_potential(G @ q, n) - q).max() < 1e-13
    assert float(system._tree_potential(z, n) @ q) == pytest.approx(
        float(z @ system._tree_potential_adjoint(q, n, gmap.n_vdofs)),
        rel=1e-12)


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

