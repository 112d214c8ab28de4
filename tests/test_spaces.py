import numpy as np
import pytest

from quadcurl.checks import _field_difference
from quadcurl.polyquad import Poly, PolyField
from quadcurl.spaces import (AXIS_DEGREE, DofFunctional, SingularVandermonde,
                             TensorGrid, coefficient_array,
                             curl_inclusion_residual, dual_basis,
                             dual_gram_matrices, reference_spaces, span_VK,
                             span_WK)
from tables import (dual_curl_table, dual_gradcurl_table, dual_value_table,
                    gauss_box)


@pytest.fixture(scope="module")
def spaces():
    return reference_spaces()


def _flat(fields):
    """One row of tensor-monomial coefficients per field."""
    return coefficient_array(fields).reshape(len(fields), -1)


def test_dimensions(spaces):
    dims = {tag: sp.dim for tag, sp in spaces.items()}
    assert dims == {"WK": 18, "VK": 24, "NedelecK": 12, "Q1K": 8,
                    "VM": 144, "WM": 108}


def test_unisolvence_identity(spaces):
    # dense-factorization oracle: re-solve the Vandermonde and check
    # DoF_i(dual_j) = delta_ij
    bounds = {"NedelecK": 1e-12, "VK": 1e-10, "VM": 1e-8}
    for tag, sp in spaces.items():
        assert sp.identity_defect() <= bounds.get(tag, 1e-10), tag
        assert np.isfinite(sp.cond)
        oracle = np.linalg.solve(sp.vandermonde, np.eye(sp.dim))
        assert np.abs(oracle - sp.dual_coeffs).max() < 1e-8


def test_vk_span_structure():
    fields = span_VK()
    assert len(fields) == 24
    mat = _flat(fields)
    assert np.linalg.matrix_rank(mat, tol=1e-9 * np.abs(mat).max()) == 24


def test_gradient_of_trilinear_in_span(spaces):
    # grad(xyz) = (yz, xz, xy) must lie in span(VK)
    q = Poly.monomial(1, 1, 1)
    g = PolyField((q.diff(0), q.diff(1), q.diff(2)))
    mat = _flat(span_VK() + [g])
    span_mat, target = mat[:-1], mat[-1]
    sol, *_ = np.linalg.lstsq(span_mat.T, target, rcond=None)
    assert np.linalg.norm(span_mat.T @ sol - target) < 1e-10


def test_cross_product_field_in_span():
    # x cross (1,0,0) = (0, z, -y)
    target = PolyField((Poly.zero(), Poly.monomial(0, 0, 1),
                        -Poly.monomial(0, 1, 0)))
    mat = _flat(span_VK() + [target])
    sol, *_ = np.linalg.lstsq(mat[:-1].T, mat[-1], rcond=None)
    assert np.linalg.norm(mat[:-1].T @ sol - mat[-1]) < 1e-12


def test_coefficient_array_rejects_degree_above_axis_degree():
    # the one guard of every reader of the coefficient form (span_VK,
    # curl_inclusion_residual, _field_difference): a term past AXIS_DEGREE
    # raises rather than being dropped
    field = PolyField.unit(0, Poly.monomial(AXIS_DEGREE + 1, 0, 0))
    with pytest.raises(ValueError, match="above per-axis degree"):
        coefficient_array([field])
    with pytest.raises(ValueError, match="above per-axis degree"):
        _field_difference(field, PolyField.unit(0))


def test_curl_inclusions(spaces):
    assert curl_inclusion_residual(spaces["VK"], spaces["WK"]) < 1e-12
    assert curl_inclusion_residual(spaces["VM"], spaces["WM"]) <= 1e-12


def test_edge_dofs_match_nedelec_functionals(spaces):
    # the 12 edge functionals of VK and the 12 Nedelec functionals are the
    # same maps: equal on random polynomial fields
    rng = np.random.default_rng(8)
    vk, ned = spaces["VK"], spaces["NedelecK"]
    for _ in range(5):
        comps = []
        for _ in range(3):
            p = Poly.zero()
            for a in range(3):
                for b in range(3):
                    for c in range(3):
                        p = p + Poly.monomial(a, b, c,
                                              coef=rng.standard_normal())
            comps.append(p)
        f = PolyField(comps)
        for i in range(12):
            assert vk.dofs[i].apply(f) == pytest.approx(
                ned.dofs[i].apply(f), rel=1e-12, abs=1e-12)


def test_duality_block_structure(spaces):
    # edge DoFs of face duals vanish and vice versa: off-diagonal blocks of
    # the identity check
    vk = spaces["VK"]
    eye = vk.vandermonde @ vk.dual_coeffs
    assert np.abs(eye[:12, 12:]).max() < 1e-12
    assert np.abs(eye[12:, :12]).max() < 1e-12


def test_wk_span_has_own_axis_squares_excluded():
    for f in span_WK():
        for comp, poly in enumerate(f.comps):
            mono = [0, 0, 0]
            mono[comp] = 2
            assert tuple(mono) not in poly.coeffs


def _dof(space, kind, axis, fixed, direction):
    [dof] = [d for d in space.dofs if (d.kind, d.axis, d.fixed, d.direction)
             == (kind, axis, fixed, direction)]
    return dof


def test_corrected_dofs_add_one_twelfth_of_the_inplane_second_derivative(
        spaces):
    # on the face z = +1/2 along x: int x^2 = 1/12, and the correction adds
    # 1/12 * d^2(x^2)/dx^2 = 2/12 over the unit face
    x2 = Poly.monomial(2, 0, 0)
    wk_dof = _dof(spaces["WK"], "face_tangential", 2, 0.5, 0)
    w = PolyField.unit(0, x2)
    assert wk_dof.apply(w) == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert wk_dof.apply(w, corrected=True) == pytest.approx(0.25, abs=1e-15)
    # v = (0, 0, x^2 y) has curl (x^2, -2xy, 0)
    vk_dof = _dof(spaces["VK"], "face_curl", 2, 0.5, 0)
    v = PolyField.unit(2, Poly.monomial(2, 1, 0))
    assert vk_dof.apply(v) == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert vk_dof.apply(v, corrected=True) == pytest.approx(0.25, abs=1e-15)
    # edge and face-normal DoFs ignore the flag
    u = PolyField.unit(0, x2 + Poly.monomial(2, 2, 0))
    for tag in ("VK", "WK"):
        for dof in spaces[tag].dofs:
            if dof.kind in ("edge_tangential", "face_normal"):
                assert dof.apply(u, corrected=True) == dof.apply(u)


def _enumerated_dofs():
    """Every reference space's DoFs, written out loop by loop: the cell
    edges axis-major with transverse offsets lexicographic, faces low side
    first per normal axis, vertices lexicographic, and the macro spaces'
    fine edges and faces in mesh.edge/face_lattice_order(3)."""
    def others(axis):
        return tuple(a for a in range(3) if a != axis)

    full = ((-0.5, 0.5), (-0.5, 0.5))
    edges = [DofFunctional("edge_tangential", axis=axis, direction=axis,
                           span=(-0.5, 0.5), fixed=(d1, d2))
             for axis in range(3) for d1 in (-0.5, 0.5) for d2 in (-0.5, 0.5)]
    faces = [(axis, side) for axis in range(3) for side in (-0.5, 0.5)]
    curl = [DofFunctional("face_curl", axis=axis, direction=t, span=full,
                          fixed=side)
            for axis, side in faces for t in others(axis)]
    wk = []
    for axis, side in faces:
        wk += [DofFunctional("face_tangential", axis=axis, direction=t,
                             span=full, fixed=side) for t in others(axis)]
        wk.append(DofFunctional("face_normal", axis=axis, direction=axis,
                                span=full, fixed=side))
    vertices = [DofFunctional("vertex", fixed=(-0.5 + dx, -0.5 + dy,
                                               -0.5 + dz))
                for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)]
    vm, wm = [], []
    for axis in range(3):
        dims = [4, 4, 4]
        dims[axis] = 3
        for lat in np.ndindex(*dims):
            lo = lat[axis] / 3.0 - 0.5
            t1, t2 = others(axis)
            vm.append(DofFunctional(
                "edge_tangential", axis=axis, direction=axis,
                span=(lo, lo + 1.0 / 3.0),
                fixed=(lat[t1] / 3.0 - 0.5, lat[t2] / 3.0 - 0.5)))
    for axis in range(3):
        dims = [3, 3, 3]
        dims[axis] = 4
        for lat in np.ndindex(*dims):
            spans = tuple((lat[t] / 3.0 - 0.5, lat[t] / 3.0 - 0.5 + 1.0 / 3.0)
                          for t in others(axis))
            wm.append(DofFunctional("face_normal", axis=axis, direction=axis,
                                    span=spans, fixed=lat[axis] / 3.0 - 0.5))
    return {"WK": wk, "VK": edges + curl, "NedelecK": edges,
            "Q1K": vertices, "VM": vm, "WM": wm}


def test_dofs_follow_the_local_entity_order(spaces):
    # the DoF order is the local order of the mesh's cell and macro tables;
    # an enumeration written out by hand is the oracle
    for tag, want in _enumerated_dofs().items():
        assert spaces[tag].dofs == want, tag


def test_dual_basis_rejects_mismatched_counts():
    wk = span_WK()
    dofs = [DofFunctional("vertex", fixed=(0.0, 0.0, 0.0))]
    with pytest.raises(SingularVandermonde):
        dual_basis(wk, dofs, "bad", dof_scale_power=0)


def test_dual_basis_rejects_singular_system():
    # duplicate DoFs make the Vandermonde singular
    span = [Poly.monomial(1, 0, 0), Poly.monomial(0, 1, 0)]
    dof = DofFunctional("vertex", fixed=(0.25, 0.25, 0.0))
    with pytest.raises(SingularVandermonde):
        dual_basis(span, [dof, dof], "dup", dof_scale_power=0)


def test_gram_matrices_positive_semidefinite(spaces):
    M0, M1, M2 = dual_gram_matrices(spaces["VK"])
    for M in (M0, M1, M2):
        assert np.abs(M - M.T).max() == 0.0
        w = np.linalg.eigvalsh(M)
        assert w.min() > -1e-10 * abs(w.max())
    # M0 is an L2 Gram: strictly positive definite
    assert np.linalg.eigvalsh(M0).min() > 0


def test_gram_matrices_cached_per_space_not_per_tag(spaces, perturbed_vk):
    # a perturbed VK carries the tag "VK" but another span: it must get its
    # own Grams, not the cached reference ones
    ref = dual_gram_matrices(spaces["VK"])
    perturbed = dual_gram_matrices(perturbed_vk)
    assert any(not np.array_equal(a, b) for a, b in zip(ref, perturbed))
    uncached = dual_gram_matrices.__wrapped__(perturbed_vk)
    assert all(np.array_equal(a, b) for a, b in zip(perturbed, uncached))


def test_span_tables_match_dual_polynomials(spaces):
    # the tables come from the span and dual_coeffs; evaluating every dense
    # dual polynomial at the points is the oracle
    pts, _ = gauss_box(3)
    x, y, z = pts.T
    for tag in ("VK", "NedelecK", "VM"):
        sp = spaces[tag]
        oracle = (
            np.stack([f(x, y, z) for f in sp.dual]),
            np.stack([f.curl()(x, y, z) for f in sp.dual]),
            np.stack([np.stack([np.stack([g(x, y, z) for g in row], axis=-1)
                                for row in f.curl().grad()], axis=-2)
                      for f in sp.dual]))
        tables = (dual_value_table(sp, pts), dual_curl_table(sp, pts),
                  dual_gradcurl_table(sp, pts))
        for table, want in zip(tables, oracle):
            assert table.shape == want.shape
            assert np.abs(table - want).max() <= 1e-12 * np.abs(want).max(), \
                tag


@pytest.mark.parametrize("tag", ["VK", "NedelecK", "VM"])
@pytest.mark.parametrize("sub", [1, 3])
def test_factored_tables_match_dual_tables_on_gauss_grids(spaces, tag, sub):
    # oracle: the dense tables at the Gauss points of the reference frame cut
    # into sub^3 cells, every dual evaluated through its 3D monomials
    sp = spaces[tag]
    grid = TensorGrid.gauss(sp, sub)
    t = grid.powers[:, 1]
    p = len(t)
    pts = np.stack(np.meshgrid(t, t, t, indexing="ij"), axis=-1).reshape(-1, 3)
    dense = (dual_gradcurl_table(sp, pts), dual_curl_table(sp, pts),
             dual_value_table(sp, pts))
    for col, want in enumerate(dense):
        # every dual as its own block of a 1 x dim tile
        got = grid.values(np.eye(sp.dim)[None], col)
        got = got.reshape(p, p, sp.dim, p, -1).transpose(2, 0, 1, 3, 4)
        want = want.reshape(got.shape)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        # the moments kernel is the transpose: <values(c), g>_w = c . moments(g)
        g = np.random.default_rng(col).standard_normal((p, p, 2 * p,
                                                        want.shape[-1]))
        c = np.random.default_rng(9).standard_normal((1, 2, sp.dim))
        w = np.einsum("x,y,z->xyz", grid.weights, grid.weights,
                      np.tile(grid.weights, 2))
        lhs = np.einsum("xyzk,xyz->", grid.values(c, col) * g, w)
        assert lhs == pytest.approx(np.sum(c * grid.moments(g, col)),
                                    rel=1e-12)
