import numpy as np
import pytest

from quadcurl import interp, mms, polyquad, system
from quadcurl.checks import (_field_difference, _random_polyfield,
                             check_commuting_cell, check_commuting_macro,
                             check_gradient_orthogonality_quadratics,
                             check_i3h_collapse, check_l2_orthogonality_linears,
                             check_mean_curl_preservation)
from quadcurl.mesh import build_mesh, macro_partition
from quadcurl.polyquad import Poly, PolyField, gauss_rule
from quadcurl.spaces import CORRECTION_WEIGHT, reference_spaces


def _dof_values(tag, v, corrected=True):
    """The DoFs of reference space ``tag`` applied to ``v``."""
    return np.array([d.apply(v, corrected)
                     for d in reference_spaces()[tag].dofs])


def _edge_rule(mesh, eid, rule):
    """Axis, Gauss points and weights of the mesh edge ``eid``."""
    axis = mesh.edge_table[eid, 0]
    P = np.tile(mesh.h * mesh.edge_table[eid, 1:], (rule.q, 1))
    P[:, axis] += mesh.h * rule.pts01
    return axis, P, mesh.h * rule.wts01


def _face_rule(mesh, fid, rule):
    """Normal axis, Gauss points and weights of the mesh face ``fid``."""
    axis = mesh.face_table[fid, 0]
    t1, t2 = [a for a in range(3) if a != axis]
    g1, g2 = np.meshgrid(rule.pts01, rule.pts01, indexing="ij")
    P = np.tile(mesh.h * mesh.face_table[fid, 1:], (rule.q**2, 1))
    P[:, t1] += mesh.h * g1.ravel()
    P[:, t2] += mesh.h * g2.ravel()
    return axis, P, mesh.h**2 * np.outer(rule.wts01, rule.wts01).ravel()


def _corrected_curl_integrals(ex, mesh, fid, rule):
    """The two corrected tangential-curl integrals of the face ``fid``."""
    axis, P, W = _face_rule(mesh, fid, rule)
    curl = ex.curl_u_value(P)
    return [float(W @ (curl[:, d] + mesh.h**2 * CORRECTION_WEIGHT
                       * ex.curl_d2(d, P)))
            for d in range(3) if d != axis]


def test_pik_reproduces_linear_fields():
    rng = np.random.default_rng(0)
    lin = PolyField(tuple(
        Poly.const(rng.standard_normal())
        + Poly.monomial(1, 0, 0, rng.standard_normal())
        + Poly.monomial(0, 1, 0, rng.standard_normal())
        + Poly.monomial(0, 0, 1, rng.standard_normal()) for _ in range(3)))
    assert _field_difference(interp.interpolate("WK", lin), lin) < 1e-13


def test_pik_correction_vanishes_without_inplane_curvature():
    # components linear in their own axis: the in-plane second derivative of
    # every tangential trace vanishes, so corrected == canonical
    w = PolyField((
        Poly.monomial(1, 0, 0) + Poly.monomial(0, 2, 0),
        Poly.monomial(0, 1, 0) + Poly.monomial(0, 0, 2),
        Poly.monomial(0, 0, 1) + Poly.monomial(2, 0, 0),
    ))
    a = _dof_values("WK", w, corrected=True)
    b = _dof_values("WK", w, corrected=False)
    assert np.abs(a - b).max() < 1e-14


def test_pik_projection_on_wk():
    # curl-inclusion structure: WK components carry no own-axis square, so
    # the correction term vanishes identically on WK and Pi_K restricts to
    # the identity
    wk = reference_spaces()["WK"]
    rng = np.random.default_rng(1)
    f = wk.combine(rng.standard_normal(wk.dim))
    assert _field_difference(interp.interpolate("WK", f), f) < 1e-12


def test_ik_projection_on_vk():
    vk = reference_spaces()["VK"]
    rng = np.random.default_rng(2)
    f = vk.combine(rng.standard_normal(vk.dim))
    corrected = interp.interpolate("VK", f)
    canonical = interp.interpolate("VK", f, corrected=False)
    assert _field_difference(corrected, f) < 1e-11
    assert _field_difference(canonical, f) < 1e-11


def test_ik_gradient_field():
    q = Poly.monomial(1, 1, 1)
    g = PolyField((q.diff(0), q.diff(1), q.diff(2)))
    ik = interp.interpolate("VK", g)
    assert _field_difference(ik, g) < 1e-13
    curl = ik.curl()
    assert all(max((abs(v) for v in c.coeffs.values()), default=0) < 1e-13
               for c in curl.comps)


def test_commuting_diagram_cell():
    assert check_commuting_cell().passed


def test_commuting_diagram_macro():
    assert check_commuting_macro().passed


def test_reference_orthogonality_identities():
    assert check_gradient_orthogonality_quadratics().passed
    assert check_l2_orthogonality_linears().passed


def test_mean_curl_identity():
    assert check_mean_curl_preservation().passed


def test_nedelec_projection():
    ned = reference_spaces()["NedelecK"]
    rng = np.random.default_rng(3)
    f = ned.combine(rng.standard_normal(12))
    assert _field_difference(interp.interpolate("NedelecK", f), f) < 1e-13


def test_nedelec_of_face_dual_is_zero():
    # face duals have vanishing edge DoFs by duality, so the edge
    # reconstruction annihilates them
    vk = reference_spaces()["VK"]
    for j in range(12, 24):
        assert np.abs(_dof_values("NedelecK", vk.dual[j])).max() < 1e-12
        f = interp.interpolate("NedelecK", vk.dual[j])
        assert all(max((abs(v) for v in c.coeffs.values()), default=0) < 1e-11
                   for c in f.comps)


def test_macro_interp_reproduces_vm_polynomials():
    vm = reference_spaces()["VM"]
    rng = np.random.default_rng(4)
    c = rng.standard_normal(vm.dim)
    again = _dof_values("VM", vm.combine(c))
    assert np.abs(again - c).max() < 1e-10


def test_postprocessing_collapse_identity():
    assert check_i3h_collapse().passed


@pytest.mark.parametrize("order", [4, 8])
def test_postprocessing_collapse_at_other_gauss_orders(monkeypatch, order):
    # I_h reads GAUSS_ORDER at call time, so the direct fine-edge integrals
    # of the check must take the same order for the identity to hold
    monkeypatch.setattr(polyquad, "GAUSS_ORDER", order)
    polyquad.gauss_rule.cache_clear()
    try:
        assert check_i3h_collapse().passed
    finally:
        monkeypatch.undo()
        polyquad.gauss_rule.cache_clear()


def test_smooth_path_matches_exact_path_on_polynomials():
    # wrap a polynomial as each cell's reference-frame field and compare the
    # quadrature DoFs of the global operator on that cell with the exact
    # coefficient-space DoFs (VK DoFs scale with h)
    rng = np.random.default_rng(5)
    v = _random_polyfield(rng, 2)
    curl = v.curl()
    mesh = build_mesh(2)
    gmap = system.build_dof_map(mesh)
    h = mesh.h
    want = _dof_values("VK", v) * h

    class CellField:
        def __init__(self, center):
            self.center = center

        def _ref(self, pts):
            ref = (pts - self.center) / h
            return ref[:, 0], ref[:, 1], ref[:, 2]

        def value(self, pts):
            return v(*self._ref(pts))

        def curl_value(self, pts):
            return curl(*self._ref(pts)) / h

        def curl_d2(self, axis, pts):
            d2 = curl.comps[axis].diff(axis).diff(axis)
            return d2(*self._ref(pts)) / h**3

    for K in range(mesh.n_cells):
        coeffs = interp.global_interp_Ih(CellField(mesh.cell_centers[K]),
                                         mesh, gmap)
        dofs = gmap.cell_vdofs[K]
        inner = dofs >= 0
        assert inner.any()
        assert np.abs(coeffs[dofs[inner]] - want[inner]).max() < 1e-12


def test_boundary_dofs_of_exact_solution_vanish():
    # tangential trace and curl trace of the manufactured solution vanish on
    # the cube boundary, so boundary DoFs of the interpolant are zero
    ex = mms.build_exact_fields()
    mesh = build_mesh(2)
    rule = gauss_rule(6)
    worst = 0.0
    for eid in np.where(mesh.edge_is_boundary)[0][:20]:
        axis, P, W = _edge_rule(mesh, eid, rule)
        worst = max(worst, abs(float(W @ ex.u_value(P)[:, axis])))
    for fid in np.where(mesh.face_is_boundary)[0][:20]:
        worst = max([worst] + [abs(v) for v in
                               _corrected_curl_integrals(ex, mesh, fid, rule)])
    assert worst < 1e-13


def test_global_interpolation_preserves_edge_integrals():
    # every interior edge and face DoF against its own Gauss rule, one entity
    # at a time; n = 4 gives four lattice planes per axis
    ex = mms.build_exact_fields()
    mesh = build_mesh(4)
    gmap = system.build_dof_map(mesh)
    coeffs = interp.global_interp_Ih(ex, mesh, gmap)
    rule = gauss_rule(6)
    for eid in np.where(~mesh.edge_is_boundary)[0]:
        axis, P, W = _edge_rule(mesh, eid, rule)
        val = float(W @ ex.u_value(P)[:, axis])
        assert coeffs[gmap.edge_dof[eid]] == pytest.approx(val, abs=1e-14)
    for fid in np.where(~mesh.face_is_boundary)[0]:
        vals = _corrected_curl_integrals(ex, mesh, fid, rule)
        assert coeffs[gmap.face_dof[fid]] == pytest.approx(vals, abs=1e-14)


def test_macro_field_evaluation_scaling():
    # a linear field fed through physical fine-edge integrals is reproduced by
    # the macro interpolant, including the 1/H curl scaling
    mesh = build_mesh(6)
    part = macro_partition(mesh)
    H = part.macro_size
    lin = PolyField((Poly.monomial(0, 1, 0), Poly.zero(), Poly.zero()))
    rule = gauss_rule(4)
    vals = np.empty(144)
    for idx, eid in enumerate(part.macro_edges[0]):
        axis, P, W = _edge_rule(mesh, eid, rule)
        vals[idx] = float(W @ lin(P[:, 0], P[:, 1], P[:, 2])[:, axis])
    field = reference_spaces()["VM"].combine(vals / H)
    pts = np.random.default_rng(6).uniform(0.05, 0.45, (5, 3))
    ref = ((pts - part.macro_centers[0]) / H).T
    assert np.allclose(field(*ref), lin(pts[:, 0], pts[:, 1], pts[:, 2]),
                       atol=1e-11)
    assert np.allclose(field.curl()(*ref)[:, 2] / H, -1.0, atol=1e-10)
