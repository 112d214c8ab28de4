import numpy as np
import pytest

from quadcurl import interp, mms, system
from quadcurl.checks import (_field_difference, _random_polyfield,
                             check_commuting_cell, check_commuting_macro,
                             check_gradient_orthogonality_quadratics,
                             check_i3h_collapse, check_l2_orthogonality_linears,
                             check_mean_curl_preservation)
from quadcurl.mesh import build_mesh, macro_partition
from quadcurl.polyquad import Poly, PolyField, gauss_rule
from quadcurl.spaces import CORRECTION_WEIGHT, reference_spaces


def test_pik_reproduces_linear_fields():
    rng = np.random.default_rng(0)
    lin = PolyField(tuple(
        Poly.const(rng.standard_normal())
        + Poly.monomial(1, 0, 0, rng.standard_normal())
        + Poly.monomial(0, 1, 0, rng.standard_normal())
        + Poly.monomial(0, 0, 1, rng.standard_normal()) for _ in range(3)))
    assert _field_difference(interp.interpolate("WK", lin).as_polyfield(),
                             lin) < 1e-13


def test_pik_correction_vanishes_without_inplane_curvature():
    # components linear in their own axis: the in-plane second derivative of
    # every tangential trace vanishes, so corrected == canonical
    w = PolyField((
        Poly.monomial(1, 0, 0) + Poly.monomial(0, 2, 0),
        Poly.monomial(0, 1, 0) + Poly.monomial(0, 0, 2),
        Poly.monomial(0, 0, 1) + Poly.monomial(2, 0, 0),
    ))
    a = interp.interpolate("WK", w, corrected=True).ref_dofs
    b = interp.interpolate("WK", w, corrected=False).ref_dofs
    assert np.abs(a - b).max() < 1e-14


def test_pik_projection_on_wk():
    # curl-inclusion structure: WK components carry no own-axis square, so
    # the correction term vanishes identically on WK and Pi_K restricts to
    # the identity
    wk = reference_spaces()["WK"]
    rng = np.random.default_rng(1)
    f = wk.combine(rng.standard_normal(wk.dim))
    assert _field_difference(interp.interpolate("WK", f).as_polyfield(),
                             f) < 1e-12


def test_ik_projection_on_vk():
    vk = reference_spaces()["VK"]
    rng = np.random.default_rng(2)
    f = vk.combine(rng.standard_normal(vk.dim))
    corrected = interp.interpolate("VK", f).as_polyfield()
    canonical = interp.interpolate("VK", f, corrected=False).as_polyfield()
    assert _field_difference(corrected, f) < 1e-11
    assert _field_difference(canonical, f) < 1e-11


def test_ik_gradient_field():
    q = Poly.monomial(1, 1, 1)
    g = PolyField((q.diff(0), q.diff(1), q.diff(2)))
    ik = interp.interpolate("VK", g)
    assert _field_difference(ik.as_polyfield(), g) < 1e-13
    curl = ik.as_polyfield().curl()
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
    assert _field_difference(interp.interpolate("NedelecK", f).as_polyfield(),
                             f) < 1e-13


def test_nedelec_of_face_dual_is_zero():
    # face duals have vanishing edge DoFs by duality, so the edge
    # reconstruction annihilates them
    vk = reference_spaces()["VK"]
    for j in range(12, 24):
        loc = interp.interpolate("NedelecK", vk.dual[j])
        assert np.abs(loc.ref_dofs).max() < 1e-12
        f = loc.as_polyfield()
        assert all(max((abs(v) for v in c.coeffs.values()), default=0) < 1e-11
                   for c in f.comps)


def test_macro_interp_reproduces_vm_polynomials():
    vm = reference_spaces()["VM"]
    rng = np.random.default_rng(4)
    c = rng.standard_normal(vm.dim)
    again = interp.interpolate("VM", vm.combine(c))
    assert np.abs(again.ref_dofs - c).max() < 1e-10


def test_postprocessing_collapse_identity():
    assert check_i3h_collapse().passed


def test_smooth_path_matches_exact_path_on_polynomials():
    # wrap a polynomial as each cell's reference-frame field and compare the
    # quadrature DoFs of the global operator on that cell with the exact
    # coefficient-space DoFs (VK DoFs scale with h)
    rng = np.random.default_rng(5)
    v = _random_polyfield(rng, 2)
    curl = v.curl()
    mesh = build_mesh(2)
    gmap = system.build_dof_map(mesh)
    h = mesh.h_axis[0]
    want = interp.interpolate("VK", v).ref_dofs * h

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

        def curl_d2(self, comp, axis, pts):
            d2 = curl.comps[comp].diff(axis).diff(axis)
            return d2(*self._ref(pts)) / h**3

    for K in range(mesh.n_cells):
        coeffs = interp.global_interp_Ih(CellField(mesh.cell_centers[K]),
                                         mesh, gmap, q=6)
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
    h = mesh.h_axis[0]
    worst = 0.0
    for eid in np.where(mesh.edge_is_boundary)[0][:20]:
        axis, i, j, k = mesh.edge_table[eid]
        origin = np.array([i, j, k]) * h
        t1, t2 = [a for a in range(3) if a != axis]
        P, W = rule.edge(axis, (origin[t1], origin[t2]),
                         origin[axis], origin[axis] + h)
        worst = max(worst, abs(float(W @ ex.u_value(P)[:, axis])))
    for fid in np.where(mesh.face_is_boundary)[0][:20]:
        axis, i, j, k = mesh.face_table[fid]
        origin = np.array([i, j, k]) * h
        t1, t2 = [a for a in range(3) if a != axis]
        P, W = rule.face(axis, origin[axis],
                         (origin[t1], origin[t2]),
                         (origin[t1] + h, origin[t2] + h))
        curl = ex.curl_u_value(P)
        for d in (t1, t2):
            g = curl[:, d] + (h * h * CORRECTION_WEIGHT) * ex.curl_d2(d, d, P)
            worst = max(worst, abs(float(W @ g)))
    assert worst < 1e-13


def test_global_interpolation_preserves_edge_integrals():
    ex = mms.build_exact_fields()
    mesh = build_mesh(3)
    gmap = system.build_dof_map(mesh)
    coeffs = interp.global_interp_Ih(ex, mesh, gmap)
    rule = gauss_rule(6)
    h = mesh.h_axis[0]
    for eid in np.where(~mesh.edge_is_boundary)[0][:10]:
        axis, i, j, k = mesh.edge_table[eid]
        origin = np.array([i, j, k]) * h
        t1, t2 = [a for a in range(3) if a != axis]
        P, W = rule.edge(axis, (origin[t1], origin[t2]),
                         origin[axis], origin[axis] + h)
        val = float(W @ ex.u_value(P)[:, axis])
        assert coeffs[gmap.edge_dof[eid]] == pytest.approx(val, abs=1e-14)


def test_macro_field_evaluation_scaling():
    # a linear field fed through physical fine-edge integrals is reproduced by
    # the macro interpolant, including the 1/H curl scaling
    mesh = build_mesh(6)
    part = macro_partition(mesh)
    H = part.macro_size
    lin = PolyField((Poly.monomial(0, 1, 0), Poly.zero(), Poly.zero()))
    rule = gauss_rule(4)
    h = mesh.h_axis[0]
    vals = np.empty(144)
    for idx, eid in enumerate(part.macro_edges[0]):
        axis, i, j, k = mesh.edge_table[eid]
        origin = np.array([i, j, k]) * h
        t1, t2 = [a for a in range(3) if a != axis]
        P, W = rule.edge(axis, (origin[t1], origin[t2]),
                         origin[axis], origin[axis] + h)
        vals[idx] = float(W @ lin(P[:, 0], P[:, 1], P[:, 2])[:, axis])
    loc = interp.LocalInterpolant("VM", vals / H,
                                  center=part.macro_centers[0], h=H)
    pts = np.random.default_rng(6).uniform(0.05, 0.45, (5, 3))
    assert np.allclose(loc.value(pts), lin(pts[:, 0], pts[:, 1], pts[:, 2]),
                       atol=1e-11)
    assert np.allclose(loc.curl_value(pts)[:, 2], -1.0, atol=1e-10)
