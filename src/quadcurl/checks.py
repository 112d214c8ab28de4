"""Exact-identity battery: unisolvence, the reference tables against the
polynomial algebra, inclusions, the factored dual tables, commuting
diagrams, orthogonality identities, jump integrals, the manufactured-solution
cross-checks and the dense solver oracle.

Everything here is an independent verification path: the finite-difference
load oracle evaluates the velocity directly from sin/cos products (never
through the series algebra it checks), and the dense solve uses a plain LAPACK
factorization of the full saddle matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import interp, mms, polyquad, system
from .mesh import _lattice, build_mesh, face_lattice_order, macro_partition
from .polyquad import Poly, PolyField, integrate_exact
from .spaces import (TensorGrid, coefficient_array, curl_inclusion_residual,
                     dual_gram_matrices, grad_pair, reference_spaces,
                     vector_scalar_grad_matrix, vk_dofs)

# the scalar polynomials of a field per ErrorTriple column, in the order of
# ``spaces.factored_table``: grad curl (entry [i, j] = d(curl f)_i/dx_j, row
# by row), curl, value
COLUMNS = (lambda f: [g for row in f.curl().grad() for g in row],
           lambda f: f.curl().comps, lambda f: f.comps)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self):
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def _result(name, value, bound, extra=""):
    detail = f"max defect {value:.3e} (bound {bound:.1e})"
    if extra:
        detail += f"; {extra}"
    return CheckResult(name, bool(value <= bound), detail)


# ---------------------------------------------------------------------------
# space-level identities
# ---------------------------------------------------------------------------

def check_unisolvence():
    worst = 0.0
    conds = []
    for tag, sp in reference_spaces().items():
        worst = max(worst, sp.identity_defect())
        conds.append(f"{tag}:{sp.cond:.1e}")
    return _result("unisolvence DoF_i(dual_j)=delta", worst, 1e-8,
                   "cond " + " ".join(conds))


def check_curl_inclusions():
    spcs = reference_spaces()
    r1 = curl_inclusion_residual(spcs["VK"], spcs["WK"])
    r2 = curl_inclusion_residual(spcs["VM"], spcs["WM"])
    return _result("curl VK in WK / curl VM in WM", max(r1, r2), 1e-12,
                   f"cell {r1:.2e} macro {r2:.2e}")


def _poly_gram(fields_a, fields_b, pairing):
    return np.array([[pairing(a, b) for b in fields_b] for a in fields_a])


def _l2_pair(a, b):
    return integrate_exact(a.dot(b) if isinstance(a, PolyField) else a * b)


def _applied(dofs, fields):
    return np.array([[d.apply(f) for f in fields] for d in dofs])


def check_reference_tables():
    """The reference tables built by matrix products over tensor monomials
    equal the same tables from the Poly algebra: every space's Vandermonde
    by ``DofFunctional.apply``, the VK Gram triple and B by
    ``integrate_exact`` and ``grad_pair``, and the prolongations P(2), P(3)
    by ``apply`` on the VK span."""
    spcs = reference_spaces()
    vk, q1 = spcs["VK"], spcs["Q1K"]
    C, Q = vk.dual_coeffs, q1.dual_coeffs
    curls = [f.curl() for f in vk.span]
    grads = [PolyField((p.diff(0), p.diff(1), p.diff(2))) for p in q1.span]
    M2, M1, M0 = dual_gram_matrices(vk)
    pairs = [(s.vandermonde, _applied(s.dofs, s.span)) for s in spcs.values()]
    pairs += [
        (M0, C.T @ _poly_gram(vk.span, vk.span, _l2_pair) @ C),
        (M1, C.T @ _poly_gram(curls, curls, _l2_pair) @ C),
        (M2, C.T @ _poly_gram(curls, curls, grad_pair) @ C),
        (vector_scalar_grad_matrix(vk, q1),
         C.T @ _poly_gram(vk.span, grads, _l2_pair) @ Q)]
    for sub in (2, 3):
        pairs.append((system.prolongation_matrix(sub),
                      _applied(vk_dofs(sub), vk.span) @ C))
    worst = max(float(np.abs(got - want).max()) / float(np.abs(want).max())
                for got, want in pairs)
    return _result("reference tables match the Poly algebra", worst, 1e-13)


def check_factored_tables():
    """Every vector space's factored table, summed by ``TensorGrid`` on the
    tensor grid of seeded random points, equals its dual fields there."""
    t = np.random.default_rng(16).uniform(-0.5, 0.5, 4)
    xyz = np.meshgrid(t, t, t, indexing="ij")
    worst = 0.0
    for space in reference_spaces().values():
        if not isinstance(space.span[0], PolyField):
            continue    # Q1K is scalar
        for col, components in enumerate(COLUMNS):
            want = np.array([[g(*xyz) for g in components(f)]
                             for f in space.dual])
            grid = TensorGrid(space, col, t)
            got = grid.factors(np.eye(space.dim)[None])
            got = (grid.powers @ got.reshape(len(got), -1)).reshape(
                4, 4, space.dim, 4, -1).transpose(2, 4, 0, 1, 3)
            worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
    return _result("factored tables match the dual fields", worst, 1e-12)


def _random_polyfield(rng, deg):
    comps = []
    for _ in range(3):
        p = Poly.zero()
        for a in range(deg + 1):
            for b in range(deg + 1):
                for c in range(deg + 1):
                    p = p + Poly.monomial(a, b, c, coef=rng.standard_normal())
        comps.append(p)
    return PolyField(comps)


def _field_difference(a, b):
    mat = coefficient_array([a, b]).reshape(2, -1)
    scale = max(1.0, float(np.abs(mat).max()))
    return float(np.abs(mat[0] - mat[1]).max()) / scale


def check_commuting_cell():
    """Cell-level commuting diagram: interpolating the curl equals the curl of
    the interpolant, on five random polynomial fields."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(5):
        v = _random_polyfield(rng, 3)
        lhs = interp.interpolate("WK", v.curl())
        rhs = interp.interpolate("VK", v).curl()
        worst = max(worst, _field_difference(lhs, rhs))
    return _result("commuting curl/interp on cells", worst, 1e-8)


def _patch_fields(rng):
    """Random discrete field on a 3x3x3 patch: single-valued DoFs on the patch
    entities (no boundary elimination), returned as the patch's cell faces,
    per-cell reference PolyFields and the edge DoF values."""
    patch = build_mesh(3)
    vk = reference_spaces()["VK"]
    h = 1.0 / 3.0
    edge_vals = rng.standard_normal(patch.n_edges)
    face_vals = rng.standard_normal((patch.n_faces, 2))
    phys = patch.block_table(1, edges=edge_vals, faces=face_vals)
    ref = phys / h**vk.dof_scale_power
    return (patch.block_table(1, faces=np.arange(patch.n_faces)),
            [vk.combine(r) for r in ref], edge_vals)


def check_commuting_macro():
    """Macro commuting diagram on a random discrete field over one macro: the
    macro face interpolation of the piecewise curl equals the curl of the
    macro edge interpolation."""
    cell_faces, fields, edge_vals = _patch_fields(np.random.default_rng(12))
    spcs = reference_spaces()
    vm, wm = spcs["VM"], spcs["WM"]
    h = 1.0 / 3.0

    # macro frame = patch shifted to [-1/2,1/2]^3; fine-edge integrals of the
    # field are the edge DoF values themselves (in patch units)
    curl_im = vm.combine(edge_vals).curl()    # reference VM dofs (H = 1)

    # fine-face normal integrals of the piecewise curl, one adjacent cell each
    pim_ref = np.zeros(wm.dim)
    _, first = np.unique(cell_faces, return_index=True)
    owner = first // 6      # the first cell, in cell order, holding the face
    cells = _lattice((3,) * 3)
    for fid, (axis, *lat) in enumerate(face_lattice_order(3)):
        c = owner[fid]
        side = lat[axis] - cells[c, axis]    # 0 or 1
        curl_c = fields[c].curl().comps[axis]
        g = curl_c.substitute(axis, side - 0.5)
        lo, hi = [-0.5] * 3, [0.5] * 3
        lo[axis], hi[axis] = 0.0, 1.0
        # cell-frame curl integral -> macro units: one h factor for the area
        # scaling (h^2) times the 1/h from the piecewise curl
        pim_ref[fid] = h * g.integrate_box(lo, hi)
    return _result("commuting curl/interp on macros",
                   _field_difference(curl_im, wm.combine(pim_ref)), 1e-8)


# ---------------------------------------------------------------------------
# orthogonality and structure identities
# ---------------------------------------------------------------------------

def check_gradient_orthogonality_quadratics():
    """For every quadratic field w and every WK dual, the corrected
    interpolation error is gradient-orthogonal: (grad(w - Pi w), grad w_h) = 0."""
    wk = reference_spaces()["WK"]
    monos = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)
             if a + b + c <= 2]
    worst = 0.0
    for comp in range(3):
        for mono in monos:
            w = PolyField.unit(comp, Poly.monomial(*mono))
            piw = interp.interpolate("WK", w)
            diff = w - piw
            for wh in wk.dual:
                worst = max(worst, abs(grad_pair(diff, wh)))
    return _result("quadratic gradient orthogonality of corrected interp",
                   worst, 1e-12)


def check_l2_orthogonality_linears():
    """For every linear field v and trilinear q, the canonical interpolation
    error is orthogonal to grad q: (v - I0 v, grad q) = 0."""
    q1 = reference_spaces()["Q1K"]
    monos = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    worst = 0.0
    for comp in range(3):
        for mono in monos:
            v = PolyField.unit(comp, Poly.monomial(*mono))
            iv = interp.interpolate("VK", v, corrected=False)
            diff = v - iv
            for q in q1.dual:
                gq = PolyField((q.diff(0), q.diff(1), q.diff(2)))
                worst = max(worst, abs(integrate_exact(diff.dot(gq))))
    return _result("linear L2 orthogonality of canonical interp", worst,
                   1e-12)


def check_mean_curl_preservation():
    """The edge reconstruction preserves the cell mean of the curl:
    integral of curl(v - IC v) vanishes for every VK dual."""
    vk = reference_spaces()["VK"]
    worst = 0.0
    for v in vk.dual:
        icv = interp.interpolate("NedelecK", v)
        c = (v - icv).curl()
        for comp in range(3):
            worst = max(worst, abs(integrate_exact(c.comps[comp])))
    return _result("mean curl preserved by edge reconstruction", worst,
                   1e-12)


def check_face_jumps():
    """The face integrals of each component of a random interior W_h field
    on the n = 3 mesh, taken by WK's face DoFs in both cells of every
    interior face, agree."""
    rng = np.random.default_rng(13)
    mesh = build_mesh(3)
    wk = reference_spaces()["WK"]
    h = mesh.h
    face_vals = rng.standard_normal((mesh.n_faces, 3))
    face_vals[mesh.face_is_boundary] = 0.0
    # local DoF order per face is (t1, t2, n), so cell c's DoFs are its
    # six faces' values in turn
    cell_faces = mesh.block_table(1, faces=np.arange(mesh.n_faces))
    cell_ref = mesh.block_table(1, faces=face_vals) / h**wk.dof_scale_power
    fields = [wk.combine(r) for r in cell_ref]

    worst = 0.0
    for fid in np.where(~mesh.face_is_boundary)[0]:
        cells, local = np.nonzero(cell_faces == fid)
        ints = np.array([[wk.dofs[3 * f + k].apply(fields[c]) for k in range(3)]
                         for c, f in zip(cells, local)]) * h**2
        worst = max(worst, np.abs(ints[0] - ints[1]).max())
    return _result("face jump integrals of W_h vanish", worst, 1e-10)


def check_univariate_structure():
    """Each component of every WK spanning field is a sum of univariate
    polynomials: no mixed monomials may appear."""
    wk = reference_spaces()["WK"]
    mixed = 0
    for f in wk.span:
        for comp in f.comps:
            for (a, b, c) in comp.coeffs:
                if sum(e > 0 for e in (a, b, c)) > 1:
                    mixed += 1
    return CheckResult("WK components are sums of univariate polynomials",
                       mixed == 0, f"{mixed} mixed monomials")


# ---------------------------------------------------------------------------
# manufactured solution cross-checks
# ---------------------------------------------------------------------------

def check_divergence_free():
    ex = mms.build_exact_fields()
    pts = np.random.default_rng(14).uniform(0.05, 0.95, size=(50, 3))
    div_u = ex.u.div()
    div_f = ex.f.div()
    vals = 0.0
    for fdiv in (div_u, div_f):
        vals = max(vals, float(np.abs(
            fdiv(pts[:, 0], pts[:, 1], pts[:, 2])).max()))
    extra = "series cancel exactly" if div_u.is_zero and div_f.is_zero else ""
    return _result("div u = div f = 0", vals, 1e-10, extra)


def _u_direct(P):
    """Velocity evaluated straight from sin/cos products (independent of the
    series algebra)."""
    x, y, z = P[..., 0], P[..., 1], P[..., 2]
    s = lambda t: np.sin(np.pi * t) ** 3
    ds = lambda t: 3.0 * np.pi * np.sin(np.pi * t) ** 2 * np.cos(np.pi * t)
    return np.stack([s(x) * ds(y) * s(z), -ds(x) * s(y) * s(z),
                     np.zeros_like(x)], axis=-1)


def _fd_weights(order, npts):
    """Weights of a centered finite-difference stencil for one derivative:
    sum_j w_j f(x + o_j dt) = f^(order)(x) * dt**order, exact on polynomials
    of degree < npts."""
    offsets = np.arange(npts) - (npts - 1) / 2.0
    V = np.vander(offsets, npts, increasing=True).T
    rhs = np.zeros(npts)
    rhs[order] = math.factorial(order)
    return offsets, np.linalg.solve(V, rhs)


def _curl_power_terms(power):
    """Expand curl^power into derivative terms: maps (out component, source
    component, multi-index) -> coefficient."""
    eps = {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0,
           (0, 2, 1): -1.0, (2, 1, 0): -1.0, (1, 0, 2): -1.0}
    terms = {(i, i, (0, 0, 0)): 1.0 for i in range(3)}
    for _ in range(power):
        new = {}
        for (comp, src, alpha), coef in terms.items():
            for (i, j, k), s in eps.items():
                if k == comp:
                    a = list(alpha)
                    a[j] += 1
                    key = (i, src, tuple(a))
                    new[key] = new.get(key, 0.0) + s * coef
        terms = {k: v for k, v in new.items() if v != 0.0}
    return terms


# step and accuracy order of the finite-difference curl^4 stencils
FD_STEP = 0.02
FD_ACCURACY = 8


def fd_curl4(field, pts):
    """curl^4 of a vector field by nested tensor finite differences.

    High-order centered stencils per axis; the composition is expanded
    algebraically so each term is a single mixed fourth derivative.
    """
    pts = np.asarray(pts, dtype=float)
    out = np.zeros((len(pts), 3))
    for (comp, src, alpha), coef in _curl_power_terms(4).items():
        axes = [(ax, alpha[ax]) for ax in range(3) if alpha[ax] > 0]
        grids, weights = [], []
        for ax, order in axes:
            npts = order + FD_ACCURACY + (order + FD_ACCURACY) % 2 + 1
            offs, w = _fd_weights(order, npts)
            grids.append(offs * FD_STEP)
            weights.append(w / FD_STEP**order)
        mesh = np.meshgrid(*grids, indexing="ij")
        wmesh = weights[0]
        for w in weights[1:]:
            wmesh = np.multiply.outer(wmesh, w)
        stencil = np.zeros((wmesh.size, 3))
        for dim, (ax, _) in enumerate(axes):
            stencil[:, ax] = mesh[dim].reshape(-1)
        P = pts[:, None, :] + stencil[None, :, :]
        vals = field(P.reshape(-1, 3)).reshape(len(pts), -1, 3)[:, :, src]
        out[:, comp] += coef * (vals @ wmesh.reshape(-1))
    return out


def check_load_fd_oracle():
    """The series load f equals a finite-difference curl^4 of the directly
    evaluated velocity, to relative accuracy."""
    ex = mms.build_exact_fields()
    pts = np.random.default_rng(15).uniform(0.25, 0.75, size=(10, 3))
    f_series = ex.f_value(pts)
    f_fd = fd_curl4(_u_direct, pts)
    scale = np.abs(f_series).max()
    rel = float(np.abs(f_series - f_fd).max()) / scale
    return _result("load matches FD curl^4 oracle", rel, 1e-6,
                   f"|f| scale {scale:.3e}")


# ---------------------------------------------------------------------------
# global identities and the solver oracle
# ---------------------------------------------------------------------------

def check_i3h_collapse():
    """Postprocessing the interpolant equals postprocessing the field itself
    (both reduce to the same fine-edge integrals), at n = 3.  The direct
    integrals take the study's Gauss order, as I_h does."""
    ex = mms.build_exact_fields()
    mesh = build_mesh(3)
    gmap = system.build_dof_map(mesh)
    part = macro_partition(mesh)
    ihu = interp.global_interp_Ih(ex, mesh, gmap)
    m1 = interp.global_I3h(ihu, mesh, gmap, part)

    # direct fine-edge integrals of u (boundary edges stay zero: the exact
    # tangential trace vanishes there)
    points, weights = polyquad.gauss_rule(polyquad.GAUSS_ORDER)
    h = mesh.h
    vals = np.zeros(mesh.n_edges)
    for eid in np.where(~mesh.edge_is_boundary)[0]:
        axis, *lat = mesh.edge_lattice(eid)
        P = np.tile(h * np.array(lat), (len(points), 1))
        P[:, axis] += h * points
        vals[eid] = h * (weights @ ex.u_value(P)[:, axis])
    direct = vals[part[0]] / (3 * h)
    scale = max(1.0, float(np.abs(direct).max()))
    defect = float(np.abs(m1[0] - direct).max()) / scale
    return _result("postprocessing collapses through interpolation",
                   defect, 1e-10)


def check_solver_oracle():
    """At n = 3 and 6 the solution matches a dense factorization coefficient
    by coefficient and B^T u vanishes, for the loads of both schemes and for
    a random load.  The divergence-free loads give a vanishing pressure; the
    random one has G^T F != 0, so it exercises the pressure solve.  At n = 3
    the V-cycle has one level; n = 6 (6 -> 3) runs the coarse correction."""
    ex = mms.build_exact_fields()
    worst = 0.0
    worst_p = 0.0
    random_p = math.inf
    for n in (3, 6):
        mesh = build_mesh(n)
        gmap = system.build_dof_map(mesh)
        sys_ = system.build_system(mesh, gmap, ex)
        K = sys_.full_matrix()
        loads = {mode: system.assemble_rhs(mesh, gmap, ex, mode=mode)
                 for mode in ("original", "modified")}
        loads["random"] = \
            np.random.default_rng(5).standard_normal(gmap.n_vdofs)
        for mode, load in loads.items():
            sys_.rhs = load
            u_it, p_it, _ = system.solve_saddle(sys_)
            z = scipy.linalg.solve(K, sys_.full_rhs())
            scale = max(1.0, float(np.abs(z).max()))
            worst = max(worst, float(np.abs(
                np.concatenate([u_it, p_it]) - z).max()) / scale,
                float(np.abs(sys_.B.T @ u_it).max()) / scale)
            if mode == "random":
                random_p = min(random_p, float(np.abs(p_it).max()))
            else:
                worst_p = max(worst_p, float(np.abs(p_it).max()),
                              float(np.abs(z[gmap.n_vdofs:]).max()))
    res = _result("iterative solve matches dense oracle", worst, 1e-8,
                  f"|p|_inf {worst_p:.2e} (random load: {random_p:.2e})")
    res.passed = res.passed and worst_p <= 1e-8
    return res


# ---------------------------------------------------------------------------
# the battery
# ---------------------------------------------------------------------------

BATTERY = (check_unisolvence, check_reference_tables, check_curl_inclusions,
           check_factored_tables, check_commuting_cell, check_commuting_macro,
           check_gradient_orthogonality_quadratics,
           check_l2_orthogonality_linears, check_mean_curl_preservation,
           check_face_jumps, check_univariate_structure,
           check_divergence_free, check_load_fd_oracle, check_i3h_collapse,
           check_solver_oracle)


def run_battery():
    """Run every check of ``BATTERY``; returns a list of CheckResult.  A
    check that raises is a failing result naming the exception, and the
    checks after it still run."""
    results = []
    for check in BATTERY:
        try:
            results.append(check())
        except Exception as exc:
            results.append(CheckResult(check.__name__, False,
                                       f"raised {type(exc).__name__}: {exc}"))
    return results
