import math
import tracemalloc
import weakref

import numpy as np
import pytest

from quadcurl import analysis, cli, interp, mms, polyquad, spaces, system
from quadcurl.analysis import (ConvergenceReport, DegenerateError, ErrorTriple,
                               compute_eoc, discrete_norms)
from quadcurl.mesh import NonDivisibleMesh, build_mesh, macro_partition
from quadcurl.spaces import (TensorGrid, dual_gram_matrices, gauss_walk,
                             reference_spaces)
from macro_oracles import macro_norms
from tables import (dual_curl_table, dual_gradcurl_table, dual_value_table,
                    gauss_box)


@pytest.fixture(scope="module")
def setup3():
    mesh = build_mesh(3)
    return mesh, system.build_dof_map(mesh)


def test_zero_difference_gives_zero_triple(setup3):
    mesh, gmap = setup3
    v = np.random.default_rng(0).standard_normal(gmap.n_vdofs)
    trip = analysis.superclose_error(v, v.copy(), mesh, gmap)
    assert trip.as_tuple() == (0.0, 0.0, 0.0)


def test_discrete_norms_match_quadrature(setup3):
    # Gram-based exact norms against per-cell Gauss integration of the same
    # discrete field
    mesh, gmap = setup3
    rng = np.random.default_rng(1)
    v = rng.standard_normal(gmap.n_vdofs)
    trip = discrete_norms(v, mesh, gmap)

    vk = reference_spaces()["VK"]
    pts, wts = gauss_box(6)
    val = dual_value_table(vk, pts)
    curl = dual_curl_table(vk, pts)
    gc = dual_gradcurl_table(vk, pts)
    h = mesh.h
    cols = gmap.cell_vdofs
    d = np.append(v, 0.0)[cols] / h
    n0 = h**3 * np.einsum("ci,igk,cj,jgk,g->", d, val, d, val, wts)
    n1 = h * np.einsum("ci,igk,cj,jgk,g->", d, curl, d, curl, wts)
    n2 = (1 / h) * np.einsum("ci,igkl,cj,jgkl,g->", d, gc, d, gc, wts)
    assert trip.l2 == pytest.approx(np.sqrt(n0), rel=1e-10)
    assert trip.curl_l2 == pytest.approx(np.sqrt(n1), rel=1e-10)
    assert trip.curl_h1 == pytest.approx(np.sqrt(n2), rel=1e-10)


def test_triangle_inequality_spot_checks(setup3):
    mesh, gmap = setup3
    rng = np.random.default_rng(2)
    for _ in range(5):
        a = rng.standard_normal(gmap.n_vdofs)
        b = rng.standard_normal(gmap.n_vdofs)
        na = discrete_norms(a, mesh, gmap)
        nb = discrete_norms(b, mesh, gmap)
        nab = discrete_norms(a + b, mesh, gmap)
        for x, y, z in zip(nab.as_tuple(), na.as_tuple(), nb.as_tuple()):
            assert x <= y + z + 1e-12


def test_eoc_exact_ratio():
    rows = [(6, ErrorTriple(4.0, 4.0, 4.0)), (12, ErrorTriple(1.0, 1.0, 1.0))]
    eocs = compute_eoc(rows)
    assert np.isnan(eocs[0]).all()
    assert np.allclose(eocs[1], 2.0)


def test_eoc_first_order_synthetic():
    rows = [(n, ErrorTriple(7.0 / n, 7.0 / n, 7.0 / n))
            for n in (4, 8, 16)]
    eocs = compute_eoc(rows)
    for row in eocs[1:]:
        assert np.allclose(row, 1.0, atol=1e-12)


def test_eoc_paper_value():
    # Table-1 curl column between n = 6 and 12 from the reported errors
    rows = [(6, ErrorTriple(1, 1.548, 1)), (12, ErrorTriple(1, 0.4096, 1))]
    eoc = compute_eoc(rows)[1][1]
    assert eoc == pytest.approx(1.92, abs=0.005)


def test_eoc_rejects_degenerate_errors():
    rows = [(6, ErrorTriple(1.0, 0.0, 1.0)), (12, ErrorTriple(1.0, 1.0, 1.0))]
    with pytest.raises(DegenerateError):
        compute_eoc(rows)


def test_report_csv_and_markdown(tmp_path):
    # rows in record order, of the report's scheme only
    records = [{"n": n, "scheme": s, "triples": {"errors": t}} for n, s, t in (
        (6, "modified", (4.332e1, 1.836, 2.344e-1)),
        (6, "original", (4.351e1, 1.548, 2.244e-1)),
        (12, "modified", (2.159e1, 4.734e-1, 1.081e-1)))]
    rep = ConvergenceReport.from_records(records, "modified", "errors")
    csv = rep.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "n,err1,eoc1,err2,eoc2,err3,eoc3"
    assert lines[1].startswith("6,4.332000E+01,,")
    assert len(lines) == 3
    md = rep.to_markdown()
    assert md.count("|") > 10
    paths = rep.save(tmp_path, fmt="both")
    assert all((tmp_path / p.split("/")[-1]).exists() for p in paths)


def test_error_vs_exact_of_interpolant_is_small(setup3):
    # sanity: the interpolant of the exact solution has O(h) energy error,
    # far below the raw field norms
    mesh, gmap = setup3
    ex = mms.build_exact_fields()
    ihu = interp.global_interp_Ih(ex, mesh, gmap)
    err = analysis.error_vs_exact(ihu, ex, mesh, gmap)
    zero = np.zeros(gmap.n_vdofs)
    norm_u = analysis.error_vs_exact(zero, ex, mesh, gmap)
    assert err.curl_h1 < 0.7 * norm_u.curl_h1
    assert err.curl_l2 < 0.5 * norm_u.curl_l2
    assert err.l2 < 0.5 * norm_u.l2


@pytest.fixture(scope="module")
def macro6():
    mesh = build_mesh(6)
    gmap = system.build_dof_map(mesh)
    ex = mms.build_exact_fields()
    # I_M u: the macro edge interpolant reads the exact edge integrals of I_h u
    imu = interp.global_I3h(interp.global_interp_Ih(ex, mesh, gmap),
                            mesh, gmap, macro_partition(mesh))
    return mesh, ex, imu


class _PointwiseGrid:
    """``x_factored`` built from the pointwise methods at the meshgrid
    points, with the identity over the given x abscissae (the mesh's x
    Gauss abscissae in a walk) as its x factor: the reference for the
    sum-factorized form of the exact fields."""

    def x_factored(self, x, y, z, comps=slice(None), out=None):
        P = np.stack(np.meshgrid(x, y, z, indexing="ij"), axis=-1)
        flat, grid = P.reshape(-1, 3), P.shape[:3]
        vals = [f(flat).reshape(grid + (-1,)) for f in (
            self.grad_curl_u_value, self.curl_u_value, self.u_value)]
        E = np.concatenate(vals, axis=-1)[..., comps]
        if out is not None:
            out[...] = E
        return np.eye(len(x)), E


class _MacroFieldAsExact(_PointwiseGrid):
    """A macro field, its (macros, 144) reference V_M coefficients on
    ``mesh``, behind the exact-field interface (u, curl u, grad curl u)."""

    def __init__(self, coeffs, mesh):
        self.coeffs, self.m, self.H = coeffs, mesh.n // 3, 3 * mesh.h

    def _eval(self, pts, kind):
        H = self.H
        lat = np.floor(pts / H).astype(int)
        macro = (lat[:, 0] * self.m + lat[:, 1]) * self.m + lat[:, 2]
        centers = (lat + 0.5) * H
        out = np.empty((len(pts), 3) + ((3,) if kind == "gc" else ()))
        for m in np.unique(macro):
            sel = macro == m
            field = reference_spaces()["VM"].combine(self.coeffs[m])
            ref = ((pts[sel] - centers[sel]) / H).T
            if kind == "val":
                out[sel] = field(*ref)
            elif kind == "curl":
                out[sel] = field.curl()(*ref) / H
            else:
                g = field.curl().grad()
                for i in range(3):
                    for j in range(3):
                        out[sel, i, j] = g[i][j](*ref) / H**2
        return out

    def u_value(self, pts):
        return self._eval(pts, "val")

    def curl_u_value(self, pts):
        return self._eval(pts, "curl")

    def grad_curl_u_value(self, pts):
        return self._eval(pts, "gc")


@pytest.mark.parametrize("n", [6, 12])
def test_split_walks_match_direct_walks(n):
    # ||g - g_h||^2 = ||g - P g||^2 + ||P g - g_h||^2 on the solves of both
    # schemes: the split of the best approximation from VK (errors) and VM
    # (superconv) against the direct walk, in every column
    ex = mms.build_exact_fields()
    config = cli.RunConfig(scheme="both", ns=(n,),
                           tasks=("errors", "superconv"))
    mesh = build_mesh(n)
    gmap = system.build_dof_map(mesh)
    part = macro_partition(mesh)
    for rec in cli.study(config):
        i3h_u = interp.global_I3h(rec.u, mesh, gmap, part)
        vk, vm = (analysis.best_approximation(tag, ex, mesh)
                  for tag in ("VK", "VM"))
        pairs = [(analysis.error_vs_exact(rec.u, ex, mesh, gmap),
                  analysis.error_vs_exact(rec.u, ex, mesh, gmap, best=vk)),
                 (analysis.superconvergent_error(i3h_u, ex, mesh),
                  analysis.superconvergent_error(i3h_u, ex, mesh, best=vm))]
        for direct, split in pairs:
            _assert_triples_close(split, direct, rel=1e-10)


def test_split_walk_leaves_out_gradients():
    # a gradient (G q, curl-free) added to a V_h field moves neither curl
    # column; the split and the exact Gram norms measure them through a
    # root of the Gram on its range, so a gradient 1e4 times the field
    # leaves no trace, where the quadratic form of the full Gram kept its
    # round-off squared
    mesh = build_mesh(6)
    gmap = system.build_dof_map(mesh)
    ex = mms.build_exact_fields()
    v = interp.global_interp_Ih(ex, mesh, gmap)
    q = np.random.default_rng(8).standard_normal(gmap.n_qdofs)
    grad = system.gradient_inclusion_matrix(mesh, gmap) @ q
    grad *= 1e4 * np.abs(v).max() / np.abs(grad).max()
    best = analysis.best_approximation("VK", ex, mesh)
    # the split overwrites the columns it is given: the first one a copy
    sq, roots, columns = best
    want = analysis.error_vs_exact(
        v, ex, mesh, gmap,
        best=(sq, roots, [c.copy() for c in columns])).as_tuple()
    got = analysis.error_vs_exact(v + grad, ex, mesh, gmap,
                                  best=best).as_tuple()
    assert got[:2] == pytest.approx(want[:2], rel=1e-10)
    want = discrete_norms(v, mesh, gmap).as_tuple()
    got = discrete_norms(v + grad, mesh, gmap).as_tuple()
    assert got[:2] == pytest.approx(want[:2], rel=1e-10)


def test_split_combine_holds_one_column_at_a_time():
    # the worker's columns arrive one at a time from its pipe, each
    # unpickled into a fresh array: the combine drops a column before it
    # asks for the next, so two never live at once
    mesh = build_mesh(3)
    gmap = system.build_dof_map(mesh)
    ex = mms.build_exact_fields()
    v = interp.global_interp_Ih(ex, mesh, gmap)
    sq, roots, columns = analysis.best_approximation("VK", ex, mesh)
    refs = []

    def fresh(column):
        assert all(ref() is None for ref in refs), "a column is still alive"
        copy = column.copy()
        refs.append(weakref.ref(copy))
        return copy

    received = (fresh(c) for c in columns)
    got = analysis.error_vs_exact(v, ex, mesh, gmap, best=(sq, roots, received))
    want = analysis.error_vs_exact(v, ex, mesh, gmap,
                                   best=(sq, roots, [c.copy() for c in columns]))
    assert len(refs) == 3 and got.as_tuple() == want.as_tuple()


# block sizes (``system.CHUNK`` rows of ``system._WIDTH`` values) that cut
# the n = 6 arrays into row blocks whose last one is short: 410 cuts the
# 36 y rows of a VK tile's residual into runs of 5 (grad curl) and 15 (curl,
# value), 13 the 216 cells of a VK combine into runs of 22 (rank 14) and 13
# (rank 24) and the 8 macros of a VM one into runs of 3 (rank 81), and 5
# the cells into runs of 7 (rank 17) and 5 (rank 24)
_RAGGED_CHUNKS = (5, 13, 410)


def test_row_blocks_match_whole_array_forms(macro6, monkeypatch):
    # the tile residual, the split combine and gram_norms summed in row
    # blocks against the same sums over the whole arrays
    mesh, ex, imu = macro6
    gmap = system.build_dof_map(mesh)
    rng = np.random.default_rng(11)
    v = interp.global_interp_Ih(ex, mesh, gmap) \
        + 1e-2 * rng.standard_normal(gmap.n_vdofs)
    cells = np.append(v, 0.0)[gmap.cell_vdofs] / mesh.h
    for chunk in _RAGGED_CHUNKS:
        monkeypatch.setattr(system, "CHUNK", chunk)
        for tag, sub, coeffs in (("VK", 1, cells), ("VM", 3, imu)):
            space = reference_spaces()[tag]
            size = sub * mesh.h
            scales = analysis._scales(size)
            for col, comps in enumerate(analysis._COLUMNS):
                grid = TensorGrid.gauss(space, col, sub)
                for blocks, tx, stack in gauss_walk(ex.x_factored, mesh,
                                                    grid, comps):
                    coef = rng.standard_normal(blocks.shape + (space.dim,))
                    got = analysis._tile_error(grid, coef, tx, stack)
                    r = np.concatenate([grid.powers, -tx], axis=1) \
                        @ stack.reshape(len(stack), -1)
                    assert got == pytest.approx(np.vdot(r, r), rel=1e-13)
            sq, roots, columns = analysis.best_approximation(tag, ex, mesh)
            want = [math.sqrt(a + size**3 * s**2 * np.vdot(d, d))
                    for a, s, d in zip(sq, scales, ((c - coeffs) @ root
                                       for c, root in zip(columns, roots)))]
            got = analysis._block_error(coeffs, tag, ex, mesh,
                                        (sq, roots, columns))
            assert got.as_tuple() == pytest.approx(want, rel=1e-13)
            want = [math.sqrt(size**power * np.vdot(d, d))
                    for power, d in zip((-1, 1, 3),
                                        (coeffs @ root for root in roots))]
            got = analysis.gram_norms(space, coeffs, size)
            assert got.as_tuple() == pytest.approx(want, rel=1e-13)


def test_error_walks_stay_within_their_stacks():
    # the tracemalloc peaks of the VK walks at n = 12 against the bytes of
    # the stack of the largest ErrorTriple column (grad curl, K = 9) over
    # one column of tiles (the whole (y, z) plane, 3.0 MB): 1.52 for the
    # error walk and 2.01 for the best approximation, whose moments take a
    # stack's x powers.  With the stacks and tables of all three columns
    # alive at once and each factor copied into its stack they read 2.24
    # and 2.96
    mesh = build_mesh(12)
    gmap = system.build_dof_map(mesh)
    ex = mms.build_exact_fields()
    v = interp.global_interp_Ih(ex, mesh, gmap)
    grid = TensorGrid.gauss(reference_spaces()["VK"], 0, 1)
    _, _, stack = next(gauss_walk(ex.x_factored, mesh, grid,
                                  analysis._COLUMNS[0]))
    stack_bytes = stack.nbytes
    del stack
    for walk, bound in ((lambda: analysis.error_vs_exact(v, ex, mesh, gmap),
                         1.6),
                        (lambda: analysis.best_approximation("VK", ex, mesh),
                         2.1)):
        walk()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            walk()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= bound * stack_bytes


def _random_macro_coeffs(mesh, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(((mesh.n // 3) ** 3, 144))


def test_macro_norms_match_quadrature(macro6):
    # exact-Gram norms of a macro field against per-fine-cell Gauss
    # integration of its distance to the zero field
    mesh, _ex, _imu = macro6
    mf = _random_macro_coeffs(mesh, 3)
    zero = _MacroFieldAsExact(np.zeros_like(mf), mesh)
    quad = analysis.superconvergent_error(mf, zero, mesh)
    exact = macro_norms(mf, mesh)
    for a, b in zip(exact.as_tuple(), quad.as_tuple()):
        assert a == pytest.approx(b, rel=1e-10)


def test_best_approximation_of_a_field_in_VM_is_zero(macro6):
    mesh, _ex, _imu = macro6
    mf = _random_macro_coeffs(mesh, 4)
    sq, _, _ = analysis.best_approximation("VM", _MacroFieldAsExact(mf, mesh),
                                           mesh)
    for b, norm in zip(np.sqrt(sq), macro_norms(mf, mesh).as_tuple()):
        assert b <= 1e-10 * norm


def test_best_approximation_bounds_the_macro_interpolant(macro6):
    mesh, ex, imu = macro6
    sq, _, coeffs = analysis.best_approximation("VM", ex, mesh)
    err = analysis.superconvergent_error(imu, ex, mesh)
    for col, (b, e) in enumerate(zip(np.sqrt(sq), err.as_tuple())):
        assert 0.0 < b <= e
        # Pythagoras: |u - I_M u|^2 = |u - P_M u|^2 + |P_M u - I_M u|^2
        rest = macro_norms(coeffs[col] - imu, mesh).as_tuple()[col]
        assert e**2 == pytest.approx(b**2 + rest**2, rel=1e-8)


def test_macro_tables_of_another_mesh_are_refused(macro6):
    # on the 6-mesh, I3h given the 9-mesh's macro edges and the superconv
    # walk given 27 macros' coefficients, as the 9-mesh has
    mesh, ex, _imu = macro6
    gmap = system.build_dof_map(mesh)
    with pytest.raises(NonDivisibleMesh):
        interp.global_I3h(np.zeros(gmap.n_vdofs), mesh, gmap,
                          macro_partition(build_mesh(9)))
    with pytest.raises(NonDivisibleMesh):
        analysis.superconvergent_error(np.zeros((27, 144)), ex, mesh)


class _PointwiseOnly(_PointwiseGrid):
    """The exact fields evaluated point by point at the grid points."""

    def __init__(self, exact):
        self.u_value = exact.u_value
        self.curl_u_value = exact.curl_u_value
        self.grad_curl_u_value = exact.grad_curl_u_value


def _assert_triples_close(a, b, rel=1e-12):
    for x, y in zip(a.as_tuple(), b.as_tuple()):
        assert x == pytest.approx(y, rel=rel)


def _assert_grid_matches_pointwise(mesh, ex, imu, monkeypatch, tile_points):
    gmap = system.build_dof_map(mesh)
    pointwise = _PointwiseOnly(ex)
    v = np.random.default_rng(5).standard_normal(gmap.n_vdofs)
    want = analysis.error_vs_exact(v, pointwise, mesh, gmap)
    want_sc = analysis.superconvergent_error(imu, pointwise, mesh)
    point = {tag: analysis.best_approximation(tag, pointwise, mesh)
             for tag in ("VK", "VM")}
    for points in (spaces.TILE_POINTS,) + tile_points:
        monkeypatch.setattr(spaces, "TILE_POINTS", points)
        _assert_triples_close(analysis.error_vs_exact(v, ex, mesh, gmap),
                              want)
        _assert_triples_close(analysis.superconvergent_error(imu, ex, mesh),
                              want_sc)
        for tag, (point_sq, _, point_coeffs) in point.items():
            grid_sq, _, grid_coeffs = analysis.best_approximation(tag, ex,
                                                                  mesh)
            _assert_triples_close(ErrorTriple(*np.sqrt(grid_sq)),
                                  ErrorTriple(*np.sqrt(point_sq)))
            for a, b in zip(grid_coeffs, point_coeffs):
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_grid_path_matches_pointwise_fallback(macro6, monkeypatch):
    # a cell has 6^3 Gauss points and a macro 18^3; tiles of 24 cells split
    # each slab of 36 cells into runs of 4 and 2 rows, tiles of 4 cells each
    # row of 6 into runs of 4 and 2, and a tile of one macro splits its row,
    # so the last column of tiles is partial in j or in k
    _assert_grid_matches_pointwise(*macro6, monkeypatch,
                                   (24 * 6**3, 4 * 6**3, 18**3))


def test_grid_path_matches_pointwise_fallback_at_n9(monkeypatch):
    # 9 cells and 3 macros a row: tiles of 2 x 9 cells cut j into runs of 2
    # (the last column of tiles partial in j), tiles of 4 cells cut k into
    # runs of 4 (partial in k); tiles of 2 macros cut k into 2 and 1, tiles
    # of 2 x 3 macros j into 2 and 1
    mesh = build_mesh(9)
    gmap = system.build_dof_map(mesh)
    ex = mms.build_exact_fields()
    imu = interp.global_I3h(interp.global_interp_Ih(ex, mesh, gmap),
                            mesh, gmap, macro_partition(mesh))
    _assert_grid_matches_pointwise(mesh, ex, imu, monkeypatch,
                                   (2 * 9 * 6**3, 4 * 6**3, 2 * 18**3,
                                    6 * 18**3))


def _dense_blocks(mesh, sub, space):
    """The dense per-block formula the factored kernels replaced: per block
    of sub^3 cells, the physical Gauss points of its fine cells (cells in
    lattice order), the Gauss weights (each fine cell summing to 1) and the
    dense dual tables at the reference points, one (dim, points x K) matrix
    per ErrorTriple column."""
    pts, wts = gauss_box(polyquad.GAUSS_ORDER)
    fine = (np.indices((sub,) * 3).reshape(3, -1).T + 0.5) / sub - 0.5
    ref = (fine[:, None] + pts / sub).reshape(-1, 3)
    nb, size = mesh.n // sub, sub * mesh.h
    centers = (np.indices((nb,) * 3).reshape(3, -1).T + 0.5) * size
    tables = [t(space, ref).reshape(space.dim, -1)
              for t in (dual_gradcurl_table, dual_curl_table,
                        dual_value_table)]
    return (centers[:, None] + size * ref).reshape(-1, 3), \
        np.tile(wts, sub**3), tables


def _dense_exact(exact, phys, blocks):
    return [v.reshape(blocks, -1) for v in (exact.grad_curl_u_value(phys),
                                            exact.curl_u_value(phys),
                                            exact.u_value(phys))]


def _dense_error(coeffs, scales, tables, w, ex, h):
    sq = [np.sum(np.repeat(w, t.shape[1] // len(w))
                 * (s * coeffs @ t - e) ** 2)
          for s, t, e in zip(scales, tables, ex)]
    return ErrorTriple(*np.sqrt(h**3 * np.array(sq)))


@pytest.mark.parametrize("n", [3, 6])
def test_kernels_match_dense_per_block_formula(n):
    mesh = build_mesh(n)
    gmap = system.build_dof_map(mesh)
    ex = mms.build_exact_fields()
    h, H = mesh.h, 3 * mesh.h
    v = interp.global_interp_Ih(ex, mesh, gmap) \
        + 1e-2 * np.random.default_rng(7).standard_normal(gmap.n_vdofs)

    phys, w, tables = _dense_blocks(mesh, 1, reference_spaces()["VK"])
    cells = np.append(v, 0.0)[gmap.cell_vdofs] / h
    want = _dense_error(cells, (h**-2, 1 / h, 1.0), tables, w,
                        _dense_exact(ex, phys, mesh.n_cells), h)
    _assert_triples_close(analysis.error_vs_exact(v, ex, mesh, gmap), want)

    vm = reference_spaces()["VM"]
    phys, w, tables = _dense_blocks(mesh, 3, vm)
    exv = _dense_exact(ex, phys, (n // 3) ** 3)
    scales = (H**-2, 1 / H, 1.0)
    mf = interp.global_I3h(v, mesh, gmap, macro_partition(mesh))
    want = _dense_error(mf, scales, tables, w, exv, h)
    _assert_triples_close(analysis.superconvergent_error(mf, ex, mesh), want)

    # the L2 projection per column: (phi_i, u)_w through the pseudo-inverse
    # of the Gram, as in analysis.best_approximation
    sq, _, coeffs = analysis.best_approximation("VM", ex, mesh)
    for col, (s, t, e, gram) in enumerate(zip(
            scales, tables, exv, dual_gram_matrices(vm))):
        ginv = np.linalg.pinv(H**3 * s**2 * gram, rcond=1e-10, hermitian=True)
        wk = np.repeat(w, t.shape[1] // len(w))
        c = s * ((e * h**3 * wk) @ t.T) @ ginv
        assert np.abs(coeffs[col] - c).max() <= 1e-12 * np.abs(c).max()
        dist = np.sqrt(h**3 * np.sum(wk * (s * c @ t - e) ** 2))
        assert np.sqrt(sq[col]) == pytest.approx(dist, rel=1e-12)
