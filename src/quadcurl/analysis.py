"""Discrete error norms, superclose/superconvergence quantities and EOC tables.

Errors against the exact (trigonometric) solution are integrated per cell with
tensor Gauss rules.  The Gauss points of a slab of cells form a tensor grid, so
the exact fields are evaluated there by sum factorization and the kernels
contract with the dual tables by matrix products.  Differences of two discrete
fields are integrated exactly through the reference Gram matrices, which keeps
quadrature noise out of the superclose quantity (the smallest number in the
study).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .mesh import NonDivisibleMesh
from .polyquad import gauss_rule
from .spaces import (dual_curl_table, dual_gradcurl_table, dual_gram_matrices,
                     dual_value_table, reference_spaces)
from .system import gather


# macros per chunk of the macro error phases
MACRO_CHUNK = 64


class DegenerateError(Exception):
    """EOC undefined: an error value is zero or negative."""


@dataclass(frozen=True)
class ErrorTriple:
    """(|curl_h e|_{1,h}, ||curl_h e||_0, ||e||_0)."""

    curl_h1: float
    curl_l2: float
    l2: float

    def as_tuple(self):
        return (self.curl_h1, self.curl_l2, self.l2)


def _columns(table_val, table_curl, table_gc, wts, cells):
    """(dual matrix, point weights) per ErrorTriple column: the tables as
    dof-major (dim, points x components) views, the weights repeated per
    component and tiled over ``cells`` fine cells."""
    out = []
    for table, k in ((table_gc, 9), (table_curl, 3), (table_val, 3)):
        out.append((table.reshape(len(table), -1),
                    np.tile(np.repeat(wts, k), cells)))
    return tuple(out)


@lru_cache(maxsize=None)
def _cell_tables(q):
    """Reference VK dual tables at the q^3 box points, cached per order.

    ``val``/``curl`` are (dof, point, 3) and ``gc`` (dof, point, 3, 3);
    ``columns`` holds the same tables flattened per dof, in ErrorTriple order.
    """
    pts, wts = gauss_rule(q).box((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))
    vk = reference_spaces()["VK"]
    tab = {"wts": wts, "val": dual_value_table(vk, pts),
           "curl": dual_curl_table(vk, pts),
           "gc": dual_gradcurl_table(vk, pts)}
    tab["columns"] = _columns(tab["val"], tab["curl"], tab["gc"], wts, 1)
    return tab


@lru_cache(maxsize=None)
def _macro_tables(q):
    """VM dual tables at every fine-cell quadrature point of the macro frame,
    as ``_columns``: (dof, fine cell 0..26 x point x component) matrices with
    their weights.  Fine cells follow the (a, b, c) lexicographic order of
    MacroPartition.macro_cells.
    """
    pts, wts = gauss_rule(q).box((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))
    vm = reference_spaces()["VM"]
    # all 27 fine-cell grids stacked into one evaluation per dual field
    lat = np.stack(np.meshgrid(*(np.arange(3.0),) * 3, indexing="ij"),
                   axis=-1).reshape(27, 1, 3)
    mpts = ((lat + 0.5) / 3.0 - 0.5 + pts / 3.0).reshape(-1, 3)
    return _columns(dual_value_table(vm, mpts), dual_curl_table(vm, mpts),
                    dual_gradcurl_table(vm, mpts), wts, 27)


def _exact_grid(exact, x, y, z):
    """(grad curl u, curl u, u) on the tensor grid x * y * z, through
    ``exact.grid_values`` or, for fields without it, the pointwise methods
    at the same grid points."""
    grid = getattr(exact, "grid_values", None)
    if grid is not None:
        u, curl, gc = grid(x, y, z)
    else:
        P = np.stack(np.meshgrid(x, y, z, indexing="ij"), axis=-1)
        flat = P.reshape(-1, 3)
        u = exact.u_value(flat)
        curl = exact.curl_u_value(flat)
        gc = exact.grad_curl_u_value(flat)
    return gc, curl, u


def _exact_on_blocks(exact, mesh, sub, q, chunk):
    """Exact grad curl u, curl u and u at the Gauss points of every cell.

    The mesh is tiled by blocks of sub^3 cells (1 for cells, 3 for macros),
    numbered like the cells, lexicographically on the block lattice.  A chunk
    is a run of whole block rows at one first lattice index, about ``chunk``
    blocks with contiguous ids, so its Gauss points form one tensor grid.
    Yields ``(block id slice, values)``: values in ErrorTriple column order,
    each (blocks, fine cell x point x component) with fine cells and points
    in the lexicographic order of ``macro_cells`` and ``gauss_rule.box``.
    """
    n, h = mesh.n, mesh.h_axis[0]
    nb, p = n // sub, sub * q
    r = gauss_rule(q).interval(-0.5, 0.5)[0]
    coords = ((np.arange(n) + 0.5)[:, None] * h + h * r).reshape(-1)
    rows = min(nb, max(1, chunk // nb))
    for i in range(nb):
        for j in range(0, nb, rows):
            nj = min(rows, nb - j)
            vals = _exact_grid(exact, coords[i * p:(i + 1) * p],
                               coords[j * p:(j + nj) * p], coords)
            blocks = tuple(
                v.reshape(sub, q, nj, sub, q, nb, sub, q, -1)
                .transpose(2, 5, 0, 3, 6, 1, 4, 7, 8).reshape(nj * nb, -1)
                for v in vals)
            del vals    # the grid layout is not needed while the caller works
            start = (i * nb + j) * nb
            yield slice(start, start + nj * nb), blocks


def _sq_error(approx, scale, exact, w):
    """Weighted sum of squares of ``scale * approx - exact``.  Works in
    place in ``approx``, so a chunk needs one temporary of its size."""
    approx *= scale
    approx -= exact
    np.square(approx, out=approx)
    return np.sum(approx @ w)


def error_vs_exact(u_vec, exact, mesh, gmap, q=6, chunk=1024):
    """Error triple of a V_h coefficient vector against the exact solution."""
    columns = _cell_tables(q)["columns"]
    h = mesh.h_axis[0]
    scales = (h**-2, 1.0 / h, 1.0)
    acc = np.zeros(3)
    for cells, exact_vals in _exact_on_blocks(exact, mesh, 1, q, chunk):
        d = gather(u_vec, gmap.cell_vdofs[cells]) / h   # reference dof values
        for col, ((phi, w), s, ex) in enumerate(
                zip(columns, scales, exact_vals)):
            acc[col] += _sq_error(d @ phi, s, ex, w)
    return ErrorTriple(*np.sqrt(h**3 * acc))


def _gram_norms(space, coeffs, size):
    """Exact norms of a piecewise field through the reference Gram triple of
    ``space``: ``coeffs`` holds the reference DoFs of one cell of edge
    ``size`` per row."""
    M0, M1, M2 = dual_gram_matrices(space)
    n0 = size**3 * np.einsum("ci,ij,cj->", coeffs, M0, coeffs)
    n1 = size * np.einsum("ci,ij,cj->", coeffs, M1, coeffs)
    n2 = (1.0 / size) * np.einsum("ci,ij,cj->", coeffs, M2, coeffs)
    return ErrorTriple(math.sqrt(max(n2, 0.0)), math.sqrt(max(n1, 0.0)),
                       math.sqrt(max(n0, 0.0)))


def discrete_norms(vec, mesh, gmap):
    """Exact norms of a V_h coefficient vector via the reference Gram triple."""
    h = mesh.h_axis[0]
    return _gram_norms(reference_spaces()["VK"],
                       gather(vec, gmap.cell_vdofs) / h, h)


def superclose_error(u_vec, ihu_vec, mesh, gmap):
    """Norms of I_h u - u_h, exact in coefficient space."""
    return discrete_norms(ihu_vec - u_vec, mesh, gmap)


def macro_norms(macro_field):
    """Exact norms of a MacroField via the reference VM Gram triple."""
    return _gram_norms(macro_field.space, macro_field.coeffs, macro_field.size)


def macro_best_approximation(exact, mesh, partition, q=6):
    """Per-macro best approximation of the exact solution from V_M.

    On every macro, u is projected onto V_M in each norm of ErrorTriple (the
    grad-curl seminorm, the L2 norm of the curl, the L2 norm).  The distance
    from u to its projection P_M u is a lower bound for the matching column
    of ``superconvergent_error`` of *any* field v in V_M, and by Pythagoras
    the measured error squared is that bound squared plus the norm of
    P_M u - v squared.  The two curl Grams are singular (gradients, and for
    the seminorm fields of constant curl, span their kernels); the
    pseudo-inverse picks one projection, which leaves the distances unchanged.

    Returns ``(bounds, coeffs)``: an ErrorTriple of the distances and a
    triple of (n_macros, dim VM) reference-coefficient arrays of P_M u, both
    in ErrorTriple column order.
    """
    if partition.mesh.n != mesh.n:
        raise NonDivisibleMesh("macro partition does not match the mesh")
    vm = reference_spaces()["VM"]
    h = mesh.h_axis[0]
    H = partition.macro_size
    # physical dual fields are scale x the reference tables
    columns = []
    for (phi, w), scale, gram in zip(_macro_tables(q),
                                     (H**-2, 1.0 / H, 1.0),
                                     reversed(dual_gram_matrices(vm))):
        ginv = np.linalg.pinv(H**3 * scale**2 * gram, rcond=1e-10,
                              hermitian=True)
        columns.append((phi, h**3 * w, scale, ginv))

    acc = np.zeros(3)
    coeffs = tuple(np.empty((partition.n_macros, vm.dim)) for _ in columns)
    for macros, exact_vals in _exact_on_blocks(exact, mesh, 3, q, MACRO_CHUNK):
        for col, ((phi, w, scale, ginv), ex) in enumerate(
                zip(columns, exact_vals)):
            c = scale * ((ex * w) @ phi.T) @ ginv
            acc[col] += _sq_error(c @ phi, scale, ex, w)
            coeffs[col][macros] = c
    return ErrorTriple(*np.sqrt(acc)), coeffs


def superconvergent_error(macro_field, exact, mesh, q=6):
    """Error triple of the postprocessed field against the exact solution,
    integrated per fine cell."""
    part = macro_field.partition
    if part.mesh.n != mesh.n:
        raise NonDivisibleMesh("macro partition does not match the mesh")
    columns = _macro_tables(q)
    h = mesh.h_axis[0]
    H = part.macro_size
    scales = (H**-2, 1.0 / H, 1.0)
    acc = np.zeros(3)
    for macros, exact_vals in _exact_on_blocks(exact, mesh, 3, q, MACRO_CHUNK):
        coef = macro_field.coeffs[macros]
        for col, ((phi, w), s, ex) in enumerate(
                zip(columns, scales, exact_vals)):
            acc[col] += _sq_error(coef @ phi, s, ex, w)
    return ErrorTriple(*np.sqrt(h**3 * acc))


def compute_eoc(rows):
    """EOC columns between consecutive rows of (n, ErrorTriple).

    eoc = log(e1 / e2) / log(n2 / n1); the first row gets NaNs.
    """
    if len(rows) < 1:
        raise DegenerateError("need at least one row")
    out = [np.full(3, np.nan)]
    for (n1, e1), (n2, e2) in zip(rows, rows[1:]):
        cols = []
        for a, b in zip(e1.as_tuple(), e2.as_tuple()):
            if a <= 0.0 or b <= 0.0:
                raise DegenerateError(f"nonpositive error in EOC: {a}, {b}")
            cols.append(math.log(a / b) / math.log(n2 / n1))
        out.append(np.array(cols))
    return out


@dataclass
class ConvergenceReport:
    """Per-n error triples with EOC columns, serializable to CSV/Markdown."""

    scheme: str
    quantity: str
    rows: list = field(default_factory=list)   # [(n, ErrorTriple)]

    def add(self, n, triple):
        self.rows.append((int(n), triple))

    @property
    def eocs(self):
        return compute_eoc(self.rows)

    def to_csv(self):
        lines = ["n,err1,eoc1,err2,eoc2,err3,eoc3"]
        for (n, e), eoc in zip(self.rows, self.eocs):
            cells = [str(n)]
            for val, order in zip(e.as_tuple(), eoc):
                cells.append(f"{val:.6E}")
                cells.append("" if np.isnan(order) else f"{order:.4f}")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_markdown(self):
        heads = {
            "errors": ("|curl_h(u-u_h)|_{1,h}", "||curl_h(u-u_h)||_0",
                       "||u-u_h||_0"),
            "superclose": ("|curl_h(I_h u-u_h)|_{1,h}",
                           "||curl_h(I_h u-u_h)||_0", "||I_h u-u_h||_0"),
            "superconv": ("|curl_h(u-I3h u_h)|_{1,h}",
                          "||curl_h(u-I3h u_h)||_0", "||u-I3h u_h||_0"),
        }
        h1, h2, h3 = heads.get(self.quantity,
                               ("err1", "err2", "err3"))
        lines = [f"| n | {h1} | order | {h2} | order | {h3} | order |",
                 "|---|---|---|---|---|---|---|"]
        for (n, e), eoc in zip(self.rows, self.eocs):
            cells = [str(n)]
            for val, order in zip(e.as_tuple(), eoc):
                cells.append(f"{val:.3E}")
                cells.append("" if np.isnan(order) else f"{order:.2f}")
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"

    def save(self, directory, fmt="both"):
        """Write report files; returns the list of paths written."""
        import os
        os.makedirs(directory, exist_ok=True)
        stem = f"{self.scheme}_{self.quantity}"
        written = []
        if fmt in ("csv", "both"):
            path = os.path.join(directory, stem + ".csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(self.to_csv())
            written.append(path)
        if fmt in ("markdown", "both"):
            path = os.path.join(directory, stem + ".md")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(self.to_markdown())
            written.append(path)
        return written
