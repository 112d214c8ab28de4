"""Discrete error norms, superclose/superconvergence quantities and EOC tables.

Errors against the exact (trigonometric) solution are integrated per cell with
tensor Gauss rules, on the tensor grids of tiles of blocks (cells, or 3^3
macros) walked a column of tiles at a time (``quadcurl.spaces.gauss_walk``,
the walk of the load).  The exact fields enter factored over x
(``exact.x_factored``), their (y, z) factor built once per column, and the
discrete field (``TensorGrid``) summed up to its x powers, so a tile's
weighted squared error per ErrorTriple column is one matmul
[P_x | -T_x] @ [V; E] and one dot product, every table carrying sqrt(w).  Differences of two
discrete fields are integrated exactly through the reference Gram matrices,
which keeps quadrature noise out of the superclose quantity (the smallest
number in the study).  An error walk also splits by Pythagoras: the
per-block best approximation of the exact solution (``best_approximation``,
walked without u_h, so it can run while u_h is solved for) plus an exact
Gram term of coefficient differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .mesh import NonDivisibleMesh
from .spaces import (TensorGrid, dual_gram_matrices, gauss_walk,
                     reference_spaces)
from .system import gather


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


# the ErrorTriple columns of the exact fields of ``exact.x_factored``
_COLUMNS = (slice(0, 9), slice(9, 12), slice(12, 15))


def _tile_error(grid, coeffs, col, tx, stack):
    """Weighted squared error of the field sum_j coeffs[.., j] dual_j of
    column ``col`` on one tile: ||[P_x | -T_x] @ [V; E]||^2, with its x-power
    factor V written to the free rows of ``stack``.  The square is of the
    weighted difference itself, never expanded."""
    d = grid.powers.shape[1]
    grid.factors(coeffs, col, out=stack[:d])
    r = (np.concatenate([grid.powers, -tx], axis=1)
         @ stack.reshape(len(stack), -1)).ravel()
    return np.dot(r, r)


# cells per block edge of the walk of each reference space: VK fields are
# piecewise per cell, VM fields per macro of 3^3 cells
_BLOCK_SUB = {"VK": 1, "VM": 3}


def _scales(size):
    """Physical over reference dual field per ErrorTriple column, on a block
    of edge ``size``."""
    return (size**-2, 1.0 / size, 1.0)


def _block_error(block_coeffs, tag, exact, mesh, best):
    """Error triple against the exact solution of the field that is, on each
    block of the walk of reference space ``tag``, the combination of its
    duals with coefficients ``block_coeffs(block ids)``; integrated per fine
    cell.  ``best``, when given, is the ``best_approximation`` of the exact
    solution from that space, and the split
    ||g - g_h||^2 = ||g - P g||^2 + ||P g - g_h||^2 replaces the walk, its
    second term exact through the reference Grams.  Each of its columns is
    used before the next is read."""
    space, sub = reference_spaces()[tag], _BLOCK_SUB[tag]
    size = sub * mesh.h
    scales = _scales(size)
    if best is not None:
        sq, roots, columns = best
        acc = np.array(sq, dtype=float)
        for col, (s, root, c) in enumerate(zip(scales, roots, columns)):
            d = block_coeffs(np.arange((mesh.n // sub) ** 3))
            d = np.subtract(c, d, out=d) @ root
            acc[col] += size**3 * s**2 * np.vdot(d, d)
        return ErrorTriple(*np.sqrt(acc))
    grid = TensorGrid.gauss(space, sub)
    acc = np.zeros(3)
    for blocks, tx, stacks in gauss_walk(exact.x_factored, mesh, grid, sub,
                                         _COLUMNS):
        coef = block_coeffs(blocks)
        for col, (s, stack) in enumerate(zip(scales, stacks)):
            acc[col] += _tile_error(grid, s * coef, col, tx, stack)
    return ErrorTriple(*np.sqrt(mesh.h**3 * acc))


@lru_cache(maxsize=None)
def _gram_roots(space):
    """Per ErrorTriple column, a root R = V sqrt(L) of the reference Gram
    matrix G = V L V^T of ``space`` on its range (L > 1e-10 max L), so
    G = R R^T and V L^-1 V^T is the pseudo-inverse.  The two curl Grams are
    singular (gradients, and for the seminorm fields of constant curl, span
    their kernels).  The pseudo-inverse picks one projection, which leaves
    the distances unchanged; the norm ||d R|| of coefficients d leaves out
    their kernel part, which a discrete solution carries at the size of the
    solution, not of its error: in d G d^T its round-off moved the n = 48
    superconv triple by 2e-9."""
    out = []
    for gram in reversed(dual_gram_matrices(space)):
        w, v = np.linalg.eigh(gram)
        keep = w > 1e-10 * w.max()
        out.append(v[:, keep] * np.sqrt(w[keep]))
    return tuple(out)


def best_approximation(tag, exact, mesh):
    """Per-block best approximation of the exact solution from reference
    space ``tag`` ("VK" per cell, "VM" per macro).

    On every block, each ErrorTriple column g of the exact solution (grad
    curl u, curl u, u) is projected onto that column of the space's duals.
    The squared distance ||g - P g||^2 bounds the squared error of *any*
    field of the space in that column from below; by Pythagoras the error
    is that bound plus ||P g - g_h||^2.  Neither part needs the discrete
    solution to be known beforehand: ``error_vs_exact`` and
    ``superconvergent_error`` take the result as ``best`` and add the
    second.

    Returns ``(sq, roots, coeffs)``: the three squared distances, the
    roots of the reference Grams that the second term is measured with
    (``_gram_roots``), and per column the (blocks, dim) reference
    coefficients of P g, in the units of the discrete fields' (V_h
    coefficients over h per cell, ``MacroField`` coefficients per macro).
    """
    space, sub = reference_spaces()[tag], _BLOCK_SUB[tag]
    if mesh.n % sub:
        raise NonDivisibleMesh(f"{tag} blocks of {sub}^3 cells need n "
                               f"divisible by {sub}, got n={mesh.n}")
    grid = TensorGrid.gauss(space, sub)
    d = grid.powers.shape[1]
    scales = _scales(sub * mesh.h)
    roots = _gram_roots(space)
    # V L^-1 V^T = Q Q^T, Q = R / L, from each root R = V sqrt(L)
    ginvs = [q @ q.T for q in (r / (r * r).sum(axis=0) for r in roots)]
    acc = np.zeros(3)
    coeffs = tuple(np.empty(((mesh.n // sub) ** 3, space.dim))
                   for _ in scales)
    for blocks, tx, stacks in gauss_walk(exact.x_factored, mesh, grid, sub,
                                         _COLUMNS):
        for col, (s, ginv, stack) in enumerate(zip(scales, ginvs, stacks)):
            # moments and Gram both physical: h^3 s and (sub h)^3 s^2 times
            # the reference ones
            c = grid.moments(stack[d:], col, x=tx) @ ginv / (sub**3 * s)
            acc[col] += _tile_error(grid, s * c, col, tx, stack)
            coeffs[col][blocks] = c
    return mesh.h**3 * acc, roots, coeffs


def error_vs_exact(u_vec, exact, mesh, gmap, best=None):
    """Error triple of a V_h coefficient vector against the exact solution;
    by the split of ``best_approximation("VK", ...)`` when given."""
    # padded once for the walk, as ``gather`` pads: an eliminated DoF reads 0
    ref = np.append(u_vec / mesh.h, 0.0)
    return _block_error(lambda cells: ref[gmap.cell_vdofs[cells]], "VK",
                        exact, mesh, best)


def gram_norms(space, coeffs, size):
    """Exact norms of a piecewise field through the reference Gram triple of
    ``space``: ``coeffs`` holds the reference DoFs of one cell of edge
    ``size`` per row."""
    M0, M1, M2 = dual_gram_matrices(space)
    n0 = size**3 * np.vdot(coeffs @ M0, coeffs)
    n1 = size * np.vdot(coeffs @ M1, coeffs)
    n2 = (1.0 / size) * np.vdot(coeffs @ M2, coeffs)
    return ErrorTriple(math.sqrt(max(n2, 0.0)), math.sqrt(max(n1, 0.0)),
                       math.sqrt(max(n0, 0.0)))


def discrete_norms(vec, mesh, gmap):
    """Exact norms of a V_h coefficient vector via the reference Gram triple."""
    h = mesh.h
    return gram_norms(reference_spaces()["VK"],
                       gather(vec, gmap.cell_vdofs) / h, h)


def superclose_error(u_vec, ihu_vec, mesh, gmap):
    """Norms of I_h u - u_h, exact in coefficient space."""
    return discrete_norms(ihu_vec - u_vec, mesh, gmap)


def superconvergent_error(macro_field, exact, mesh, best=None):
    """Error triple of the postprocessed field against the exact solution,
    integrated per fine cell; by the split of ``best_approximation("VM",
    ...)`` when given."""
    if macro_field.partition.mesh.n != mesh.n:
        raise NonDivisibleMesh("macro partition does not match the mesh")
    return _block_error(lambda macros: macro_field.coeffs[macros], "VM",
                        exact, mesh, best)


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
