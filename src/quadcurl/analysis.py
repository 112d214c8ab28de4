"""Discrete error norms, superclose/superconvergence quantities and EOC tables.

Errors against the exact (trigonometric) solution are integrated per cell with
tensor Gauss rules, on the tensor grids of tiles of blocks (cells, or 3^3
macros) walked a column of tiles at a time (``quadcurl.spaces.gauss_walk``,
the walk of the load), one ErrorTriple column per walk.  The exact fields
enter factored over x (``exact.x_factored``): the walk's one stack holds
the (y, z) factor E of that column's components, written into it once per
column of tiles, and free rows for the discrete field (``TensorGrid``,
which holds that column's table alone) summed up to its x powers, V.  A tile's weighted squared error per column is then
[P_x | -T_x] @ [V; E] and its dot product, every table carrying sqrt(w),
formed and squared in row blocks of the tile's y axis (``_row_blocks``) of
at most the 384 KB of a cell-operator gather, so that a block is squared
while it is still in L2; the discrete field is read from one (blocks, dim)
coefficient table (u_h's over h per cell, or ``interp.global_I3h``'s per
macro).  Differences of two discrete fields are integrated exactly through
the reference Gram matrices, in the same row blocks, which keeps quadrature
noise out of the superclose quantity (the smallest number in the study).
An error walk also splits by Pythagoras: the per-block best approximation
of the exact solution (``best_approximation``, walked without u_h, so it
can run while u_h is solved for) plus an exact Gram term of coefficient
differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import system
from .mesh import NonDivisibleMesh
from .spaces import (TensorGrid, dual_gram_matrices, gauss_walk,
                     reference_spaces)


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


def _row_blocks(rows, width):
    """Slices of ``rows`` rows of ``width`` values in blocks of at most
    ``system.CHUNK * system._WIDTH`` values (and of one row at least): the
    384 KB of a cell-operator gather, so a block and the operands it is
    made from stay in a 2 MB L2 while it is squared."""
    step = max(1, system.CHUNK * system._WIDTH // width)
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def _tile_error(grid, coeffs, tx, stack):
    """Weighted squared error of the field sum_j coeffs[.., j] dual_j of the
    grid's column on one tile: ||[P_x | -T_x] @ [V; E]||^2, with its x-power
    factor V written to the free rows of ``stack``.  The residual is formed
    and squared in row blocks of the tile's y axis (``_row_blocks``), each a
    view of the stack's rows; the square is of the weighted difference
    itself, never expanded."""
    d = grid.powers.shape[1]
    grid.factors(coeffs, out=stack[:d])
    lhs = np.concatenate([grid.powers, -tx], axis=1)
    sq = 0.0
    for rows in _row_blocks(stack.shape[1], len(lhs) * stack[0, 0].size):
        r = lhs @ stack[:, rows].reshape(len(stack), -1)
        sq += np.vdot(r, r)
    return sq


def _gram_square(coeffs, root):
    """||coeffs @ root||^2, in the row blocks of ``_row_blocks``, so no
    (rows, rank) product of the whole table exists."""
    sq = 0.0
    for rows in _row_blocks(len(coeffs), root.shape[1]):
        d = coeffs[rows] @ root
        sq += np.vdot(d, d)
    return sq


# cells per block edge of the walk of each reference space: VK fields are
# piecewise per cell, VM fields per macro of 3^3 cells
_BLOCK_SUB = {"VK": 1, "VM": 3}


def _scales(size):
    """Physical over reference dual field per ErrorTriple column, on a block
    of edge ``size``."""
    return (size**-2, 1.0 / size, 1.0)


def _block_error(coeffs, tag, exact, mesh, best):
    """Error triple against the exact solution of the field that is, on each
    block of the walk of reference space ``tag``, the combination of its
    duals with that block's row of ``coeffs``; integrated per fine cell, one
    ErrorTriple column at a time.  ``best``, when given, is the
    ``best_approximation`` of the exact solution from that space, and the
    split ||g - g_h||^2 = ||g - P g||^2 + ||P g - g_h||^2 replaces the walk,
    its second term exact through the reference Grams, in row blocks
    (``_gram_square``).  The split overwrites the columns of ``best`` with
    their differences from ``coeffs``."""
    space, sub = reference_spaces()[tag], _BLOCK_SUB[tag]
    if mesh.n % sub or len(coeffs) != (mesh.n // sub) ** 3:
        raise NonDivisibleMesh(f"{len(coeffs)} blocks do not tile n={mesh.n}")
    size = sub * mesh.h
    scales = _scales(size)
    if best is not None:
        sq, roots, columns = best
        acc = np.array(sq, dtype=float)
        for col, (s, root, c) in enumerate(zip(scales, roots, columns)):
            np.subtract(c, coeffs, out=c)
            acc[col] += size**3 * s**2 * _gram_square(c, root)
        return ErrorTriple(*np.sqrt(acc))
    acc = np.zeros(3)
    for col, s in enumerate(scales):
        grid = TensorGrid.gauss(space, col, sub)
        for blocks, tx, stack in gauss_walk(exact.x_factored, mesh, grid,
                                            _COLUMNS[col]):
            acc[col] += _tile_error(grid, s * coeffs[blocks], tx, stack)
        del grid, stack     # before the next column's table and stack
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
    for gram in dual_gram_matrices(space):
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
    coefficients over h per cell, ``interp.global_I3h``'s per macro).
    """
    space, sub = reference_spaces()[tag], _BLOCK_SUB[tag]
    if mesh.n % sub:
        raise NonDivisibleMesh(f"{tag} blocks of {sub}^3 cells need n "
                               f"divisible by {sub}, got n={mesh.n}")
    scales = _scales(sub * mesh.h)
    roots = _gram_roots(space)
    acc, coeffs = np.zeros(3), []
    for col, (s, root) in enumerate(zip(scales, roots)):
        # V L^-1 V^T = Q Q^T, Q = R / L, from the root R = V sqrt(L)
        q = root / (root * root).sum(axis=0)
        grid, ginv = TensorGrid.gauss(space, col, sub), q @ q.T
        d = grid.powers.shape[1]
        coeffs.append(np.empty(((mesh.n // sub) ** 3, space.dim)))
        for blocks, tx, stack in gauss_walk(exact.x_factored, mesh, grid,
                                            _COLUMNS[col]):
            # moments and Gram both physical: h^3 s and (sub h)^3 s^2 times
            # the reference ones
            c = grid.moments(stack[d:], tx) @ ginv / (sub**3 * s)
            acc[col] += _tile_error(grid, s * c, tx, stack)
            coeffs[col][blocks] = c
        del grid, stack     # before the next column's table and stack
    return mesh.h**3 * acc, roots, tuple(coeffs)


def error_vs_exact(u_vec, exact, mesh, gmap, best=None):
    """Error triple of a V_h coefficient vector against the exact solution;
    by the split of ``best_approximation("VK", ...)`` when given."""
    cells = system.gather(u_vec, gmap.cell_vdofs)
    cells /= mesh.h
    return _block_error(cells, "VK", exact, mesh, best)


def gram_norms(space, coeffs, size):
    """Exact norms of a piecewise field through the reference Gram roots of
    ``space`` (``_gram_roots``), as ||d R|| in row blocks
    (``_gram_square``), which leaves out the kernel part of the
    coefficients: ``coeffs`` holds the reference DoFs of one cell of edge
    ``size`` per row."""
    return ErrorTriple(*(math.sqrt(size**power * _gram_square(coeffs, root))
                         for power, root in zip((-1, 1, 3),
                                                _gram_roots(space))))


def discrete_norms(vec, mesh, gmap):
    """Exact norms of a V_h coefficient vector via the reference Gram triple."""
    cells = system.gather(vec, gmap.cell_vdofs)
    cells /= mesh.h
    return gram_norms(reference_spaces()["VK"], cells, mesh.h)


def superclose_error(u_vec, ihu_vec, mesh, gmap):
    """Norms of I_h u - u_h, exact in coefficient space."""
    return discrete_norms(ihu_vec - u_vec, mesh, gmap)


def superconvergent_error(macro_coeffs, exact, mesh, best=None):
    """Error triple of the postprocessed field, its (macros, 144) reference
    V_M coefficients ``macro_coeffs`` (``interp.global_I3h``), against the
    exact solution, integrated per fine cell; by the split of
    ``best_approximation("VM", ...)`` when given."""
    return _block_error(macro_coeffs, "VM", exact, mesh, best)


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
    rows: list                  # [(n, ErrorTriple)]

    @classmethod
    def from_records(cls, records, scheme, quantity):
        """Rows ``triples[quantity]`` of the ``scheme`` records, in order."""
        return cls(scheme, quantity,
                   [(r["n"], ErrorTriple(*r["triples"][quantity]))
                    for r in records if r["scheme"] == scheme])

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
