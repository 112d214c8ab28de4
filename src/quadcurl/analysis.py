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
number in the study).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
COLUMNS = (slice(0, 9), slice(9, 12), slice(12, 15))


def tile_error(grid, coeffs, col, tx, stack):
    """Weighted squared error of the field sum_j coeffs[.., j] dual_j of
    column ``col`` on one tile: ||[P_x | -T_x] @ [V; E]||^2, with its x-power
    factor V written to the free rows of ``stack``.  The square is of the
    weighted difference itself, never expanded."""
    d = grid.powers.shape[1]
    grid.factors(coeffs, col, out=stack[:d])
    r = (np.concatenate([grid.powers, -tx], axis=1)
         @ stack.reshape(len(stack), -1)).ravel()
    return np.dot(r, r)


def _block_error(block_coeffs, tag, sub, size, exact, mesh):
    """Error triple against the exact solution of the field that is, on each
    block of sub^3 cells with edge ``size``, the combination of the duals of
    reference space ``tag`` with coefficients ``block_coeffs(block ids)``;
    integrated per fine cell."""
    grid = TensorGrid.gauss(reference_spaces()[tag], sub)
    scales = (size**-2, 1.0 / size, 1.0)
    acc = np.zeros(3)
    for blocks, tx, stacks in gauss_walk(exact.x_factored, mesh, grid, sub,
                                         COLUMNS):
        coef = block_coeffs(blocks)
        for col, (s, stack) in enumerate(zip(scales, stacks)):
            acc[col] += tile_error(grid, s * coef, col, tx, stack)
    return ErrorTriple(*np.sqrt(mesh.h**3 * acc))


def error_vs_exact(u_vec, exact, mesh, gmap):
    """Error triple of a V_h coefficient vector against the exact solution."""
    h = mesh.h
    # padded once for the walk, as ``gather`` pads: an eliminated DoF reads 0
    ref = np.append(u_vec / h, 0.0)
    return _block_error(lambda cells: ref[gmap.cell_vdofs[cells]], "VK", 1, h,
                        exact, mesh)


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


def superconvergent_error(macro_field, exact, mesh):
    """Error triple of the postprocessed field against the exact solution,
    integrated per fine cell."""
    part = macro_field.partition
    if part.mesh.n != mesh.n:
        raise NonDivisibleMesh("macro partition does not match the mesh")
    return _block_error(lambda macros: macro_field.coeffs[macros], "VM", 3,
                        part.macro_size, exact, mesh)


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
