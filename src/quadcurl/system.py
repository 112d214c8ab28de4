"""Global DoF numbering, saddle-point assembly and linear solvers.

The discrete unknowns are

* V_h: one tangential-integral DoF per interior edge plus two curl-tangential
  DoFs per interior face (boundary DoFs are eliminated, never numbered), and
* Q_h: one value per interior vertex.

Both schemes share the same matrices

    [[A, B], [B^T, 0]],  A = (grad_h curl_h ., grad_h curl_h .),  B = (., grad .)

and differ only in the right-hand side: the plain load ``(f, v_h)`` versus the
reconstructed load ``(f, IC_h v_h)`` where IC_h is the lowest-order edge
interpolation.  IC_h maps an edge dual of V_h to the matching edge dual of the
Nedelec space and every face-curl dual to zero, so the reconstructed load has
exact zeros on all face DoFs.

Local matrices are assembled once on the scaled reference cell and reused for
every cell of the uniform mesh; only the load needs per-cell quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .polyquad import gauss_rule
from .spaces import (dual_gram_matrices, dual_value_table, reference_spaces,
                     scalar_stiffness_matrix, vector_scalar_grad_matrix)


class MaxIterations(Exception):
    """Krylov solver stagnated; carries the last relative residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SingularSystem(Exception):
    """Factorization breakdown or non-finite solution."""


@dataclass
class GlobalDofMap:
    """Interior-DoF numbering and per-cell gather tables."""

    n_vdofs: int
    n_qdofs: int
    edge_dof: np.ndarray      # (n_edges,) id or -1
    face_dof: np.ndarray      # (n_faces, 2) ids or -1
    vertex_dof: np.ndarray    # (n_vertices,) id or -1
    cell_vdofs: np.ndarray    # (n_cells, 24)
    cell_qdofs: np.ndarray    # (n_cells, 8)


def build_dof_map(mesh):
    edge_dof = np.full(mesh.n_edges, -1, dtype=np.int64)
    interior_edges = np.where(~mesh.edge_is_boundary)[0]
    edge_dof[interior_edges] = np.arange(len(interior_edges))

    face_dof = np.full((mesh.n_faces, 2), -1, dtype=np.int64)
    interior_faces = np.where(~mesh.face_is_boundary)[0]
    base = len(interior_edges)
    face_dof[interior_faces, 0] = base + 2 * np.arange(len(interior_faces))
    face_dof[interior_faces, 1] = base + 2 * np.arange(len(interior_faces)) + 1
    n_vdofs = base + 2 * len(interior_faces)

    vertex_dof = np.full(mesh.n_vertices, -1, dtype=np.int64)
    interior_vertices = np.where(~mesh.vertex_is_boundary)[0]
    vertex_dof[interior_vertices] = np.arange(len(interior_vertices))

    cell_vdofs = np.empty((mesh.n_cells, 24), dtype=np.int64)
    cell_vdofs[:, :12] = edge_dof[mesh.cell_edges]
    for f in range(6):
        cell_vdofs[:, 12 + 2 * f] = face_dof[mesh.cell_faces[:, f], 0]
        cell_vdofs[:, 12 + 2 * f + 1] = face_dof[mesh.cell_faces[:, f], 1]
    cell_qdofs = vertex_dof[mesh.cell_vertices]

    return GlobalDofMap(n_vdofs=n_vdofs, n_qdofs=len(interior_vertices),
                        edge_dof=edge_dof, face_dof=face_dof,
                        vertex_dof=vertex_dof, cell_vdofs=cell_vdofs,
                        cell_qdofs=cell_qdofs)


@lru_cache(maxsize=None)
def reference_matrices():
    """Reference-cell matrices shared by all cells: dual Gram triples for VK,
    the velocity/pressure coupling and the Q1 stiffness."""
    spcs = reference_spaces()
    vk, q1 = spcs["VK"], spcs["Q1K"]
    M0, M1, M2 = dual_gram_matrices(vk)
    B = vector_scalar_grad_matrix(vk, q1)
    S = scalar_stiffness_matrix(q1)
    return {"M0": M0, "M1": M1, "M2": M2, "B": B, "S": S}


def _scatter(local, rows_tab, cols_tab, shape):
    """Accumulate one local matrix over all cells into CSR."""
    ncells = rows_tab.shape[0]
    nr, nc = local.shape
    rows = np.broadcast_to(rows_tab[:, :, None], (ncells, nr, nc))
    cols = np.broadcast_to(cols_tab[:, None, :], (ncells, nr, nc))
    data = np.broadcast_to(local[None, :, :], (ncells, nr, nc))
    mask = (rows >= 0) & (cols >= 0)
    mat = sp.coo_matrix((data[mask].astype(np.float64),
                         (rows[mask].astype(np.int32),
                          cols[mask].astype(np.int32))), shape=shape)
    return mat.tocsr()


def assemble_A(mesh, gmap):
    """Stiffness of a_h: entry (i, j) = sum_K (grad curl phi_i, grad curl phi_j)_K."""
    h = mesh.h_axis[0]
    local = reference_matrices()["M2"] / h**3
    return _scatter(local, gmap.cell_vdofs, gmap.cell_vdofs,
                    (gmap.n_vdofs, gmap.n_vdofs))


def assemble_B(mesh, gmap):
    """Coupling b: entry (i, m) = sum_K (phi_i, grad q_m)_K."""
    h = mesh.h_axis[0]
    local = reference_matrices()["B"] * h
    return _scatter(local, gmap.cell_vdofs, gmap.cell_qdofs,
                    (gmap.n_vdofs, gmap.n_qdofs))


def assemble_q1_stiffness(mesh, gmap):
    """Q1 stiffness on interior vertices (used by oracles and tests)."""
    h = mesh.h_axis[0]
    local = reference_matrices()["S"] * h
    return _scatter(local, gmap.cell_qdofs, gmap.cell_qdofs,
                    (gmap.n_qdofs, gmap.n_qdofs))


def gradient_inclusion_matrix(mesh, gmap):
    """Sparse G with (grad q_h) coefficients = G q: the edge DoF of a gradient
    is the head-minus-tail vertex difference; face-curl DoFs vanish."""
    eids = np.where(~mesh.edge_is_boundary)[0]
    axis, i, j, k = mesh.edge_table[eids].T
    tail = mesh.vertex_id(i, j, k)
    head = tail + (mesh.n + 1) ** (2 - axis)    # vertex stride along the axis
    rows = np.tile(gmap.edge_dof[eids], 2)
    cols = gmap.vertex_dof[np.concatenate([head, tail])]
    data = np.repeat([1.0, -1.0], len(eids))
    keep = cols >= 0
    return sp.coo_matrix((data[keep], (rows[keep], cols[keep])),
                         shape=(gmap.n_vdofs, gmap.n_qdofs)).tocsr()


@lru_cache(maxsize=8)
def _rhs_tables(q):
    rule = gauss_rule(q)
    pts, wts = rule.box((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))
    spcs = reference_spaces()
    return {
        "pts": pts, "wts": wts,
        "vk": dual_value_table(spcs["VK"], pts),
        "ned": dual_value_table(spcs["NedelecK"], pts),
    }


def assemble_rhs(mesh, gmap, f_value, mode="modified", q=6, chunk=2048):
    """Load vector: mode 'original' tests against the VK duals, 'modified'
    against their edge reconstructions (face entries exactly zero)."""
    if mode not in ("original", "modified"):
        raise ValueError(f"unknown rhs mode {mode!r}")
    tab = _rhs_tables(q)
    h = mesh.h_axis[0]
    pts, wts = tab["pts"], tab["wts"]
    basis = tab["vk"] if mode == "original" else tab["ned"]
    dof_cols = gmap.cell_vdofs if mode == "original" else gmap.cell_vdofs[:, :12]

    rhs = np.zeros(gmap.n_vdofs)
    for start in range(0, mesh.n_cells, chunk):
        cells = slice(start, min(start + chunk, mesh.n_cells))
        centers = mesh.cell_centers[cells]
        P = centers[:, None, :] + h * pts[None, :, :]
        fvals = f_value(P.reshape(-1, 3)).reshape(len(centers), len(pts), 3)
        loc = h * h * np.einsum("cgk,igk,g->ci", fvals, basis, wts)
        cols = dof_cols[cells]
        mask = cols >= 0
        np.add.at(rhs, cols[mask], loc[mask])
    return rhs


@dataclass
class SaddleSystem:
    A: sp.csr_matrix
    B: sp.csr_matrix
    rhs: np.ndarray
    gmap: GlobalDofMap
    mesh: object

    @property
    def n_unknowns(self):
        return self.gmap.n_vdofs + self.gmap.n_qdofs

    def full_matrix(self):
        return sp.bmat([[self.A, self.B], [self.B.T, None]], format="csr")

    def full_rhs(self):
        return np.concatenate([self.rhs, np.zeros(self.gmap.n_qdofs)])


def build_system(mesh, gmap, f_value, mode="modified", q=6):
    A = assemble_A(mesh, gmap)
    B = assemble_B(mesh, gmap)
    rhs = assemble_rhs(mesh, gmap, f_value, mode=mode, q=q)
    return SaddleSystem(A=A, B=B, rhs=rhs, gmap=gmap, mesh=mesh)


# auto solver switches to the Krylov path above this many unknowns
# (sparse LU fill grows fast for these 3D couplings: ~100 s / 2 GB at n=18)
DIRECT_LIMIT = 20_000


def _split(system, z):
    nv = system.gmap.n_vdofs
    return z[:nv].copy(), z[nv:].copy()


def solve_saddle(system, tol=1e-10, method="auto", maxiter=None):
    """Solve the saddle system to relative residual <= tol.

    method 'direct' uses a sparse LU factorization; 'minres' a diagonally
    preconditioned minimal-residual iteration (the absolute-value diagonal of
    A for the velocity block, a Schur-complement diagonal estimate for the
    pressure block).  'auto' picks by problem size.  Returns (u, p, info),
    u and p the V_h and Q_h coefficient arrays.
    """
    if system.n_unknowns == 0:
        return (np.zeros(0), np.zeros(0),
                {"method": "empty", "residual": 0.0, "iterations": 0})

    K = system.full_matrix()
    b = system.full_rhs()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        z = np.zeros_like(b)
        return (*_split(system, z),
                {"method": "trivial", "residual": 0.0, "iterations": 0})

    if method == "auto":
        method = "direct" if system.n_unknowns <= DIRECT_LIMIT else "minres"

    if method == "direct":
        try:
            lu = spla.splu(K.tocsc())
            z = lu.solve(b)
        except RuntimeError as exc:
            raise SingularSystem(str(exc)) from exc
        if not np.all(np.isfinite(z)):
            raise SingularSystem("direct solve produced non-finite values")
        res = float(np.linalg.norm(K @ z - b)) / bnorm
        if res > tol:
            raise MaxIterations(
                f"direct solve residual {res:.3e} above tol {tol:.1e}",
                residual=res)
        return (*_split(system, z),
                {"method": "direct", "residual": res, "iterations": 1})

    if method != "minres":
        raise ValueError(f"unknown solver method {method!r}")

    # Symmetric Jacobi scaling: |diag A| on the velocity block, a Schur
    # diagonal estimate diag(B^T diag(A)^-1 B) on the pressure block.
    d_u = np.abs(system.A.diagonal())
    d_u = np.maximum(d_u, 1e-12 * (d_u.max() if d_u.size else 1.0))
    Bsq = system.B.copy()
    Bsq.data = Bsq.data**2
    d_p = np.asarray(Bsq.T @ (1.0 / d_u)).ravel()
    if d_p.size:
        d_p = np.maximum(d_p, 1e-12 * d_p.max())
    dhalf_inv = 1.0 / np.sqrt(np.concatenate([d_u, d_p]))
    Dh = sp.diags(dhalf_inv)
    Ks = (Dh @ K @ Dh).tocsr()
    bs = dhalf_inv * b
    bsnorm = float(np.linalg.norm(bs))
    norm_Ks = float(np.abs(Ks).sum(axis=1).max())

    if maxiter is None:
        maxiter = max(5000, 200 * system.mesh.n**2)
    it_counter = [0]

    def cb(_):
        it_counter[0] += 1

    # scipy's minres stops on a backward-error test ||r|| / (||A|| ||x|| + ||b||),
    # so its rtol is retargeted each restart to reach the requested relative
    # residual ||r|| / ||b||.
    z = np.zeros_like(bs)
    rtol = min(1e-13, tol)
    last_res = np.inf
    res = np.inf
    for _ in range(12):
        z, _ = spla.minres(Ks, bs, x0=z, rtol=rtol, maxiter=maxiter,
                           callback=cb)
        x = dhalf_inv * z
        res = float(np.linalg.norm(K @ x - b)) / bnorm
        if not np.isfinite(res):
            raise SingularSystem("minres produced non-finite values")
        if res <= tol:
            break
        if res >= last_res * 0.95 or it_counter[0] >= maxiter:
            raise MaxIterations(
                f"minres stagnated at relative residual {res:.3e} "
                f"after {it_counter[0]} iterations", residual=res)
        last_res = res
        denom = norm_Ks * float(np.linalg.norm(z)) + bsnorm
        rtol = max(2.5e-16, 0.3 * tol * bsnorm / denom)
    else:
        raise MaxIterations(
            f"minres did not reach tol {tol:.1e} (residual {res:.3e})",
            residual=res)
    return (*_split(system, dhalf_inv * z),
            {"method": "minres", "residual": res,
             "iterations": it_counter[0]})

