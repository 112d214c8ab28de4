"""Global DoF numbering, saddle-point assembly and the saddle solve.

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
every cell of the uniform mesh.  Only the load needs quadrature: f is summed
on the tensor grid of the Gauss points of a tile of cells
(``quadcurl.mesh.gauss_tiles``) and tested against the reference duals by
sum factorization (``quadcurl.spaces.TensorGrid.moments``).  No matrix
is assembled: A, B and the Q1 stiffness S are each a ``CellOperator`` that
applies its one cell matrix cell by cell (gather, matrix product,
scatter-add), and B^T is the same gather and scatter with the roles of the
two DoF tables swapped.  The gradient inclusion G is a ``CellOperator``
over the interior edges, with the local matrix [[1, -1]].

The solves are CG (``_pcg``, a loop of numpy vector operations).  The
velocity CG is preconditioned by one multigrid V-cycle built from the
same pieces: every level is the ``CellOperator`` A of a coarser mesh, and
the prolongation is a ``CellOperator`` whose local matrix holds the fine
DoFs of the coarse duals.

An eliminated boundary DoF is -1 in the DoF tables.  ``gather`` reads it as
zero and ``scatter_add`` drops what is written to it.  The operators send
it once to a slot past the numbered DoFs (``_slots``, which checks bounds)
and gather from those slot tables unchecked.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .mesh import BrickMesh, _lattice, gauss_tiles
from .spaces import (TensorGrid, dual_gram_matrices, functional_matrix,
                     reference_spaces, scalar_stiffness_matrix,
                     vector_scalar_grad_matrix, vk_dofs)


class MaxIterations(Exception):
    """Solve missed its tolerance; carries the final relative residual and
    ``tail``, the last velocity CG residual norms relative to the load."""

    def __init__(self, message, residual=None, tail=()):
        super().__init__(message)
        self.residual = residual
        self.tail = tuple(tail)


class SingularSystem(Exception):
    """Solve produced non-finite values."""


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


def _slots(dofs, size):
    """The DoF table with each -1 (an eliminated boundary DoF) sent to the
    slot ``size`` just past the numbered DoFs; raises IndexError for a DoF
    beyond it, so a slot table is in bounds for every later read."""
    slots = np.where(dofs >= 0, dofs, size)
    if slots.max() > size:
        raise IndexError(f"DoF {slots.max()} out of bounds for {size} DoFs")
    return slots


def gather(values, dofs):
    """Entries of ``values`` at a DoF table; an eliminated boundary DoF (-1)
    reads the zero appended at the end."""
    return np.take(np.append(values, 0.0), dofs)


def scatter_add(entries, slots, size):
    """Sum of ``entries`` into a vector of ``size`` by a slot table; the
    entries of eliminated boundary DoFs (slot ``size``) are dropped."""
    return np.bincount(slots.ravel(), weights=entries.ravel(),
                       minlength=size + 1)[:size]


class CellOperator:
    """The sum over all cells of one local matrix, applied without assembly:
    x -> sum_K R_K^T local C_K x, where C_K gathers the column DoFs
    col_dofs[K] and R_K the row DoFs row_dofs[K].  A, B, the Q1 stiffness,
    the gradient inclusion G (one "cell" per interior edge) and the
    prolongation are all of this form.  ``op @ x`` applies it to a vector,
    or column by column to a matrix, and ``op.T @ x`` its transpose."""

    def __init__(self, local, row_dofs, col_dofs, shape):
        self.shape = shape
        self.local = local
        self.rows = _slots(row_dofs, shape[0])
        self.cols = (self.rows if col_dofs is row_dofs
                     else _slots(col_dofs, shape[1]))
        # local entries one apply multiplies that couple two numbered DoFs
        self.nnz = int((row_dofs >= 0).sum(axis=1)
                       @ (col_dofs >= 0).sum(axis=1))
        # work arrays per direction, reused by every apply (so an operator
        # serves one thread at a time): fresh ones of this size cost more in
        # page faults than the apply itself
        self._work = {}

    def _apply(self, mat, src, dst, size, x):
        """Gather x at the ``src`` table, multiply each cell by ``mat`` and
        scatter-add into ``size`` entries at the ``dst`` table."""
        if mat.shape not in self._work:
            self._work[mat.shape] = (np.empty(src.shape), np.empty(dst.shape))
        gathered, product = self._work[mat.shape]
        # the slot tables were bounds-checked once by _slots; "clip" spares
        # the buffered copy that np.take makes of ``out`` in "raise" mode
        np.take(np.append(x, 0.0), src, out=gathered, mode="clip")
        np.matmul(gathered, mat, out=product)
        return scatter_add(product, dst, size)

    def matvec(self, x):
        return self._apply(self.local.T, self.cols, self.rows, self.shape[0],
                           x)

    def rmatvec(self, x):
        return self._apply(self.local, self.rows, self.cols, self.shape[1], x)

    def __matmul__(self, x):
        """``matvec`` on a vector, column by column on a matrix."""
        if np.ndim(x) == 1:
            return self.matvec(x)
        out = np.empty((self.shape[0], x.shape[1]))
        for j in range(x.shape[1]):
            out[:, j] = self.matvec(x[:, j])
        return out

    @cached_property
    def T(self):
        """The transpose: the same tables, the roles of rows and columns
        swapped."""
        t = copy.copy(self)
        t.local, t.rows, t.cols = self.local.T, self.cols, self.rows
        t.shape = self.shape[::-1]
        return t

    def diagonal(self):
        """Jacobi diagonal; needs one DoF table for rows and columns."""
        if self.cols is not self.rows:
            raise ValueError("diagonal needs one DoF table for both sides")
        return scatter_add(
            np.broadcast_to(np.diag(self.local), self.rows.shape), self.rows,
            self.shape[0])

    def toarray(self):
        """Dense matrix, column by column (for small dense oracles)."""
        return self @ np.eye(self.shape[1])


def assemble_A(mesh, gmap):
    """Stiffness of a_h: entry (i, j) = sum_K (grad curl phi_i, grad curl phi_j)_K."""
    h = mesh.h
    return CellOperator(reference_matrices()["M2"] / h**3, gmap.cell_vdofs,
                        gmap.cell_vdofs, (gmap.n_vdofs, gmap.n_vdofs))


def assemble_B(mesh, gmap):
    """Coupling b: entry (i, m) = sum_K (phi_i, grad q_m)_K."""
    h = mesh.h
    return CellOperator(reference_matrices()["B"] * h, gmap.cell_vdofs,
                        gmap.cell_qdofs, (gmap.n_vdofs, gmap.n_qdofs))


def assemble_q1_stiffness(mesh, gmap):
    """Q1 stiffness S on interior vertices: entry (m, l) =
    sum_K (grad q_m, grad q_l)_K."""
    h = mesh.h
    return CellOperator(reference_matrices()["S"] * h, gmap.cell_qdofs,
                        gmap.cell_qdofs, (gmap.n_qdofs, gmap.n_qdofs))


def gradient_inclusion_matrix(mesh, gmap):
    """G with (grad q_h) coefficients = G q, a ``CellOperator`` over the
    interior edges: the edge DoF of a gradient is the head-minus-tail vertex
    difference (local matrix [[1, -1]]); face-curl DoFs vanish."""
    eids = np.where(~mesh.edge_is_boundary)[0]
    axis, i, j, k = mesh.edge_table[eids].T
    tail = mesh.vertex_id(i, j, k)
    head = tail + (mesh.n + 1) ** (2 - axis)    # vertex stride along the axis
    return CellOperator(np.array([[1.0, -1.0]]), gmap.edge_dof[eids, None],
                        gmap.vertex_dof[np.stack([head, tail], axis=1)],
                        (gmap.n_vdofs, gmap.n_qdofs))


def assemble_rhs(mesh, gmap, exact, mode="modified"):
    """Load vector of ``exact.f``: mode 'original' tests against the VK
    duals, 'modified' against their edge reconstructions (the NedelecK
    duals; face entries exactly zero), one tile of cells at a time."""
    if mode not in ("original", "modified"):
        raise ValueError(f"unknown rhs mode {mode!r}")
    grid = TensorGrid.gauss(
        reference_spaces()["VK" if mode == "original" else "NedelecK"], 1)
    h = mesh.h
    dof_cols = gmap.cell_vdofs if mode == "original" else gmap.cell_vdofs[:, :12]

    loc = np.empty(dof_cols.shape)
    for cells, f in gauss_tiles(exact.f_grid_values, mesh, 1):
        loc[cells] = h * h * grid.moments(f, 2)     # the value column
    return scatter_add(loc, _slots(dof_cols, gmap.n_vdofs), gmap.n_vdofs)


@dataclass
class SaddleSystem:
    A: CellOperator
    B: CellOperator
    rhs: np.ndarray
    gmap: GlobalDofMap
    mesh: object

    @property
    def n_unknowns(self):
        return self.gmap.n_vdofs + self.gmap.n_qdofs

    def full_matrix(self):
        """Dense copy of the whole saddle matrix (for small dense oracles)."""
        B = self.B.toarray()
        return np.block([[self.A.toarray(), B],
                         [B.T, np.zeros((B.shape[1], B.shape[1]))]])

    def full_rhs(self):
        return np.concatenate([self.rhs, np.zeros(self.gmap.n_qdofs)])


def build_system(mesh, gmap, exact, mode="modified"):
    A = assemble_A(mesh, gmap)
    B = assemble_B(mesh, gmap)
    rhs = assemble_rhs(mesh, gmap, exact, mode=mode)
    return SaddleSystem(A=A, B=B, rhs=rhs, gmap=gmap, mesh=mesh)


# Chebyshev smoother of the V-cycle: degree 4 in D^-1 A on [LAMBDA/8, LAMBDA].
# LAMBDA = 24/7 is the supremum of the Fourier symbol of D^-1 A: A is
# translation invariant and D constant per DoF class, so the A of every mesh
# is a compression of the lattice operator and its spectrum lies below
# LAMBDA (the largest eigenvalue is 3.146 at n = 6 and 3.355 at n = 12).  A
# fixed bound costs no power iterations and keeps the CG counts
# deterministic.
CHEBYSHEV_DEGREE = 4
LAMBDA = 24.0 / 7.0
LAMBDA_MIN = LAMBDA / 8.0


@lru_cache(maxsize=None)
def prolongation_matrix(sub):
    """Local prolongation of a coarse cell cut into sub^3 fine cells: entry
    (i, j) is the fine DoF i (edges, then two face-curl DoFs per face, in the
    order of ``BrickMesh.block_entities``) of the coarse VK dual j, both in
    the coarse reference frame.  Physical DoFs scale as h^1 and the physical
    dual as 1/H, so the matrix serves every cell size."""
    vk = reference_spaces()["VK"]
    # the fine DoFs of the spanning fields, mapped to the duals
    return functional_matrix(vk_dofs(sub), vk.span) @ vk.dual_coeffs


def _coarsening(n):
    """Cells per coarse cell edge from an n-mesh: 2 when n is even, else 3
    when 3 | n; None at the coarsest level (n <= 3 or n coprime to 6)."""
    if n > 3:
        for sub in (2, 3):
            if n % sub == 0:
                return sub
    return None


@dataclass
class Level:
    """One mesh of the V-cycle: A, the inverse of its diagonal and, above the
    coarsest level, the prolongation P from the next coarser mesh with the
    weights that average it (1 / the coarse cells that share a fine DoF)."""

    A: CellOperator
    inv_diag: np.ndarray
    P: CellOperator | None = None
    weights: np.ndarray | None = None


def multigrid_levels(mesh, gmap, A):
    """The V-cycle hierarchy from the fine mesh down, every level
    rediscretized: A_H is the stiffness of the coarse mesh, not P^T A P."""
    levels = []
    while True:
        level = Level(A, 1.0 / A.diagonal())
        levels.append(level)
        sub = _coarsening(mesh.n)
        if sub is None:
            return levels
        coarse = BrickMesh(mesh.n // sub)
        cmap = build_dof_map(coarse)
        _, _, edges, faces = mesh.block_entities(
            sub * _lattice((coarse.n,) * 3), sub)
        rows = np.concatenate([gmap.edge_dof[edges],
                               gmap.face_dof[faces].reshape(len(faces), -1)],
                              axis=1)
        level.P = CellOperator(prolongation_matrix(sub), rows,
                               cmap.cell_vdofs, (gmap.n_vdofs, cmap.n_vdofs))
        level.weights = 1.0 / scatter_add(np.ones(rows.shape), level.P.rows,
                                          gmap.n_vdofs)
        mesh, gmap, A = coarse, cmap, assemble_A(coarse, cmap)


def _chebyshev(level, b, x=None):
    """x + p(D^-1 A) D^-1 (b - A x), p the Chebyshev polynomial of degree
    CHEBYSHEV_DEGREE on [LAMBDA_MIN, LAMBDA]; x = None starts from zero
    without the residual apply."""
    theta, delta = (LAMBDA + LAMBDA_MIN) / 2.0, (LAMBDA - LAMBDA_MIN) / 2.0
    r = b if x is None else b - level.A @ x
    d = level.inv_diag * r / theta
    x = d.copy() if x is None else x + d
    rho = delta / theta
    for _ in range(CHEBYSHEV_DEGREE - 1):
        r = r - level.A @ d
        rho, previous = 1.0 / (2.0 * theta / delta - rho), rho
        d = rho * previous * d + (2.0 * rho / delta) * (level.inv_diag * r)
        x += d
    return x


def v_cycle(levels, b):
    """One V-cycle for A x = b from x = 0: smooth, correct from the next
    coarser level, smooth again with the same polynomial, so the cycle is
    a symmetric operator; the coarsest level is only smoothed."""
    level = levels[0]
    x = _chebyshev(level, b)
    if level.P is not None:
        r = level.weights * (b - level.A @ x)
        x += level.weights * level.P.matvec(
            v_cycle(levels[1:], level.P.rmatvec(r)))
    return _chebyshev(level, b, x)


def _tree_potential(z, n):
    """T z, with T a left inverse of the gradient inclusion (T G = I): the
    interior-vertex values that summing the x-edge DoFs of z along each
    x-line from the face x = 0 reaches.  The x-edges form a spanning forest
    of the interior vertices rooted at that face (a tree gauge); the interior
    x-edges are the first n (n-1)^2 velocity DoFs, in lattice order."""
    m = n - 1
    return np.cumsum(z[:n * m * m].reshape(n, m, m), axis=0)[:-1].ravel()


def _tree_potential_adjoint(v, n, size):
    """T^T v for the T of :func:`_tree_potential`, a vector of ``size``."""
    m = n - 1
    out = np.zeros(size)
    out[:n * m * m].reshape(n, m, m)[:-1] = \
        np.cumsum(v.reshape(m, m, m)[::-1], axis=0)[::-1]
    return out


def velocity_preconditioner(mesh, gmap, A, G):
    """One V-cycle in the tree gauge, as the function r -> Q V(Q^T r),
    Q = I - G T with the T of :func:`_tree_potential`.

    A is singular (A G = 0), and the V-cycle adds gradients to its output.
    They leave A w unchanged, but their round-off in A p seeds a near-null
    mode of the preconditioned operator, which CG amplifies once the
    residual nears its floor: at n = 48 the residual fell to 7e-11, then
    grew fivefold per iteration to 9e-6, and CG took 33 iterations instead
    of 17.  Q is the identity modulo gradients, so the convergence of A w is
    unchanged, and its range holds no gradient."""
    levels = multigrid_levels(mesh, gmap, A)
    n = mesh.n

    def apply(r):
        z = v_cycle(levels, r - _tree_potential_adjoint(G.T @ r, n, r.size))
        return z - G @ _tree_potential(z, n)

    return apply


def _pcg(M, b, atol, maxiter, precond):
    """CG from x = 0 on the symmetric positive (semi)definite M with the
    preconditioner function ``precond``, stopped at ||M x - b|| < atol or
    after ``maxiter`` steps; returns (x, iterations, the residual norm before
    each step).  It performs the operations of scipy 1.17's
    ``scipy.sparse.linalg.cg`` in the same order, so its iterates are the
    same."""
    x = np.zeros_like(b)
    r = b.copy()
    norms = []
    for its in range(maxiter):
        norms.append(float(np.linalg.norm(r)))
        if norms[-1] < atol:
            return x, its, norms
        z = precond(r)
        rho = np.dot(r, z)
        if its == 0:
            p = z.copy()
        else:
            p *= rho / rho_prev
            p += z
        q = M @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, maxiter, norms


def solve_saddle(system, tol=1e-10):
    """Solve the saddle system to relative residual <= tol.

    The coupling factors as B = M G (V_h mass times gradient inclusion) and
    A G = 0, so G^T B = S is the Q1 stiffness and the unknowns decouple:

    1. pressure: S p = G^T F;
    2. velocity: A w = F - B p, singular but consistent since
       G^T (F - B p) = 0;
    3. projection: u = w - G S^-1 B^T w, so A u = A w and B^T u = 0.

    S is applied from its Q1 cell matrix, not formed as G^T B: the
    decoupling assumes G^T B = S, which the tests check.  All three solves
    are ``_pcg`` on cell operators: the two S solves with the Jacobi
    preconditioner, the velocity solve with one multigrid V-cycle
    (``velocity_preconditioner``), which keeps its iteration count about
    constant in n (15 at n = 24, 17 at n = 48).  Returns (u, p, info),
    u and p the V_h and Q_h coefficient arrays; info carries the velocity
    CG iterations and the relative residual of the full system.  A relative
    residual above ``tol`` raises ``MaxIterations`` with the last five
    velocity CG residuals; a non-finite one raises ``SingularSystem``.
    """
    A, B, F = system.A, system.B, system.rhs
    fnorm = float(np.linalg.norm(F))
    if fnorm == 0.0:    # also the empty system of a one-cell mesh
        return (np.zeros(system.gmap.n_vdofs), np.zeros(system.gmap.n_qdofs),
                {"method": "trivial", "residual": 0.0, "iterations": 0})

    G = gradient_inclusion_matrix(system.mesh, system.gmap)
    S = assemble_q1_stiffness(system.mesh, system.gmap)
    inv_diag = 1.0 / S.diagonal()

    def jacobi(r):
        return inv_diag * r

    # S needs ~3n iterations and the V-cycle CG on A ~20 at tol 1e-10; the
    # cap only stops unreachable tolerances
    maxiter = 500 + 10 * system.mesh.n
    # S is cheap to solve, so both S solves run to a thousandth of the
    # budget: a pressure residual would leave F - B p inconsistent, and the
    # projection residual is B^T u itself
    s_atol = 1e-3 * tol * fnorm
    p, _, _ = _pcg(S, G.T @ F, s_atol, maxiter, jacobi)
    w, its, norms = _pcg(A, F - B @ p, 0.5 * tol * fnorm, maxiter,
                         velocity_preconditioner(system.mesh, system.gmap, A,
                                                 G))
    y, _, _ = _pcg(S, B.T @ w, s_atol, maxiter, jacobi)
    u = w - G @ y

    res = float(np.hypot(np.linalg.norm(A @ u + B @ p - F),
                         np.linalg.norm(B.T @ u))) / fnorm
    if not np.isfinite(res):
        raise SingularSystem("solve produced non-finite values")
    if res > tol:
        tail = [r / fnorm for r in norms[-5:]]
        raise MaxIterations(
            f"relative residual {res:.3e} above tol {tol:.1e} "
            f"after {its} CG iterations; last velocity CG residuals "
            + " ".join(f"{t:.2e}" for t in tail), residual=res, tail=tail)
    return u, p, {"method": "mgcg", "residual": res, "iterations": its}
