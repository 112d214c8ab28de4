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
every cell of the uniform mesh.  Only the load needs quadrature: f enters
factored over x (``quadcurl.mms.factored``) on the Gauss grids of the walk
of the error norms (``quadcurl.spaces.gauss_walk``) and is tested against
the reference duals by sum factorization (``TensorGrid.moments``).  No matrix
is assembled: A and B are each a ``CellOperator`` that applies its one cell
matrix cell by cell (gather, matrix product, scatter-add), and B^T is the
same gather and scatter with the roles of the two DoF tables swapped.  The
gradient inclusion G is a ``CellOperator`` over the interior edges, with the
local matrix [[1, -1]].

The velocity solve is CG (``_pcg``, a loop of numpy vector operations),
preconditioned by one multigrid V-cycle built from the same pieces: every
level is the ``CellOperator`` A of a coarser mesh, and the prolongation is
a ``CellOperator`` whose local matrix holds the fine DoFs of the coarse
duals.  The pressure and the one projector onto the discretely
divergence-free fields, I - G S^-1 B^T, applied to every V-cycle output,
need the inverse of the Q1 stiffness S = G^T B, which ``q1_inverse``
applies exactly by fast diagonalization.

The DoF tables give every eliminated boundary DoF the slot just past the
numbered ones (``n_vdofs`` for V_h, ``n_qdofs`` for Q_h).  A gather reads
that slot from a zero appended to the vector, and ``scatter_add`` drops
what is written to it, so every reader uses the tables as built.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from .mesh import BrickMesh
from .mms import factored
from .spaces import (TensorGrid, dual_gram_matrices, functional_matrix,
                     gauss_walk, reference_spaces, vector_scalar_grad_matrix,
                     vk_dofs)


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
    # ids below n_vdofs / n_qdofs; an eliminated DoF holds that count
    edge_dof: np.ndarray      # (n_edges,)
    face_dof: np.ndarray      # (n_faces, 2)
    vertex_dof: np.ndarray    # (n_vertices,)
    cell_vdofs: np.ndarray    # (n_cells, 24)
    cell_qdofs: np.ndarray    # (n_cells, 8)


def build_dof_map(mesh):
    n_edges = np.count_nonzero(~mesh.edge_is_boundary)
    n_faces = np.count_nonzero(~mesh.face_is_boundary)
    n_vdofs = n_edges + 2 * n_faces
    edge_dof = np.full(mesh.n_edges, n_vdofs, dtype=np.int64)
    edge_dof[~mesh.edge_is_boundary] = np.arange(n_edges)
    face_dof = np.full((mesh.n_faces, 2), n_vdofs, dtype=np.int64)
    face_dof[~mesh.face_is_boundary] = \
        np.arange(n_edges, n_vdofs).reshape(n_faces, 2)

    n_qdofs = np.count_nonzero(~mesh.vertex_is_boundary)
    vertex_dof = np.full(mesh.n_vertices, n_qdofs, dtype=np.int64)
    vertex_dof[~mesh.vertex_is_boundary] = np.arange(n_qdofs)

    return GlobalDofMap(n_vdofs=n_vdofs, n_qdofs=n_qdofs,
                        edge_dof=edge_dof, face_dof=face_dof,
                        vertex_dof=vertex_dof,
                        cell_vdofs=mesh.block_table(1, edges=edge_dof,
                                                    faces=face_dof),
                        cell_qdofs=mesh.block_table(1, vertices=vertex_dof))


@lru_cache(maxsize=None)
def reference_matrices():
    """Reference-cell matrices shared by all cells: the grad-curl Gram
    matrix M2 of the VK duals and the velocity/pressure coupling B."""
    vk, q1 = reference_spaces()["VK"], reference_spaces()["Q1K"]
    return {"M2": dual_gram_matrices(vk)[0],
            "B": vector_scalar_grad_matrix(vk, q1)}


def gather(values, dofs):
    """Entries of ``values`` at a DoF table; the slot of an eliminated DoF,
    ``len(values)``, reads the zero appended at the end."""
    return np.take(np.append(values, 0.0), dofs)


def scatter_add(entries, dofs, size):
    """Sum of ``entries`` into a vector of ``size`` by a DoF table; the
    entries of eliminated DoFs (slot ``size``) are dropped."""
    return np.bincount(dofs.ravel(), weights=entries.ravel(),
                       minlength=size + 1)[:size]


# The (gathered, product) work arrays of every CellOperator; they take
# memory once an apply writes them, and fresh ones per apply cost more in
# page faults than the apply itself.  An apply gathers one chunk of table
# rows at a time and keeps the product of every row, which the scatter
# (``bincount``) reads at once.  Only one apply runs at a time and the fine
# A's arrays are the largest of its mesh, so one pair serves A, B, G and
# every V-cycle level, both ways.  Each array grows to the largest request
# (a study builds the fine A of each mesh first); operators built before a
# growth keep views of the old one.
_WORK = [np.empty(0), np.empty(0)]
# Table rows per gathered chunk at most: 2048 rows of the fine A's 24
# columns take 384 KB.  An apply of A took as long as with every row
# gathered at once (interleaved medians of three runs at n = 24 and 48,
# one BLAS thread on two cores, within 6 % either way).  A chunk holds at
# most CHUNK * _WIDTH values, so a wider table (P^T gathers the 126 or 360
# fine DoFs of a coarse cell) takes fewer rows and fits the gather array
# that the fine A sizes.  The chunks of a table are as even as can be, and of
# two rows at least: numpy multiplies a single row by gemv, whose sums
# differ from gemm's, while chunks of two rows or more give bitwise the
# product of every row at once (OpenBLAS 0.3.31, the layouts of every
# operator here).
CHUNK = 2048
_WIDTH = 24


def _work_views(*shapes):
    """Views of ``_WORK`` with the given (gathered, product) shapes."""
    views = []
    for i, shape in enumerate(shapes):
        size = math.prod(shape)
        if _WORK[i].size < size:
            _WORK[i] = np.empty(size)
        views.append(_WORK[i][:size].reshape(shape))
    return tuple(views)


class CellOperator:
    """The sum over all cells of one local matrix, applied without assembly:
    x -> sum_K R_K^T local C_K x, where C_K gathers the column DoFs
    col_dofs[K] and R_K the row DoFs row_dofs[K].  A, B, the gradient
    inclusion G (one "cell" per interior edge) and the prolongation are all
    of this form.  ``op @ x`` applies it to a vector, or column by column
    to a matrix, and ``op.T @ x`` its transpose.  A table entry equal to
    the size of its side is an eliminated DoF (see ``gather``); any other
    id outside [0, size) raises IndexError here, once, since the applies
    gather without a bounds check.

    Every apply writes the same pair of work arrays, ``_work_views`` of the
    process-wide ``_WORK``: a chunk of at most CHUNK gathered table rows
    and the product of every row.  So the applies of a process run one at
    a time; an apply returns a fresh vector, never a view of the pair."""

    def __init__(self, local, row_dofs, col_dofs, shape):
        for dofs, size in ((row_dofs, shape[0]), (col_dofs, shape[1])):
            if dofs.min() < 0 or dofs.max() > size:
                raise IndexError(f"DoF table outside [0, {size}]")
        self.shape = shape
        self.local = local
        self.rows, self.cols = row_dofs, col_dofs
        # local entries one apply multiplies that couple two numbered DoFs
        self.nnz = int((row_dofs < shape[0]).sum(axis=1)
                       @ (col_dofs < shape[1]).sum(axis=1))
        self._take_work()

    def _take_work(self):
        """Take this direction's views of the shared work pair, a gathered
        chunk of the column table and the product of every row, and the
        table rows where its chunks start (see CHUNK)."""
        n, width = self.cols.shape
        cap = max(1, min(CHUNK, CHUNK * _WIDTH // width))
        count = max(1, min(-(-n // cap), n // 2))
        self._bounds = [n * i // count for i in range(count + 1)]
        self._work = _work_views((-(-n // count), width), self.rows.shape)

    def matvec(self, x):
        """Gather x at the column table, multiply each cell by the local
        matrix and scatter-add at the row table, a chunk of cells at a
        time up to the scatter."""
        gathered, product = self._work
        padded = np.append(x, 0.0)
        for lo, hi in zip(self._bounds, self._bounds[1:]):
            chunk = gathered[:hi - lo]
            # the tables were bounds-checked once by __init__; "clip"
            # spares the buffered copy that np.take makes of ``out`` in
            # "raise" mode
            np.take(padded, self.cols[lo:hi], out=chunk, mode="clip")
            np.matmul(chunk, self.local.T, out=product[lo:hi])
        return scatter_add(product, self.rows, self.shape[0])

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
        t._take_work()
        return t

    def diagonal(self):
        """Jacobi diagonal; needs one DoF table for rows and columns.  Its
        entries go through the product work array, as an apply's do."""
        if self.cols is not self.rows:
            raise ValueError("diagonal needs one DoF table for both sides")
        product = self._work[1]
        product[...] = np.diag(self.local)
        return scatter_add(product, self.rows, self.shape[0])

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


def gradient_inclusion_matrix(mesh, gmap):
    """G with (grad q_h) coefficients = G q, a ``CellOperator`` over the
    interior edges: the edge DoF of a gradient is the head-minus-tail vertex
    difference (local matrix [[1, -1]]); face-curl DoFs vanish."""
    eids = np.where(~mesh.edge_is_boundary)[0]
    axis, i, j, k = mesh.edge_lattice(eids)
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
    # the value column
    grid = TensorGrid.gauss(
        reference_spaces()["VK" if mode == "original" else "NedelecK"], 2, 1)
    h = mesh.h
    dof_cols = gmap.cell_vdofs if mode == "original" else gmap.cell_vdofs[:, :12]

    loc = np.empty(dof_cols.shape)
    for cells, tx, stack in gauss_walk(partial(factored, exact.f.scaled()),
                                       mesh, grid, slice(0, 3), free=False):
        loc[cells] = h * h * grid.moments(stack, tx)
    return scatter_add(loc, dof_cols, gmap.n_vdofs)


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


# Chebyshev smoother of the V-cycle: the fourth-kind Chebyshev polynomial of
# degree 4 in D^-1 A (Lottes, "Optimal polynomial smoothers for multigrid
# V-cycles", 2023), which needs only an upper bound LAMBDA of the spectrum.
# LAMBDA = 24/7 is the supremum of the Fourier symbol of D^-1 A: A is
# translation invariant and D constant per DoF class, so the A of every mesh
# is a compression of the lattice operator and its spectrum lies below
# LAMBDA (the largest eigenvalue is 3.146 at n = 6 and 3.355 at n = 12).  A
# fixed bound costs no power iterations and keeps the CG counts
# deterministic.
CHEBYSHEV_DEGREE = 4
LAMBDA = 24.0 / 7.0


def _fourth_kind(apply_t, s, degree):
    """p(t) s, p the polynomial of the fourth-kind Chebyshev smoother
    x = x0 + p(D^-1 A) D^-1 (b - A x0), by its three-term recurrence in the
    linear map t = ``apply_t``: d_0 = 4 / (3 LAMBDA) s, then for k = 1 ..
    degree-1 s -= t d_{k-1}, d_k = (2k-1)/(2k+3) d_{k-1} + (8k+4)/((2k+3)
    LAMBDA) s; returns sum d_k and overwrites s."""
    d = 4.0 / (3.0 * LAMBDA) * s
    total = d.copy()
    for k in range(1, degree):
        s -= apply_t(d)
        d *= (2 * k - 1) / (2 * k + 3)
        d += (8 * k + 4) / ((2 * k + 3) * LAMBDA) * s
        total += d
    return total


# p(t) s = c_0 (s + c_1/c_0 t (s + c_2/c_1 t (s + c_3/c_2 t s))): Horner's
# rule, each step one apply of D^-1 A times the ratio plus s; c_k from the
# recurrence on the coefficients of the polynomial 1, t a shift of them;
# the ratios c_{k+1}/c_k, innermost (k = degree-2) first
CHEBYSHEV_COEFFICIENTS = _fourth_kind(lambda c: np.append(0.0, c[:-1]),
                                      np.eye(CHEBYSHEV_DEGREE)[0],
                                      CHEBYSHEV_DEGREE)
HORNER_RATIOS = (CHEBYSHEV_COEFFICIENTS[1:]
                 / CHEBYSHEV_COEFFICIENTS[:-1])[::-1]


@lru_cache(maxsize=None)
def prolongation_matrix(sub):
    """Local prolongation of a coarse cell cut into sub^3 fine cells: entry
    (i, j) is the fine DoF i (edges, then two face-curl DoFs per face, in the
    order of ``BrickMesh.block_table``) of the coarse VK dual j, both in
    the coarse reference frame.  Physical DoFs scale as h^1 and the physical
    dual as 1/H, so the matrix serves every cell size."""
    vk = reference_spaces()["VK"]
    # the fine DoFs of the spanning fields, mapped to the duals
    return functional_matrix(vk_dofs(sub), vk.span) @ vk.dual_coeffs


@lru_cache(maxsize=None)
def _averaged_prolongation(sub):
    """``prolongation_matrix(sub)`` with each row divided by the coarse
    cells that share its fine DoF, read-only: a numbered fine DoF is shared
    by 2 coarse cells per fixed coordinate of its entity on a cell's
    boundary, a power of two, so P @ v and P.T @ r are bitwise the weighted
    products."""
    share = [2 ** np.count_nonzero(np.abs(dof.fixed) == 0.5)
             for dof in vk_dofs(sub)]
    local = prolongation_matrix(sub) / np.c_[share]
    local.setflags(write=False)
    return local


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
    """One mesh of the V-cycle: A, the inverse of its diagonal, the degree
    of its smoother and, above the coarsest level, the prolongation P from
    the next coarser mesh, which averages: the rows of its local matrix are
    scaled by 1 / the coarse cells that share their fine DoF.  The coarsest
    level has no direct solve; above 3 cells per edge, n_c, it smooths with
    degree 2 n_c by the recurrence on vectors (``_fourth_kind``), since the
    smallest nonzero eigenvalue of D^-1 A falls like 1/n_c^2."""

    A: CellOperator
    inv_diag: np.ndarray
    degree: int = CHEBYSHEV_DEGREE
    P: CellOperator | None = None


def multigrid_levels(mesh, gmap, A):
    """The V-cycle hierarchy from the fine mesh down, every level
    rediscretized: A_H is the stiffness of the coarse mesh, not P^T A P."""
    levels = []
    while True:
        level = Level(A, 1.0 / A.diagonal())
        levels.append(level)
        sub = _coarsening(mesh.n)
        if sub is None:
            if mesh.n > 3:
                level.degree = 2 * mesh.n
            return levels
        coarse = BrickMesh(mesh.n // sub)
        cmap = build_dof_map(coarse)
        rows = mesh.block_table(sub, edges=gmap.edge_dof,
                                faces=gmap.face_dof)
        level.P = CellOperator(_averaged_prolongation(sub), rows,
                               cmap.cell_vdofs, (gmap.n_vdofs, cmap.n_vdofs))
        mesh, gmap, A = coarse, cmap, assemble_A(coarse, cmap)


def _chebyshev(level, s):
    """p(D^-1 A) s, the smoothing step from zero for a scaled residual
    s = D^-1 r, which it may overwrite; p is the fourth-kind polynomial of
    degree ``level.degree``.  Degree CHEBYSHEV_DEGREE goes by Horner's rule,
    in place on the fresh vector of each apply; a higher one, whose monomial
    coefficients are ill-conditioned, by ``_fourth_kind`` on vectors."""
    if level.degree > CHEBYSHEV_DEGREE:
        def apply_t(d):
            q = level.A @ d
            q *= level.inv_diag
            return q
        return _fourth_kind(apply_t, s, level.degree)
    y = s
    for ratio in HORNER_RATIOS:
        y = level.A @ y
        y *= level.inv_diag
        y *= ratio
        y += s
    y *= CHEBYSHEV_COEFFICIENTS[0]
    return y


def v_cycle(levels, b):
    """One V-cycle for A x = b from x = 0: smooth, correct from the next
    coarser level, smooth again with the same polynomial, so the cycle is
    a symmetric operator; the smoother takes the scaled residuals D^-1 b,
    then D^-1 (b - A x) formed in the array of the apply.  The coarsest
    level is only smoothed, with the degree of its ``Level``: from I_h u,
    CG takes 6, 6 and 11 iterations at n = 13, 17 and 26 (-> 13) with
    degree 2 n_c, against 29, 46 and 30 with 4."""
    level = levels[0]
    x = _chebyshev(level, level.inv_diag * b)
    if level.P is not None:
        # the residual in the apply's array, gone before the recursion
        r = level.A @ x
        coarse = level.P.T @ np.subtract(b, r, out=r)
        del r
        x += level.P @ v_cycle(levels[1:], coarse)
    r = level.A @ x
    np.subtract(b, r, out=r)
    r *= level.inv_diag
    x += _chebyshev(level, r)
    return x


def velocity_preconditioner(system, G, s_inv):
    """One V-cycle, then the divergence projection: r -> Q V(r) with
    Q = I - G S^-1 B^T, ``s_inv`` the S^-1 of :func:`q1_inverse`.

    Q G = 0 since B^T G = S, so A Q = A and CG converges as with the bare
    V-cycle; B^T Q = 0, so every CG iterate is divergence-free.  The CG
    residuals r are consistent (G^T r = 0), so Q^T r = r and Q V is
    symmetric on them.  Without Q, the gradients that the V-cycle adds
    leave A p unchanged, but their round-off seeds a near-null mode of the
    singular A once the residual nears its floor (n = 48 took 33
    iterations instead of 17 with the first-kind smoother)."""
    levels = multigrid_levels(system.mesh, system.gmap, system.A)
    B = system.B

    def apply(r):
        z = v_cycle(levels, r)
        z -= G @ s_inv(B.T @ z)     # z is the V-cycle's own array
        return z

    return apply


def q1_inverse(n):
    """S^-1 for the Q1 stiffness S of the n-mesh, as the function b -> S^-1 b
    on interior-vertex vectors, by fast diagonalization (Lynch, Rice and
    Thomas, Numer. Math. 6, 1964).  On the uniform mesh S = K x M x M +
    M x K x M + M x M x K, with K and M the 1D stiffness and mass on the
    n - 1 interior nodes.  The orthonormal DST-I vectors
    sqrt(2/n) sin(j k pi/n) diagonalize both, with the eigenvalues
    n (2 - 2 cos t_j) and (4 + 2 cos t_j) / (6 n), t_j = j pi/n."""
    m = n - 1
    t = np.arange(1, n) * np.pi / n
    Q = np.sqrt(2.0 / n) * np.sin(np.outer(np.arange(1, n), t))
    k, mass = n * (2.0 - 2.0 * np.cos(t)), (4.0 + 2.0 * np.cos(t)) / (6.0 * n)
    lam = (k[:, None, None] * mass[:, None] * mass
           + mass[:, None, None] * k[:, None] * mass
           + mass[:, None, None] * mass[:, None] * k)

    def transform(x):
        # Q (symmetric) along the first axis, then rotate the axes; three
        # turns transform every axis once and restore their order
        for _ in range(3):
            x = (Q @ x.reshape(m, -1)).reshape(m, m, m).transpose(1, 2, 0)
        return x

    return lambda b: transform(transform(b.reshape(m, m, m)) / lam).ravel()


# CG steps over which a residual that has not halved counts as stagnant
STAGNATION_WINDOW = 10


def _pcg(M, b, atol, maxiter, precond, x=None):
    """CG on the symmetric positive (semi)definite M x = b with the
    preconditioner function ``precond``, stopped at ||M x - b|| < atol,
    after ``maxiter`` steps or once the residual norm has not halved in
    STAGNATION_WINDOW steps (its round-off floor); returns (x, iterations,
    the residual norm before each step, the scale of the start).  CG starts
    at zero (scale None), or at xi x for a given x, which it updates in
    place: xi = (b, M x) / (M x, M x) minimizes ||b - xi M x|| (Hegedus,
    Comput. Math. Appl. 21, 1991), so the first residual is never larger
    than b, and 0 when M x = 0.  Its reference to b goes once the first
    residual exists.  From zero it performs the operations of scipy 1.17's
    ``scipy.sparse.linalg.cg`` in the same order, so its iterates are the
    same."""
    scale = None
    if x is None:
        x, r = np.zeros_like(b), b.copy()
    else:
        r = M @ x
        norm2 = np.dot(r, r)
        scale = float(np.dot(b, r) / norm2) if norm2 > 0.0 else 0.0
        x *= scale
        r *= -scale
        r += b
    del b
    norms = []
    for its in range(maxiter):
        norms.append(float(np.linalg.norm(r)))
        if norms[-1] < atol or (its >= STAGNATION_WINDOW and norms[-1] >
                                norms[-1 - STAGNATION_WINDOW] / 2):
            return x, its, norms, scale
        z = precond(r)
        rho = np.dot(r, z)
        if its == 0:
            p = z.copy()
        else:
            p *= rho / rho_prev
            p += z
        # z and q are not alive through the next preconditioner call
        del z
        q = M @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
        del q
    return x, maxiter, norms, scale


# cap of the velocity CG, which takes 7-14 iterations at tol 1e-10 for
# the paper's n = 6..48 from I_h u (8-17 from zero) and at most 21 for any
# n <= 48 (n = 45): it only stops unreachable tolerances that do not
# stagnate
MAX_ITERATIONS = 100


def solve_saddle(system, tol=1e-10, guess=None):
    """Solve the saddle system to relative residual <= tol.

    The coupling factors as B = M G (V_h mass times gradient inclusion) and
    A G = 0, so G^T B = S is the Q1 stiffness and the unknowns decouple:

    1. pressure: S p = G^T F;
    2. velocity: A u = F - B p with B^T u = 0, singular but consistent
       since G^T (F - B p) = 0.

    S^-1 is exact (``q1_inverse``); the decoupling assumes G^T B = S, which
    the tests check.  The velocity solve is ``_pcg`` on the cell operator A,
    preconditioned by one multigrid V-cycle and the projection
    Q = I - G S^-1 B^T (``velocity_preconditioner``), so every CG iterate is
    divergence-free and the iteration count stays about constant in n.
    CG starts at zero, or, given a ``guess`` g of u (V_h coefficients, left
    unchanged), at the multiple xi Q g with the smallest residual
    (``_pcg``).  From the interpolant I_h u, superclose to u_h, CG takes 12
    iterations at n = 24 and 13 at n = 48, against 14 and 16 from zero.
    The scale is needed: at n = 2 the modified load is round-off by
    symmetry, xi ~ 1e-31, and Q I_h u unscaled stagnated.  Returns
    (u, p, info), u and p the V_h and Q_h coefficient arrays; info carries
    the velocity CG iterations, their residual norms (``norms``, as
    ``_pcg`` returns them), xi (``guess_scale``, None without a guess) and
    the relative residual of the full system, ||B^T u|| included.  A
    relative residual above ``tol`` raises ``MaxIterations`` with the stop
    that ended CG and its last five residuals; a non-finite one raises
    ``SingularSystem``.
    """
    A, B, F = system.A, system.B, system.rhs
    fnorm = float(np.linalg.norm(F))
    if fnorm == 0.0:    # also the empty system of a one-cell mesh
        return (np.zeros(system.gmap.n_vdofs), np.zeros(system.gmap.n_qdofs),
                {"method": "trivial", "residual": 0.0, "iterations": 0,
                 "norms": [0.0], "guess_scale": None})

    G = gradient_inclusion_matrix(system.mesh, system.gmap)
    s_inv = q1_inverse(system.mesh.n)
    p = s_inv(G.T @ F)
    start = None if guess is None else guess - G @ s_inv(B.T @ guess)  # Q g
    atol = 0.5 * tol * fnorm
    u, its, norms, scale = _pcg(A, F - B @ p, atol, MAX_ITERATIONS,
                                velocity_preconditioner(system, G, s_inv),
                                start)

    res = float(np.hypot(np.linalg.norm(A @ u + B @ p - F),
                         np.linalg.norm(B.T @ u))) / fnorm
    if not np.isfinite(res):
        raise SingularSystem("solve produced non-finite values")
    if res > tol:
        tail = [r / fnorm for r in norms[-5:]]
        stop = ("at the iteration cap" if its == MAX_ITERATIONS else
                f"by stagnation: no halving in {STAGNATION_WINDOW} steps"
                if norms[-1] >= atol else "at its target")
        raise MaxIterations(
            f"relative residual {res:.3e} above tol {tol:.1e} "
            f"after {its} CG iterations (stopped {stop}); "
            "last velocity CG residuals "
            + " ".join(f"{t:.2e}" for t in tail), residual=res, tail=tail)
    return u, p, {"method": "mgcg", "residual": res, "iterations": its,
                  "norms": norms, "guess_scale": scale}
