"""Element spaces on the scaled reference cell, with DoF functionals and dual bases.

``reference_spaces`` builds six spaces from one table of spanning set, DoFs
and power of h:

* ``WK``  -- the 18-dim nonconforming brick space with face-integral DoFs,
* ``VK``  -- the 24-dim grad-curl brick space (12 edge + 12 face-curl DoFs),
* ``NedelecK`` -- lowest-order edge element (12 edge DoFs),
* ``Q1K`` -- trilinear scalar space (8 vertex values),
* ``VM`` / ``WM`` -- macroelement spaces on a 3x3x3 block, determined by the
  144 fine-edge tangential integrals / 108 fine-face normal integrals.

Everything lives on the cell-centered scaled frame ``[-1/2, 1/2]^3``
(macro spaces on the same frame subdivided 3x3x3).  Edge and face DoFs are
built by two enumerations over the fine entities of the frame cut into
sub^3 cells, sub = 1 or 3, in the local order of
``quadcurl.mesh.BrickMesh.block_entities``; ``vk_dofs`` is the VK layout
there, which the prolongations of ``quadcurl.system`` also read.  Physical
DoFs on a cell of edge length ``h`` are the reference DoFs times
``h**dof_scale_power``, the same factor for every DoF of a space, so a
single Vandermonde factorization serves every cell of the uniform mesh.
The DoF functionals also evaluate the h^2/12-corrected tangential face
integrals of the modified interpolation.

``coefficient_array`` is the one coefficient form of a polynomial field:
tensor monomials of per-axis degree <= ``AXIS_DEGREE``.  Every reference
table (the Vandermondes, the Gram matrices, the coupling, the factored dual
tables) and the reference checks (the compression of the VK span, the curl
inclusions) are a few small matrix products over such arrays: a DoF is
one row of 1D moments and powers, and an L2 pairing contracts each axis
with the exact moment matrix ``MOMENTS``.
``DofFunctional.apply`` and the ``Poly`` algebra stay as the oracle that
``quadcurl.checks`` compares these tables against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import polyquad
from .mesh import _lattice, edge_lattice_order, face_lattice_order
from .polyquad import (Poly, PolyField, along, coefficient_curl,
                       coefficient_grad, integrate_exact, legendre_poly)


class DegenerateSpan(Exception):
    """Spanning set has lower numerical rank than the space dimension."""


class SingularVandermonde(Exception):
    """DoF/spanning-set mismatch: the Vandermonde matrix is not invertible."""


# transverse axes in ascending order
def _others(axis):
    return tuple(a for a in range(3) if a != axis)


# Weight of the in-plane second derivative that the superclose interpolation
# adds to every tangential face integral: h^2/12 on a cell of edge h, which is
# exactly 1/12 on the scaled frame for any uniform cell size.
CORRECTION_WEIGHT = 1.0 / 12.0


# ---------------------------------------------------------------------------
# tensor-monomial coefficient arrays: every reference table is a few small
# matrix products over them, with exact 1D moments in place of quadrature
# ---------------------------------------------------------------------------

# per-axis degree bound of the coefficient arrays; V_M = Q_{2,3,3} x ... has 3
AXIS_DEGREE = 3


def _powers(t):
    """t^e, e = 0..AXIS_DEGREE: the weights of a frozen coordinate."""
    return t ** np.arange(AXIS_DEGREE + 1)


def _moments(lo, hi, degree=AXIS_DEGREE):
    """int_lo^hi t^e dt, e = 0..degree: the weights of an integration span."""
    e = np.arange(1, degree + 2)
    return (hi ** e - lo ** e) / e


def _outer(factors):
    x, y, z = factors
    return x[:, None, None] * y[:, None] * z


# MOMENTS[e, e'] = int_{-1/2}^{1/2} t^(e + e') dt, the L2 pairing of two
# powers on the reference cell; DIFF[e - 1, e] = e, the derivative of t^e
_E = np.arange(AXIS_DEGREE + 1)
MOMENTS = _moments(-0.5, 0.5, 2 * AXIS_DEGREE)[np.add.outer(_E, _E)]
DIFF = np.diag(np.arange(1.0, AXIS_DEGREE + 1), k=1)


def coefficient_array(fields):
    """Coefficients of Polys or PolyFields as an (n, K, d, d, d) array,
    d = AXIS_DEGREE + 1 and K = 1 or 3 components: entry [i, k, a, b, c] is
    the coefficient of x^a y^b z^c in component k of field i."""
    comps = [f.comps if isinstance(f, PolyField) else (f,) for f in fields]
    d = AXIS_DEGREE + 1
    out = np.zeros((len(fields), len(comps[0]), d, d, d))
    for i, field in enumerate(comps):
        for k, poly in enumerate(field):
            for mono, c in poly.coeffs.items():
                if max(mono) > AXIS_DEGREE:
                    raise ValueError(f"monomial {mono} above per-axis degree "
                                     f"{AXIS_DEGREE}")
                out[(i, k) + mono] = c
    return out


def _as_field(row):
    """The PolyField of one flattened (3, d, d, d) coefficient array."""
    return PolyField([Poly(dict(np.ndenumerate(comp))) for comp in
                      row.reshape((3,) + (AXIS_DEGREE + 1,) * 3)])


def _l2_gram(a, b):
    """Exact L2 Gram matrix (a_i, b_j) on the reference cell of two stacks
    of coefficient arrays with the same K (Frobenius pairing over K)."""
    for axis in range(3):
        b = along(b, MOMENTS, axis)
    return a.reshape(len(a), -1) @ b.reshape(len(b), -1).T


def functional_matrix(dofs, fields):
    """DoF_i(fields_j) for every pair, as one product of the DoF weight rows
    (``DofFunctional.weights``) with the coefficients of the fields and, for
    vector fields, of their curls."""
    arr = coefficient_array(fields)
    if arr.shape[1] == 3:
        arr = np.concatenate([arr, coefficient_curl(arr, DIFF)], axis=1)
    rows = np.zeros((len(dofs),) + arr.shape[1:])
    for i, dof in enumerate(dofs):
        comp, w = dof.weights()
        rows[i, comp] = w
    return rows.reshape(len(dofs), -1) @ arr.reshape(len(arr), -1).T


@dataclass(frozen=True)
class DofFunctional:
    """A DoF functional in reference coordinates.

    kind:
      'edge_tangential'  int_E v.t ds           (axis = tangent direction)
      'face_curl'        int_F curl v . t dF    (axis = normal, direction = tangent)
      'face_tangential'  int_F w . t dF
      'face_normal'      int_F w . n dF         (direction = axis)
      'vertex'           point value            (scalar spaces)

    Geometry: ``span`` is the integration interval(s); ``fixed`` the frozen
    coordinates.  For edges, span = (lo, hi) along ``axis`` and fixed holds the
    two transverse coordinates in ascending axis order.  For faces, fixed is
    the normal coordinate and span = ((lo1, hi1), (lo2, hi2)) over the two
    in-plane axes in ascending order.

    ``apply(field)`` is the canonical DoF.  ``apply(field, corrected=True)``
    is the DoF of the modified interpolation: the two tangential face kinds
    integrate the integrand plus CORRECTION_WEIGHT times its second derivative
    along ``direction``; every other kind ignores the flag.  ``weights()`` is
    the canonical DoF as one row over tensor-monomial coefficients; ``apply``
    is the oracle it is checked against.
    """

    kind: str
    axis: int = 0
    direction: int = 0
    span: tuple = ()
    fixed: tuple = ()

    def weights(self):
        """(component, w): the DoF of a field is the sum of w[a, b, c] times
        the coefficient of x^a y^b z^c in that component, components 0-2
        the field's and 3-5 its curl's (see ``coefficient_array``).  w is
        the outer product of per-axis factors: the 1D moments along a span
        and the powers at a frozen coordinate."""
        if self.kind == "vertex":
            return 0, _outer([_powers(v) for v in self.fixed])
        factors = [None] * 3
        t1, t2 = _others(self.axis)
        if self.kind == "edge_tangential":
            factors[self.axis] = _moments(*self.span)
            factors[t1], factors[t2] = (_powers(v) for v in self.fixed)
            return self.axis, _outer(factors)
        factors[self.axis] = _powers(self.fixed)
        factors[t1], factors[t2] = (_moments(*s) for s in self.span)
        comps = {"face_curl": 3 + self.direction,
                 "face_tangential": self.direction, "face_normal": self.axis}
        if self.kind not in comps:
            raise ValueError(f"unknown DoF kind {self.kind!r}")
        return comps[self.kind], _outer(factors)

    def apply(self, field, corrected=False):
        """Exact evaluation on a Poly (vertex kind) or PolyField."""
        if self.kind == "vertex":
            return float(field(*self.fixed))
        if self.kind == "edge_tangential":
            comp = field.comps[self.axis]
            t1, t2 = _others(self.axis)
            comp = comp.substitute(t1, self.fixed[0]).substitute(t2, self.fixed[1])
            lo = [0.0, 0.0, 0.0]
            hi = [1.0, 1.0, 1.0]
            lo[self.axis], hi[self.axis] = self.span
            return comp.integrate_box(lo, hi)
        if self.kind == "face_curl":
            g = field.curl().comps[self.direction]
        elif self.kind == "face_tangential":
            g = field.comps[self.direction]
        elif self.kind == "face_normal":
            g = field.comps[self.axis]
        else:
            raise ValueError(f"unknown DoF kind {self.kind!r}")
        if corrected and self.kind != "face_normal":
            d = self.direction
            g = g + g.diff(d).diff(d).scale(CORRECTION_WEIGHT)
        g = g.substitute(self.axis, self.fixed)
        t1, t2 = _others(self.axis)
        lo = [0.0, 0.0, 0.0]
        hi = [1.0, 1.0, 1.0]
        lo[t1], hi[t1] = self.span[0]
        lo[t2], hi[t2] = self.span[1]
        return g.integrate_box(lo, hi)


def _linear_combination(fields, coeffs):
    """sum_j coeffs[j] fields[j], accumulated in index order."""
    acc = fields[0].scale(coeffs[0])
    for f, c in zip(fields[1:], coeffs[1:]):
        acc = acc + f.scale(c)
    return acc


@dataclass(eq=False)
class ElementSpace:
    """A shape-function space with its DoFs and the Vandermonde-inverted dual
    basis.  Hashes by identity, so per-space results can be cached."""

    tag: str
    span: list
    dofs: list
    vandermonde: np.ndarray
    dual_coeffs: np.ndarray     # column j = coefficients of dual_j over span
    cond: float
    dof_scale_power: int

    @property
    def dim(self):
        return len(self.span)

    @cached_property
    def dual(self):
        """The dual fields as PolyFields, built on first use (the production
        path needs only ``dual_coeffs``)."""
        return [_linear_combination(self.span, self.dual_coeffs[:, j])
                for j in range(self.dim)]

    def combine(self, coeffs):
        """The reference field sum_j coeffs[j] dual_j."""
        return _linear_combination(self.dual, coeffs)

    def identity_defect(self):
        """max |DoF_i(dual_j) - delta_ij|; small iff the dual basis is sound."""
        eye = self.vandermonde @ self.dual_coeffs
        return float(np.abs(eye - np.eye(self.dim)).max())


def dual_basis(span, dofs, tag, dof_scale_power):
    """Invert the DoF Vandermonde matrix to produce the nodal (dual) basis."""
    ndof, nspan = len(dofs), len(span)
    if ndof != nspan:
        raise SingularVandermonde(
            f"{tag}: {ndof} DoFs vs {nspan} spanning fields")
    V = functional_matrix(dofs, span)
    cond = float(np.linalg.cond(V))
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularVandermonde(f"{tag}: Vandermonde condition {cond:.3e}")
    C = np.linalg.solve(V, np.eye(ndof))
    return ElementSpace(tag=tag, span=list(span), dofs=list(dofs),
                        vandermonde=V, dual_coeffs=C, cond=cond,
                        dof_scale_power=dof_scale_power)


# ---------------------------------------------------------------------------
# DoFs over the fine entities of the reference cell cut into sub^3 cells, in
# the local order of quadcurl.mesh.BrickMesh.block_entities (sub = 1 for the
# cell spaces, 3 for the macro spaces)
# ---------------------------------------------------------------------------

def _edge_dofs(sub):
    """Tangential integrals over the fine edges, in edge_lattice_order(sub)."""
    dofs = []
    for axis, *lat in edge_lattice_order(sub).tolist():
        lo = [c / sub - 0.5 for c in lat]
        t1, t2 = _others(axis)
        dofs.append(DofFunctional("edge_tangential", axis=axis, direction=axis,
                                  span=(lo[axis], lo[axis] + 1.0 / sub),
                                  fixed=(lo[t1], lo[t2])))
    return dofs


def _face_dofs(sub, per_face):
    """Integrals over the fine faces, in face_lattice_order(sub): on each
    face one DoF per ``(kind, direction)`` of ``per_face``, direction 0 and 1
    the in-plane axes in ascending order and 2 the normal."""
    dofs = []
    for axis, *lat in face_lattice_order(sub).tolist():
        lo = [c / sub - 0.5 for c in lat]
        plane = _others(axis)
        span = tuple((lo[t], lo[t] + 1.0 / sub) for t in plane)
        for kind, d in per_face:
            dofs.append(DofFunctional(kind, axis=axis,
                                      direction=(plane + (axis,))[d],
                                      span=span, fixed=lo[axis]))
    return dofs


def vk_dofs(sub):
    """The DoFs of V_K on the fine entities: the edge tangential integrals,
    then two face-curl integrals per face."""
    return _edge_dofs(sub) + _face_dofs(sub, (("face_curl", 0),
                                              ("face_curl", 1)))


# ---------------------------------------------------------------------------
# spanning sets
# ---------------------------------------------------------------------------

def _q1_scalars():
    exps = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
            (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    return [Poly.monomial(*e) for e in exps]


def span_WK():
    """[P1]^3 plus the transverse squares: 18 fields."""
    fields = []
    for comp in range(3):
        for p in _q1_scalars()[:4]:     # 1, x, y, z
            fields.append(PolyField.unit(comp, p))
    for comp in range(3):
        for other in _others(comp):
            mono = [0, 0, 0]
            mono[other] = 2
            fields.append(PolyField.unit(comp, Poly.monomial(*mono)))
    return fields


def span_VK():
    """Spanning set of the 24-dim grad-curl space: grad Q1 + x cross WK.

    The cross-product generators overlap in one direction (x itself), so the
    18 of them are compressed to 17 by rank-revealing SVD in coefficient
    space.
    """
    scalars = _q1_scalars()
    grads = [PolyField([q.diff(j) for j in range(3)]) for q in scalars[1:]]
    x_field = PolyField(scalars[1:4])
    mat = coefficient_array([x_field.cross(w) for w in span_WK()])
    mat = mat.reshape(len(mat), -1)
    # the SVD runs over the monomials that occur only: over all of them it
    # returns another basis in round-off
    used = mat.any(axis=0)
    _, s, vt = np.linalg.svd(mat[:, used], full_matrices=False)
    rank = int(np.sum(s > s[0] * 1e-9))
    if rank != 17:
        raise DegenerateSpan(f"x cross WK rank {rank}, expected 17")
    reduced = np.zeros((17, mat.shape[1]))
    reduced[:, used] = vt[:17]

    fields = grads + [_as_field(r) for r in reduced]
    full = coefficient_array(fields).reshape(len(fields), -1)
    if np.linalg.matrix_rank(full, tol=1e-9 * np.abs(full).max()) != 24:
        raise DegenerateSpan("grad Q1 + x cross WK span is rank deficient")
    return fields


def span_nedelec():
    """Lowest-order edge element: Q_{0,1,1} x Q_{1,0,1} x Q_{1,1,0}."""
    fields = []
    for comp in range(3):
        t1, t2 = _others(comp)
        for e1 in (0, 1):
            for e2 in (0, 1):
                mono = [0, 0, 0]
                mono[t1], mono[t2] = e1, e2
                fields.append(PolyField.unit(comp, Poly.monomial(*mono)))
    return fields


def span_macro(own, other):
    """Macro span in tensor Legendre form: component c has per-axis degree
    ``own`` along axis c and ``other`` along the other two axes.  V_M =
    Q_{2,3,3} x Q_{3,2,3} x Q_{3,3,2} is (2, 3); W_M = Q_{3,2,2} x Q_{2,3,2}
    x Q_{2,2,3} is (3, 2)."""
    fields = []
    for comp in range(3):
        degs = [other] * 3
        degs[comp] = own
        for a, b, c in np.ndindex(*(d + 1 for d in degs)):
            fields.append(PolyField.unit(comp, legendre_poly(a, 0)
                                         * legendre_poly(b, 1)
                                         * legendre_poly(c, 2)))
    return fields


@lru_cache(maxsize=None)
def reference_spaces():
    """All six reference spaces, built once and shared.  Per tag: the
    spanning set, the DoFs and the power of h that scales reference DoFs to
    physical ones."""
    table = {
        "WK": (span_WK(),
               _face_dofs(1, (("face_tangential", 0), ("face_tangential", 1),
                              ("face_normal", 2))), 2),
        "VK": (span_VK(), vk_dofs(1), 1),
        "NedelecK": (span_nedelec(), _edge_dofs(1), 1),
        "Q1K": (_q1_scalars(),
                [DofFunctional("vertex", fixed=tuple(v))
                 for v in (_lattice((2, 2, 2)) - 0.5).tolist()], 0),
        "VM": (span_macro(2, 3), _edge_dofs(3), 1),
        "WM": (span_macro(3, 2), _face_dofs(3, (("face_normal", 2),)), 2),
    }
    return {tag: dual_basis(span, dofs, tag, power)
            for tag, (span, dofs, power) in table.items()}


# ---------------------------------------------------------------------------
# curl inclusion
# ---------------------------------------------------------------------------

def curl_inclusion_residual(v_space, w_space):
    """Largest least-squares residual of curl(dual of V) against span(W),
    normalized by the curl coefficient magnitude."""
    w = coefficient_array(w_space.span).reshape(w_space.dim, -1).T
    curls = (v_space.dual_coeffs.T @ coefficient_curl(coefficient_array(
        v_space.span), DIFF).reshape(v_space.dim, -1)).T
    sol, *_ = np.linalg.lstsq(w, curls, rcond=None)
    res = np.linalg.norm(w @ sol - curls, axis=0)
    return float((res / np.maximum(1.0, np.linalg.norm(curls, axis=0))).max())


# ---------------------------------------------------------------------------
# the dual fields in tensor-monomial form: factored tables and their sum
# factorization on tensor grids
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def factored_table(space):
    """The dual fields of a vector space as tensor-monomial coefficients, no
    quadrature involved.  Per ErrorTriple column a (d, d, dim, d, K) array,
    d = AXIS_DEGREE + 1: entry [a, b, j, c, k] is the coefficient of
    x^a y^b z^c in the k-th polynomial of the column of dual j.  The columns
    are grad curl (K = 9, entry k = 3 i + j is d(curl f)_i / dx_j), curl and
    value (K = 3)."""
    value = coefficient_array(space.span)
    curl = coefficient_curl(value, DIFF)
    # stored in [a, b, c, k, j] order: TensorGrid's einsum keeps the layout
    # of its input, and its matmuls ran ~10% slower at n = 24 on another
    return tuple(np.tensordot(arr.transpose(2, 3, 4, 1, 0), space.dual_coeffs,
                              axes=(4, 0)).transpose(0, 1, 4, 2, 3)
                 for arr in (coefficient_grad(curl, DIFF), curl, value))


class TensorGrid:
    """Sum factorization of ErrorTriple column ``col`` of the factored table
    of ``space``, the only table it holds, on the tensor grid of a tile of
    nj x nk blocks at one first lattice index, in the layout (len(x), len(y),
    len(z), K) of ``gauss_walk``.  Every axis of a block (the
    reference frame) carries the points ``t``, its table multiplied by
    ``scale`` point by point: by sqrt(w) on the Gauss grids of ``gauss``,
    where fields and values that carry it as well square and pair to
    weighted integrals.  The z powers are folded into the table once, so
    ``factors`` is two small matmuls and ``moments`` three.
    """

    def __init__(self, space, col, t, scale=1.0):
        d = AXIS_DEGREE + 1
        self.scale = scale
        self.powers = (np.asarray(t, dtype=float)[:, None] ** np.arange(d)
                       * np.reshape(scale, (-1, 1)))
        # (d, 1, d, dim, p K): [a, -, b, j, (z, k)]
        self.table = np.einsum("abjck,zc->abjzk", factored_table(space)[col],
                               self.powers).reshape(d, 1, d, space.dim, -1)

    @classmethod
    def gauss(cls, space, col, sub):
        """GAUSS_ORDER points (read now) per cell of a block of sub^3."""
        t, w = polyquad.gauss_rule(polyquad.GAUSS_ORDER)
        t = (((np.arange(sub) + 0.5) / sub - 0.5)[:, None]
             + (t - 0.5) / sub).ravel()
        return cls(space, col, t, np.sqrt(np.tile(w, sub)))

    def factors(self, coeffs, out=None):
        """The fields sum_j coeffs[.., j] dual_j of the column on the grid
        of a tile, ``coeffs`` (nj, nk, dim), up to their x powers:
        (d, nj p, nk p, K), the values being ``powers @ factors`` over the
        first axis; into ``out`` if given, C-contiguous of that shape."""
        (nj, nk, _), P = coeffs.shape, self.powers
        p, d = P.shape
        v = np.matmul(coeffs[:, None], self.table)       # [a, bj, b, bk, z, k]
        v = np.matmul(P, v.reshape(d * nj, d, -1),        # [a, bj, y, bk, z, k]
                      out=None if out is None else out.reshape(d * nj, p, -1))
        return v.reshape(d, nj * p, nk * p, -1)

    def moments(self, vals, x):
        """The transpose of the fields: the sums of values times each dual
        of the column per block, (nj, nk, dim), the values given by their
        factor ``vals`` (B, ny, nz, K) over x on the grid of a tile and their
        x basis ``x`` (p, B): they are ``x @ vals`` over the first axis."""
        p, d = self.powers.shape
        nj, nk = vals.shape[1] // p, vals.shape[2] // p
        m = (self.powers.T @ x) @ vals.reshape(len(vals), -1)
        m = np.matmul(self.powers.T, m.reshape(d * nj, p, -1))
        m = np.matmul(m.reshape(d, nj, d, nk, -1),      # [a, bj, b, bk, (z, k)]
                      self.table.swapaxes(-1, -2))        # [a, bj, b, bk, j]
        return m.sum(axis=(0, 2))


# Gauss points per tile: at n = 48 the load and both error walks took 1.57 s
# at 2^15, 1.96 s at 2^14 and 1.63 s at 2^16 (medians of three, the
# residual in row blocks; one BLAS thread, 2 cores)
TILE_POINTS = 2**15


def gauss_walk(factor, mesh, grid, comps, free=True):
    """The Gauss grids of the mesh's blocks of sub^3 cells, sub being the
    grid's points per block axis over ``polyquad.GAUSS_ORDER``, with a field
    given factored over x by ``factor(x, y, z, comps, out=None) -> (X, E)``,
    E holding the components ``comps`` (as ``quadcurl.mms.factored``).
    Blocks are numbered like the cells.  A tile is a box of nj x nk blocks at
    one first lattice index i with about TILE_POINTS Gauss points, one tensor
    grid x * y * z.  Yields ``(blocks, tx, stack)`` per tile, a column of
    tiles (one (j, k) range, every i) at a time: its (nj, nk) block ids, the
    x basis at its x points (p, B), and a (d + B, ny, nz, K) stack whose last
    B rows hold the (y, z) factor and whose first d rows are free, or a (B,
    ny, nz, K) one of the factor alone when ``free`` is false.  The stack is
    a view of the walk's one buffer, which ``factor`` refills per column of
    tiles: no factor beside it.  Every table carries sqrt(w), like ``grid``.
    """
    (p, d), root = grid.powers.shape, grid.scale
    n, h, q = mesh.n, mesh.h, polyquad.GAUSS_ORDER
    nb = n // (p // q)
    r = polyquad.gauss_rule(q)[0] - 0.5
    coords = ((np.arange(n) + 0.5)[:, None] * h + h * r).reshape(-1)
    nk = min(nb, max(1, TILE_POINTS // p**3))
    nj = min(nb, max(1, TILE_POINTS // (p**3 * nk)))
    ids = np.arange(nb**3).reshape(nb, nb, nb)
    # the x basis and E's shape from one (y, z) point of the first column of
    # tiles, the widest, which sizes the buffer
    X, E = factor(coords, coords[:1], coords[:1], comps)
    X = X.reshape(nb, p, -1) * root[:, None]
    lead, B, K = d if free else 0, len(E), E.shape[-1]
    buf = np.empty((lead + B) * nj * p * nk * p * K)
    for j in range(0, nb, nj):
        for k in range(0, nb, nk):
            y, z = coords[j * p:(j + nj) * p], coords[k * p:(k + nk) * p]
            stack = np.ndarray((lead + B, len(y), len(z), K), buffer=buf)
            factor(coords, y, z, comps, out=stack[lead:])
            stack[lead:] *= np.outer(np.tile(root, len(y) // p),
                                     np.tile(root, len(z) // p))[..., None]
            for i, tx in enumerate(X):
                yield ids[i, j:j + nj, k:k + nk], tx, stack


def grad_pair(a, b):
    """Exact (grad a, grad b) of two polynomial fields, Frobenius pairing."""
    total = 0.0
    ga, gb = a.grad(), b.grad()
    for i in range(3):
        for j in range(3):
            total += integrate_exact(ga[i][j] * gb[i][j])
    return total


@lru_cache(maxsize=None)
def dual_gram_matrices(space):
    """Exact reference Gram matrices of the dual basis in ErrorTriple order:
    ``M2`` for curl Jacobians (Frobenius pairing), ``M1[i,j] = (curl dual_i,
    curl dual_j)``, ``M0`` for the duals.  Computed once per space from the
    span's coefficient arrays and the dual coefficient transform.
    """
    value = coefficient_array(space.span)
    curl = coefficient_curl(value, DIFF)
    C = space.dual_coeffs
    trip = []
    for arr in (coefficient_grad(curl, DIFF), curl, value):
        M = C.T @ _l2_gram(arr, arr) @ C
        trip.append((M + M.T) / 2.0)
    return tuple(trip)


def vector_scalar_grad_matrix(vspace, qspace):
    """Exact reference matrix ``(dual_i, grad qdual_m)``: (vdim, qdim)."""
    G = _l2_gram(coefficient_array(vspace.span),
                 coefficient_grad(coefficient_array(qspace.span), DIFF))
    return vspace.dual_coeffs.T @ G @ qspace.dual_coeffs
