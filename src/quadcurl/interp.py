"""Interpolation operators: canonical, corrected (superclose) and macro.

Local operators work on the scaled reference cell and take a ``PolyField``;
all DoF integrals are evaluated exactly in coefficient space.  The global
operator ``global_interp_Ih`` takes a smooth-field object exposing

* ``value(pts) -> (..., 3)``
* ``curl_value(pts) -> (..., 3)``
* ``curl_d2(comp, axis, pts) -> (...)``  second partials of curl components

(see ``quadcurl.mms.ExactFields``) and integrates with tensor Gauss rules on
the physical entities.

The corrected operators add ``h_k^2/12`` times the in-plane second derivative
to every tangential face integral; expressed on the scaled frame the
coefficient is exactly ``1/12`` for any uniform cell size, so one reference
operator serves the whole mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import NonDivisibleMesh
from .polyquad import gauss_rule
from .spaces import reference_spaces
from .system import gather

CORRECTION_WEIGHT = 1.0 / 12.0


@dataclass
class LocalInterpolant:
    """An element function given by its reference DoF values.

    The physical field on a cell with center ``c`` and edge length ``h`` is
    ``F(x) = Phi((x - c) / h)`` where ``Phi`` is the reference-frame
    combination of dual fields.  Physical DoFs equal the reference values
    times ``h**space.dof_scale_power``.
    """

    space_tag: str
    ref_dofs: np.ndarray
    center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    h: float = 1.0

    def __post_init__(self):
        self._field = None

    @property
    def space(self):
        return reference_spaces()[self.space_tag]

    def as_polyfield(self):
        """Reference-frame PolyField (combination of dual fields)."""
        if self._field is None:
            sp = self.space
            acc = sp.dual[0].scale(self.ref_dofs[0])
            for i in range(1, sp.dim):
                if self.ref_dofs[i] != 0.0:
                    acc = acc + sp.dual[i].scale(self.ref_dofs[i])
            self._field = acc
        return self._field

    def value(self, pts):
        pts = np.asarray(pts, dtype=float)
        ref = (pts - self.center) / self.h
        f = self.as_polyfield()
        return f(ref[..., 0], ref[..., 1], ref[..., 2])

    def curl_value(self, pts):
        pts = np.asarray(pts, dtype=float)
        ref = (pts - self.center) / self.h
        f = self.as_polyfield().curl()
        return f(ref[..., 0], ref[..., 1], ref[..., 2]) / self.h


# ---------------------------------------------------------------------------
# exact DoF evaluation on reference-frame PolyFields
# ---------------------------------------------------------------------------

def _face_integral_scalar(g, dof):
    """Exact integral of a scalar Poly over the functional's face geometry."""
    t1, t2 = [a for a in range(3) if a != dof.axis]
    g = g.substitute(dof.axis, dof.fixed)
    lo = [0.0, 0.0, 0.0]
    hi = [1.0, 1.0, 1.0]
    lo[t1], hi[t1] = dof.span[0]
    lo[t2], hi[t2] = dof.span[1]
    return g.integrate_box(lo, hi)


def _corrected_face_integral(g, dof, corrected):
    """Exact face integral of ``g`` (+ 1/12 second in-plane derivative)."""
    if corrected:
        d = dof.direction
        g = g + g.diff(d).diff(d).scale(CORRECTION_WEIGHT)
    return _face_integral_scalar(g, dof)


def vk_dof_values_poly(v, corrected):
    """All 24 VK DoFs of a reference-frame PolyField; face-curl DoFs carry the
    superclose correction when ``corrected``."""
    sp = reference_spaces()["VK"]
    vals = np.empty(sp.dim)
    curl = v.curl()
    for i, dof in enumerate(sp.dofs):
        if dof.kind == "edge_tangential":
            vals[i] = dof.apply(v)
        else:  # face_curl
            g = curl.comps[dof.direction]
            vals[i] = _corrected_face_integral(g, dof, corrected)
    return vals


def wk_dof_values_poly(w, corrected):
    """All 18 WK DoFs; tangential face integrals carry the correction."""
    sp = reference_spaces()["WK"]
    vals = np.empty(sp.dim)
    for i, dof in enumerate(sp.dofs):
        if dof.kind == "face_tangential":
            g = w.comps[dof.direction]
            vals[i] = _corrected_face_integral(g, dof, corrected)
        else:  # face_normal
            vals[i] = dof.apply(w)
    return vals


def interp_IK(v, corrected=True):
    """Local interpolation into VK of a reference-frame PolyField."""
    return LocalInterpolant("VK", vk_dof_values_poly(v, corrected))


def interp_I0K(v):
    """Canonical (uncorrected) VK interpolation."""
    return interp_IK(v, corrected=False)


def interp_PiK(w, corrected=True):
    """Local interpolation into WK of a reference-frame PolyField."""
    return LocalInterpolant("WK", wk_dof_values_poly(w, corrected))


def interp_nedelec(v):
    """Lowest-order edge interpolation of a reference-frame PolyField."""
    sp = reference_spaces()["NedelecK"]
    vals = np.array([dof.apply(v) for dof in sp.dofs])
    return LocalInterpolant("NedelecK", vals)


def interp_macro_IM(v):
    """Macro edge interpolation of a reference-frame (macro) PolyField."""
    sp = reference_spaces()["VM"]
    vals = np.array([dof.apply(v) for dof in sp.dofs])
    return LocalInterpolant("VM", vals)


# ---------------------------------------------------------------------------
# global operators
# ---------------------------------------------------------------------------

def global_interp_Ih(fieldobj, mesh, gmap, q=6, corrected=True):
    """Global corrected interpolation into V_h: one coefficient per interior
    DoF (edge tangential integrals; corrected face-curl integrals).

    Fields with vanishing tangential trace and curl trace on the cube
    boundary have vanishing boundary DoFs, so elimination is consistent.
    """
    rule = gauss_rule(q)
    h = mesh.h_axis[0]
    coeffs = np.zeros(gmap.n_vdofs)

    pts01, wts01 = rule.pts01, rule.wts01
    # edge DoFs, vectorized per axis
    for axis in range(3):
        sel = (mesh.edge_table[:, 0] == axis) & ~mesh.edge_is_boundary
        lat = mesh.edge_table[sel][:, 1:]
        origins = lat * h
        npts = len(pts01)
        P = np.repeat(origins[:, None, :], npts, axis=1)
        P[:, :, axis] += h * pts01[None, :]
        vals = fieldobj.value(P.reshape(-1, 3)).reshape(len(lat), npts, 3)
        integ = h * (vals[:, :, axis] @ wts01)
        coeffs[gmap.edge_dof[np.where(sel)[0]]] = integ

    # face DoFs: two tangential-curl integrals per interior face
    g1, g2 = np.meshgrid(pts01, pts01, indexing="ij")
    w2d = (wts01[:, None] * wts01[None, :]).reshape(-1)
    for axis in range(3):
        sel = (mesh.face_table[:, 0] == axis) & ~mesh.face_is_boundary
        lat = mesh.face_table[sel][:, 1:]
        t1, t2 = [ax for ax in range(3) if ax != axis]
        nf = len(lat)
        npts = g1.size
        P = np.empty((nf, npts, 3))
        P[:, :, axis] = (lat[:, axis] * h)[:, None]
        P[:, :, t1] = (lat[:, t1] * h)[:, None] + h * g1.reshape(-1)[None, :]
        P[:, :, t2] = (lat[:, t2] * h)[:, None] + h * g2.reshape(-1)[None, :]
        flat = P.reshape(-1, 3)
        curl = fieldobj.curl_value(flat).reshape(nf, npts, 3)
        fids = np.where(sel)[0]
        for j, d in enumerate((t1, t2)):
            g = curl[:, :, d]
            if corrected:
                g = g + (h * h / 12.0) * fieldobj.curl_d2(d, d, flat).reshape(nf, npts)
            integ = h * h * (g @ w2d)
            coeffs[gmap.face_dof[fids, j]] = integ
    return coeffs


@dataclass
class MacroField:
    """Piecewise-polynomial field over the macro partition.

    ``coeffs[m]`` are reference DoF values (dual-basis coefficients) of macro
    ``m`` on its scaled frame; the physical field on macro ``m`` is
    ``Phi_m((x - center_m) / H)`` with ``H`` the macro edge length.
    """

    partition: object
    space_tag: str
    coeffs: np.ndarray   # (n_macros, ndof)

    @property
    def space(self):
        return reference_spaces()[self.space_tag]

    @property
    def size(self):
        return self.partition.macro_size

    def local(self, m):
        return LocalInterpolant(self.space_tag, self.coeffs[m],
                                center=self.partition.macro_centers[m],
                                h=self.size)


def global_I3h(u_coeffs, mesh, gmap, partition):
    """Macro postprocessing of a V_h coefficient vector.

    The 144 fine-edge tangential integrals of each macro are exactly the V_h
    edge coefficients (boundary edges contribute zero), so no quadrature or
    local solve is involved.
    """
    if partition.mesh.n != mesh.n:
        raise NonDivisibleMesh("partition does not match mesh")
    H = partition.macro_size
    vals = gather(u_coeffs, gmap.edge_dof[partition.macro_edges])  # (nm, 144)
    return MacroField(partition, "VM", vals / H)
