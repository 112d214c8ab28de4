"""Interpolation operators: canonical, corrected (superclose) and macro.

``interpolate`` is the local operator of every reference space: it applies the
space's own DoF functionals exactly to a reference-frame ``PolyField``, with
the tangential face integrals corrected by default (see
``quadcurl.spaces.DofFunctional``).  The global operator ``global_interp_Ih``
takes a smooth-field object exposing

* ``value(pts) -> (..., 3)``
* ``curl_value(pts) -> (..., 3)``
* ``curl_d2(comp, axis, pts) -> (...)``  second partials of curl components

(see ``quadcurl.mms.ExactFields``) and integrates the corrected DoFs with
tensor Gauss rules on the physical entities.  The correction weight is
``h^2 * CORRECTION_WEIGHT`` there and ``CORRECTION_WEIGHT`` on the scaled
frame, so one reference operator serves the whole mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import NonDivisibleMesh
from .polyquad import gauss_rule
from .spaces import CORRECTION_WEIGHT, reference_spaces
from .system import gather


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
            self._field = self.space.combine(self.ref_dofs)
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


def interpolate(tag, v, corrected=True):
    """Local interpolation of a reference-frame PolyField into the reference
    space ``tag``: its DoFs applied to ``v``, tangential face integrals
    corrected unless ``corrected`` is False."""
    dofs = reference_spaces()[tag].dofs
    return LocalInterpolant(tag, np.array([d.apply(v, corrected) for d in dofs]))


# ---------------------------------------------------------------------------
# global operators
# ---------------------------------------------------------------------------

def global_interp_Ih(fieldobj, mesh, gmap, q=6):
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
            g = curl[:, :, d] + (h * h * CORRECTION_WEIGHT) * fieldobj.curl_d2(
                d, d, flat).reshape(nf, npts)
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
