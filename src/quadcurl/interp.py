"""Interpolation operators: canonical, corrected (superclose) and macro.

``interpolate`` is the local operator of every reference space: it applies the
space's own DoF functionals exactly to a reference-frame ``PolyField``, with
the tangential face integrals corrected by default (see
``quadcurl.spaces.DofFunctional``), and returns the interpolant as a
reference-frame ``PolyField``.  The global operator ``global_interp_Ih``
takes a smooth-field object exposing

* ``value(pts) -> (..., 3)``
* ``curl_value(pts) -> (..., 3)``
* ``curl_d2(axis, pts) -> (...)``  the in-plane second partial
  d^2 (curl u)_axis / d x_axis^2, the only one the correction reads

(see ``quadcurl.mms.ExactFields``) and integrates the corrected DoFs with
tensor Gauss rules on the physical entities, about one lattice plane of
entities per evaluation.  The correction weight is
``h^2 * CORRECTION_WEIGHT`` there and ``CORRECTION_WEIGHT`` on the scaled
frame, so one reference operator serves the whole mesh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import polyquad
from .mesh import NonDivisibleMesh
from .spaces import CORRECTION_WEIGHT, reference_spaces
from .system import gather


def interpolate(tag, v, corrected=True):
    """Local interpolation of a reference-frame PolyField into the reference
    space ``tag``: the combination of its duals with the space's DoFs applied
    to ``v``, tangential face integrals corrected unless ``corrected`` is
    False."""
    space = reference_spaces()[tag]
    return space.combine([d.apply(v, corrected) for d in space.dofs])


# ---------------------------------------------------------------------------
# global operators
# ---------------------------------------------------------------------------

def global_interp_Ih(fieldobj, mesh, gmap):
    """Global corrected interpolation into V_h: one coefficient per interior
    DoF (edge tangential integrals; corrected face-curl integrals).

    Fields with vanishing tangential trace and curl trace on the cube
    boundary have vanishing boundary DoFs, so elimination is consistent.
    The interior entities of each axis are taken in ``mesh.n`` runs, about
    one lattice plane each, so the point arrays stay a plane in size.
    """
    rule = polyquad.gauss_rule(polyquad.GAUSS_ORDER)
    h = mesh.h
    s, w = h * rule.pts01, rule.wts01
    g1, g2 = (g.reshape(-1) for g in np.meshgrid(s, s, indexing="ij"))
    w2 = (w[:, None] * w[None, :]).reshape(-1)
    coeffs = np.zeros(gmap.n_vdofs)
    for axis in range(3):
        t1, t2 = [a for a in range(3) if a != axis]
        edges = np.where((mesh.edge_table[:, 0] == axis)
                         & ~mesh.edge_is_boundary)[0]
        for run in np.array_split(edges, mesh.n):
            P = np.repeat(mesh.edge_table[run, 1:][:, None] * h, len(s), axis=1)
            P[:, :, axis] += s
            vals = fieldobj.value(P.reshape(-1, 3)).reshape(P.shape)
            coeffs[gmap.edge_dof[run]] = h * (vals[:, :, axis] @ w)

        # two tangential-curl integrals per interior face
        faces = np.where((mesh.face_table[:, 0] == axis)
                         & ~mesh.face_is_boundary)[0]
        for run in np.array_split(faces, mesh.n):
            P = np.repeat(mesh.face_table[run, 1:][:, None] * h, len(g1),
                          axis=1)
            P[:, :, t1] += g1
            P[:, :, t2] += g2
            flat = P.reshape(-1, 3)
            curl = fieldobj.curl_value(flat).reshape(P.shape)
            for j, d in enumerate((t1, t2)):
                d2 = fieldobj.curl_d2(d, flat).reshape(P.shape[:2])
                g = curl[:, :, d] + (h * h * CORRECTION_WEIGHT) * d2
                coeffs[gmap.face_dof[run, j]] = h * h * (g @ w2)
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
