"""Interpolation operators: canonical, corrected (superclose) and macro.

``interpolate`` is the local operator of every reference space, an oracle of
the battery and the tests that no study calls: it applies the space's own
DoF functionals exactly to a reference-frame ``PolyField``, with the
tangential face integrals corrected by default (see
``quadcurl.spaces.DofFunctional``), and returns the interpolant as a
reference-frame ``PolyField`` (``ElementSpace.combine``, from the span's
coefficient array).  The global operator ``global_interp_Ih``
reads a smooth field through three methods of one signature
``(component, x, y, z) -> (len(x), len(y), len(z))``: ``value``,
``curl_value`` and ``curl_d2`` give one component of u, of curl u and of
d^2 (curl u)_c / d x_c^2 (the in-plane second partial the correction reads)
on the tensor grid x * y * z (``quadcurl.mms.ExactFields`` takes each from
its one grid kernel, ``factored``).  It integrates the corrected DoFs with
tensor Gauss rules on the physical entities, where the correction weight is
``h^2 * CORRECTION_WEIGHT``; on the scaled frame it is
``CORRECTION_WEIGHT``, so one reference operator serves the whole mesh.
``global_I3h`` returns I3h u_h as a plain (macros, 144) array of reference
V_M coefficients, read off the fine-edge coefficients of u_h.
"""

from __future__ import annotations

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
    The Gauss points of a box of entities form a tensor grid (Gauss
    abscissae along the entities, lattice planes across them), so each
    axis's interior edges, and each axis's interior faces, take one call of
    the field method per component.
    """
    points, weights = polyquad.gauss_rule(polyquad.GAUSS_ORDER)
    n, h, q = mesh.n, mesh.h, len(points)

    def integral(method, component, index, spans):
        # method on the grid of the entities index, Gauss axes contracted
        vals = method(component, *[((i[:, None] + points) * h).ravel()
                                   if a in spans else i * h
                                   for a, i in enumerate(index)])
        for a in spans:
            s = vals.shape[:a] + (vals.shape[a] // q, q) + vals.shape[a + 1:]
            vals = np.moveaxis(vals.reshape(s), a + 1, -1) @ (h * weights)
        return vals

    coeffs = np.zeros(gmap.n_vdofs)
    cells, inner = np.arange(n), np.arange(1, n)
    for axis in range(3):
        t1, t2 = [a for a in range(3) if a != axis]
        # interior edges along axis
        index = [inner] * 3
        index[axis] = cells
        ids = gmap.edge_dof[mesh.edge_id(axis, *np.ix_(*index))]
        coeffs[ids] = integral(fieldobj.value, axis, index, [axis])

        # two tangential-curl integrals per interior face normal to axis
        index = [cells] * 3
        index[axis] = inner
        ids = gmap.face_dof[mesh.face_id(axis, *np.ix_(*index))]
        for j, d in enumerate((t1, t2)):
            coeffs[ids[..., j]] = (
                integral(fieldobj.curl_value, d, index, [t1, t2])
                + (h * h * CORRECTION_WEIGHT)
                * integral(fieldobj.curl_d2, d, index, [t1, t2]))
    return coeffs


def global_I3h(u_coeffs, mesh, gmap, macro_edges):
    """Macro postprocessing of a V_h coefficient vector: the (macros, 144)
    reference coefficients of I3h u_h in V_M, one macro per row of
    ``macro_edges`` (``mesh.macro_partition``), on the macro's scaled frame
    of edge H = 3h.

    The 144 fine-edge tangential integrals of each macro are exactly the V_h
    edge coefficients (boundary edges contribute zero), so no quadrature or
    local solve is involved.
    """
    if mesh.n % 3 or len(macro_edges) != (mesh.n // 3) ** 3:
        raise NonDivisibleMesh("macro partition does not match the mesh")
    return gather(u_coeffs, gmap.edge_dof[macro_edges]) / (3 * mesh.h)
