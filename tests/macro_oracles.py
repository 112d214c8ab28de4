"""Per-macro oracles of criterion 4 that only the tests read: exact norms
of a macro field and the best approximation of the exact solution from
V_M on every macro."""

import numpy as np

from quadcurl.analysis import COLUMNS, ErrorTriple, gram_norms, tile_error
from quadcurl.mesh import NonDivisibleMesh
from quadcurl.spaces import (TensorGrid, dual_gram_matrices, gauss_walk,
                             reference_spaces)


def macro_norms(macro_field):
    """Exact norms of a MacroField via the reference VM Gram triple."""
    return gram_norms(macro_field.space, macro_field.coeffs, macro_field.size)


def macro_best_approximation(exact, mesh, partition):
    """Per-macro best approximation of the exact solution from V_M.

    On every macro, u is projected onto V_M in each norm of ErrorTriple (the
    grad-curl seminorm, the L2 norm of the curl, the L2 norm).  The distance
    from u to its projection P_M u is a lower bound for the matching column
    of ``superconvergent_error`` of *any* field v in V_M, and by Pythagoras
    the measured error squared is that bound squared plus the norm of
    P_M u - v squared.  The two curl Grams are singular (gradients, and for
    the seminorm fields of constant curl, span their kernels); the
    pseudo-inverse picks one projection, which leaves the distances unchanged.

    Returns ``(bounds, coeffs)``: an ErrorTriple of the distances and a
    triple of (n_macros, dim VM) reference-coefficient arrays of P_M u, both
    in ErrorTriple column order.
    """
    if partition.mesh.n != mesh.n:
        raise NonDivisibleMesh("macro partition does not match the mesh")
    vm = reference_spaces()["VM"]
    grid = TensorGrid.gauss(vm, 3)
    d = grid.powers.shape[1]
    h, H = mesh.h, partition.macro_size
    # physical dual fields are scale x the reference ones
    scales = (H**-2, 1.0 / H, 1.0)
    ginvs = [np.linalg.pinv(H**3 * s**2 * gram, rcond=1e-10, hermitian=True)
             for s, gram in zip(scales, reversed(dual_gram_matrices(vm)))]
    acc = np.zeros(3)
    coeffs = tuple(np.empty((partition.n_macros, vm.dim)) for _ in scales)
    for macros, tx, stacks in gauss_walk(exact.x_factored, mesh, grid, 3,
                                         COLUMNS):
        for col, (s, ginv, stack) in enumerate(zip(scales, ginvs, stacks)):
            c = (s * h**3) * grid.moments(stack[d:], col, x=tx) @ ginv
            acc[col] += tile_error(grid, s * c, col, tx, stack)
            coeffs[col][macros] = c
    return ErrorTriple(*np.sqrt(h**3 * acc)), coeffs
