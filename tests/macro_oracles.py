"""Per-macro oracle of criterion 4 that only the tests read: exact norms
of a macro field given as its (macros, 144) reference V_M coefficients, the
array that ``interp.global_I3h`` returns."""

from quadcurl.analysis import gram_norms
from quadcurl.spaces import reference_spaces


def macro_norms(coeffs, mesh):
    """Exact norms of the macro field of reference V_M coefficients
    ``coeffs`` on ``mesh`` via the reference VM Gram triple, on macros of
    edge 3h."""
    return gram_norms(reference_spaces()["VM"], coeffs, 3 * mesh.h)
