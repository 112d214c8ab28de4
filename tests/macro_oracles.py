"""Per-macro oracle of criterion 4 that only the tests read: exact norms
of a macro field."""

from quadcurl.analysis import gram_norms


def macro_norms(macro_field):
    """Exact norms of a MacroField via the reference VM Gram triple."""
    return gram_norms(macro_field.space, macro_field.coeffs, macro_field.size)
