import time

import pytest

from quadcurl import checks
from quadcurl.polyquad import Poly, PolyField
from quadcurl.spaces import dual_basis, reference_spaces, span_VK


@pytest.fixture
def perturbed_vk():
    """VK with one quadratic term, 1e-3 x y^2 in the first component, added
    to spanning field 10: the DoFs stay unisolvent, but the curl of the span
    leaves WK."""
    span = span_VK()
    span[10] = span[10] + PolyField.unit(0, Poly.monomial(1, 2, 0, coef=1e-3))
    return dual_basis(span, reference_spaces()["VK"].dofs, "VK", 1)


@pytest.fixture(scope="session")
def battery():
    """One run of the exact-identity battery, shared by every test that reads
    it: (results, seconds it took)."""
    t0 = time.perf_counter()
    results = checks.run_battery()
    return results, time.perf_counter() - t0
