import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadcurl.polyquad import (Poly, PolyField, gauss_rule,
                               integrate_exact, legendre_poly)
from tables import gauss_box


def test_power_rule():
    p = Poly.monomial(2, 1, 0)          # x^2 y
    assert p.diff(0).coeffs == {(1, 1, 0): 2.0}


def test_curl_of_gradient_vanishes():
    q = Poly.monomial(1, 1, 1)          # xyz
    g = PolyField((q.diff(0), q.diff(1), q.diff(2)))
    assert all(not c.coeffs for c in g.curl().comps)


def test_curl_direct_expansion():
    f = PolyField((Poly.zero(), Poly.zero(), Poly.monomial(1, 1, 0)))
    c = f.curl()
    assert c.comps[0].coeffs == {(1, 0, 0): 1.0}
    assert c.comps[1].coeffs == {(0, 1, 0): -1.0}
    assert not c.comps[2].coeffs


def test_div_of_curl_vanishes():
    rng = np.random.default_rng(3)
    comps = []
    for _ in range(3):
        p = Poly.zero()
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    p = p + Poly.monomial(a, b, c, coef=rng.standard_normal())
        comps.append(p)
    d = PolyField(comps).curl().div()
    assert max((abs(v) for v in d.coeffs.values()), default=0.0) < 1e-12


def test_integrate_exact_unit_box():
    assert integrate_exact(Poly.const(1.0), (0, 0, 0), (1, 1, 1)) == 1.0
    assert integrate_exact(Poly.monomial(1, 1, 1), (0, 0, 0), (1, 1, 1)) == pytest.approx(0.125)


def test_integrate_exact_scaled_box():
    h = 0.3
    val = integrate_exact(Poly.monomial(2, 0, 0), (0, 0, 0), (h, h, h))
    assert val == pytest.approx(h**5 / 3.0, rel=1e-14)


def test_gauss_two_point_exact_for_cubic():
    pts, wts = gauss_rule(2)
    assert float(wts @ pts**3) == pytest.approx(0.25, abs=1e-15)
    # every caller shares the cached pair, so no caller may write it
    assert not (pts.flags.writeable or wts.flags.writeable)


def test_gauss_sin_product_matches_antiderivative():
    # oracle: 1D antiderivative gives int_0^1 sin(pi t) dt = 2/pi per axis.
    # measured q=6 accuracy is 2.03e-10 absolute (the 12th derivative of the
    # integrand is pi^12), hence the 2.5e-10 bound
    exact = (2.0 / np.pi) ** 3

    def integral(q):
        pts, wts = gauss_box(q, (0, 0, 0), (1, 1, 1))
        return float(wts @ np.prod(np.sin(np.pi * pts), axis=1))

    assert integral(6) == pytest.approx(exact, abs=2.5e-10)
    # one extra point drives the error far below the spec-level tolerance
    assert integral(7) == pytest.approx(exact, abs=1e-12)


def test_gauss_rejects_order_zero():
    with pytest.raises(ValueError):
        gauss_rule(0)


def test_gauss_exactness_degree_is_sharp():
    # q points integrate t^(2q-1) exactly but not t^(2q)
    for q in range(1, 7):
        pts, wts = gauss_rule(q)
        deg = 2 * q - 1
        assert float(wts @ pts**deg) == pytest.approx(1.0 / (deg + 1), rel=1e-13)
        assert float(wts @ pts**(deg + 1)) != pytest.approx(
            1.0 / (deg + 2), rel=1e-13)


def test_weights_positive_and_sum_to_measure():
    for q in (1, 2, 4, 6):
        pts, wts = gauss_box(q)
        assert np.all(wts > 0)
        assert wts.sum() == pytest.approx(1.0, rel=1e-13)


@st.composite
def random_poly(draw, deg=5):
    coeffs = {}
    n_terms = draw(st.integers(min_value=1, max_value=8))
    for _ in range(n_terms):
        mono = tuple(draw(st.integers(min_value=0, max_value=deg))
                     for _ in range(3))
        coeffs[mono] = draw(st.floats(min_value=-10, max_value=10,
                                      allow_nan=False))
    return Poly(coeffs)


@settings(max_examples=25, deadline=None)
@given(random_poly())
def test_gauss_matches_exact_on_polynomials(p):
    lo, hi = (-0.5, -0.5, -0.5), (0.5, 0.5, 0.5)
    exact = integrate_exact(p, lo, hi)
    pts, wts = gauss_box(6, lo, hi)
    approx = float(wts @ p(*pts.T))
    assert approx == pytest.approx(exact, rel=1e-13, abs=1e-13)


@settings(max_examples=25, deadline=None)
@given(random_poly(deg=3), random_poly(deg=3), st.integers(0, 2))
def test_product_rule(p, q, axis):
    lhs = (p * q).diff(axis)
    rhs = p.diff(axis) * q + p * q.diff(axis)
    diff = lhs - rhs
    assert max((abs(v) for v in diff.coeffs.values()), default=0.0) < 1e-9


def test_legendre_orthogonality():
    # scaled Legendre polynomials are orthogonal on [-1/2, 1/2]
    for a in range(4):
        for b in range(4):
            val = integrate_exact(legendre_poly(a, 0) * legendre_poly(b, 0))
            if a == b:
                assert val == pytest.approx(1.0 / (2 * a + 1), rel=1e-12)
            else:
                assert abs(val) < 1e-14


def test_substitute_fixes_coordinate():
    p = Poly.monomial(2, 1, 0) + Poly.monomial(0, 0, 3)
    s = p.substitute(0, 0.5)
    assert s(1.0, 2.0, 1.5) == pytest.approx(p(0.5, 2.0, 1.5))
