"""Exact multivariate polynomial algebra on boxes and Gauss-Legendre quadrature.

Scalar polynomials are sparse maps from monomial exponent triples to float
coefficients.  All calculus (differentiation, curl, box integration) happens
at the coefficient level, so results are exact up to floating-point rounding.
Gauss rules handle non-polynomial integrands (trigonometric exact solutions).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Exponent sanity cap; the largest products formed here (pairings of two
# fields of per-axis degree 3) stay below per-axis degree 7.
MAX_EXPONENT = 16


class Poly:
    """Scalar polynomial in three variables as a sparse coefficient map.

    Keys are exponent triples ``(a, b, c)`` for the monomial
    ``x1^a * x2^b * x3^c``; values are float coefficients.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for mono, c in coeffs.items():
                if c != 0.0:
                    self._check(mono)
                    self.coeffs[mono] = float(c)

    @staticmethod
    def _check(mono):
        a, b, c = mono
        if min(a, b, c) < 0 or max(a, b, c) > MAX_EXPONENT:
            raise ValueError(f"exponents out of range: {mono}")

    @classmethod
    def monomial(cls, a, b, c, coef=1.0):
        return cls({(a, b, c): coef})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, value):
        return cls({(0, 0, 0): value})

    def __add__(self, other):
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            s = out.get(mono, 0.0) + c
            if s == 0.0:
                out.pop(mono, None)
            else:
                out[mono] = s
        p = Poly.__new__(Poly)
        p.coeffs = out
        return p

    def __neg__(self):
        p = Poly.__new__(Poly)
        p.coeffs = {m: -c for m, c in self.coeffs.items()}
        return p

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        s = float(s)
        p = Poly.__new__(Poly)
        p.coeffs = {} if s == 0.0 else {m: s * c for m, c in self.coeffs.items()}
        return p

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(other)
        out = {}
        for (a1, b1, c1), u in self.coeffs.items():
            for (a2, b2, c2), v in other.coeffs.items():
                mono = (a1 + a2, b1 + b2, c1 + c2)
                self._check(mono)
                out[mono] = out.get(mono, 0.0) + u * v
        p = Poly.__new__(Poly)
        p.coeffs = {m: c for m, c in out.items() if c != 0.0}
        return p

    __rmul__ = __mul__

    def diff(self, axis):
        """Exact partial derivative along ``axis`` (0, 1 or 2)."""
        out = {}
        for mono, c in self.coeffs.items():
            e = mono[axis]
            if e == 0:
                continue
            m = list(mono)
            m[axis] = e - 1
            out[tuple(m)] = c * e
        p = Poly.__new__(Poly)
        p.coeffs = out
        return p

    def substitute(self, axis, value):
        """Fix one coordinate to ``value``; result has exponent 0 on that axis."""
        out = {}
        for mono, c in self.coeffs.items():
            m = list(mono)
            e = m[axis]
            m[axis] = 0
            m = tuple(m)
            out[m] = out.get(m, 0.0) + c * value**e
        p = Poly.__new__(Poly)
        p.coeffs = {m: c for m, c in out.items() if c != 0.0}
        return p

    def __call__(self, x, y, z):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        out = np.zeros(np.broadcast(x, y, z).shape)
        for (a, b, c), coef in self.coeffs.items():
            out += coef * x**a * y**b * z**c
        return out

    def integrate_box(self, lo, hi):
        """Exact integral over the box ``[lo[0],hi[0]] x ... x [lo[2],hi[2]]``."""
        total = 0.0
        for (a, b, c), coef in self.coeffs.items():
            term = coef
            for e, l, u in zip((a, b, c), lo, hi):
                term *= (u ** (e + 1) - l ** (e + 1)) / (e + 1)
            total += term
        return total

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        return "Poly(" + ", ".join(f"{m}: {c:g}" for m, c in sorted(self.coeffs.items())) + ")"


def integrate_exact(p, lo=(-0.5, -0.5, -0.5), hi=(0.5, 0.5, 0.5)):
    """Monomial-wise closed-form integration of a scalar polynomial over a box."""
    return p.integrate_box(lo, hi)


class PolyField:
    """Three-component vector field.

    The components are ``Poly``s, or any scalar field with ``diff``, ``+``,
    ``-`` and ``__call__(x, y, z)`` (the trigonometric series of
    ``quadcurl.mms``); ``curl``, ``div``, ``grad``, negation and evaluation
    need nothing more.
    """

    __slots__ = ("comps",)

    def __init__(self, comps):
        self.comps = tuple(comps)
        if len(self.comps) != 3:
            raise ValueError("PolyField needs exactly 3 components")

    @classmethod
    def unit(cls, axis, poly=None):
        comps = [Poly.zero(), Poly.zero(), Poly.zero()]
        comps[axis] = poly if poly is not None else Poly.const(1.0)
        return cls(comps)

    def __add__(self, other):
        return PolyField(tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other):
        return PolyField(tuple(a - b for a, b in zip(self.comps, other.comps)))

    def __neg__(self):
        return PolyField(tuple(-a for a in self.comps))

    def scale(self, s):
        return PolyField(tuple(a.scale(s) for a in self.comps))

    def diff(self, axis):
        return PolyField(tuple(a.diff(axis) for a in self.comps))

    def curl(self):
        c0, c1, c2 = self.comps
        return PolyField((
            c2.diff(1) - c1.diff(2),
            c0.diff(2) - c2.diff(0),
            c1.diff(0) - c0.diff(1),
        ))

    def div(self):
        return self.comps[0].diff(0) + self.comps[1].diff(1) + self.comps[2].diff(2)

    def grad(self):
        """Component-wise gradient: 3x3 nested tuple, entry [i][j] = d comps[i] / d x_j."""
        return tuple(tuple(c.diff(j) for j in range(3)) for c in self.comps)

    def dot(self, other):
        out = Poly.zero()
        for a, b in zip(self.comps, other.comps):
            out = out + a * b
        return out

    def cross(self, other):
        a0, a1, a2 = self.comps
        b0, b1, b2 = other.comps
        return PolyField((
            a1 * b2 - a2 * b1,
            a2 * b0 - a0 * b2,
            a0 * b1 - a1 * b0,
        ))

    def __call__(self, x, y, z):
        vals = [c(x, y, z) for c in self.comps]
        return np.stack(vals, axis=-1)


@lru_cache(maxsize=None)
def legendre_poly(k, axis):
    """Legendre polynomial scaled to [-1/2, 1/2] along one axis, as a Poly."""
    coef1d = np.polynomial.legendre.leg2poly([0.0] * k + [1.0])
    out = Poly.zero()
    for i, c in enumerate(coef1d):
        if c != 0.0:
            mono = [0, 0, 0]
            mono[axis] = i
            out = out + Poly.monomial(*mono, coef=c * 2.0**i)
    return out


class GaussRule:
    """Gauss-Legendre rules on intervals (boxes take their tensor products).

    Order ``q`` per axis integrates per-axis polynomial degree <= 2q - 1
    exactly.
    """

    def __init__(self, q):
        if q < 1:
            raise ValueError("Gauss order must be >= 1")
        self.q = int(q)
        # reference points/weights on [0, 1]
        x, w = np.polynomial.legendre.leggauss(self.q)
        self.pts01 = 0.5 * (x + 1.0)
        self.wts01 = 0.5 * w

    def interval(self, lo, hi):
        return lo + (hi - lo) * self.pts01, (hi - lo) * self.wts01


# Gauss points per axis of every study quadrature (the load, I_h and the error
# norms).  Readers look it up at call time; order 8 prints the same report
# digits (tests/test_cli.py::test_gauss_order_is_converged).
GAUSS_ORDER = 6


@lru_cache(maxsize=8)
def gauss_rule(q):
    return GaussRule(q)


