"""Closed-form manufactured solution and its exact derivatives.

The potential is ``phi = sin^3(pi x1) sin^3(pi x2) sin^3(pi x3)`` and the
velocity is ``u = curl (0, 0, phi)``.  Expanding ``sin^3 t = (3 sin t -
sin 3t) / 4`` turns every field into a finite sum of separable products of
``sin(m pi t)`` / ``cos(m pi t)`` factors with rational coefficients, so
derivatives of any order are exact linear recombinations: no symbolic algebra
and no finite differences anywhere.  Coefficients are kept as exact rationals
times an integer power of pi, which makes identities like ``div f = 0`` cancel
to literal zero instead of rounding noise.  A ``TrigField`` has the scalar
interface of ``quadcurl.polyquad.Poly`` (``diff``, ``+``, ``-`` and
``__call__(x, y, z)``), so ``PolyField`` carries the vector fields and their
curl, div and grad.  On the outer product of three 1D coordinate arrays the
series are summed factor by factor from per-axis sin/cos tables
(``ExactFields.grid_values`` and ``ExactFields.f_grid_values``); pointwise
``__call__`` stays the independent reference for that sum.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .polyquad import PolyField

SIN, COS = 0, 1


# sin^3(pi t) = (3/4) sin(pi t) - (1/4) sin(3 pi t), as a (kind, m) -> Fraction
# map of one axis; ``TrigField.separable`` multiplies three such maps
SIN_CUBED = {(SIN, 1): Fraction(3, 4), (SIN, 3): Fraction(-1, 4)}


class TrigField:
    """Scalar field: finite sum of separable sin/cos products over the axes.

    ``terms`` maps a key triple ``((kind, m), (kind, m), (kind, m))`` to a
    Fraction; ``pi_power`` is shared by all terms (fields assembled here are
    homogeneous in differentiation order).
    """

    __slots__ = ("terms", "pi_power")

    def __init__(self, terms=None, pi_power=0):
        self.terms = dict(terms or {})
        self.pi_power = pi_power

    @classmethod
    def separable(cls, s1, s2, s3):
        """Product of three per-axis ``(kind, m) -> Fraction`` maps."""
        return cls({(k1, k2, k3): c1 * c2 * c3 for k1, c1 in s1.items()
                    for k2, c2 in s2.items() for k3, c3 in s3.items()})

    @property
    def is_zero(self):
        return not self.terms

    def diff(self, axis):
        out = {}
        for key, c in self.terms.items():
            kind, m = key[axis]
            if kind == SIN:
                nk, coef = (COS, m), c * m
            else:
                nk, coef = (SIN, m), -c * m
            nkey = list(key)
            nkey[axis] = nk
            nkey = tuple(nkey)
            out[nkey] = out.get(nkey, Fraction(0)) + coef
        return TrigField({k: v for k, v in out.items() if v != 0},
                         self.pi_power + 1)

    def __neg__(self):
        return TrigField({k: -v for k, v in self.terms.items()}, self.pi_power)

    def __add__(self, other):
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        if self.pi_power != other.pi_power:
            raise ValueError("cannot combine series of different pi powers")
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, Fraction(0)) + v
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return TrigField(out, self.pi_power)

    def __sub__(self, other):
        return self + (-other)

    def __call__(self, x, y, z):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        out = np.zeros(np.broadcast(x, y, z).shape)
        cache = {}

        def basis(axis, kind, m, t):
            key = (axis, kind, m)
            if key not in cache:
                arg = m * np.pi * t
                cache[key] = np.sin(arg) if kind == SIN else np.cos(arg)
            return cache[key]

        for (k1, k2, k3), c in self.terms.items():
            out += float(c) * (basis(0, *k1, x) * basis(1, *k2, y)
                               * basis(2, *k3, z))
        return out * math.pi**self.pi_power


def _grid_plan(fields):
    """Coefficient layout for evaluating ``fields`` together on tensor grids.

    Returns ``(keys, pairs, coef)``: per axis the list of ``(kind, m)``
    factors the terms use, the (x factor, y factor) index pairs that occur,
    and ``coef[pair, z factor, field]`` with each field's power of pi folded
    into its rational coefficients.
    """
    keys = ({}, {}, {})
    pairs = {}
    entries = []
    for f, field in enumerate(fields):
        scale = math.pi**field.pi_power
        for key, c in field.terms.items():
            i, j, k = (keys[a].setdefault(key[a], len(keys[a]))
                       for a in range(3))
            entries.append((pairs.setdefault((i, j), len(pairs)), k, f,
                            float(c) * scale))
    coef = np.zeros((len(pairs), len(keys[2]), len(fields)))
    for pair, k, f, c in entries:
        coef[pair, k, f] += c
    return (tuple(list(k) for k in keys),
            np.array(list(pairs), dtype=int).reshape(-1, 2), coef)


def _trig_table(keys, t):
    """Columns sin/cos(m pi t), one per ``(kind, m)`` key: (len(t), len(keys))."""
    out = np.empty((len(t), len(keys)))
    for col, (kind, m) in enumerate(keys):
        arg = m * np.pi * t
        out[:, col] = np.sin(arg) if kind == SIN else np.cos(arg)
    return out


def _eval_grid(plan, x, y, z):
    """Sum factorization of a ``_grid_plan`` on the tensor grid x * y * z.

    Terms sharing an (x, y) factor pair fold their z factors into one 1D
    combination per field, so one matmul of the (x, y) factor products
    against those combinations gives every field at every grid point:
    (len(x), len(y), len(z), n_fields).
    """
    keys, pairs, coef = plan
    x, y, z = (np.asarray(t, dtype=float).reshape(-1) for t in (x, y, z))
    shape = (len(x), len(y), len(z), coef.shape[2])
    if not len(pairs):
        return np.zeros(shape)
    tx, ty, tz = (_trig_table(k, t) for k, t in zip(keys, (x, y, z)))
    xy = tx[:, None, pairs[:, 0]] * ty[None, :, pairs[:, 1]]
    zc = np.einsum("zk,pkf->pzf", tz, coef)
    return (xy.reshape(-1, len(pairs))
            @ zc.reshape(len(pairs), -1)).reshape(shape)


def _at(pts):
    """The three coordinate arrays of an (..., 3) point array."""
    pts = np.asarray(pts, dtype=float)
    return pts[..., 0], pts[..., 1], pts[..., 2]


class ExactFields:
    """The manufactured solution bundle: u, curl u, grad curl u, the load
    f = -curl(laplacian(curl u)), and the in-plane second partials of curl u
    that the corrected interpolation reads.  The vector fields are
    ``quadcurl.polyquad.PolyField``s of ``TrigField``s."""

    def __init__(self):
        self.phi = TrigField.separable(SIN_CUBED, SIN_CUBED, SIN_CUBED)
        # u = curl (0, 0, phi) = (d phi/dx2, -d phi/dx1, 0)
        self.u = PolyField((self.phi.diff(1), -self.phi.diff(0), TrigField()))
        self.curl_u = self.u.curl()
        laplacian_curl_u = PolyField(
            sum((c.diff(j).diff(j) for j in range(3)), TrigField())
            for c in self.curl_u.comps)
        self.f = -laplacian_curl_u.curl()
        self.grad_curl_u = self.curl_u.grad()
        # entry [i] = d^2 (curl u)_i / d x_i^2
        self.curl_u_d2 = tuple(row[i].diff(i)
                               for i, row in enumerate(self.grad_curl_u))
        self._grid_plan = _grid_plan(
            self.u.comps + self.curl_u.comps
            + tuple(g for row in self.grad_curl_u for g in row))
        self._f_plan = _grid_plan(self.f.comps)

    # -- vectorized callables ------------------------------------------------

    def u_value(self, pts):
        return self.u(*_at(pts))

    def curl_u_value(self, pts):
        return self.curl_u(*_at(pts))

    def grad_curl_u_value(self, pts):
        """Jacobian of curl u: shape (..., 3, 3), entry [i, j] = d(curl u)_i / dx_j."""
        x, y, z = _at(pts)
        rows = [np.stack([g(x, y, z) for g in row], axis=-1)
                for row in self.grad_curl_u]
        return np.stack(rows, axis=-2)

    def grid_values(self, x, y, z):
        """grad curl u, curl u and u (the column order of
        ``quadcurl.analysis.ErrorTriple``) on the outer product of 1D
        coordinate arrays, shaped like ``grad_curl_u_value``,
        ``curl_u_value`` and ``u_value`` with the point axis replaced by
        ``(len(x), len(y), len(z))``.  All 15 components share one set of
        per-axis sin/cos tables."""
        out = _eval_grid(self._grid_plan, x, y, z)
        grid = out.shape[:3]
        return (out[..., 6:15].reshape(grid + (3, 3)), out[..., 3:6],
                out[..., 0:3])

    def f_value(self, pts):
        return self.f(*_at(pts))

    def f_grid_values(self, x, y, z):
        """f on the grid x * y * z, like ``grid_values``; a plan of its own,
        so the load and the error phases never evaluate each other's fields."""
        return _eval_grid(self._f_plan, x, y, z)

    # -- interpolation protocol (duck-typed against quadcurl.interp) ---------

    value = u_value
    curl_value = curl_u_value

    def curl_d2(self, axis, pts):
        """Second partial of (curl u)_axis along ``axis`` at points."""
        return self.curl_u_d2[axis](*_at(pts))


def build_exact_fields():
    """Construct the manufactured solution bundle."""
    return ExactFields()
