"""Closed-form manufactured solution and its exact derivatives.

The potential is ``phi = sin^3(pi x1) sin^3(pi x2) sin^3(pi x3)`` and the
velocity is ``u = curl (0, 0, phi)``.  Expanding ``sin^3 t = (3 sin t -
sin 3t) / 4`` (``SIN_CUBED``) puts every field in the span of separable
products of the per-axis basis ``sin(m pi t)``, ``cos(m pi t)`` over the
frequencies m of that series.  A field is therefore one ``TrigSeries``: a
coefficient array in the (K, d, d, d) layout of
``quadcurl.spaces.coefficient_array`` times an integer power of pi.  Its
derivatives of any order are the coefficient-array calculus of
``quadcurl.polyquad`` with the integer matrix ``TRIG_DIFF`` in place of the
monomial derivative: no symbolic algebra and no finite differences anywhere.
The coefficients are dyadic rationals and the derivative entries integers,
so every coefficient is exact in floating point and identities like
``div f = 0`` cancel to literal zero instead of rounding noise.

Both evaluators read the same arrays.  Pointwise, ``TrigSeries.__call__``
sums the nonzero basis products one at a time, the independent reference
for the grid sums.  On the outer product of three 1D coordinate arrays
every field goes through one kernel, ``factored``: the x basis at x and
the (y, z) factor.  The load and the error walks keep the factor, written
into their stack once per column of tiles; I_h (``value``, ...) takes the
product, over the basis functions that each component uses.
"""

from __future__ import annotations

import math

import numpy as np

from .polyquad import along, coefficient_curl, coefficient_grad

# sin^3(pi t) = (3/4) sin(pi t) - (1/4) sin(3 pi t), as a sine series m -> c
SIN_CUBED = {1: 0.75, 3: -0.25}

# the per-axis basis: sin(m pi t) for m in FREQS, then cos(m pi t)
FREQS = np.array(list(SIN_CUBED), dtype=float)
_M = np.diag(FREQS)
# d/d(pi t) of the basis: TRIG_DIFF[a', a] is the coefficient of basis a' in
# the derivative of basis a (sin -> m cos, cos -> -m sin)
TRIG_DIFF = np.block([[0 * _M, -_M], [_M, 0 * _M]])


def _basis(a, t):
    """Basis function ``a`` at the points ``t``."""
    m = FREQS[a % len(FREQS)]
    return (np.sin if a < len(FREQS) else np.cos)(m * np.pi * t)


class TrigSeries:
    """A field of K components: ``coef`` (K, d, d, d) weighs the products of
    the per-axis basis, and the whole field carries ``pi**pi_power`` (the
    fields built here are homogeneous in differentiation order)."""

    __slots__ = ("coef", "pi_power")

    def __init__(self, coef, pi_power):
        self.coef = coef
        self.pi_power = pi_power

    @property
    def is_zero(self):
        return not self.coef.any()

    def diff(self, axis):
        return TrigSeries(along(self.coef, TRIG_DIFF, axis), self.pi_power + 1)

    def div(self):
        return TrigSeries(sum(along(self.coef[k], TRIG_DIFF, k)
                              for k in range(3))[None], self.pi_power + 1)

    def curl(self):
        return TrigSeries(coefficient_curl(self.coef, TRIG_DIFF),
                          self.pi_power + 1)

    def grad(self):
        """Component 3 k + j is d comp_k / d x_j."""
        return TrigSeries(coefficient_grad(self.coef, TRIG_DIFF),
                          self.pi_power + 1)

    def __neg__(self):
        return TrigSeries(-self.coef, self.pi_power)

    def scaled(self):
        """The coefficients with the power of pi folded in."""
        return self.coef * math.pi**self.pi_power

    def __call__(self, x, y, z):
        """Values at points: the broadcast shape of x, y, z, then K.  Each
        basis function an entry uses is evaluated once per call."""
        axes = [np.asarray(t, dtype=float) for t in (x, y, z)]
        terms = np.argwhere(self.coef.any(axis=0))
        tables = [{a: _basis(a, t) for a in set(terms[:, i])}
                  for i, t in enumerate(axes)]
        out = np.zeros((len(self.coef),) + np.broadcast(*axes).shape)
        for a, b, c in terms:
            prod = tables[0][a] * tables[1][b] * tables[2][c]
            for k in np.flatnonzero(self.coef[:, a, b, c]):
                out[k] += self.coef[k, a, b, c] * prod
        return np.moveaxis(out * math.pi**self.pi_power, 0, -1)


def _tables(axes, basis):
    """The basis functions ``basis[i]`` of axis i at its 1D coordinate
    array ``axes[i]``: (len(basis[i]), len(t)) each."""
    return [np.stack([_basis(a, np.asarray(t, dtype=float).reshape(-1))
                      for a in b]) for t, b in zip(axes, basis)]


def factored(coef, x, y, z, comps=slice(None), out=None,
             basis=(range(2 * len(FREQS)),) * 3):
    """Sum factorization of the components ``comps`` of (F, d, d, d)
    coefficients (powers of pi folded in) on the grid x * y * z, stopped
    before the x sum: ``(X, E)``, X (len(x), d) the x basis at x and
    E (d, len(y), len(z), len(comps)) the (y, z) factor, written into
    ``out`` if given (C-contiguous), so the fields are X @ E over d.
    ``basis`` names the basis functions that the three coefficient axes
    weigh, all the per-axis basis by default."""
    tx, ty, tz = _tables((x, y, z), basis)
    coef = coef[comps]
    zc = np.einsum("cz,fabc->abzf", tz, coef)            # [a, b, z, f]
    E = np.matmul(ty.T, zc.reshape(len(tx), len(ty), -1),  # [a, y, z, f]
                  out=None if out is None else
                  out.reshape(len(tx), ty.shape[1], -1))
    return tx.T, E.reshape(len(tx), ty.shape[1], tz.shape[1], len(coef))


def _trimmed(coef):
    """(d, d, d) coefficients over the basis functions with a nonzero
    coefficient on each axis, as (1, d_x, d_y, d_z) coefficients and those
    functions, or None when none is nonzero (u_3)."""
    if not coef.any():
        return None
    basis = [np.flatnonzero(np.moveaxis(coef, a, 0).any(axis=(1, 2)))
             for a in range(3)]
    return coef[np.ix_(*basis)][None], basis


def _on_grid(trimmed, x, y, z):
    """The field of ``_trimmed`` coefficients on the grid x * y * z, the
    product of ``factored`` over their basis functions alone; zeros for
    None."""
    if trimmed is None:
        return np.zeros((len(x), len(y), len(z)))
    coef, basis = trimmed
    return np.tensordot(*factored(coef, x, y, z, basis=basis), axes=1)[..., 0]


class ExactFields:
    """The manufactured solution bundle: u, curl u, grad curl u, the load
    f = -curl(laplacian(curl u)), and the in-plane second partials of curl u
    that the corrected interpolation reads, each a ``TrigSeries``."""

    def __init__(self):
        s = np.concatenate([list(SIN_CUBED.values()), 0 * FREQS])
        phi = s[:, None, None] * s[:, None] * s
        self.phi = TrigSeries(phi[None], 0)
        self.u = TrigSeries(np.stack([0 * phi, 0 * phi, phi]), 0).curl()
        self.curl_u = self.u.curl()
        laplacian_curl_u = TrigSeries(
            sum(self.curl_u.diff(j).diff(j).coef for j in range(3)),
            self.curl_u.pi_power + 2)
        self.f = -laplacian_curl_u.curl()
        self.grad_curl_u = self.curl_u.grad()
        # entry [i] = d^2 (curl u)_i / d x_i^2
        self.curl_u_d2 = tuple(
            TrigSeries(self.curl_u.coef[i, None], self.curl_u.pi_power)
            .diff(i).diff(i) for i in range(3))
        self._error_coef = np.concatenate(
            [g.scaled() for g in (self.grad_curl_u, self.curl_u, self.u)])
        # the components of the interpolation methods, each trimmed to the
        # 2 of the 4 basis functions per axis that it uses
        self._grids = {
            "value": [_trimmed(c) for c in self.u.scaled()],
            "curl_value": [_trimmed(c) for c in self.curl_u.scaled()],
            "curl_d2": [_trimmed(g.scaled()[0]) for g in self.curl_u_d2]}

    # -- vectorized callables ------------------------------------------------

    def u_value(self, pts):
        return self.u(*np.moveaxis(pts, -1, 0))

    def curl_u_value(self, pts):
        return self.curl_u(*np.moveaxis(pts, -1, 0))

    def grad_curl_u_value(self, pts):
        """Jacobian of curl u: shape (..., 3, 3), entry [i, j] = d(curl u)_i / dx_j."""
        vals = self.grad_curl_u(*np.moveaxis(pts, -1, 0))
        return vals.reshape(vals.shape[:-1] + (3, 3))

    def x_factored(self, x, y, z, comps=slice(None), out=None):
        """The components ``comps`` of grad curl u, curl u and u on the grid
        x * y * z, factored over x by ``factored``; components in ErrorTriple
        column order (grad curl entry 3 i + j is d(curl u)_i / d x_j)."""
        return factored(self._error_coef, x, y, z, comps, out)

    def f_value(self, pts):
        return self.f(*np.moveaxis(pts, -1, 0))

    # -- interpolation protocol (duck-typed against quadcurl.interp) ---------

    def value(self, component, x, y, z):
        """Component ``component`` of u on the grid x * y * z."""
        return _on_grid(self._grids["value"][component], x, y, z)

    def curl_value(self, component, x, y, z):
        """Component ``component`` of curl u on the grid x * y * z."""
        return _on_grid(self._grids["curl_value"][component], x, y, z)

    def curl_d2(self, component, x, y, z):
        """d^2 (curl u)_component / d x_component^2 on the grid x * y * z."""
        return _on_grid(self._grids["curl_d2"][component], x, y, z)


def build_exact_fields():
    """Construct the manufactured solution bundle."""
    return ExactFields()
