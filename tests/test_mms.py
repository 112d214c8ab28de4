import math

import numpy as np
import pytest

from quadcurl import mms
from quadcurl.checks import _u_direct, fd_curl4


@pytest.fixture(scope="module")
def exact():
    return mms.build_exact_fields()


def _sin3(t):
    return np.sin(np.pi * t) ** 3


def test_sin_cubed_series_matches_direct(exact):
    # phi = sin^3(pi x) times the constant sin^3 factors of y = 0.3, z = 0.7
    t = np.random.default_rng(0).uniform(0, 1, 200)
    direct = _sin3(t) * _sin3(0.3) * _sin3(0.7)
    assert np.abs(exact.phi(t, 0.3, 0.7)[:, 0] - direct).max() < 1e-13


def test_series_differentiation_maps_sin_to_cos(exact):
    d = exact.phi.diff(0)
    # the x factor of every term is a cosine: no sine coefficient is left
    assert not d.coef[:, :len(mms.FREQS)].any()
    assert d.coef[:, len(mms.FREQS):].any()
    assert d.pi_power == 1
    t = np.linspace(0.05, 0.95, 50)
    direct = 3 * np.pi * np.sin(np.pi * t) ** 2 * np.cos(np.pi * t) \
        * _sin3(0.3) * _sin3(0.7)
    assert np.abs(d(t, 0.3, 0.7)[:, 0] - direct).max() < 1e-12


def test_u_vanishes_on_boundary(exact):
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 1, (20, 3))
    for axis in range(3):
        for val in (0.0, 1.0):
            p = pts.copy()
            p[:, axis] = val
            assert np.abs(exact.u_value(p)).max() < 1e-14


def test_divergence_free(exact):
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.05, 0.95, (20, 3))
    div_u = exact.u.div()
    assert div_u.is_zero
    assert np.abs(div_u(pts[:, 0], pts[:, 1], pts[:, 2])).max() < 1e-12
    assert exact.f.div().is_zero


def test_load_matches_fd_curl4_oracle(exact):
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.25, 0.75, (10, 3))
    f_fd = fd_curl4(_u_direct, pts)
    f_series = exact.f_value(pts)
    scale = np.abs(f_series).max()
    assert np.abs(f_series - f_fd).max() / scale < 1e-6


def test_curl_u_matches_fd_oracle(exact):
    from quadcurl.checks import _fd_weights
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.1, 0.9, (50, 3))
    dt = 0.01
    offs, w = _fd_weights(1, 9)     # 8th-order first derivative
    fd = np.zeros((len(pts), 3))
    for comp, (da, db) in enumerate([(1, 2), (2, 0), (0, 1)]):
        for sgn, ax, src in ((1.0, da, db), (-1.0, db, da)):
            acc = np.zeros(len(pts))
            for o, wi in zip(offs, w):
                e = np.zeros(3)
                e[ax] = o * dt
                acc += wi * _u_direct(pts + e)[:, src]
            fd[:, comp] += sgn * acc / dt
    series = exact.curl_u_value(pts)
    assert np.abs(series - fd).max() / np.abs(series).max() < 1e-8


def test_second_derivative_matches_central_fd(exact):
    from quadcurl.checks import _fd_weights
    pts = np.array([[0.5, 0.3, 0.7]])
    val = exact.phi.diff(0).diff(0)(*pts.T)[0, 0]
    dt = 0.01
    offs, w = _fd_weights(2, 11)    # 9th-order second derivative
    f = lambda x: np.sin(np.pi * x) ** 3 * np.sin(np.pi * 0.3) ** 3 \
        * np.sin(np.pi * 0.7) ** 3
    fd = sum(wi * f(0.5 + o * dt) for o, wi in zip(offs, w)) / dt**2
    assert val == pytest.approx(fd, rel=1e-8, abs=1e-8)


def test_first_derivatives_vanish_at_corners(exact):
    corners = np.array([[i, j, k] for i in (0.0, 1.0) for j in (0.0, 1.0)
                        for k in (0.0, 1.0)])
    for axis in range(3):
        vals = exact.phi.diff(axis)(*corners.T)
        assert np.abs(vals).max() < 1e-14


def test_mixed_third_derivative_symmetric(exact):
    pts = np.random.default_rng(5).uniform(0.1, 0.9, (10, 3))
    base = exact.phi.diff(0).diff(1).diff(2)(*pts.T)
    # separable product: any order of the three partials gives the same field
    d = exact.phi.diff(2).diff(0).diff(1)
    again = d(pts[:, 0], pts[:, 1], pts[:, 2])
    assert np.allclose(base, again, rtol=1e-13)


def test_grad_curl_consistent_with_partials(exact):
    pts = np.random.default_rng(6).uniform(0.1, 0.9, (5, 3))
    jac = exact.grad_curl_u_value(pts)
    for i in range(3):
        for j in range(3):
            direct = exact.curl_u.diff(j)(pts[:, 0], pts[:, 1], pts[:, 2])
            assert np.allclose(jac[:, i, j], direct[:, i], rtol=1e-13)


def test_pi_power_bookkeeping(exact):
    # f = -curl(laplacian(curl u)) carries 5 derivatives of phi
    assert exact.phi.pi_power == 0
    assert exact.u.pi_power == 1
    assert exact.f.pi_power == 5
    assert math.isfinite(float(exact.f_value(np.array([[0.3, 0.4, 0.6]]))[0, 0]))


def _grid_axes():
    rng = np.random.default_rng(7)
    return rng.uniform(0, 1, 5), rng.uniform(0, 1, 4), rng.uniform(0, 1, 6)


def test_grid_values_match_pointwise_methods(exact):
    x, y, z = _grid_axes()
    pts = np.stack(np.meshgrid(x, y, z, indexing="ij"), axis=-1)
    # the error fields factored over x, in ErrorTriple column order
    X, E = exact.x_factored(x, y, z)
    assert X.shape == (len(x), len(E))
    got = np.tensordot(X, E, axes=(1, 0))
    want = np.concatenate([exact.grad_curl_u_value(pts).reshape(pts.shape[:3]
                                                                + (9,)),
                           exact.curl_u_value(pts), exact.u_value(pts)],
                          axis=-1)
    assert got.shape == want.shape
    for c in range(want.shape[-1]):
        assert np.abs(got[..., c] - want[..., c]).max() \
            <= 1e-14 * np.abs(want[..., c]).max()
    # a column's factor written into a given array is the same, bitwise
    out = np.empty(E[..., 9:12].shape)
    exact.x_factored(x, y, z, slice(9, 12), out=out)
    assert np.array_equal(out, E[..., 9:12])
    # the load through the same kernel, factored over x
    X = np.meshgrid(x, y, z, indexing="ij")
    got = np.tensordot(*mms.factored(exact.f.scaled(), x, y, z), axes=1)
    want = exact.f(*X)
    assert got.shape == want.shape
    for c in range(3):
        assert np.abs(got[..., c] - want[..., c]).max() \
            <= 1e-14 * np.abs(want[..., c]).max()
    # the interpolation protocol: one component on the grid
    for c in range(3):
        for got, want in ((exact.value(c, x, y, z), exact.u(*X)[..., c]),
                          (exact.curl_value(c, x, y, z),
                           exact.curl_u(*X)[..., c]),
                          (exact.curl_d2(c, x, y, z),
                           exact.curl_u_d2[c](*X)[..., 0])):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_u_matches_direct_formula(exact):
    # interior values of both evaluators against sin/cos products taken
    # straight from u = curl (0, 0, phi), outside the series algebra
    pts = np.random.default_rng(9).uniform(0.05, 0.95, (50, 3))
    want = _u_direct(pts)
    assert np.abs(exact.u_value(pts) - want).max() \
        <= 1e-14 * np.abs(want).max()
    x, y, z = _grid_axes()
    want = _u_direct(np.stack(np.meshgrid(x, y, z, indexing="ij"), axis=-1))
    X, E = exact.x_factored(x, y, z)
    assert np.abs(np.tensordot(X, E[..., 12:], axes=(1, 0)) - want).max() \
        <= 1e-14 * np.abs(want).max()


def test_curl_d2_matches_fd_of_grad_curl(exact):
    # the in-plane second partials I_h reads, on a grid, against an
    # 8th-order central difference of the diagonal of grad curl u along the
    # same axis
    from quadcurl.checks import _fd_weights
    rng = np.random.default_rng(8)
    axes = [rng.uniform(0.1, 0.9, k) for k in (4, 3, 5)]
    dt = 0.01
    offs, w = _fd_weights(1, 9)
    for axis in range(3):
        fd = 0.0
        for o, wi in zip(offs, w):
            shifted = list(axes)
            shifted[axis] = axes[axis] + o * dt
            pts = np.stack(np.meshgrid(*shifted, indexing="ij"), axis=-1)
            fd = fd + wi * exact.grad_curl_u_value(pts)[..., axis, axis]
        fd /= dt
        got = exact.curl_d2(axis, *axes)
        assert got.shape == fd.shape
        assert np.abs(got - fd).max() / np.abs(got).max() < 1e-8
