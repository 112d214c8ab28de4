"""Dense oracles that only the tests read: tensor Gauss rules on boxes and the
dual tables of a reference space at arbitrary points."""

import numpy as np

from quadcurl.polyquad import gauss_rule
from quadcurl.spaces import AXIS_DEGREE, factored_table

REFERENCE_CELL = ((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))


def gauss_box(q, lo=REFERENCE_CELL[0], hi=REFERENCE_CELL[1]):
    """Tensor Gauss rule of order q on a box: points (q^3, 3), weights
    (q^3,)."""
    axes = [gauss_rule(q).interval(lo[i], hi[i]) for i in range(3)]
    P = np.stack(np.meshgrid(axes[0][0], axes[1][0], axes[2][0], indexing="ij"),
                 axis=-1).reshape(-1, 3)
    W = (axes[0][1][:, None, None] * axes[1][1][None, :, None]
         * axes[2][1][None, None, :]).reshape(-1)
    return P, W


def _dense_table(space, pts, col):
    """Column ``col`` of every dual at reference points: (ndof, npts, K)."""
    x, y, z = (pts[:, a, None] ** np.arange(AXIS_DEGREE + 1) for a in range(3))
    return np.einsum("abjck,pa,pb,pc->jpk", factored_table(space)[col],
                     x, y, z, optimize=True)


def dual_value_table(space, pts):
    """Values of all dual fields at reference points: (ndof, npts, 3)."""
    return _dense_table(space, pts, 2)


def dual_curl_table(space, pts):
    return _dense_table(space, pts, 1)


def dual_gradcurl_table(space, pts):
    """Jacobians of the curls of all duals: (ndof, npts, 3, 3); entry
    [..., i, j] is d(curl f)_i / d x_j."""
    return _dense_table(space, pts, 0).reshape(space.dim, len(pts), 3, 3)
