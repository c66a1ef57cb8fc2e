"""Distances in the Poincare ball and Euclidean space, with boundary safeguards.

Points are rows of 2-D tensors. The ball keeps a margin below the unit sphere
so the distance denominator (1 - |x|^2) never collapses; the distance gradient
at coincident points is defined as zero.
"""

from __future__ import annotations

import numpy as np

from . import numkit as nk
from .errors import DimensionError
from .numkit import Tensor

BALL_MARGIN = 1e-5  # rows are kept at norm <= 1 - BALL_MARGIN

__all__ = [
    "BALL_MARGIN", "project_to_ball", "project_array_to_ball",
    "poincare_pairwise", "euclidean_pairwise",
]


# rescaled rows land a hair inside the margin so re-projection is an exact no-op
_TARGET = (1.0 - BALL_MARGIN) * (1.0 - 1e-12)


def project_array_to_ball(x: np.ndarray) -> np.ndarray:
    """Plain-array projection: rows with norm >= 1 - margin rescale onto it."""
    arr = np.asarray(x, dtype=np.float64)
    vec_in = arr.ndim == 1
    rows = arr.reshape(1, -1) if vec_in else arr
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    limit = 1.0 - BALL_MARGIN
    factor = np.where(norms >= limit, _TARGET / np.maximum(norms, limit), 1.0)
    out = rows * factor
    return out[0] if vec_in else out


def project_to_ball(x: Tensor) -> Tensor:
    """Taped projection of each row into the ball (identity for interior rows)."""
    rows = x.data
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    limit = 1.0 - BALL_MARGIN
    scaled = norms >= limit
    factor = np.where(scaled, _TARGET / np.maximum(norms, limit), 1.0)
    out = Tensor(rows * factor, copy=False)

    def backward(g):
        if not scaled.any():
            return (g,)
        # for rescaled rows y = c v/|v|: J^T g = (c/|v|) (g - v_hat (v_hat . g))
        safe = np.maximum(norms, limit)
        unit = rows / safe
        radial = (unit * g).sum(axis=1, keepdims=True)
        g_scaled = (_TARGET / safe) * (g - unit * radial)
        return (np.where(scaled, g_scaled, g),)

    return nk._tape_record(out, (x,), backward)


def _check_inside(rows: Tensor, name: str) -> None:
    norms = np.linalg.norm(rows.data, axis=1)
    if np.any(norms >= 1.0):
        raise ValueError(f"{name} has rows outside the unit ball (max norm {norms.max():.6f}); "
                         "project_to_ball first")


def _row_sqnorm(x: Tensor) -> Tensor:
    return nk.sum_cols(nk.mul(x, x))


_CHUNK = 512  # bounds the (m, chunk, d) difference block


def _pairwise_sqdist(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs |a_i - b_j|^2 via explicit differences (the inner-product
    expansion loses ~8 digits to cancellation); taped with a closed-form
    backward that never materializes the (m, n, d) block."""
    ad, bd = a.data, b.data
    m, n = ad.shape[0], bd.shape[0]
    out = np.empty((m, n))
    for j0 in range(0, n, _CHUNK):
        block = bd[j0:j0 + _CHUNK]
        diff = ad[:, None, :] - block[None, :, :]
        out[:, j0:j0 + _CHUNK] = np.einsum("ijk,ijk->ij", diff, diff)
    result = Tensor(out, copy=False)

    def backward(g):
        row = g.sum(axis=1, keepdims=True)
        col = g.sum(axis=0)[:, None]
        ga = 2.0 * (row * ad - g @ bd)
        gb = 2.0 * (col * bd - g.T @ ad)
        return ga, gb

    return nk._tape_record(result, (a, b), backward)


def euclidean_pairwise(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs L2 distances, shape (m, n); taped."""
    if a.shape[1] != b.shape[1]:
        raise DimensionError(f"point dimensions differ: {a.shape} vs {b.shape}")
    return nk.sqrt(nk.clamp_min(_pairwise_sqdist(a, b), 0.0))


def poincare_pairwise(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs ball distances, shape (m, n); taped. Rows must be inside the ball."""
    if a.shape[1] != b.shape[1]:
        raise DimensionError(f"point dimensions differ: {a.shape} vs {b.shape}")
    _check_inside(a, "first argument")
    _check_inside(b, "second argument")
    one = nk.constant(1.0)
    na = nk.sub(one, _row_sqnorm(a))                 # (m, 1)
    nb = nk.transpose(nk.sub(one, _row_sqnorm(b)))   # (1, n)
    arg = nk.add(one, nk.mul(nk.constant(2.0),
                             nk.div(_pairwise_sqdist(a, b), nk.mul(na, nb))))
    return nk.acosh(arg)
