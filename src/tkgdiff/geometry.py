"""Distances in the Poincare ball and Euclidean space, with boundary safeguards.

Points are rows of 2-D tensors. The ball keeps a margin below the unit sphere
so the distance denominator (1 - |x|^2) never collapses; the distance gradient
at coincident points is defined as zero.

Both distances are functions of the all-pairs squared difference |a_i - b_j|^2,
so `pairwise_sqdist` computes it once, as |a|^2 + |b|^2 - 2 a.b with one
matrix product over the distinct rows of `a` (scoring passes one subject row
per query, and a few subjects make most queries), and `euclidean_from_sqdist`
/ `poincare_from_sqdist` derive either distance from it. The expansion's
error is a few ulps of |a|^2 + |b|^2, large only relative to close pairs,
whose distance the ball divides by (1 - |a|^2)(1 - |b|^2) and magnifies near
the boundary. So every entry at or below CLOSE * (|a|^2 + |b|^2) is
recomputed from its explicit difference: the rest keep a relative error of a
few ulps / CLOSE, no entry is negative, and identical rows give exactly 0,
where numkit's sqrt and acosh pass a zero gradient: neither distance clamps.
"""

from __future__ import annotations

import numpy as np

from . import numkit as nk
from .errors import DimensionError
from .numkit import Tensor

BALL_MARGIN = 1e-5  # rows are kept at norm <= 1 - BALL_MARGIN
CLOSE = 1e-6  # entries at or below CLOSE * (|a|^2 + |b|^2) are recomputed exactly
RECOMPUTE_BYTES = 1 << 20  # bytes of the (pairs, d) difference block of the recompute

__all__ = [
    "BALL_MARGIN", "CLOSE", "RECOMPUTE_BYTES", "project_array_to_ball",
    "pairwise_sqdist", "euclidean_from_sqdist", "poincare_from_sqdist",
    "poincare_pairwise", "euclidean_pairwise",
]


# rescaled rows land a hair inside the margin so re-projection is an exact no-op
_TARGET = (1.0 - BALL_MARGIN) * (1.0 - 1e-12)


def project_array_to_ball(x: np.ndarray) -> np.ndarray:
    """Plain-array projection of the rows of a 2-D array: rows with norm
    >= 1 - margin rescale onto it."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    limit = 1.0 - BALL_MARGIN
    factor = np.where(norms >= limit, _TARGET / np.maximum(norms, limit), 1.0)
    return x * factor


def _check_inside(rows: Tensor, name: str) -> None:
    norms = np.linalg.norm(rows.data, axis=1)
    if np.any(norms > 1.0 - BALL_MARGIN):
        raise ValueError(f"{name} has rows outside the unit ball less its margin "
                         f"(max norm {norms.max():.6f} > 1 - {BALL_MARGIN:g}); "
                         "keep them inside with project_array_to_ball")


def _row_sqnorm(x: Tensor) -> Tensor:
    return nk.sum_cols(nk.mul(x, x))


def _sqdist_rows(ad: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """|a_i - b_j|^2 for every row of `ad` against every row of `bd`, shape
    (m, n): the expansion, with the close pairs recomputed from differences
    in chunks whose (pairs, d) block fits RECOMPUTE_BYTES: where the rows of
    `ad` and `bd` all coincide, every pair is close."""
    scale = np.add.outer(np.einsum("ij,ij->i", ad, ad), np.einsum("ij,ij->i", bd, bd))
    out = ad @ bd.T
    out *= -2.0
    out += scale
    scale *= CLOSE
    close = np.flatnonzero(out <= scale)
    i, j = np.divmod(close, out.shape[1])
    chunk = max(1, RECOMPUTE_BYTES // (8 * max(ad.shape[1], 1)))
    for k in range(0, close.size, chunk):
        diff = np.subtract(ad[i[k:k + chunk]], bd[j[k:k + chunk]])
        np.put(out, close[k:k + chunk], np.einsum("ij,ij->i", diff, diff))
    return out


def pairwise_sqdist(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs |a_i - b_j|^2, shape (m, n); taped.

    One expansion row per distinct row of `a`, which repeated rows share,
    with the close pairs recomputed exactly (the module docstring says why):
    no entry is negative and identical rows give 0. The closed-form backward
    never materializes the (m, n, d) difference block and uses every row of
    `a`.
    """
    if a.shape[1] != b.shape[1]:
        raise DimensionError(f"point dimensions differ: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    rows, inverse = np.unique(ad, axis=0, return_inverse=True)
    # numpy 2.0.x returns the inverse with a trailing axis
    result = nk._result(_sqdist_rows(rows, bd)[inverse.reshape(-1)], "pairwise_sqdist")

    def backward(g):
        row = g.sum(axis=1, keepdims=True)
        col = g.sum(axis=0)[:, None]
        ga = 2.0 * (row * ad - g @ bd)
        gb = 2.0 * (col * bd - g.T @ ad)
        return ga, gb

    return nk._tape_record(result, (a, b), backward)


def euclidean_from_sqdist(sqdist: Tensor) -> Tensor:
    """L2 distances from `sqdist = pairwise_sqdist(a, b)`; taped. Its entries
    are never negative and identical rows give +0, where sqrt's gradient is
    0 (numkit.sqrt), so no clamp is needed."""
    return nk.sqrt(sqdist)


def poincare_from_sqdist(sqdist: Tensor, a: Tensor, b: Tensor) -> Tensor:
    """Ball distances from `sqdist = pairwise_sqdist(a, b)`; taped. Rows of
    `a` and `b` must have norm <= 1 - BALL_MARGIN (ValueError otherwise)."""
    if sqdist.shape != (a.shape[0], b.shape[0]):
        raise DimensionError(f"squared distances {sqdist.shape} do not pair "
                             f"{a.shape} with {b.shape}")
    _check_inside(a, "first argument")
    _check_inside(b, "second argument")
    one = nk.constant(1.0)
    na = nk.sub(one, _row_sqnorm(a))                 # (m, 1)
    nb = nk.transpose(nk.sub(one, _row_sqnorm(b)))   # (1, n)
    arg = nk.add(one, nk.mul(nk.constant(2.0), nk.div(sqdist, nk.mul(na, nb))))
    return nk.acosh(arg)


def euclidean_pairwise(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs L2 distances, shape (m, n); taped."""
    return euclidean_from_sqdist(pairwise_sqdist(a, b))


def poincare_pairwise(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs ball distances, shape (m, n); taped. Rows must be inside the ball."""
    return poincare_from_sqdist(pairwise_sqdist(a, b), a, b)
