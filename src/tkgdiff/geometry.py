"""Distances in the Poincare ball and Euclidean space, with boundary safeguards.

Points are rows of 2-D arrays. The ball keeps a margin below the unit sphere
so the distance denominator (1 - |x|^2) never collapses; the distance gradient
at coincident points is defined as zero.

Both distances are functions of the all-pairs squared difference |a_i - b_j|^2,
so `pairwise_sqdist` computes it once, as |a|^2 + |b|^2 - 2 a.b with one
matrix product over the distinct rows of `a` (scoring passes one subject row
per query, and a few subjects make most queries), and `distance` derives
either kind from it, with the closed-form backward that a caller chains into
its own (dpcl's fused scoring record). The expansion's error is a few ulps of
|a|^2 + |b|^2, large only relative to close pairs, whose distance the ball
divides by (1 - |a|^2)(1 - |b|^2) and magnifies near the boundary. So every
entry at or below CLOSE * (|a|^2 + |b|^2) is recomputed from its explicit
difference: the rest keep a relative error of a few ulps / CLOSE, no entry is
negative, and identical rows give exactly 0, where `distance` passes a zero
gradient: neither distance clamps. The Gram form of the gradient cancels
the same way, so `pairwise_sqdist` also returns the recomputed pairs that
are not 0, whose gradient a caller forms from their explicit differences.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DimensionError

BALL_MARGIN = 1e-5  # rows are kept at norm <= 1 - BALL_MARGIN
CLOSE = 1e-6  # entries at or below CLOSE * (|a|^2 + |b|^2) are recomputed exactly
RECOMPUTE_BYTES = 1 << 20  # bytes of the (pairs, d) difference block of the recompute

__all__ = [
    "BALL_MARGIN", "CLOSE", "RECOMPUTE_BYTES", "project_array_to_ball",
    "row_sqnorms", "ball_gap", "pairwise_sqdist", "distance",
]


# rescaled rows land a hair inside the margin so re-projection is an exact no-op
_TARGET = (1.0 - BALL_MARGIN) * (1.0 - 1e-12)


def project_array_to_ball(x: np.ndarray) -> np.ndarray:
    """Plain-array projection of the rows of a 2-D array: rows with norm
    >= 1 - margin rescale onto it. When no row reaches the margin, `x`
    itself is returned, uncopied."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    limit = 1.0 - BALL_MARGIN
    outside = norms >= limit
    if not outside.any():
        return x
    return x * np.where(outside, _TARGET / np.maximum(norms, limit), 1.0)


def row_sqnorms(x: np.ndarray) -> np.ndarray:
    """|x_i|^2 for each row of `x`, shape (m,)."""
    return np.einsum("ij,ij->i", x, x)


def ball_gap(sqnorms: np.ndarray, name: str) -> np.ndarray:
    """1 - |x_i|^2 for each row of an array `x`, from `sqnorms =
    row_sqnorms(x)`, as a column (m, 1). A row with norm above
    1 - BALL_MARGIN raises ValueError naming the array `name`: it is an
    error for a Poincare distance, not something scoring re-projects."""
    norms = np.sqrt(sqnorms)
    if np.any(norms > 1.0 - BALL_MARGIN):
        raise ValueError(f"{name} has rows outside the unit ball less its margin "
                         f"(max norm {norms.max():.6f} > 1 - {BALL_MARGIN:g}); "
                         "keep them inside with project_array_to_ball")
    return (1.0 - sqnorms)[:, None]


def _sqdist_rows(ad: np.ndarray, bd: np.ndarray,
                 bd_sqnorms: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """|a_i - b_j|^2 for every row of `ad` against every row of `bd`, shape
    (m, n): the expansion, with the close pairs recomputed from differences
    in chunks whose (pairs, d) block fits RECOMPUTE_BYTES: where the rows of
    `ad` and `bd` all coincide, every pair is close. Also returns the
    (row, column) indices of the recomputed pairs that are not 0."""
    scale = np.add.outer(row_sqnorms(ad), bd_sqnorms)
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
    apart = out[i, j] > 0.0
    return out, (i[apart], j[apart])


def pairwise_sqdist(a: np.ndarray, b: np.ndarray,
                    b_sqnorms: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """All-pairs |a_i - b_j|^2, shape (m, n), with `b_sqnorms =
    row_sqnorms(b)`, and the (row, column) indices of its close pairs that
    are not 0.

    One expansion row per distinct row of `a`, which repeated rows share,
    with the close pairs recomputed exactly (the module docstring says why):
    no entry is negative and identical rows give 0. Its gradient is
    2 (rowsum(g) a - g b) for `a` and 2 (colsum(g) b - g^T a) for `b`, which
    the caller forms with its own products, except at the close pairs: there
    the two terms cancel, and the caller forms 2 g_ij (a_i - b_j) instead.
    """
    if a.shape[1] != b.shape[1]:
        raise DimensionError(f"point dimensions differ: {a.shape} vs {b.shape}")
    rows, inverse = np.unique(a, axis=0, return_inverse=True)
    # numpy 2.0.x returns the inverse with a trailing axis
    inverse = inverse.reshape(-1)
    sqdist, (close_rows, close_cols) = _sqdist_rows(rows, b, b_sqnorms)
    # every row of `a` whose distinct row has a close pair has that pair
    i, k = np.nonzero(inverse[:, None] == close_rows)
    return sqdist[inverse], (i, close_cols[k])


def distance(kind: str, sqdist: np.ndarray, gap_a,
             gap_b) -> tuple[np.ndarray, Callable[[np.ndarray], tuple]]:
    """The (m, n) distances of `kind` from the squared distances `sqdist`
    that pairwise_sqdist(a, b, ...) gives, and their backward.

    "euclidean" is sqrt(sqdist). "poincare" is 2 asinh(sqrt(q)) with
    q = sqdist / (gap_a gap_b), gap_a the ball_gap of `a`'s rows (m, 1) and
    gap_b that of `b`'s, transposed (1, n); Euclidean distances ignore the
    gaps. It equals arcosh(1 + 2 q) (cosh 2y = 1 + 2 sinh^2 y), which keeps
    few of q's digits where q is small: about 8 of 16 at q = 1e-8, and none
    for rows 1e-13 apart at the margin.
    `backward(g)` maps the gradient of the distances to those of sqdist,
    gap_a and gap_b (None and None for Euclidean). Where sqdist is 0, at
    identical rows, the distance is 0 and passes a zero gradient.
    """
    if kind == "euclidean":
        dist = np.sqrt(sqdist)

        def backward(g):
            g_sq = np.divide(g, dist, out=np.zeros_like(g), where=dist > 0.0)
            g_sq *= 0.5
            return g_sq, None, None

        return dist, backward
    den = gap_a * gap_b
    quot = sqdist / den
    root = np.sqrt(quot)
    dist = np.arcsinh(root)
    dist *= 2.0

    def backward(g):
        # d dist / d quot = 1 / sqrt(quot (1 + quot))
        slope = np.sqrt(1.0 + quot)
        slope *= root
        g_quot = np.divide(g, slope, out=np.zeros_like(g), where=root > 0.0)
        g_sq = g_quot / den
        # quot = sqdist / (gap_a gap_b): d quot / d gap_a = -quot / gap_a
        g_quot *= quot
        return (g_sq, -g_quot.sum(axis=1, keepdims=True) / gap_a,
                -g_quot.sum(axis=0, keepdims=True) / gap_b)

    return dist, backward
