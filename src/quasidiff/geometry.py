"""Small geometric helpers shared by the point-set and metric layers.

Conventions used everywhere in this package:

* points are float64 arrays of shape (n, d), held in strictly increasing
  lexicographic order (first coordinate is the primary key);
* balls are closed and centred at the origin unless stated otherwise, and
  membership tests compare squared norms so integer-valued coordinates are
  classified exactly;
* windows are cut with :func:`window_mask` and guarded by
  :func:`require_extent`, so every module agrees on which boundary points
  belong to a window and on how far a declared extent may be stretched;
* :func:`nearest` is the one nearest-neighbour primitive: exact Euclidean
  distances plus the index of the target attaining them.  The 1-d path is
  one vectorised binary search over the sorted target coordinates; higher
  dimensions make one scipy cKDTree query.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .errors import InsufficientExtentError, InvalidArgumentError

__all__ = [
    "as_points",
    "lex_sort",
    "lex_sorted_strictly",
    "sq_norms",
    "window_mask",
    "require_extent",
    "min_pairwise_gap",
    "nearest",
    "ball_volume",
]


def as_points(points, dim: int | None = None) -> np.ndarray:
    """Coerce input to a float64 (n, d) array without copying when possible."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2:
        raise InvalidArgumentError(f"points must be 2-dimensional, got shape {pts.shape}")
    if dim is not None and pts.shape[1] != dim:
        raise InvalidArgumentError(f"expected dimension {dim}, got {pts.shape[1]}")
    return pts


def lex_sort(points: np.ndarray) -> np.ndarray:
    """Return a copy sorted lexicographically (first coordinate primary)."""
    pts = as_points(points)
    if len(pts) == 0:
        return pts.copy()
    order = np.lexsort(pts.T[::-1])
    return pts[order]


def lex_sorted_strictly(points: np.ndarray) -> tuple[bool, bool]:
    """Check lexicographic order; returns (is_sorted, has_duplicates)."""
    pts = as_points(points)
    if len(pts) < 2:
        return True, False
    a, b = pts[:-1], pts[1:]
    # first coordinate where consecutive rows differ decides the order
    neq = a != b
    any_neq = neq.any(axis=1)
    has_dup = bool((~any_neq).any())
    first = np.argmax(neq, axis=1)
    rows = np.arange(len(a))
    ordered = np.where(any_neq, a[rows, first] < b[rows, first], True)
    return bool(ordered.all()), has_dup


def sq_norms(points: np.ndarray) -> np.ndarray:
    pts = as_points(points)
    return np.einsum("ij,ij->i", pts, pts)


def window_mask(points: np.ndarray, radius: float) -> np.ndarray:
    """Boolean mask of points inside the closed origin ball of given radius."""
    return sq_norms(points) <= radius * radius


def require_extent(radius: float, extent: float, what: str) -> None:
    """Refuse a window radius that is not a positive finite number, or that
    lies beyond the extent the data covers (1e-12 relative slack)."""
    if not (0 < radius < np.inf):
        raise InvalidArgumentError(f"{what} must be a positive finite number, got {radius!r}")
    if radius > extent * (1.0 + 1e-12):
        raise InsufficientExtentError(
            f"{what} {radius!r} exceeds the available extent {extent!r}"
        )


def min_pairwise_gap(points: np.ndarray) -> float:
    """Exact minimum pairwise Euclidean distance; +inf for < 2 points."""
    pts = as_points(points)
    n, d = pts.shape
    if n < 2:
        return float("inf")
    if d == 1:
        x = np.sort(pts[:, 0])
        return float(np.min(np.diff(x)))
    tree = cKDTree(pts)
    dist, _ = tree.query(pts, k=2)
    return float(np.min(dist[:, 1]))


def nearest(queries: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each query point to its nearest target, and that target's index.

    With no targets every distance is +inf and every index is ``len(targets)``
    (scipy's marker for a missing neighbour).  In 1-d an exact tie between the
    left and right neighbours resolves to the right one.
    """
    q = as_points(queries)
    t = as_points(targets)
    if len(q) == 0:
        return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.intp)
    if len(t) == 0:
        return np.full(len(q), np.inf), np.full(len(q), len(t), dtype=np.intp)
    if q.shape[1] != t.shape[1]:
        raise InvalidArgumentError("dimension mismatch in nearest")
    if q.shape[1] == 1:
        order = np.argsort(t[:, 0], kind="stable")
        ts = t[order, 0]
        x = q[:, 0]
        idx = np.searchsorted(ts, x)
        left = np.clip(idx - 1, 0, len(ts) - 1)
        right = np.clip(idx, 0, len(ts) - 1)
        d_left, d_right = np.abs(x - ts[left]), np.abs(x - ts[right])
        return np.minimum(d_left, d_right), order[np.where(d_right <= d_left, right, left)]
    dist, index = cKDTree(t).query(q, k=1)
    return np.asarray(dist, dtype=np.float64), np.asarray(index, dtype=np.intp)


_UNIT_BALL_VOL = {0: 1.0}


def ball_volume(dim: int, radius: float = 1.0) -> float:
    """Lebesgue volume of the d-ball, via the even/odd closed forms."""
    if dim < 0:
        raise InvalidArgumentError("dimension must be nonnegative")
    if dim not in _UNIT_BALL_VOL:
        # omega_d = pi^{d/2} / Gamma(d/2 + 1)
        from math import gamma, pi

        _UNIT_BALL_VOL[dim] = pi ** (dim / 2) / gamma(dim / 2 + 1)
    return _UNIT_BALL_VOL[dim] * float(radius) ** dim
