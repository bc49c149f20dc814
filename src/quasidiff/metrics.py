"""Distances between uniformly discrete point sets seen through finite windows.

All comparisons happen on centered closed balls ("windows") of radii taken
from an explicit :class:`LGrid`; the grid is the finite surrogate for the
supremum over all window sizes that the underlying definitions use, and its
lower end is a real modelling choice (a lone mismatched point close to the
origin dominates small windows because the distance to an empty window is
+infinity), so ``l_min`` is a visible field rather than a constant.

Conventions, applied uniformly and without floating-point slack:

* a point of one set is *mismatched* at scale ``eps`` when its Euclidean
  distance to the other set's window is >= eps (ties mismatch),
* windows are closed (points at exactly the radius belong to the window)
  and every windowed count compares squared norms with squared radii, the
  test of :func:`~quasidiff.geometry.window_mask`,
* every operation is symmetric in its two operands by construction, and
  comparing a set against an equal set returns exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidArgumentError
from .pointset import PointSet
from .geometry import as_points, nearest, require_extent, sq_norms, window_mask

__all__ = [
    "LGrid",
    "MetricResult",
    "mismatch_sets",
    "ratio_sup",
    "rho_stat",
    "hausdorff_distance",
    "rho_gh",
    "rho_aut",
]


@dataclass(frozen=True)
class LGrid:
    """Strictly increasing window radii over which suprema are taken."""

    values: tuple[float, ...]
    l_min: float = 1.0

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise InvalidArgumentError("LGrid needs at least one radius")
        arr = np.asarray(vals)
        if not ((arr > 0).all() and (np.diff(arr) > 0).all()):
            raise InvalidArgumentError("LGrid radii must be positive and strictly increasing")
        if vals[0] < self.l_min - 1e-12:
            raise InvalidArgumentError(f"smallest radius {vals[0]!r} below l_min={self.l_min!r}")

    @classmethod
    def integers(cls, hi: int, lo: int = 1) -> "LGrid":
        if hi < lo:
            raise InvalidArgumentError("need hi >= lo")
        return cls(tuple(float(v) for v in range(lo, hi + 1)), l_min=float(lo))

    def require_within(self, *sets: PointSet) -> None:
        require_extent(self.values[-1], min(s.extent for s in sets), "grid radius")

    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


@dataclass(frozen=True)
class MetricResult:
    """Outcome of a window-based distance computation.

    ``capped`` means the defining search was cut off at its ceiling (half the
    separation radius, or 1/4 for the window-alignment distance) and the
    ceiling itself is reported.  ``trend`` carries the tail monotonicity flag
    of the tail variant of the density distance; it is None elsewhere.
    """

    value: float
    attained_L: float | None = None
    attained_eps: float | None = None
    capped: bool = False
    trend: str | None = None

    def __post_init__(self):
        if self.value < 0:
            raise InvalidArgumentError("metric values are nonnegative")


# ---------------------------------------------------------------------------
# mismatch machinery


def _close_pairs(a: np.ndarray, b: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) with ``b[j]`` strictly within ``eps`` of ``a[i]``.

    Candidates come from two binary searches on the sorted coordinates in
    1-d and from one dual-tree enumeration in higher dimensions; every
    candidate is then decided by the same Euclidean comparison, which is
    symmetric in a and b, so one enumeration serves both directions.
    """
    if len(a) == 0 or len(b) == 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    if a.shape[1] == 1:
        # the closed interval [a - eps, a + eps] holds every pair that passes
        # the comparison below, whichever way a +- eps rounds
        t, q = b[:, 0], a[:, 0]
        lo = np.searchsorted(t, q - eps, side="left")
        n = np.searchsorted(t, q + eps, side="right") - lo
        i = np.repeat(np.arange(len(a)), n)
        j = np.arange(len(i)) + np.repeat(lo - (np.cumsum(n) - n), n)
    else:
        cand = cKDTree(a).sparse_distance_matrix(cKDTree(b), eps, output_type="ndarray")
        i, j = cand["i"], cand["j"]
    strict = np.sqrt(sq_norms(b[j] - a[i])) < eps
    return i[strict], j[strict]


def _mismatch_counts(
    own_sq: np.ndarray, owner: np.ndarray, partner_sq: np.ndarray, radii: np.ndarray
) -> np.ndarray:
    """Per radius, the points of one set inside the window with no close
    partner inside it.

    ``own_sq`` holds the squared norms of the set's points, ``owner[k]`` is the
    point of the close pair k and ``partner_sq[k]`` the squared norm of its
    partner.  A point is matched in the radius-L window exactly when
    max(own squared norm, smallest partner squared norm) <= L*L, the test of
    :func:`window_mask`, so each count is two sorted-array lookups.
    """
    reach = np.full(len(own_sq), np.inf)
    np.minimum.at(reach, owner, partner_sq)
    r2 = radii * radii
    inside = np.searchsorted(np.sort(own_sq), r2, side="right")
    matched = np.searchsorted(np.sort(np.maximum(own_sq, reach)), r2, side="right")
    return inside - matched


def _check_pair(x: PointSet, y: PointSet) -> None:
    if x.dim != y.dim:
        raise InvalidArgumentError("operands must share a dimension")


def mismatch_sets(x: PointSet, y: PointSet, radius: float, eps: float):
    """Points of each radius-window at distance >= eps from the other window.

    Returns the pair of point arrays (mismatches of x against y, and of y
    against x).  The distance to an empty window is +infinity, so against an
    empty window every point is mismatched.
    """
    _check_pair(x, y)
    if not (eps > 0):
        raise InvalidArgumentError("eps must be positive")
    require_extent(radius, min(x.extent, y.extent), "window radius")

    def side(a: PointSet, b: PointSet) -> np.ndarray:
        pa = a.points[window_mask(a.points, radius)]
        pb = b.points[window_mask(b.points, radius)]
        return pa[nearest(pa, pb)[0] >= eps]

    return side(x, y), side(y, x)


def ratio_sup(
    x: PointSet, y: PointSet, eps: float, exponent: float, grid: LGrid
) -> MetricResult:
    """Largest normalized mismatch count over the grid: max_L (#A + #B) / L^exponent.

    ``exponent`` is absolute: pass the dimension d for the plain density
    normalization, d/2 for the square-root variant used by the defect-decay
    scenario.
    """
    _check_pair(x, y)
    if not (eps > 0):
        raise InvalidArgumentError("eps must be positive")
    if not (0 < exponent <= x.dim):
        raise InvalidArgumentError("exponent must lie in (0, dim]")
    grid.require_within(x, y)
    radii = grid.array()
    nx, ny = sq_norms(x.points), sq_norms(y.points)
    i, j = _close_pairs(x.points, y.points, eps)
    total = _mismatch_counts(nx, i, ny[j], radii) + _mismatch_counts(ny, j, nx[i], radii)
    ratios = total / radii**exponent
    best = int(np.argmax(ratios))  # first maximizer -> deterministic attained_L
    return MetricResult(
        value=float(ratios[best]),
        attained_L=float(radii[best]),
        attained_eps=float(eps),
    )


def rho_stat(
    x: PointSet,
    y: PointSet,
    grid: LGrid,
    exponent: float | None = None,
    eps_tol: float = 1e-6,
) -> MetricResult:
    """Statistical window distance: the smallest eps whose normalized mismatch
    ratio falls below eps, capped at half the separation radius.

    The mismatch ratio is nonincreasing in eps, so the feasibility predicate
    ``ratio(eps) < eps`` is monotone and bisection to ``eps_tol`` is exact up
    to the tolerance.  The reported value is the smallest *verified feasible*
    eps, hence an upper bound within eps_tol of the infimum.
    """
    _check_pair(x, y)
    if not (eps_tol > 0):
        raise InvalidArgumentError("eps_tol must be positive")
    r0 = min(x.require_separation(), y.require_separation())
    if exponent is None:
        exponent = float(x.dim)
    if x == y:
        return MetricResult(0.0)
    grid.require_within(x, y)
    cap = r0 / 2.0

    def ratio_at(eps: float) -> MetricResult:
        return ratio_sup(x, y, eps, exponent, grid)

    top = ratio_at(cap)
    if not (top.value < cap):
        return MetricResult(cap, attained_L=top.attained_L, attained_eps=cap, capped=True)
    lo, hi, best = 0.0, cap, top
    while hi - lo > eps_tol:
        mid = 0.5 * (lo + hi)
        probe = ratio_at(mid)
        if probe.value < mid:
            hi, best = mid, probe
        else:
            lo = mid
    return MetricResult(hi, attained_L=best.attained_L, attained_eps=hi, capped=False)


# ---------------------------------------------------------------------------
# Hausdorff-type distances


def _directed_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    if len(a) == 0:
        return 0.0
    return float(nearest(a, b)[0].max())


def hausdorff_distance(a, b) -> float:
    """Hausdorff distance between two finite point collections.

    Both empty -> 0; exactly one empty -> +inf.  Inputs may be PointSets or
    bare (n, d) arrays.
    """
    pa, pb = (v.points if isinstance(v, PointSet) else as_points(v) for v in (a, b))
    return max(_directed_hausdorff(pa, pb), _directed_hausdorff(pb, pa))


def rho_gh(x: PointSet, y: PointSet, eps_tol: float = 1e-4) -> MetricResult:
    """Window-alignment distance: smallest eps with d_H of the 1/eps windows <= eps.

    Feasibility is *not* monotone in eps (growing eps loosens the Hausdorff
    bound but widens the window), so the whole grid eps = eps_tol, 2*eps_tol,
    ... up to 1/4 is scanned in order and the first feasible value returned;
    1/4 with the capped flag if none is.  The smallest scanned eps needs a
    window of radius 1/eps_tol, so both extents must reach that far.
    """
    _check_pair(x, y)
    if not (eps_tol > 0):
        raise InvalidArgumentError("eps_tol must be positive")
    if x == y:
        return MetricResult(0.0)
    require_extent(1.0 / eps_tol, min(x.extent, y.extent), "scan start radius 1/eps_tol")
    # each window is a prefix of the points in order of norm
    nx, ny = sq_norms(x.points), sq_norms(y.points)
    ox, oy = np.argsort(nx, kind="stable"), np.argsort(ny, kind="stable")
    px, sx = x.points[ox], nx[ox]
    py, sy = y.points[oy], ny[oy]
    steps = int(math.floor(0.25 / eps_tol + 1e-9))
    for k in range(1, steps + 1):
        eps = k * eps_tol
        radius = 1.0 / eps
        r2 = radius * radius
        wa = px[: np.searchsorted(sx, r2, side="right")]
        wb = py[: np.searchsorted(sy, r2, side="right")]
        if hausdorff_distance(wa, wb) <= eps:
            return MetricResult(eps, attained_L=radius, attained_eps=eps)
    return MetricResult(0.25, capped=True)


# ---------------------------------------------------------------------------
# symmetric-difference density distance


def _common_sq_norms(x: PointSet, y: PointSet) -> np.ndarray:
    """Sorted squared norms of points present (exactly) in both sets."""
    both = np.concatenate([x.points, y.points])
    order = np.lexsort(both.T[::-1])
    both = both[order]
    same = np.all(both[1:] == both[:-1], axis=1) if len(both) > 1 else np.zeros(0, bool)
    return np.sort(sq_norms(both[:-1][same]))


def rho_aut(
    x: PointSet,
    y: PointSet,
    grid: LGrid,
    mode: str = "sup",
    tail_start: float | None = None,
) -> MetricResult:
    """Symmetric-difference density over windows: max_L #(X_L xor Y_L) / L^d.

    mode "sup" takes the grid as is; mode "tail_limsup" restricts to grid
    radii >= tail_start and additionally reports whether the ratio is
    decreasing, increasing or flat between the first and last tail radii —
    the finite stand-in for a limsup as the window grows.
    """
    _check_pair(x, y)
    if mode not in ("sup", "tail_limsup"):
        raise InvalidArgumentError("mode must be 'sup' or 'tail_limsup'")
    grid.require_within(x, y)
    radii = grid.array()
    if mode == "tail_limsup":
        if tail_start is None:
            raise InvalidArgumentError("tail_limsup mode needs tail_start")
        radii = radii[radii >= tail_start - 1e-12]
        if len(radii) == 0:
            raise InvalidArgumentError("no grid radii at or beyond tail_start")
    if x == y:
        return MetricResult(0.0, trend="flat" if mode == "tail_limsup" else None)
    r2 = radii * radii
    n_x = np.searchsorted(np.sort(sq_norms(x.points)), r2, side="right")
    n_y = np.searchsorted(np.sort(sq_norms(y.points)), r2, side="right")
    n_c = np.searchsorted(_common_sq_norms(x, y), r2, side="right")
    ratios = (n_x + n_y - 2 * n_c) / radii**x.dim
    best = int(np.argmax(ratios))
    trend = None
    if mode == "tail_limsup":
        first, last = ratios[0], ratios[-1]
        trend = "decreasing" if last < first - 1e-12 else ("increasing" if last > first + 1e-12 else "flat")
    return MetricResult(
        value=float(ratios[best]),
        attained_L=float(radii[best]),
        trend=trend,
    )
