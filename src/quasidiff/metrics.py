"""Distances between uniformly discrete point sets seen through finite windows.

All comparisons happen on centered closed balls ("windows") of radii taken
from an explicit :class:`LGrid`; the grid is the finite surrogate for the
supremum over all window sizes that the underlying definitions use, and its
smallest radius is a real modelling choice (a lone mismatched point close to
the origin dominates small windows because the distance to an empty window
is +infinity), made by whoever builds the grid.

Conventions, applied uniformly and without floating-point slack:

* a point of one set is *mismatched* at scale ``eps`` when its Euclidean
  distance to the other set's window is >= eps (ties mismatch),
* windows are closed (points at exactly the radius belong to the window)
  and every windowed count compares squared norms with squared radii, the
  test of :func:`~quasidiff.geometry.window_mask`,
* every operation is symmetric in its two operands by construction, and
  comparing a set against an equal set returns exactly 0.

Mismatch ratios are read from a pair table of ``(x, y, grid)``: the
in-window counts and the close pairs of one enumeration, sorted by distance,
so the pairs closer than a smaller eps are a prefix of them.  A ratio depends
on eps only through the length of that prefix.  :func:`rho_stat` builds one
table at its cap and hands it to each bisection probe, which reads its
prefix there, and each prefix's ratio is counted once per call.  Each probe
stays one public :func:`ratio_sup` call, which is what perfbench's tracer
counts as a probe; a lone :func:`ratio_sup` call enumerates for itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from .pointset import PointSet
from .geometry import _pair_runs, as_points, nearest, require_extent, sq_norms, window_mask
from .geometry import _RADIUS_BUDGET, _require_budget, _require_integer, _require_positive_finite
from .geometry import _require_finite, _require_radii, _require_type

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

    def __post_init__(self):
        object.__setattr__(self, "values", _require_radii(self.values, "LGrid radii"))

    @classmethod
    def integers(cls, hi: int) -> "LGrid":
        """The radii 1, 2, ..., hi."""
        hi = _require_integer(hi, "hi", 1)
        _require_budget(hi, _RADIUS_BUDGET, "window radii in an LGrid")
        return cls(np.arange(1.0, hi + 1))

    def require_within(self, *sets: PointSet) -> None:
        require_extent(self.values[-1], min(s.extent for s in sets), "grid radius")

    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


@dataclass(frozen=True)
class MetricResult:
    """Outcome of a window-based distance computation.

    ``capped`` means the defining search was cut off at its ceiling (half the
    separation radius, or 1/4 for the window-alignment distance) and the
    ceiling itself is reported.
    """

    value: float
    attained_L: float | None = None
    attained_eps: float | None = None
    capped: bool = False

    def __post_init__(self):
        if not (self.value >= 0):  # NaN fails the comparison too
            raise InvalidArgumentError(f"metric values are nonnegative, got {self.value!r}")


# ---------------------------------------------------------------------------
# mismatch machinery


@dataclass(frozen=True)
class _PairTable:
    """What every mismatch ratio of one ``(x, y, grid)`` shares, whatever its eps.

    ``inside`` counts the points of both sets in each radius-L window.  The
    close pairs (i, j) of an enumeration at some eps ceiling come with their
    distances ``d``, stably sorted by ``d``, so the pairs closer than any eps
    up to the ceiling are a prefix of them.

    ``ratios`` keeps the largest ratio of each prefix already counted and its
    first maximizing radius, so it holds at most len(d) + 1 entries per
    exponent.
    """

    radii: np.ndarray
    r2: np.ndarray
    nx: np.ndarray
    ny: np.ndarray
    inside: np.ndarray
    i: np.ndarray
    j: np.ndarray
    d: np.ndarray
    # (prefix length k, exponent) -> (value, attained_L) of that prefix's ratio
    ratios: dict = field(default_factory=dict)


def _pair_table(x: PointSet, y: PointSet, eps: float, grid: LGrid) -> _PairTable:
    """The pair table of ``(x, y, grid)`` enumerated at the eps ceiling ``eps``."""
    radii = grid.array()
    r2 = radii * radii
    nx, ny = sq_norms(x.points), sq_norms(y.points)
    inside = np.searchsorted(np.sort(nx), r2, side="right")
    inside = inside + np.searchsorted(np.sort(ny), r2, side="right")
    i, j = _pair_runs(x.points, y.points, eps,
                      "the mismatch ratio's close-pair table")[1](0, len(x.points))
    # the distance _pair_runs compared with eps, so d < eps picks its pairs
    d = np.sqrt(sq_norms(np.take(y.points, j, axis=0) - np.take(x.points, i, axis=0)))
    order = np.argsort(d, kind="stable")
    return _PairTable(radii, r2, nx, ny, inside, i[order], j[order], d[order])


def _matched_counts(
    own_sq: np.ndarray, owner: np.ndarray, partner_sq: np.ndarray, r2: np.ndarray
) -> np.ndarray:
    """Per squared radius, the points of one set inside the window with a
    close partner inside it.

    ``own_sq`` holds the squared norms of the set's points, ``owner[k]`` is the
    point of the close pair k and ``partner_sq[k]`` the squared norm of its
    partner.  A point is matched in the radius-L window exactly when
    max(own squared norm, smallest partner squared norm) <= L*L, the test of
    :func:`window_mask`, so each count is one sorted-array lookup.
    """
    reach = np.full(len(own_sq), np.inf)
    np.minimum.at(reach, owner, partner_sq)
    return np.searchsorted(np.sort(np.maximum(own_sq, reach)), r2, side="right")


def _check_pair(x: PointSet, y: PointSet) -> None:
    if _require_type(x, PointSet, "x").dim != _require_type(y, PointSet, "y").dim:
        raise InvalidArgumentError("operands must share a dimension")


def mismatch_sets(x: PointSet, y: PointSet, radius: float, eps: float):
    """Points of each radius-window at distance >= eps from the other window.

    Returns the pair of point arrays (mismatches of x against y, and of y
    against x).  The distance to an empty window is +infinity, so against an
    empty window every point is mismatched.
    """
    _check_pair(x, y)
    _require_positive_finite(eps, "eps")
    require_extent(radius, min(x.extent, y.extent), "window radius")

    def side(a: PointSet, b: PointSet) -> np.ndarray:
        pa = a.points[window_mask(a.points, radius)]
        pb = b.points[window_mask(b.points, radius)]
        return pa[nearest(pa, pb)[0] >= eps]

    return side(x, y), side(y, x)


def ratio_sup(
    x: PointSet, y: PointSet, eps: float, exponent: float, grid: LGrid, *, _table=None
) -> MetricResult:
    """Largest normalized mismatch count over the grid: max_L (#A + #B) / L^exponent.

    ``exponent`` is absolute: pass the dimension d for the plain density
    normalization, d/2 for the square-root variant used by the defect-decay
    scenario.

    The pairs closer than eps are a prefix of the pair table of
    ``(x, y, grid)``, which a call enumerates at eps.  :func:`rho_stat`
    instead hands each of its probes ``_table``, the table it enumerated at
    its cap, and the probe counts a prefix only when no earlier probe of that
    table selected it at the same exponent.  The result is the same bit for
    bit either way.
    """
    _check_pair(x, y)
    _require_positive_finite(eps, "eps")
    if not (0 < _require_finite(exponent, "exponent") <= x.dim):
        raise InvalidArgumentError("exponent must lie in (0, dim]")
    _require_type(grid, LGrid, "grid").require_within(x, y)
    t = _pair_table(x, y, eps, grid) if _table is None else _table
    k = int(np.searchsorted(t.d, eps, side="left"))
    key = (k, float(exponent))
    kept = t.ratios.get(key)
    if kept is None:
        i, j = t.i[:k], t.j[:k]
        matched = _matched_counts(t.nx, i, t.ny[j], t.r2) + _matched_counts(t.ny, j, t.nx[i], t.r2)
        ratios = (t.inside - matched) / t.radii**exponent
        best = int(np.argmax(ratios))  # first maximizer -> deterministic attained_L
        kept = t.ratios[key] = (float(ratios[best]), float(t.radii[best]))
    return MetricResult(value=kept[0], attained_L=kept[1], attained_eps=float(eps))


def rho_stat(
    x: PointSet,
    y: PointSet,
    grid: LGrid,
    eps_tol: float = 1e-6,
) -> MetricResult:
    """Statistical window distance: the smallest eps whose mismatch ratio,
    normalized by L^dim, falls below eps, capped at half the separation radius.

    The mismatch ratio is nonincreasing in eps, so the feasibility predicate
    ``ratio(eps) < eps`` is monotone and bisection to ``eps_tol`` is exact up
    to the tolerance.  The reported value is the smallest *verified feasible*
    eps, hence an upper bound within eps_tol of the infimum.

    The pairs of ``(x, y, grid)`` are enumerated once, at the cap, and every
    probe is a :func:`ratio_sup` call handed that table: its smaller eps
    reads a prefix of the one enumeration.  Most probes of a fine bisection
    fall between the same two pair distances as an earlier probe, and those
    read the ratio already counted for that prefix.
    """
    _check_pair(x, y)
    _require_positive_finite(eps_tol, "eps_tol")
    r0 = min(x.require_separation(), y.require_separation())
    if x == y:
        return MetricResult(0.0)
    _require_type(grid, LGrid, "grid").require_within(x, y)
    cap = r0 / 2.0
    table = _pair_table(x, y, cap, grid)

    def ratio_at(eps: float) -> MetricResult:
        return ratio_sup(x, y, eps, float(x.dim), grid, _table=table)

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
    return float(nearest(a, b)[0].max(initial=0.0))


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
    _require_positive_finite(eps_tol, "eps_tol")
    if x == y:
        return MetricResult(0.0)
    require_extent(1.0 / eps_tol, min(x.extent, y.extent), "scan start radius 1/eps_tol")
    steps = int(math.floor(0.25 / eps_tol + 1e-9))
    _require_budget(steps, _RADIUS_BUDGET, f"window radii in a scan at eps_tol {eps_tol!r}")
    # each window is a prefix of the points in order of norm
    nx, ny = sq_norms(x.points), sq_norms(y.points)
    ox, oy = np.argsort(nx, kind="stable"), np.argsort(ny, kind="stable")
    px, sx = x.points[ox], nx[ox]
    py, sy = y.points[oy], ny[oy]
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


def rho_aut(x: PointSet, y: PointSet, grid: LGrid) -> MetricResult:
    """Symmetric-difference density over windows: max_L #(X_L xor Y_L) / L^d,
    the largest ratio over the grid and the first radius attaining it."""
    _check_pair(x, y)
    _require_type(grid, LGrid, "grid").require_within(x, y)
    if x == y:
        return MetricResult(0.0)
    radii = grid.array()
    r2 = radii * radii
    n_x = np.searchsorted(np.sort(sq_norms(x.points)), r2, side="right")
    n_y = np.searchsorted(np.sort(sq_norms(y.points)), r2, side="right")
    n_c = np.searchsorted(_common_sq_norms(x, y), r2, side="right")
    ratios = (n_x + n_y - 2 * n_c) / radii**x.dim
    best = int(np.argmax(ratios))
    return MetricResult(value=float(ratios[best]), attained_L=float(radii[best]))
