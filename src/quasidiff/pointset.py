"""Uniformly discrete point sets on finite balls: type, generators, surgery.

A ``PointSet`` is a finite list of points of R^d known to be the intersection
of some (conceptually infinite) point configuration with the closed ball of
radius ``extent`` around the origin.  ``sep_radius`` is a declared lower
bound on pairwise gaps (the infimum separation of the underlying set); it is
0 for configurations that are not uniformly discrete (Poisson samples).

Everything downstream (window metrics, autocorrelation, periodograms)
assumes the canonical representation enforced here:

* points are float64, strictly increasing in lexicographic order,
* every point lies in the closed extent ball (squared-norm comparison, so
  integer coordinates are classified exactly),
* pairwise gaps respect ``sep_radius`` up to 1e-12 absolute slack,
* asking for data beyond ``extent`` is an error, never a silent truncation.

Generators are deterministic functions of their arguments (the Poisson
sampler of its seed), so identical calls are bit-identical across runs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousRemovalError,
    DuplicatePointError,
    InvalidArgumentError,
    NotUniformlyDiscreteError,
    SeamViolationError,
)
from .geometry import (
    _ENUM_BUDGET,
    _power,
    _require_budget,
    _require_finite,
    _require_integer,
    _require_positive_finite,
    _require_type,
    _require_vector,
    _sorted_gap,
    as_points,
    ball_volume,
    lex_order_faults,
    lex_sort,
    nearest,
    require_extent,
    sq_norms,
    window_mask,
)

logger = logging.getLogger(__name__)

TAU = (1.0 + np.sqrt(5.0)) / 2.0  # long tile of the Fibonacci chain

_GAP_SLACK = 1e-12          # absolute slack when checking declared separation
_EXTENT_SLACK = 1e-9        # relative slack when checking points against extent

__all__ = [
    "TAU",
    "PointSet",
    "CutProjectConfig",
    "gen_lattice",
    "gen_fibonacci",
    "gen_visible",
    "gen_poisson",
    "gen_cut_project",
    "fibonacci_cut_project_config",
    "ammann_beenker_config",
    "window",
    "splice",
    "sparse_union",
    "remove_near",
]


@dataclass(frozen=True, eq=False)
class PointSet:
    """Finite window of a point configuration, in canonical form.

    Equality compares the geometric content: dimension, extent and the exact
    point array.  ``label`` (used to key perturbation randomness) and
    ``sep_radius`` (a declared bound, which may be conservative) are
    metadata and do not participate in ``==``.
    """

    dim: int
    sep_radius: float
    extent: float
    points: np.ndarray
    label: str = ""

    def __post_init__(self):
        _require_integer(self.dim, "dim", 1)
        # Python floats, whatever real type came in, so a file header reads
        # back; an infinite separation would make every search radius infinite
        object.__setattr__(self, "extent", _require_positive_finite(self.extent, "extent"))
        object.__setattr__(self, "sep_radius", _require_finite(self.sep_radius, "sep_radius", 0))
        pts = as_points(self.points, self.dim)
        if not pts.flags.owndata:
            # a view could still be written through its base, so the set
            # keeps a copy it alone owns and marks read-only below
            pts = pts.copy()
        object.__setattr__(self, "points", pts)
        if not np.isfinite(pts).all():
            i, j = np.argwhere(~np.isfinite(pts))[0]
            raise InvalidArgumentError(
                f"{self.label or 'point set'}: non-finite coordinate {float(pts[i, j])!r} "
                f"in point {i}"
            )
        inverted, duplicated = lex_order_faults(pts)
        if duplicated is not None:
            raise DuplicatePointError(f"{self.label or 'point set'}: coincident points")
        if inverted is not None:
            raise InvalidArgumentError("points must be in increasing lexicographic order")
        # every window test compares squared norms, so the extent must square
        # finitely; an infinite limit would admit any point.  The square is a
        # product, correctly rounded everywhere, not libm's pow
        reach = self.extent * (1.0 + _EXTENT_SLACK)
        limit = reach * reach
        if math.isinf(limit):
            raise InvalidArgumentError(f"extent {self.extent!r} is too large: its square overflows")
        # every window weight divides by radius ** dim, for radii up to reach
        if math.isinf(_power(reach, self.dim)):
            raise InvalidArgumentError(
                f"extent {self.extent!r} is too large: its power {self.dim} overflows"
            )
        if len(pts) and sq_norms(pts).max() > limit:
            raise InvalidArgumentError(f"{self.label or 'point set'}: point outside the extent ball")
        if self.sep_radius > 0 and len(pts) >= 2:
            gap = _sorted_gap(pts)
            if gap < self.sep_radius - _GAP_SLACK:
                raise NotUniformlyDiscreteError(
                    f"measured gap {gap!r} below declared separation {self.sep_radius!r}"
                )
        pts.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, PointSet):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.extent == other.extent
            and self.points.shape == other.points.shape
            and bool(np.array_equal(self.points, other.points))
        )

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:  # numpy's default repr would dump the array
        return (
            f"PointSet(dim={self.dim}, n={len(self.points)}, r0={self.sep_radius!r}, "
            f"extent={self.extent!r}, label={self.label!r})"
        )

    def require_separation(self) -> float:
        if self.sep_radius <= 0:
            raise NotUniformlyDiscreteError(
                f"{self.label or 'point set'} has sep_radius 0 (not uniformly discrete)"
            )
        return self.sep_radius


def _with_measured_gap(
    dim: int, extent: float, points: np.ndarray, label: str, fallback: float
) -> PointSet:
    """PointSet whose ``sep_radius`` is the measured minimum gap of its points
    (``fallback`` below two points).

    Every canonical-form check runs first; the gap is then measured once and
    declared, so it needs no check against itself.
    """
    x = PointSet(dim, 0.0, extent, points, label)
    gap = _sorted_gap(x.points)
    object.__setattr__(x, "sep_radius", gap if np.isfinite(gap) else fallback)
    return x


# ---------------------------------------------------------------------------
# generators


def _box_half_width(reach: float, dim: int) -> int:
    """Half-width k of the integer box [-k, k]^dim around the radius-``reach``
    ball, refused (an infinite reach too) when the box holds more candidates
    than the enumeration budget; counted in Python ints, nothing is allocated."""
    k = math.floor(reach * (1.0 + 1e-12)) if reach < _ENUM_BUDGET else _ENUM_BUDGET
    _require_budget((2 * k + 1) ** dim, _ENUM_BUDGET, f"points in a {dim}-d box of reach {reach!r}")
    return k


def gen_lattice(dim: int, spacing: float, extent: float, label: str | None = None) -> PointSet:
    """spacing * Z^d intersected with the closed extent ball."""
    _require_integer(dim, "dim", 1)
    _require_positive_finite(spacing, "spacing")
    _require_positive_finite(extent, "extent")
    k = _box_half_width(extent / spacing, dim)
    axis = np.arange(-k, k + 1, dtype=np.float64) * spacing
    if dim == 1:
        pts = axis.reshape(-1, 1)
    else:
        grids = np.meshgrid(*([axis] * dim), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
    pts = pts[sq_norms(pts) <= extent * extent * (1.0 + 1e-12)]
    return PointSet(dim, spacing, extent, pts, label or f"lattice{dim}d[{spacing!r}]")


_SIGMA2 = {"a": "aba", "b": "ab"}  # square of the substitution a -> ab, b -> a


def _fibonacci_word(min_geometric_length: float) -> str:
    w = "a"
    # geometric length of a word: (#a) * tau + (#b); grows by ~tau^2 per step
    while w.count("a") * TAU + w.count("b") < min_geometric_length:
        w = "".join(_SIGMA2[c] for c in w)
    return w


def _tile_positions(word: str) -> np.ndarray:
    """Right endpoints of the tile sequence, exactly as n_a * tau + n_b."""
    is_a = np.frombuffer(word.encode("ascii"), dtype=np.uint8) == ord("a")
    n_a = np.cumsum(is_a, dtype=np.int64)
    n_b = np.cumsum(~is_a, dtype=np.int64)
    # accumulate in extended precision, round once at the end: keeps adjacent
    # gaps within 1 float64 ulp of the exact tile lengths
    tau_ld = (np.longdouble(1.0) + np.sqrt(np.longdouble(5.0))) / np.longdouble(2.0)
    pos = n_a.astype(np.longdouble) * tau_ld + n_b.astype(np.longdouble)
    return pos.astype(np.float64)


def gen_fibonacci(extent: float, label: str = "fibonacci") -> PointSet:
    """Two-sided Fibonacci chain: tile endpoints of the bi-infinite fixed word.

    The substitution a -> ab, b -> a is iterated (as its square, which is
    stable on both ends) from the legal seed ``a|a``; tiles have length tau
    ("a") and 1 ("b"), and one tile endpoint sits at the origin.  The chain
    therefore extends to the left of 0 as well: window(X, 2) contains -tau.

    The declared separation is the b-tile length 1 while every measured gap
    is within the separation check's slack of it, which holds for every
    extent up to 2^21.  Beyond that, float64 spacing shortens some b-tiles
    by up to an ulp of their position, and the smallest measured gap is
    declared instead.
    """
    _require_positive_finite(extent, "extent")
    # tiles a and b occur with frequencies 1/tau and 1/tau^2: mean length 3 - tau
    _require_budget(2.0 * extent / (3.0 - TAU), _ENUM_BUDGET, "expected Fibonacci points")
    word = _fibonacci_word(extent + 2.0 * TAU)
    right = _tile_positions(word)
    left = -_tile_positions(word[::-1])
    pts = np.concatenate([left[::-1], [0.0], right])
    pts = pts[np.abs(pts) <= extent]
    gap = np.diff(pts).min(initial=1.0)
    sep = 1.0 if gap >= 1.0 - _GAP_SLACK else float(gap)
    return PointSet(1, sep, extent, pts.reshape(-1, 1), label)


def gen_visible(extent: float, label: str = "visible") -> PointSet:
    """Visible points of Z^2: nonzero integer pairs with coprime coordinates."""
    _require_positive_finite(extent, "extent")
    k = _box_half_width(extent, 2)
    axis = np.arange(-k, k + 1, dtype=np.int64)
    mm, nn = np.meshgrid(axis, axis, indexing="ij")
    mm, nn = mm.ravel(), nn.ravel()
    keep = (np.gcd(np.abs(mm), np.abs(nn)) == 1) & (mm * mm + nn * nn <= extent * extent)
    pts = np.stack([mm[keep], nn[keep]], axis=1).astype(np.float64)
    return PointSet(2, 1.0, extent, pts, label)


def gen_poisson(intensity: float, dim: int, extent: float, seed: int) -> PointSet:
    """Homogeneous Poisson sample on the extent ball; sep_radius 0 by definition."""
    _require_positive_finite(intensity, "intensity")
    _require_integer(dim, "dim", 1)
    _require_positive_finite(extent, "extent")
    seed = _require_integer(seed, "seed")
    mean = intensity * ball_volume(dim, extent)
    _require_budget(mean, _ENUM_BUDGET, "expected Poisson points")
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(mean))
    direction = rng.standard_normal((n, dim))
    norm = np.linalg.norm(direction, axis=1, keepdims=True)
    norm[norm == 0] = 1.0
    radius = extent * rng.random(n) ** (1.0 / dim)
    pts = lex_sort(direction / norm * radius[:, None])
    return PointSet(dim, 0.0, extent, pts, f"poisson[{intensity!r},{seed}]")


@dataclass(frozen=True)
class CutProjectConfig:
    """Cut-and-project scheme data.

    ``physical`` (d rows) and ``internal`` (n-d rows) stack to an invertible
    n x n matrix acting on Z^n shifted by ``offset``; a lattice point is kept
    when its internal image lies in the half-open axis box ``window`` and its
    physical image lies in the closed extent ball.
    """

    total_dim: int
    physical: tuple[tuple[float, ...], ...]
    internal: tuple[tuple[float, ...], ...]
    window: tuple[tuple[float, float], ...]
    offset: tuple[float, ...]
    extent: float

    def __post_init__(self):
        n = _require_integer(self.total_dim, "total_dim", 1)
        # a NaN or infinite entry enumerates nothing, or fails np.linalg.cond
        d = len(_require_vector(self.physical, "physical entries", n, rows=True))
        internal = _require_vector(self.internal, "internal entries", n, rows=True)
        window = _require_vector(self.window, "window entries", 2, rows=True)
        _require_vector(self.offset, "offset entries", n)
        if not (1 <= d <= n and len(internal) == len(window) == n - d):
            raise InvalidArgumentError(
                "need 1 <= physical dim <= total_dim, and total_dim - physical dim internal "
                "rows and window (lo, hi) pairs"
            )
        if not (window[:, 0] < window[:, 1]).all():
            raise InvalidArgumentError("window must have positive volume")
        _require_positive_finite(self.extent, "extent")
        if np.linalg.cond(self.stacked()) > 1e12:
            raise InvalidArgumentError("stacked projection matrix is (near) singular")

    def stacked(self) -> np.ndarray:
        return np.array(list(self.physical) + list(self.internal), dtype=np.float64)


def gen_cut_project(cfg: CutProjectConfig, label: str | None = None) -> PointSet:
    """Enumerate the model set defined by ``cfg``.

    Every accepted shifted lattice point v = z + offset, with images y = S v,
    lies in the ellipsoid sum_j ((y_j - mid_j) / half_j)^2 <= n - d + 1,
    where mid +- half is the box of the extent ball's axes and the window:
    the ball adds at most 1 and each window axis at most 1.  With
    diag(1 / half) S = QR that is |R v - Q^T (mid / half)|^2 <= n - d + 1,
    R upper triangular, so the coordinates are fixed from the last one down,
    each to the exact interval the ellipsoid leaves it given those already
    fixed (Fincke & Pohst, Math. Comp. 44, 1985).  v_0, fixed last, is also
    cut to every row's slab y_lo_j <= y_j <= y_hi_j, and the exact
    acceptance test decides.  Each axis's candidates are counted in floats,
    and refused over the budget, before any is built.
    """
    _require_type(cfg, CutProjectConfig, "cfg")
    # the candidates are freed with the enumeration's frame, before the gap check
    return _with_measured_gap(len(cfg.physical), cfg.extent, _accepted_points(cfg),
                              label or "cut-project", 0.0)


def _accepted_points(cfg: CutProjectConfig) -> np.ndarray:
    """The physical images of the lattice points :func:`gen_cut_project`
    accepts, in lexicographic order."""
    n, d, s = cfg.total_dim, len(cfg.physical), cfg.stacked()
    offset = np.asarray(cfg.offset, dtype=np.float64)
    y_lo, y_hi = np.array([(-cfg.extent, cfg.extent)] * d + list(cfg.window), dtype=np.float64).T
    mid = 0.5 * y_lo + 0.5 * y_hi
    # half-widths of at least 2^-1000 of their row keep the scaled rows
    # finite at a subnormal extent; a wider box only adds candidates
    least = 2.0**-1000 * np.maximum(np.abs(s).max(axis=1), np.abs(mid))
    half = np.maximum(0.5 * y_hi - 0.5 * y_lo, least)
    scaled = s / half[:, None]
    # Householder QR keeps the digits of small rows when the large rows come
    # first (Powell & Reid); in stacked order the physical rows are lost once
    # the extent is 2^53 times the window, and pivots of R come out 0
    rows = np.argsort(-np.abs(scaled).max(axis=1), kind="stable")
    q, r = np.linalg.qr(scaled[rows])
    t = q.T @ (mid / half)[rows]
    # the squared radius, widened past the acceptance test's 1e-12 slack and
    # far past the rounding of the sums below
    bound = (n - d + 1) * (1.0 + 1e-6)

    partial = np.zeros((1, 0), dtype=np.float64)  # rows: fixed v_{k+1}..v_{n-1}
    used = np.zeros(1)  # each row's share of the squared radius
    for k in reversed(range(n)):
        centre = (t[k] - partial @ r[k, k + 1 :]) / r[k, k]
        reach = np.sqrt(np.maximum(bound - used, 0.0)) / abs(r[k, k])
        lo_k, hi_k = centre - reach, centre + reach
        if k == 0:
            fixed = partial @ s[:, 1:].T
            for j in np.flatnonzero(s[:, 0]):
                ends = (y_lo[j] - fixed[:, j]) / s[j, 0], (y_hi[j] - fixed[:, j]) / s[j, 0]
                lo_k = np.maximum(lo_k, np.minimum(*ends) - 1e-9)
                hi_k = np.minimum(hi_k, np.maximum(*ends) + 1e-9)
        z_lo = np.ceil(lo_k - offset[k])
        with np.errstate(over="ignore"):  # an interval past the float range counts inf
            counts = np.maximum(np.floor(hi_k - offset[k]) - z_lo + 1.0, 0.0)
        total = float(counts.sum())
        _require_budget(int(total) if math.isfinite(total) else total, _ENUM_BUDGET,
                        f"cut-and-project candidates on {n - k} of {n} axes")
        counts, total = counts.astype(np.int64), int(total)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        v = np.arange(total) - starts + np.repeat(z_lo, counts) + offset[k]
        used = np.repeat(used, counts) + (r[k, k] * (v - np.repeat(centre, counts))) ** 2
        partial = np.column_stack([v, np.repeat(partial, counts, axis=0)])

    phys = partial @ s[:d].T
    keep = sq_norms(phys) <= cfg.extent * cfg.extent * (1.0 + 1e-12)
    if n > d:
        internal = partial @ s[d:].T
        for i, (lo, hi) in enumerate(cfg.window):
            keep &= (internal[:, i] >= lo) & (internal[:, i] < hi)
    return lex_sort(phys[keep])


def fibonacci_cut_project_config(extent: float) -> CutProjectConfig:
    """Planar scheme whose model set is exactly :func:`gen_fibonacci`'s chain.

    Lattice points (m, n) project physically to m*tau + n and internally to
    the algebraic conjugate m*(1-tau) + n.  The chain generated from the
    seed ``a|a`` occupies the conjugate interval (-1, tau-1], which is
    half-open on the *left*; the internal row is negated so the acceptance
    region becomes [1-tau, 1) in this module's [lo, hi) convention.
    """
    return CutProjectConfig(
        total_dim=2,
        physical=((TAU, 1.0),),
        internal=((TAU - 1.0, -1.0),),
        window=((1.0 - TAU, 1.0),),
        offset=(0.0, 0.0),
        extent=extent,
    )


def ammann_beenker_config(extent: float) -> CutProjectConfig:
    """Octagonal-symmetry scheme on Z^4 with the axis box [-1, 1)^2 as
    acceptance window."""
    c = np.sqrt(2.0) / 2.0
    return CutProjectConfig(
        total_dim=4,
        physical=((1.0, c, 0.0, -c), (0.0, c, 1.0, c)),
        internal=((1.0, -c, 0.0, c), (0.0, c, -1.0, c)),
        window=((-1.0, 1.0), (-1.0, 1.0)),
        offset=(0.01, 0.013, 0.017, 0.019),
        extent=extent,
    )


# ---------------------------------------------------------------------------
# windowing and surgery


def window(x: PointSet, radius: float) -> PointSet:
    """Restrict to the closed ball of the given radius (must be <= extent)."""
    _require_type(x, PointSet, "x")
    radius = require_extent(radius, x.extent, f"{x.label or 'set'} window radius")
    pts = x.points[window_mask(x.points, radius)]
    return PointSet(x.dim, x.sep_radius, radius, pts, x.label)


def splice(inner: PointSet, outer: PointSet, radius: float, allow_smaller: bool = False) -> PointSet:
    """Take ``inner`` on the closed radius ball and ``outer`` strictly outside it."""
    if _require_type(inner, PointSet, "inner").dim != _require_type(outer, PointSet, "outer").dim:
        raise InvalidArgumentError("splice requires equal dimensions")
    require_extent(radius, min(inner.extent, outer.extent), "splice radius")
    inside = inner.points[window_mask(inner.points, radius)]
    outside = outer.points[~window_mask(outer.points, radius)]
    declared = min(inner.sep_radius, outer.sep_radius)
    x = _with_measured_gap(
        inner.dim, outer.extent, lex_sort(np.concatenate([inside, outside])),
        f"splice({inner.label},{outer.label};{radius!r})", declared,
    )
    if x.sep_radius < declared * (1.0 - 1e-9):
        if not allow_smaller:
            raise SeamViolationError(
                f"seam gap {x.sep_radius!r} below operand separation {declared!r}"
            )
        logger.info("splice: recording reduced separation %r (was %r)", x.sep_radius, declared)
    return x


def sparse_union(x: PointSet, extra: PointSet) -> PointSet:
    """Union with a (typically vanishing-density) extra set; duplicates are errors."""
    if _require_type(x, PointSet, "x").dim != _require_type(extra, PointSet, "extra").dim:
        raise InvalidArgumentError("sparse_union requires equal dimensions")
    extent = min(x.extent, extra.extent)
    a = x.points[window_mask(x.points, extent)]
    b = extra.points[window_mask(extra.points, extent)]
    union = _with_measured_gap(
        x.dim, extent, lex_sort(np.concatenate([a, b])), f"union({x.label},{extra.label})",
        min(x.sep_radius, extra.sep_radius),
    )
    dens = len(b) / extent**x.dim
    logger.info("sparse_union: extra set windowed density %.6g at L=%r", dens, extent)
    return union


def remove_near(x: PointSet, targets, tol: float) -> PointSet:
    """Remove, for each target, the unique point within ``tol`` of it (if any).

    ``tol`` must stay below half the separation radius so a target can match
    at most one point; two targets claiming the same point is an error.
    """
    sep = _require_type(x, PointSet, "x").require_separation()
    if not (0 < _require_finite(tol, "tol") < sep / 2):
        raise InvalidArgumentError(f"tol must lie in (0, sep_radius/2) = (0, {sep / 2!r})")
    tg = as_points(targets, x.dim)
    if len(tg) == 0 or len(x.points) == 0:
        return x
    dist, index = nearest(tg, x.points)
    hit = dist <= tol
    if not hit.any():
        return x
    matches = index[hit]
    if len(np.unique(matches)) != len(matches):
        raise AmbiguousRemovalError("two removal targets matched the same point")
    mask = np.ones(len(x.points), dtype=bool)
    mask[matches] = False
    logger.info("remove_near: removed %d of %d points", len(matches), len(x.points))
    return PointSet(x.dim, x.sep_radius, x.extent, x.points[mask], x.label)

