"""Finitely supported measures, autocorrelation, and vague-convergence proxies.

The continuum notions (Radon measures, vague convergence, Portmanteau
inequalities) are replaced by their exact finite counterparts:

* an :class:`AtomicMeasure` is a finite list of weighted atoms in canonical
  lexicographic order, with a recorded ``bucket_tol``: no two of its atoms
  lie closer than that;
* test functions are radial tents — continuous, compactly supported, and
  with closed-form pairings, so no quadrature appears anywhere;
* vague closeness of two measures is the maximum pairing gap over a declared
  :class:`TestFamily`; the gap is a bare number, so a smallness claim holds
  for that family, on the region its supports cover, and no further.

The autocorrelation of a point set X on the radius-L window is the measure
(1/L^d) * sum of point-mass at p - q over all ordered pairs p, q in the
window; its total mass is exactly (#window)^2 / L^d.  The pairs are
enumerated once, all of them or those within ``max_range``, under the one
pair budget of :mod:`quasidiff.geometry`, and bucketed once: an atom's
weight is the run length of its key among the sorted differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import InvalidArgumentError
from .geometry import (
    _close_pairs,
    _require_budget,
    _require_integer,
    _require_positive_finite,
    as_points,
    lex_order_faults,
    min_pairwise_gap,
    require_extent,
    sq_norms,
    window_mask,
)
from .pointset import PointSet

# atoms closer than bucket_tol times this are one atom: the bucketing merges
# them, and AtomicMeasure refuses them
_MERGE_GAP = 1.0 - 1e-12

__all__ = [
    "AtomicMeasure",
    "TestFunction",
    "TestFamily",
    "PortmanteauReport",
    "dirac_comb",
    "autocorrelation",
    "pair",
    "tv_on_ball",
    "vague_gap",
    "portmanteau_check",
]


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """Finite complex measure: weighted atoms at pairwise-separated locations.

    ``bucket_tol`` records the merge radius used while accumulating the
    atoms: locations closer than it (up to a 1e-12 relative slack) were
    merged into one, and are refused here (0 means only exactly coincident
    locations were merged).
    """

    dim: int
    locations: np.ndarray
    weights: np.ndarray
    bucket_tol: float = 0.0

    def __post_init__(self):
        _require_integer(self.dim, "dim", 1)
        if not (0 <= self.bucket_tol < np.inf):
            raise InvalidArgumentError(
                f"bucket_tol must be a finite number >= 0, got {self.bucket_tol!r}"
            )
        locs = as_points(self.locations, self.dim)
        w = np.asarray(self.weights, dtype=np.complex128).reshape(-1)
        if len(w) != len(locs):
            raise InvalidArgumentError("weights and locations must have equal length")
        inverted, duplicated = lex_order_faults(locs)
        if duplicated is not None:
            raise InvalidArgumentError("atom locations must be distinct")
        if inverted is not None:
            raise InvalidArgumentError("atom locations must be in lexicographic order")
        if (w == 0).any():
            raise InvalidArgumentError("zero-weight atoms are not stored")
        if self.bucket_tol > 0 and len(locs) >= 2:
            if min_pairwise_gap(locs) < self.bucket_tol * _MERGE_GAP:
                raise InvalidArgumentError(
                    "atoms closer than bucket_tol survived merging; "
                    "choose a different bucket_tol"
                )
        locs.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.weights)

    def __repr__(self) -> str:
        return (
            f"AtomicMeasure(dim={self.dim}, atoms={len(self.weights)}, "
            f"bucket_tol={self.bucket_tol!r})"
        )

    @property
    def total_mass(self) -> complex:
        return complex(self.weights.sum())

    def mass_in_ball(self, center, radius: float, closed: bool = True) -> complex:
        """Measure of the closed (or open) ball around ``center``."""
        c = np.asarray(center, dtype=np.float64).reshape(1, self.dim)
        d2 = sq_norms(self.locations - c)
        r2 = radius * radius
        mask = d2 <= r2 if closed else d2 < r2
        return complex(self.weights[mask].sum())

    def scaled(self, factor: complex) -> "AtomicMeasure":
        if factor == 0:
            return AtomicMeasure(self.dim, np.zeros((0, self.dim)), np.zeros(0, np.complex128),
                                 self.bucket_tol)
        return AtomicMeasure(self.dim, self.locations, self.weights * factor, self.bucket_tol)


@dataclass(frozen=True)
class TestFunction:
    """Radial tent: amplitude * max(0, 1 - |x - center| / radius).

    Continuous, supported on the closed ball B(center, radius), with
    sup-norm |amplitude|.
    """

    __test__ = False  # keeps pytest from collecting this Test*-named class

    center: tuple[float, ...]
    radius: float
    amplitude: float = 1.0

    def __post_init__(self):
        _require_positive_finite(self.radius, "radius")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    @property
    def dim(self) -> int:
        return len(self.center)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = as_points(points, self.dim)
        dist = np.sqrt(sq_norms(pts - np.asarray(self.center)))
        return self.amplitude * np.maximum(0.0, 1.0 - dist / self.radius)


@dataclass(frozen=True)
class TestFamily:
    """Nonempty family of tents whose supports all lie in the declared
    closed ball (``region_center``, ``region_radius``).

    :func:`vague_gap` returns a bare number; the caller keeps the family it
    was measured against."""

    __test__ = False  # keeps pytest from collecting this Test*-named class

    functions: tuple[TestFunction, ...]
    region_center: tuple[float, ...]
    region_radius: float

    def __post_init__(self):
        if not self.functions:
            raise InvalidArgumentError("a TestFamily must contain a function")
        object.__setattr__(self, "functions", tuple(self.functions))
        object.__setattr__(self, "region_center", tuple(float(c) for c in self.region_center))
        _require_positive_finite(self.region_radius, "region_radius")
        rc = np.asarray(self.region_center)
        for f in self.functions:
            if f.dim != len(self.region_center):
                raise InvalidArgumentError("family members must share the region's dimension")
            off = float(np.linalg.norm(np.asarray(f.center) - rc))
            if off + f.radius > self.region_radius * (1 + 1e-12) + 1e-12:
                raise InvalidArgumentError("a member's support leaves the declared region")

    def __len__(self) -> int:
        return len(self.functions)

    @classmethod
    def tents_1d(
        cls, lo: float, hi: float, count: int, radius: float, amplitude: float = 1.0
    ) -> "TestFamily":
        """Evenly spaced tents with centers from lo to hi inclusive; the family refuses hi < lo."""
        _require_integer(count, "count", 1)
        centers = np.linspace(lo, hi, count) if count > 1 else np.array([(lo + hi) / 2])
        funcs = tuple(TestFunction((float(c),), radius, amplitude) for c in centers)
        return cls(
            functions=funcs,
            region_center=((lo + hi) / 2.0,),
            region_radius=(hi - lo) / 2.0 + radius,
        )


# ---------------------------------------------------------------------------
# constructions


def dirac_comb(x: PointSet) -> AtomicMeasure:
    """Unit point mass at every point of the set."""
    return AtomicMeasure(
        dim=x.dim,
        locations=x.points.copy(),
        weights=np.ones(len(x.points), dtype=np.complex128),
        bucket_tol=0.0,
    )


def _quantize(vals: np.ndarray, tol: float) -> np.ndarray:
    scaled = np.round(vals / tol)
    if scaled.size and np.abs(scaled).max() >= 2.0**62:
        raise InvalidArgumentError("bucket_tol too small for the coordinate range")
    return scaled.astype(np.int64)


def _bucket(vecs: np.ndarray, tol: float):
    """Merge vectors whose keys agree (quantized to width ``tol``; exact
    equality when ``tol`` is 0).

    Returns, per bucket in key order, the first-seen vector and the run
    length of its key.  Copies of one difference that rounding puts on both
    sides of a bucket edge land in neighbouring buckets; so buckets whose
    representatives lie closer than the :class:`AtomicMeasure` separation
    check allows are merged into the one with the lowest key, along with
    every bucket linked to them by such pairs.
    """
    keys = _quantize(vecs, tol) if tol > 0 else vecs
    order = np.lexsort(keys.T[::-1])  # stable: equal keys stay in input order
    keys = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    first = np.flatnonzero(starts)
    reps, counts = vecs[order[first]], np.diff(first, append=len(keys))
    if tol == 0:
        return reps, counts
    # in 1-d the key order sorts the representatives, as _close_pairs needs;
    # its pairs come in both orders, so lowering each j's label to its i's,
    # until nothing moves, labels every linked group with its lowest index
    i, j = _close_pairs(reps, reps, tol * _MERGE_GAP)
    label, last = np.arange(len(reps)), None
    while not np.array_equal(label, last):
        last = label.copy()
        np.minimum.at(label, j, label[i])
    merged = np.zeros_like(counts)
    np.add.at(merged, label, counts)
    root = label == np.arange(len(reps))
    return reps[root], merged[root]


def autocorrelation(
    x: PointSet,
    radius: float,
    bucket_tol: float = 1e-9,
    max_range: float | None = None,
) -> AtomicMeasure:
    """Windowed autocorrelation measure of the set.

    Atoms sit at the difference vectors p - q of points in the closed
    radius-window, merged within ``bucket_tol``, each weighted by its
    multiplicity divided by radius^dim.  The full window enumerates every
    ordered pair at once, so it is refused (``InvalidArgumentError``) above
    2^25 pairs, a window of more than 5,792 points.  With ``max_range``
    set, only differences of length <= max_range are accumulated — the
    restriction of the same measure to a ball, at a fraction of the cost,
    under the same pair budget — which is the honest thing to pair against
    a test family supported in that ball.
    """
    r0 = x.require_separation()
    if not (0 <= bucket_tol <= r0 / 4):
        raise InvalidArgumentError(f"bucket_tol must lie in [0, sep_radius/4] = [0, {r0 / 4!r}]")
    require_extent(radius, x.extent, "autocorrelation window")
    pts = x.points[window_mask(x.points, radius)]
    n = len(pts)
    if max_range is None:
        # geometry's pair budget, read at call time as _close_pairs reads it
        _require_budget(n * n, geometry._CANDIDATE_BUDGET, f"candidate pairs in an autocorrelation "
                        f"window of {n} points (max_range, --max-range, bounds them)")
        # every ordered pair as p_row - p_col, row-major: the order that
        # picks each atom's first-seen representative
        vecs = (pts[:, None, :] - pts[None, :, :]).reshape(-1, x.dim)
    else:
        _require_positive_finite(max_range, "max_range")
        # ordered pairs at distance <= max_range (the closed ball), by (row, col)
        rows, cols = _close_pairs(pts, pts, np.nextafter(max_range, np.inf))
        vecs = pts[cols] - pts[rows]
    reps, counts = _bucket(vecs, bucket_tol)
    order = np.lexsort(reps.T[::-1])
    weights = (counts[order] / float(radius) ** x.dim).astype(np.complex128)
    return AtomicMeasure(x.dim, reps[order], weights, bucket_tol)


# ---------------------------------------------------------------------------
# pairings and convergence proxies


def pair(mu: AtomicMeasure, f: TestFunction) -> complex:
    """Integral of the tent against the measure: sum of weight * f(atom)."""
    if f.dim != mu.dim:
        raise InvalidArgumentError("test function and measure dimensions differ")
    if len(mu) == 0:
        return 0j
    return complex((mu.weights * f.evaluate(mu.locations)).sum())


def tv_on_ball(mu: AtomicMeasure, center, radius: float) -> float:
    """Total variation of the measure on the closed ball: sum of |weight|."""
    c = np.asarray(center, dtype=np.float64).reshape(1, mu.dim)
    mask = sq_norms(mu.locations - c) <= radius * radius
    return float(np.abs(mu.weights[mask]).sum())


def vague_gap(mu: AtomicMeasure, nu: AtomicMeasure, family: TestFamily) -> float:
    """Largest pairing discrepancy over the declared family."""
    if mu.dim != nu.dim:
        raise InvalidArgumentError("measures must share a dimension")
    return max(abs(pair(mu, f) - pair(nu, f)) for f in family.functions)


@dataclass(frozen=True)
class PortmanteauReport:
    """Tail checks of the two vague-convergence inequalities.

    For each closed ball K: every tail measure satisfies mu_n(K) <= limit(K)
    + tol.  For each open ball G: limit(G) <= mu_n(G) + tol for every tail
    measure.  The tail is the last half of the sequence.
    """

    compact_ok: tuple[bool, ...]
    open_ok: tuple[bool, ...]
    tail_length: int
    tol: float

    @property
    def passed(self) -> bool:
        return all(self.compact_ok) and all(self.open_ok)


def portmanteau_check(
    seq,
    limit: AtomicMeasure,
    compacts=(),
    opens=(),
    tol: float = 1e-9,
) -> PortmanteauReport:
    """Check the upper (closed-ball) and lower (open-ball) tail inequalities.

    ``compacts`` and ``opens`` are sequences of (center, radius) balls; the
    measures are expected to be positive (real parts are compared).
    """
    seq = list(seq)
    if len(seq) < 2:
        raise InvalidArgumentError("need a sequence of at least two measures")
    tail = seq[len(seq) // 2 :]
    compact_ok = []
    for center, radius in compacts:
        cap = limit.mass_in_ball(center, radius, closed=True).real + tol
        compact_ok.append(all(m.mass_in_ball(center, radius, closed=True).real <= cap for m in tail))
    open_ok = []
    for center, radius in opens:
        floor = limit.mass_in_ball(center, radius, closed=False).real - tol
        open_ok.append(all(m.mass_in_ball(center, radius, closed=False).real >= floor for m in tail))
    return PortmanteauReport(tuple(compact_ok), tuple(open_ok), len(tail), tol)
