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
window; its total mass is exactly (#window)^2 / L^d.  The pairs, all of
them or those within ``max_range``, are counted against the one pair budget
of :mod:`quasidiff.geometry` before any is built, then built in blocks of
rows, in (row, col) order, and each block is folded into a running table of
(key, first difference seen, count): an atom's weight is the number of
differences with its key, and memory holds one block and the atoms.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import InvalidArgumentError
from .geometry import (
    _close_pairs,
    _pair_runs,
    _numbers,
    _require_budget,
    _require_finite,
    _require_integer,
    _require_items,
    _require_positive_finite,
    _require_type,
    _require_vector,
    _sorted_gap,
    as_points,
    lex_order_faults,
    require_extent,
    sq_norms,
    window_mask,
)
from .pointset import PointSet

# atoms closer than bucket_tol times this are one atom: the bucketing merges
# them, and AtomicMeasure refuses them
_MERGE_GAP = 1.0 - 1e-12
# pairs an autocorrelation builds at once, or the atoms found so far if
# more: a quasicrystal's window (O(n) atoms) holds one block and its atoms,
# and a set whose differences are all distinct sorts its table once per
# doubling
_PAIR_BLOCK = 2**16

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
        object.__setattr__(self, "bucket_tol", _require_finite(self.bucket_tol, "bucket_tol", 0))
        locs = _require_vector(self.locations, "atom locations", self.dim, rows=True)
        w = _numbers(self.weights, "iufc")
        if w is None:
            raise InvalidArgumentError(
                f"atom weights must be complex numbers, got {reprlib.repr(self.weights)}"
            )
        w = w.astype(np.complex128, copy=False).reshape(-1)
        if len(w) != len(locs):
            raise InvalidArgumentError("weights and locations must have equal length")
        inverted, duplicated = lex_order_faults(locs)
        if duplicated is not None:
            raise InvalidArgumentError("atom locations must be distinct")
        if inverted is not None:
            raise InvalidArgumentError("atom locations must be in lexicographic order")
        if not (np.isfinite(w) & (w != 0)).all():
            raise InvalidArgumentError("atom weights must be finite and nonzero")
        if self.bucket_tol > 0 and len(locs) >= 2:
            if _sorted_gap(locs) < self.bucket_tol * _MERGE_GAP:
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

    def mass_in_ball(self, center, radius: float, closed: bool = True) -> complex:
        """Measure of the closed (or open) ball around ``center``."""
        c = _require_vector(center, "ball center", self.dim)
        r = _require_positive_finite(radius, "ball radius")
        d2 = sq_norms(self.locations - c)
        mask = d2 <= r * r if closed else d2 < r * r
        return complex(self.weights[mask].sum())


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
        object.__setattr__(self, "center", tuple(_require_vector(self.center, "center").tolist()))
        object.__setattr__(self, "radius", _require_positive_finite(self.radius, "radius"))
        object.__setattr__(self, "amplitude", _require_finite(self.amplitude, "amplitude"))

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
        form = "a sequence of TestFunction tents"
        functions = tuple(_require_items(self.functions, "a TestFamily's functions", form))
        if not functions:
            raise InvalidArgumentError("a TestFamily must contain a function")
        if not all(isinstance(f, TestFunction) for f in functions):
            raise InvalidArgumentError(
                f"a TestFamily's functions must be {form}, got {reprlib.repr(self.functions)}"
            )
        object.__setattr__(self, "functions", functions)
        rc = _require_vector(self.region_center, "region_center")
        object.__setattr__(self, "region_center", tuple(rc.tolist()))
        _require_positive_finite(self.region_radius, "region_radius")
        for f in self.functions:
            if f.dim != len(self.region_center):
                raise InvalidArgumentError("family members must share the region's dimension")
            off = float(np.linalg.norm(np.asarray(f.center) - rc))
            if off + f.radius > self.region_radius * (1 + 1e-12) + 1e-12:
                raise InvalidArgumentError("a member's support leaves the declared region")

    def __len__(self) -> int:
        return len(self.functions)


# ---------------------------------------------------------------------------
# constructions


def dirac_comb(x: PointSet) -> AtomicMeasure:
    """Unit point mass at every point of the set."""
    _require_type(x, PointSet, "x")
    return AtomicMeasure(
        dim=x.dim,
        locations=x.points.copy(),
        weights=np.ones(len(x.points), dtype=np.complex128),
        bucket_tol=0.0,
    )


def _quantize(vals: np.ndarray, tol: float) -> np.ndarray:
    steps = vals / tol
    np.round(steps, out=steps)
    if steps.size and max(steps.max(), -steps.min()) >= 2.0**62:
        raise InvalidArgumentError("bucket_tol too small for the coordinate range")
    return steps.astype(np.int64)


def _fold(table, vecs: np.ndarray, tol: float):
    """The running table (representatives, counts), one row per key in key
    order, with a block of difference vectors folded in.

    A vector's key is the vector quantized to width ``tol``, or the vector
    itself when ``tol`` is 0.  The table goes first into a stable sort, so
    a key it holds keeps its row, and a new key takes its first vector in
    the block: over blocks taken in (row, col) order, every key keeps the
    first vector seen.
    """
    held_reps, held_counts = table
    reps = np.concatenate((held_reps, vecs))
    keys = _quantize(reps, tol) if tol > 0 else reps
    order = np.lexsort(keys.T[::-1])
    # np.take gathers rows several times faster than fancy indexing
    keys = np.take(keys, order, axis=0)
    # a column at a time: numpy's any() along short rows is several times slower
    starts = np.zeros(len(keys), dtype=bool)
    starts[:1] = True
    for col in keys.T:
        starts[1:] |= col[1:] != col[:-1]
    first = np.flatnonzero(starts)
    at = order[first]
    # a run is the table's row, if it holds the key (the stable sort puts it
    # first), and the block's copies; the table's runs come in its own order
    counts = np.diff(first, append=len(keys))
    counts[at < len(held_reps)] += held_counts - 1
    return np.take(reps, at, axis=0), counts


def _bucket(row_pairs, block, dim: int, tol: float):
    """Merge difference vectors whose keys agree (quantized to width
    ``tol``; exact equality when ``tol`` is 0), then buckets that lie too
    close; returns, per bucket in key order, its first-seen vector and its
    count.

    ``block(start, stop)`` gives the vectors of rows start..stop-1 in
    (row, col) order, and ``row_pairs`` how many each row has, or a bound.
    Rows are taken in blocks of at most ``max(_PAIR_BLOCK, keys so far)``
    pairs, one row at least, and each block is folded into a running table.

    Copies of one difference that rounding puts on both sides of a bucket
    edge land in neighbouring buckets; so buckets whose representatives lie
    closer than the :class:`AtomicMeasure` separation check allows are
    merged into the one with the lowest key, along with every bucket linked
    to them by such pairs.
    """
    table = np.empty((0, dim)), np.empty(0, dtype=np.intp)
    ends, start = np.cumsum(row_pairs), 0
    while start < len(ends):
        # the rows from start whose pairs fit in one block, and one at least
        limit = max(_PAIR_BLOCK, len(table[0])) + (ends[start - 1] if start else 0)
        stop = max(start + 1, int(np.searchsorted(ends, limit, side="right")))
        table = _fold(table, block(start, stop), tol)
        start = stop
    reps, counts = table
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
    multiplicity divided by radius^dim.  The full window takes every
    ordered pair, so it is refused (``InvalidArgumentError``) above 2^25
    pairs, a window of more than 5,792 points.  With ``max_range`` set,
    only differences of length <= max_range are accumulated — the
    restriction of the same measure to a ball, at a fraction of the cost,
    under the same pair budget — which is the honest thing to pair against
    a test family supported in that ball.  Either way the pairs are built
    in blocks of rows, so memory holds one block and the atoms found so far.
    """
    r0 = _require_type(x, PointSet, "x").require_separation()
    bucket_tol = _require_finite(bucket_tol, "bucket_tol", 0)
    if not bucket_tol <= r0 / 4:
        raise InvalidArgumentError(f"bucket_tol must lie in [0, sep_radius/4] = [0, {r0 / 4!r}]")
    radius = require_extent(radius, x.extent, "autocorrelation window")
    pts = x.points[window_mask(x.points, radius)]
    n = len(pts)
    if max_range is None:
        # geometry's pair budget, read at call time as _close_pairs reads it
        _require_budget(n * n, geometry._CANDIDATE_BUDGET, f"candidate pairs in an autocorrelation "
                        f"window of {n} points (max_range, --max-range, bounds them)")
        row_pairs = np.full(n, n)

        def block(start, stop):
            # every ordered pair of the rows as p_row - p_col, row-major
            return (pts[start:stop, None, :] - pts[None, :, :]).reshape(-1, x.dim)
    else:
        max_range = _require_positive_finite(max_range, "max_range")
        # ordered pairs at distance <= max_range (the closed ball): every
        # row's candidates are counted, and their budget checked, first
        row_pairs, pairs = _pair_runs(pts, pts, np.nextafter(max_range, np.inf))

        def block(start, stop):
            rows, cols = pairs(start, stop)
            return np.take(pts, cols, axis=0) - np.take(pts, rows, axis=0)
    reps, counts = _bucket(row_pairs, block, x.dim, bucket_tol)
    order = np.lexsort(reps.T[::-1])
    weights = (counts[order] / radius**x.dim).astype(np.complex128)
    return AtomicMeasure(x.dim, reps[order], weights, bucket_tol)


# ---------------------------------------------------------------------------
# pairings and convergence proxies


def pair(mu: AtomicMeasure, f: TestFunction) -> complex:
    """Integral of the tent against the measure: sum of weight * f(atom)."""
    if _require_type(f, TestFunction, "f").dim != _require_type(mu, AtomicMeasure, "mu").dim:
        raise InvalidArgumentError("test function and measure dimensions differ")
    if len(mu) == 0:
        return 0j
    return complex((mu.weights * f.evaluate(mu.locations)).sum())


def tv_on_ball(mu: AtomicMeasure, center, radius: float) -> float:
    """Total variation of the measure on the closed ball: sum of |weight|."""
    c = _require_vector(center, "ball center", _require_type(mu, AtomicMeasure, "mu").dim)
    r = _require_positive_finite(radius, "ball radius")
    mask = sq_norms(mu.locations - c) <= r * r
    return float(np.abs(mu.weights[mask]).sum())


def vague_gap(mu: AtomicMeasure, nu: AtomicMeasure, family: TestFamily) -> float:
    """Largest pairing discrepancy over the declared family."""
    if _require_type(mu, AtomicMeasure, "mu").dim != _require_type(nu, AtomicMeasure, "nu").dim:
        raise InvalidArgumentError("measures must share a dimension")
    _require_type(family, TestFamily, "family")
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
    tol = _require_finite(tol, "tol", 0)
    _require_type(limit, AtomicMeasure, "limit")
    seq = _require_items(seq, "seq", "a sequence of measures")
    for m in seq:
        _require_type(m, AtomicMeasure, "seq entry")
    if len(seq) < 2:
        raise InvalidArgumentError("need a sequence of at least two measures")
    tail = seq[len(seq) // 2 :]
    compacts = _require_items(compacts, "compacts", "(center, radius) pairs", 2)
    opens = _require_items(opens, "opens", "(center, radius) pairs", 2)
    compact_ok = []
    for center, radius in compacts:
        cap = limit.mass_in_ball(center, radius, closed=True).real + tol
        compact_ok.append(all(m.mass_in_ball(center, radius, closed=True).real <= cap for m in tail))
    open_ok = []
    for center, radius in opens:
        floor = limit.mass_in_ball(center, radius, closed=False).real - tol
        open_ok.append(all(m.mass_in_ball(center, radius, closed=False).real >= floor for m in tail))
    return PortmanteauReport(tuple(compact_ok), tuple(open_ok), len(tail), tol)
