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
* :func:`_close_pairs` is the one fixed-radius pair enumeration, behind the
  metrics' mismatch counts, the short-range autocorrelation, the merge of
  bucketed autocorrelation atoms and, in d >= 2,
  :func:`nearest` and :func:`min_pairwise_gap`.  The 1-d path is one
  vectorised binary search over the sorted targets.  Higher dimensions use a
  cell list: both sets are binned into cubes of side w >= r over their first
  three axes, the targets are sorted by one int64 cell key, and each query
  finds the targets of its 3^min(d, 3) neighbouring cells with ``searchsorted``.
  Every candidate is decided by the same strict Euclidean comparison, and the
  pairs come in (i, j) order in every dimension.  The candidates are counted,
  and their budget checked, before any is built; :func:`_pair_runs` then
  builds them for any block of queries, as the autocorrelation's row blocks
  need;
* every budget is declared in one block below, with its unit and the reason
  for its value: candidate pairs, window radii, generated points, Monte
  Carlo coordinates, grid nodes, the fine-grid nodes and kernel taps of a
  grid spectrum and the phase-table entries of a sum at free frequencies.
  :func:`_require_budget` is the one check, and it
  refuses a count over its budget before anything of that size is built;
* so is each argument rule, which every caller's number goes through:
  :func:`_require_finite` (a real, optionally with a floor),
  :func:`_require_positive_finite`, :func:`_require_vector` (a frequency,
  centre or location: one finite real per axis), :func:`_require_radii`,
  :func:`_require_integer`, :func:`_require_items` (a sequence, such as
  seeds, or of tuples, such as grid axes, mixture components or balls) and
  :func:`_require_type` (an object of a named class, such as a point set).
  Each checks before it converts, returns Python floats (ints, float64
  arrays, lists), and refuses in one wording.  The entries of a vector, of
  :func:`as_points`' points, of atom weights and of a spectrum's amplitudes
  and mask pass one scan, :func:`_numbers`, which refuses a str, None or a
  bool among numbers rather than cast it;
* :func:`nearest` is the one nearest-neighbour primitive: exact Euclidean
  distances plus the index of the target attaining them.  1-d makes the same
  binary search; higher dimensions grow a pair search radius until every
  query has a partner, in query chunks that keep each enumeration within
  the budget.
"""

from __future__ import annotations

import itertools
import math
import numbers
import reprlib

import numpy as np

from .errors import InsufficientExtentError, InvalidArgumentError

__all__ = [
    "as_points",
    "lex_sort",
    "lex_order_faults",
    "sq_norms",
    "window_mask",
    "require_extent",
    "min_pairwise_gap",
    "nearest",
    "ball_volume",
]


def as_points(points, dim: int | None = None) -> np.ndarray:
    """Coerce input to a float64 (n, d) array without copying when possible.
    Entries that are no real numbers and ragged rows are refused, never cast."""
    pts = _numbers(points, "iuf")
    if pts is None:
        raise InvalidArgumentError(f"points must be real numbers in rows of one length, "
                                   f"got {reprlib.repr(points)}")
    pts = pts.astype(np.float64, copy=False)
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


def lex_order_faults(points: np.ndarray) -> tuple[int | None, int | None]:
    """Indices of the first point below, and of the first equal to, its
    predecessor in lexicographic order (None if none); NaN counts as below."""
    pts = as_points(points)
    a, b = pts[:-1], pts[1:]
    # the first coordinate where consecutive points differ decides the order
    neq = a != b
    rows = np.arange(len(a))
    first = np.argmax(neq, axis=1)
    duplicated = ~neq[rows, first]
    inverted = ~(duplicated | (a[rows, first] < b[rows, first]))
    return tuple(int(np.argmax(m)) + 1 if m.any() else None for m in (inverted, duplicated))


def sq_norms(points: np.ndarray) -> np.ndarray:
    pts = as_points(points)
    return np.einsum("ij,ij->i", pts, pts)


def window_mask(points: np.ndarray, radius: float) -> np.ndarray:
    """Boolean mask of points inside the closed origin ball of given radius."""
    return sq_norms(points) <= radius * radius


def _finite_float(value) -> float | None:
    """The Python float of a finite ``numbers.Real`` (numpy's count; a bool,
    ``np.bool_`` and an int past the float range do not), else None."""
    if type(value) is not float:  # a Python float skips the ABC check
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            return None
        try:
            value = float(value)
        except OverflowError:
            return None
    return value if math.isfinite(value) else None


def _require_finite(value, what: str, low: float | None = None) -> float:
    """``value`` as a float if it is a finite real number, and >= ``low`` if given."""
    v = _finite_float(value)
    if v is None or (low is not None and not v >= low):
        floor = "" if low is None else f" and >= {low!r}"
        raise InvalidArgumentError(f"{what} must be finite{floor}, got {value!r}")
    return v


def _require_positive_finite(value, what: str) -> float:
    """``value`` as a float if it is a finite real number > 0."""
    # the generators also call this, because an infinite extent or intensity
    # would overflow, loop or enumerate nothing
    v = _finite_float(value)
    if v is None or not v > 0:
        raise InvalidArgumentError(f"{what} must be a positive finite number, got {value!r}")
    return v


def _numbers(values, kinds: str) -> np.ndarray | None:
    """``values`` as an array whose dtype kind is one of ``kinds`` ("iuf" for
    reals, "iufc" for complex numbers, "b" for a mask), or None where it is
    not: a str, None, other object entry, a bool among numbers and ragged
    rows are refused, never cast."""
    try:
        v = np.asarray(values)
    except ValueError:  # ragged rows
        return None
    if v.dtype.kind not in kinds:
        return None
    # numpy casts a bool among numbers to 1.0 or 0; a numeric array holds
    # none, so only the entries of other input are looked at
    if v.dtype.kind != "b" and not isinstance(values, np.ndarray) and not {
            bool, np.bool_}.isdisjoint(map(type, np.asarray(values, dtype=object).flat)):
        return None
    return v


def _require_vector(values, what: str, length: int | None = None, rows: bool = False):
    """``values`` as a float64 array of finite reals: one vector of ``length``
    entries (any length when None) or, with ``rows``, a 2-d array of such rows,
    where an empty sequence is zero rows.  Entries go through :func:`_numbers`."""
    v = _numbers(values, "iuf")
    if v is not None and rows and v.shape == (0,):
        v = v.reshape(0, length)
    if not (v is not None and v.ndim == 1 + rows and length in (None, v.shape[-1])
            and np.isfinite(v).all()):
        shape = ("rows" if rows else "one vector") + (f" of length {length}" if length else "")
        raise InvalidArgumentError(f"{what} must be finite reals: {shape}, got {reprlib.repr(values)}")
    return v.astype(np.float64, copy=False)


def _require_integer(value, what: str, low: int = 0) -> int:
    """``value`` as an int if it is an integer >= ``low``; a bool or float (even 3.0) is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        wanted = f"an integer >= {low}" if low else "a non-negative integer"
        raise InvalidArgumentError(f"{what} must be {wanted}, got {value!r}")
    return int(value)


def _require_radii(values, what: str) -> tuple[float, ...]:
    """Nonempty, positive, finite and strictly increasing radii, as a tuple of floats."""
    radii = _require_vector(values, what)
    if not (len(radii) and 0 < radii[0] and (radii[:-1] < radii[1:]).all()):
        raise InvalidArgumentError(f"{what} must be a list 0 < r_1 < ... < r_n < inf, n >= 1")
    return tuple(radii.tolist())


def _require_items(values, what: str, form: str, size: int | None = None) -> list:
    """The items of the sequence ``values``, each as a tuple of ``size``
    entries when ``size`` is given; ``form`` names what ``what`` must be."""
    try:
        items = list(values)
        if size is not None:
            items = [tuple(item) for item in items]
    except TypeError:  # not iterable
        items = None
    if items is None or size is not None and any(len(item) != size for item in items):
        raise InvalidArgumentError(f"{what} must be {form}, got {reprlib.repr(values)}")
    return items


def _require_type(value, kind, what: str):
    """``value`` itself if it is an instance of ``kind``, a class or a tuple
    of classes; a wrong object is refused with the type wanted named."""
    if not isinstance(value, kind):
        names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise InvalidArgumentError(f"{what} must be of type {names}, got {reprlib.repr(value)}")
    return value


def _power(x: float, d: int) -> float:
    """``x ** d`` as Python floats compute it, +inf where that overflows."""
    try:
        return float(x) ** d
    except OverflowError:
        return math.inf


def require_extent(radius: float, extent: float, what: str) -> float:
    """``radius`` as a float, refused when it is not a positive finite number
    or lies beyond the extent the data covers (1e-12 relative slack)."""
    radius = _require_positive_finite(radius, what)
    if radius > extent * (1.0 + 1e-12):
        raise InsufficientExtentError(
            f"{what} {radius!r} exceeds the available extent {extent!r}"
        )
    return radius


def min_pairwise_gap(points: np.ndarray) -> float:
    """Exact minimum pairwise Euclidean distance; +inf for < 2 points."""
    return _sorted_gap(lex_sort(points))


def _sorted_gap(pts: np.ndarray) -> float:
    """:func:`min_pairwise_gap` of an (n, d) array already in lexicographic
    order, as every PointSet's points are: it is not sorted again."""
    n, d = pts.shape
    if n < 2:
        return float("inf")
    if d == 1:
        return float(np.min(np.diff(pts[:, 0])))
    # the closest lexicographic neighbours give an attained upper bound u, and
    # every pair at distance <= u passes the strict test at nextafter(u)
    u = np.sqrt(sq_norms(np.diff(pts, axis=0))).min()
    _, pairs = _pair_runs(pts, pts, np.nextafter(u, np.inf),
                          "the minimum-gap check of a point set or measure")
    i, j = pairs(0, n)
    keep = i < j
    return float(np.sqrt(sq_norms(pts[j[keep]] - pts[i[keep]])).min())


# cells are cubes over at most this many leading axes, so a query visits at
# most 27 cells; the remaining axes are left to the Euclidean test
_CELL_AXES = 3

# The budgets: how much one call may build, each checked by _require_budget
# before any of it exists.
# candidate pairs of one pair enumeration; in 2-d each takes about 50 bytes
# across the index, coordinate and distance arrays, so ~1.7 GB at the budget
# where they are built at once (a rho_stat pair table); an autocorrelation
# builds them a block of rows at a time, so for it the budget bounds work
_CANDIDATE_BUDGET = 2**25
# window radii of one scan: LGrid.integers keeps each as a Python float,
# ~140 MB at the budget, and rho_gh takes one windowed Hausdorff distance each
_RADIUS_BUDGET = 2**22
# points (or integer candidates) one generator enumerates; a cut-and-project
# candidate holds n float64 lattice coordinates and its running share of the
# ellipsoid's squared radius, ~0.96 GB at n = 5
_ENUM_BUDGET = 20_000_000
# displacement coordinates (samples times axes) of one Monte Carlo estimate:
# a bound on its work, 2^22 planar samples taking about 1 s (x86-64); its
# memory is one block of samples, about 3.5 MB, whatever the count
_SAMPLE_BUDGET = 2**23
# nodes of one FrequencyGrid; a spectrum's amplitude, power and valid mask
# take 25 bytes a node, ~105 MB at the budget
_NODE_BUDGET = 2**22
# fine-grid nodes plus kernel taps of one grid spectrum's non-uniform FFT:
# a fine node takes up to 64 bytes at once (the spread grid, its transform,
# pocketfft's buffer and the amplitudes taken from it), a tap 16 to 24 (an
# index and a weight), so ~540 MB at the budget
_SPREAD_BUDGET = 2**23
# phase-table entries of one sum at a free list of frequencies, frequencies
# times points: a bound on its work, as the sum takes one frequency at a
# time; its memory is one row of phases, 24 bytes a point
_TABLE_BUDGET = 2**24


def _require_budget(count, budget: int, what: str) -> None:
    """Refuse a ``count`` of ``what`` over ``budget``, or a NaN count; callers
    work the count out from sizes, before anything it counts exists."""
    if not count <= budget:
        raise InvalidArgumentError(f"{count!r} {what}, over the budget of {budget}")


def _cell_ranges(a: np.ndarray, b: np.ndarray, r: float):
    """Cell list for ``_close_pairs`` in d >= 2, over the first g = min(d, 3) axes.

    Returns the orders that sort ``a`` and ``b`` by cell key, and the start
    and length in sorted ``b`` of every candidate run of every sorted query,
    one block of len(a) runs per shift.  A query has 3^(g-1) runs: the cells
    of its 3^g neighbourhood that differ only on the first axis are
    consecutive keys, so one run covers three of them.

    Cells have side w = max(r (1 + 2^-20), m 2^-e, 2^-500), with m the
    largest |coordinate| on those axes and e = floor(60 / g) - 2:

    * |p / w| <= 2^e, so a cell index c = floor(p / w) lies in [-2^e, 2^e],
      and c + 2^e + 1 and its two neighbours lie in [0, B) with
      B = 2^(e+1) + 3.  The key sums those digits in base B, and B^g < 2^59
      for g = 2 and 3, so no key overflows int64;
    * the quotient p / w is rounded with an absolute error of at most
      2^(e-53) <= 2^-25.  A difference of at least 2^-501 has a normal
      square, so a pair that passes the strict test differs by less than
      max(r (1 + d 2^-52), 2^-501) < w (1 - 2^-21) on every axis (a pair
      whose squares underflow passes at any r), so its rounded quotients
      differ by less than 1 and its cells by at most 1 on every axis: every
      passing pair is among the candidates.
    """
    g = min(a.shape[1], _CELL_AXES)
    e = 60 // g - 2
    m = max(np.abs(a[:, :g]).max(), np.abs(b[:, :g]).max())
    w = max(r * (1.0 + 2.0**-20), m * 2.0**-e, 2.0**-500)
    digit = (2 ** (e + 1) + 3) ** np.arange(g, dtype=np.int64)

    def keys(p):
        return (np.floor(p[:, :g] / w).astype(np.int64) + (2**e + 1)) @ digit

    # sorted queries let searchsorted narrow each search from the last hit,
    # and sorted sets keep the candidates' coordinate reads local
    ka, kb = keys(a), keys(b)
    qa, qb = np.argsort(ka, kind="stable"), np.argsort(kb, kind="stable")
    kb = kb[qb]
    shifts = np.array(list(itertools.product((-1, 0, 1), repeat=g - 1)), dtype=np.int64)
    cells = (shifts @ digit[1:])[:, None] + ka[qa]
    lo = np.searchsorted(kb, cells - 1, side="left")
    n = np.searchsorted(kb, cells + 1, side="right") - lo
    return qa, qb, lo.ravel(), n.ravel()


def _pair_runs(a: np.ndarray, b: np.ndarray, r: float,
               why: str = "max_range, --max-range, bounds them"):
    """The candidates of ``_close_pairs(a, b, r)``, counted before any is built.

    More than ``_CANDIDATE_BUDGET`` candidates over all of ``a`` are
    refused, with ``why`` in parentheses: what bounds them, or the check
    that asked for them.
    Returns the candidate count of every query, in input order, and a
    function ``pairs(start, stop)`` that builds the pairs of queries
    start..stop-1 as ``_close_pairs`` does, with i indexing ``a``: a caller
    may check the whole count, then build the pairs a block of queries at
    a time, each block for the same cell list.
    """
    if len(a) == 0 or len(b) == 0:
        return np.zeros(len(a), dtype=np.intp), lambda start, stop: (
            np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
    if a.shape[1] == 1:
        # the closed interval [a - r, a + r] holds every pair that passes
        # the comparison below, whichever way a +- r rounds
        t, q = b[:, 0], a[:, 0]
        lo = np.searchsorted(t, q - r, side="left")
        n = np.searchsorted(t, q + r, side="right") - lo
        qa = qb = None
        counts = n
    else:
        qa, qb, lo, n = _cell_ranges(a, b, r)
        a, b = a[qa], b[qb]
        # each query's place in key order
        place = np.empty_like(qa)
        place[qa] = np.arange(len(a))
        counts = n.reshape(-1, len(a)).sum(axis=0)[place]
    _require_budget(int(n.sum()), _CANDIDATE_BUDGET, f"candidate pairs at radius {float(r)!r} "
                    f"over {len(a)} x {len(b)} points ({why})")

    def pairs(start: int, stop: int):
        if qa is None:
            rows, runs = np.arange(start, stop), slice(start, stop)
        elif stop - start == len(a):
            # every query: the runs as they lie.  The block path below gives
            # the same pairs, but gathers three arrays of 3^(g-1) n entries,
            # which raised the peak of a 3.8M-atom planar merge by a quarter
            rows, runs = np.tile(np.arange(len(a)), len(n) // len(a)), slice(None)
        else:
            # the block's queries in key order, in each shift's runs
            rows = np.sort(place[start:stop])
            runs = (np.arange(0, len(n), len(a))[:, None] + rows).ravel()
            rows = np.tile(rows, len(n) // len(a))
        size, first = n[runs], lo[runs]
        total = int(size.sum())
        i = np.repeat(rows, size)
        j = np.arange(total) + np.repeat(first - (np.cumsum(size) - size), size)
        # np.take gathers rows several times faster than fancy indexing
        strict = np.sqrt(sq_norms(np.take(b, j, axis=0) - np.take(a, i, axis=0))) < r
        i, j = i[strict], j[strict]
        if qa is not None:
            # back from key order to input indices, in (i, j) order
            i, j = np.divmod(np.sort(qa[i] * len(b) + qb[j]), len(b))
        return i, j

    return counts, pairs


def _close_pairs(a: np.ndarray, b: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) with ``b[j]`` at Euclidean distance strictly below
    ``r`` from ``a[i]``, in (i, j) order.

    In 1-d ``b`` must be sorted (every PointSet is); higher dimensions take
    any order.  Every candidate is decided by the same Euclidean comparison,
    which is symmetric in a and b, so one enumeration serves both directions.
    More than ``_CANDIDATE_BUDGET`` candidates are refused before any of them
    is built.
    """
    return _pair_runs(a, b, r)[1](0, len(a))


def nearest(queries: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each query point to its nearest target, and that target's index.

    With no targets every distance is +inf and every index is ``len(targets)``,
    which is never a valid index.  An exact tie goes, in 1-d, to the right
    neighbour, and in higher dimensions to the lowest target index.
    """
    q = as_points(queries)
    t = as_points(targets)
    if q.shape[1] != t.shape[1]:
        raise InvalidArgumentError("dimension mismatch in nearest")
    if len(q) == 0:
        return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.intp)
    if len(t) == 0:
        return np.full(len(q), np.inf), np.full(len(q), len(t), dtype=np.intp)
    if q.shape[1] == 1:
        order = np.argsort(t[:, 0], kind="stable")
        ts = t[order, 0]
        x = q[:, 0]
        idx = np.searchsorted(ts, x)
        left = np.clip(idx - 1, 0, len(ts) - 1)
        right = np.clip(idx, 0, len(ts) - 1)
        d_left, d_right = np.abs(x - ts[left]), np.abs(x - ts[right])
        return np.minimum(d_left, d_right), order[np.where(d_right <= d_left, right, left)]
    dist = np.full(len(q), np.inf)
    index = np.full(len(q), len(t), dtype=np.intp)
    # start near the targets' mean spacing, taken from their interquartile
    # box so that one far outlier does not inflate it, then double the radius
    # for the queries that still have no target strictly inside it; a query
    # with one has all its targets at distance < r among the pairs, so its
    # nearest too; once r overflows, only distances that overflow stay inf
    iqr = np.subtract(*np.quantile(t, [0.75, 0.25], axis=0)).max()
    r = 2.0 * iqr / len(t) ** (1.0 / t.shape[1]) or 1.0
    # nor below the gap between the two sets' bounding boxes, which no
    # query-target distance undercuts: far-apart sets skip the empty rounds.
    # When even their farthest corners lie within twice that gap, start just
    # past those corners instead, where one round pairs every query.
    # numpy reduces the rows of a transposed copy far faster than the
    # columns of an (n, d) array
    (q_lo, q_hi), (t_lo, t_hi) = [(p.min(axis=1), p.max(axis=1)) for p in (q.T.copy(), t.T.copy())]
    apart = np.maximum(q_lo - t_hi, t_lo - q_hi).clip(min=0.0)
    span = np.maximum(q_hi - t_lo, t_hi - q_lo)
    gap, far = math.sqrt(apart @ apart), math.sqrt(span @ span) * (1.0 + 2.0**-20)
    r = far if far < 2.0 * gap else max(r, gap)
    # a query has at most len(t) candidates, so no chunk exceeds the budget
    chunk = max(1, _CANDIDATE_BUDGET // len(t))
    todo = np.arange(len(q))
    while len(todo) and r < np.inf:
        for part in np.split(todo, range(chunk, len(todo), chunk)):
            i, j = _close_pairs(np.take(q, part, axis=0), t, r)
            d = np.sqrt(sq_norms(np.take(t, j, axis=0) - np.take(q, part[i], axis=0)))
            first = np.flatnonzero(np.diff(i, prepend=-1))
            best = np.minimum.reduceat(d, first)
            # a query's pairs come in increasing j, so its first pair at the
            # minimum has the lowest tied index
            at = np.flatnonzero(d == np.repeat(best, np.diff(first, append=len(i))))
            at = at[np.diff(i[at], prepend=-1) > 0]
            dist[part[i[at]]], index[part[i[at]]] = d[at], j[at]
        todo = todo[index[todo] == len(t)]
        r *= 2.0
    return dist, index


_UNIT_BALL_VOL = {0: 1.0}


def ball_volume(dim: int, radius: float = 1.0) -> float:
    """Lebesgue volume of the d-ball, via the even/odd closed forms; inf on overflow."""
    _require_integer(dim, "dim")
    if dim not in _UNIT_BALL_VOL:
        # omega_d = pi^{d/2} / Gamma(d/2 + 1); past d = 341 Gamma overflows,
        # and the quotient, taken through its logarithm, underflows soon after
        try:
            _UNIT_BALL_VOL[dim] = math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)
        except OverflowError:
            _UNIT_BALL_VOL[dim] = math.exp(dim / 2 * math.log(math.pi) - math.lgamma(dim / 2 + 1))
    return _UNIT_BALL_VOL[dim] * _power(radius, dim)
