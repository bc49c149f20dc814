"""Distance computations between uniformly discrete windows."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import quasidiff.geometry
from quasidiff import metrics
from quasidiff.errors import (
    InsufficientExtentError,
    InvalidArgumentError,
    NotUniformlyDiscreteError,
)
from quasidiff.metrics import (
    LGrid,
    MetricResult,
    hausdorff_distance,
    mismatch_sets,
    ratio_sup,
    rho_aut,
    rho_gh,
    rho_stat,
)
from quasidiff.geometry import lex_sort, min_pairwise_gap
from quasidiff.pointset import PointSet, gen_lattice, gen_poisson, remove_near, window

from conftest import remove_points, shifted_lattice

GRID_1000 = LGrid.integers(1000)


def lattice_minus_squares(extent: float = 1001.0):
    base = gen_lattice(1, 1.0, extent)
    squares = [float(k * k) for k in range(2, int(math.isqrt(int(extent))) + 1)]
    return base, remove_points(base, squares)


# ---------------------------------------------------------------------------
# mismatch_sets


class TestMismatchSets:
    def test_shifted_pair_small_eps(self):
        x = gen_lattice(1, 1.0, 10.0)
        y = shifted_lattice(0.3, 10.0)
        a_xy, a_yx = mismatch_sets(x, y, 2.5, 0.2)
        # independent oracle: brute-force nearest-neighbor over the windows
        wx = x.points[np.abs(x.points[:, 0]) <= 2.5]
        wy = y.points[np.abs(y.points[:, 0]) <= 2.5]
        nearest = np.abs(wx[:, None, 0] - wy[None, :, 0]).min(axis=1)
        assert np.allclose(nearest, 0.3, atol=1e-12)
        assert len(a_xy) == 5
        assert len(a_yx) == 5

    def test_shifted_pair_large_eps(self):
        x = gen_lattice(1, 1.0, 10.0)
        y = shifted_lattice(0.3, 10.0)
        a_xy, a_yx = mismatch_sets(x, y, 2.5, 0.35)
        assert len(a_xy) == 0
        assert len(a_yx) == 0

    @pytest.mark.parametrize("eps", [1e-9, 0.3, 2.0])
    def test_identity_empty(self, eps):
        x = gen_lattice(1, 1.0, 10.0)
        a_xy, a_yx = mismatch_sets(x, x, 5.0, eps)
        assert len(a_xy) == 0
        assert len(a_yx) == 0

    def test_ties_at_eps_count_as_mismatched(self):
        # classification is d >= eps with no floating slack; a shift of 0.25
        # is a power of two, so every nearest distance is bit-exactly 0.25
        x = gen_lattice(1, 1.0, 10.0)
        y = shifted_lattice(0.25, 10.0)
        a_xy, _ = mismatch_sets(x, y, 2.5, 0.25)
        assert len(a_xy) == 5

    def test_window_beyond_extent(self):
        x = gen_lattice(1, 1.0, 10.0)
        with pytest.raises(InsufficientExtentError):
            mismatch_sets(x, x, 11.0, 0.2)


# ---------------------------------------------------------------------------
# ratio_sup


@pytest.mark.parametrize("value", [-1.0, math.nan])
def test_metric_value_must_be_nonnegative(value):
    # a NaN passed the check `value < 0`
    with pytest.raises(InvalidArgumentError, match="metric values are nonnegative"):
        MetricResult(value)


class TestRatioSup:
    def test_square_defects_exponent_one(self, lattice_1001):
        _, defective = lattice_minus_squares()
        res = ratio_sup(lattice_1001, defective, 0.3, 1.0, GRID_1000)
        assert res.value == 0.25
        assert res.attained_L == 4.0

    def test_square_defects_exponent_half(self, lattice_1001):
        _, defective = lattice_minus_squares()
        res = ratio_sup(lattice_1001, defective, 0.3, 0.5, GRID_1000)
        assert res.value == pytest.approx(30 / 31, abs=1e-12)
        assert res.attained_L == 961.0

    def test_identity_zero(self, lattice_1001):
        res = ratio_sup(lattice_1001, lattice_1001, 0.3, 1.0, GRID_1000)
        assert res.value == 0.0

    def test_monotone_nonincreasing_in_eps(self):
        x = gen_lattice(1, 1.0, 120.0)
        y = remove_points(shifted_lattice(0.2, 120.0), [3.2, 50.2, 77.2])
        grid = LGrid.integers(100)
        values = [
            ratio_sup(x, y, eps, 1.0, grid).value
            for eps in [0.05, 0.1, 0.19, 0.21, 0.3, 0.45]
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_rejects_bad_exponent(self, lattice_1001):
        with pytest.raises(InvalidArgumentError):
            ratio_sup(lattice_1001, lattice_1001, 0.3, 1.5, GRID_1000)


# ---------------------------------------------------------------------------
# ratio_sup and mismatch_sets against an O(n^2) brute force

SMALL_EXTENT = 8.0
SMALL_GRID = LGrid((0.5, 1.0, 2.0, 3.5, 5.0, 8.0))
# quarter-integers make exact ties at eps = 0.25 and 0.5 common
SMALL_COORDS = st.one_of(
    st.integers(-20, 20).map(lambda k: k / 4),
    st.floats(-5.0, 5.0, allow_nan=False),
)
# below half the quarter-integer separation, at ties, above it, and anywhere
SMALL_EPS = st.one_of(
    st.sampled_from([0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 2.5]),
    st.floats(1e-3, 3.0),
)


def small_sets(dim: int):
    def build(pts):
        return PointSet(dim, 0.0, SMALL_EXTENT, np.unique(pts, axis=0).reshape(-1, dim))

    return st.integers(0, 14).flatmap(
        lambda n: arrays(np.float64, (n, dim), elements=SMALL_COORDS).map(build)
    )


SMALL_PAIRS = st.sampled_from([1, 2]).flatmap(
    lambda dim: st.tuples(small_sets(dim), small_sets(dim))
)

# |(1, 1.6e-8)|^2 rounds to 1 + 2^-52 > 1, but its square root rounds to 1.0,
# so comparing the norm with the radius put the point inside the radius-1 window
SQRT_EDGE = (
    PointSet(2, 0.0, SMALL_EXTENT, np.array([[0.0, 0.0]])),
    PointSet(2, 0.0, SMALL_EXTENT, np.array([[0.0, 0.0], [1.0, 1.6034438376935757e-08]])),
)


def brute_mismatches(a: np.ndarray, b: np.ndarray, radius: float, eps: float) -> np.ndarray:
    """Points of a's radius-window with no point of b's window closer than eps."""
    wa = a[(a**2).sum(axis=1) <= radius * radius]
    wb = b[(b**2).sum(axis=1) <= radius * radius]
    dist = np.sqrt(((wa[:, None, :] - wb[None, :, :]) ** 2).sum(axis=2))
    return wa[~(dist < eps).any(axis=1)]


def assert_matches_brute_force(x: PointSet, y: PointSet, eps: float) -> None:
    radii = SMALL_GRID.array()
    counts = np.array(
        [
            len(brute_mismatches(x.points, y.points, r, eps))
            + len(brute_mismatches(y.points, x.points, r, eps))
            for r in radii
        ]
    )
    ratios = counts / radii ** x.dim
    best = int(np.argmax(ratios))
    for a, b in ((x, y), (y, x)):
        res = ratio_sup(a, b, eps, float(x.dim), SMALL_GRID)
        assert (res.value, res.attained_L) == (ratios[best], radii[best])
    for r in radii:
        a_xy, a_yx = mismatch_sets(x, y, r, eps)
        assert np.array_equal(a_xy, brute_mismatches(x.points, y.points, r, eps))
        assert np.array_equal(a_yx, brute_mismatches(y.points, x.points, r, eps))


class TestMismatchAgainstBruteForce:
    @settings(max_examples=300, deadline=None)
    @given(pair=SMALL_PAIRS, eps=SMALL_EPS)
    @example(pair=SQRT_EDGE, eps=0.05)
    def test_random_small_sets(self, pair, eps):
        assert_matches_brute_force(*pair, eps)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("eps", [0.1, 0.25, 0.3])
    def test_quarter_shift(self, dim, eps):
        # every nearest distance is bit-exactly 0.25: eps <= 0.25 mismatches all points
        x = gen_lattice(dim, 1.0, SMALL_EXTENT)
        shifted = x.points + np.array([0.25] + [0.0] * (dim - 1))
        y = PointSet(dim, 1.0, SMALL_EXTENT, shifted[(shifted**2).sum(axis=1) <= SMALL_EXTENT**2])
        assert_matches_brute_force(x, y, eps)
        if eps <= 0.25:
            a_xy, a_yx = mismatch_sets(x, y, 5.0, eps)
            assert len(a_xy) == int(((x.points**2).sum(axis=1) <= 25.0).sum())

    @pytest.mark.parametrize("dim", [1, 2])
    def test_empty_window_on_one_side(self, dim):
        # y has no point within radius 2, so against y's small windows every
        # point of x is mismatched, and x's empty side contributes nothing
        x = gen_lattice(dim, 1.0, SMALL_EXTENT)
        far = x.points[(x.points**2).sum(axis=1) > 4.0]
        y = PointSet(dim, 1.0, SMALL_EXTENT, far)
        assert_matches_brute_force(x, y, 0.3)
        a_xy, a_yx = mismatch_sets(x, y, 1.0, 0.3)
        assert len(a_xy) == int(((x.points**2).sum(axis=1) <= 1.0).sum())
        assert len(a_yx) == 0


# ---------------------------------------------------------------------------
# rho_stat


class TestRhoStat:
    def test_identity_exact_zero(self, lattice_1001):
        assert rho_stat(lattice_1001, lattice_1001, GRID_1000).value == 0.0

    def test_square_defects(self, lattice_1001):
        _, defective = lattice_minus_squares()
        res = rho_stat(lattice_1001, defective, GRID_1000)
        # counts are eps-independent below 0.5, so the infimum is exactly the
        # peak mismatch ratio 0.25 and bisection lands within eps_tol of it
        assert abs(res.value - 0.25) <= 1e-6
        assert not res.capped

    def test_near_half_shift_caps(self, lattice_1001):
        shifted = shifted_lattice(0.49, 1001.0)
        res = rho_stat(lattice_1001, shifted, GRID_1000)
        assert res.value == 0.5
        assert res.capped

    @pytest.mark.parametrize("eps_tol", [math.inf, math.nan, 0.0, -1e-6])
    def test_eps_tol_must_be_positive_and_finite(self, lattice_1001, eps_tol):
        # an infinite eps_tol skipped the bisection and reported the cap as uncapped
        _, defective = lattice_minus_squares()
        for x, y in ((lattice_1001, defective), (lattice_1001, lattice_1001)):
            with pytest.raises(InvalidArgumentError, match="eps_tol must be a positive finite number"):
                rho_stat(x, y, GRID_1000, eps_tol=eps_tol)

    def test_zero_separation_rejected(self, lattice_1001):
        noise = gen_poisson(1.0, 1, 200.0, seed=3)
        with pytest.raises(NotUniformlyDiscreteError):
            rho_stat(lattice_1001, noise, LGrid.integers(100))

    def test_grid_beyond_extent(self):
        x = gen_lattice(1, 1.0, 50.0)
        y = shifted_lattice(0.2, 50.0)
        with pytest.raises(InsufficientExtentError):
            rho_stat(x, y, LGrid.integers(60))


# ---------------------------------------------------------------------------
# the pair table that rho_stat hands to its probes


def moved_lattice(dim: int, extent: float, seed: int) -> PointSet:
    """The unit lattice with eight points moved by up to 0.2 per axis and
    eight dropped, so mismatch counts change at many eps below the cap."""
    rng = np.random.default_rng(seed)
    pts = gen_lattice(dim, 1.0, extent).points.copy()
    pick = rng.choice(len(pts), size=16, replace=False)
    pts[pick[:8]] += rng.uniform(-0.2, 0.2, size=(8, dim))
    pts = lex_sort(np.delete(pts, pick[8:], axis=0))
    return PointSet(dim, min_pairwise_gap(pts), extent + 0.5, pts)


def call_log(monkeypatch, name: str) -> list:
    """The (positional, keyword) arguments of every call of ``metrics.<name>`` from now on."""
    calls = []
    inner = getattr(metrics, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return inner(*args, **kwargs)

    monkeypatch.setattr(metrics, name, counted)
    return calls


@pytest.fixture
def enumerations(monkeypatch):
    """The number of pair enumerations the metrics have made so far."""
    return call_log(monkeypatch, "_pair_runs")


@pytest.fixture
def countings(monkeypatch):
    """The number of mismatch counts (two per counted ratio) made so far."""
    return call_log(monkeypatch, "_matched_counts")


def pair_distances(x: PointSet, y: PointSet) -> np.ndarray:
    """Every distance between a point of x and a point of y, sorted."""
    diff = x.points[:, None, :] - y.points[None, :, :]
    return np.sort(np.sqrt((diff**2).sum(axis=2)), axis=None)


class TestPairTable:
    def test_a_table_over_the_pair_budget_is_refused_naming_the_table(self, monkeypatch):
        # the refusal named max_range and --max-range, which dist lacks
        monkeypatch.setattr(quasidiff.geometry, "_CANDIDATE_BUDGET", 10)
        x = gen_lattice(1, 1.0, 20.0)
        refusal = (r"^21 candidate pairs at radius 0.5 over 41 x 21 points "
                   r"\(the mismatch ratio's close-pair table\), over the budget of 10$")
        with pytest.raises(InvalidArgumentError, match=refusal):
            rho_stat(x, window(x, 10.0), LGrid.integers(5))

    @pytest.mark.parametrize("dim, extent", [(1, 60.0), (2, 9.0)])
    def test_every_call_enumerates_once_and_keeps_no_history(self, dim, extent, enumerations):
        x, y = moved_lattice(dim, extent, 1), moved_lattice(dim, extent, 2)
        grid = LGrid.integers(int(extent))
        # the lattice points of x and of this copy lie exactly 0.25 apart
        quarter = PointSet(dim, x.sep_radius, x.extent, x.points + np.eye(dim)[0] / 4)
        d = float(dim)
        cap = min(x.sep_radius, y.sep_radius) / 2
        # two eps strictly between the same two pair distances select one prefix
        dists = pair_distances(x, y)
        lo, hi = dists[dists >= 0.1][:2]
        assert lo < hi < 0.3
        e1, e2 = lo + (hi - lo) / 3, lo + 2 * (hi - lo) / 3
        calls = [
            lambda: ratio_sup(x, y, 0.3, d, grid),
            lambda: ratio_sup(x, y, 0.2, d, grid),
            lambda: ratio_sup(x, y, 0.05, d, grid),
            lambda: ratio_sup(x, y, 0.3, d / 2, grid),
            lambda: ratio_sup(x, y, e1, d, grid),
            lambda: ratio_sup(x, y, e2, d, grid),
            lambda: ratio_sup(x, y, hi, d, grid),  # ties mismatch
            lambda: ratio_sup(x, y, e2, d / 2, grid),
            lambda: ratio_sup(x, y, e1, d / 2, grid),
            lambda: ratio_sup(x, y, 0.45, d, grid),
            lambda: ratio_sup(x, y, 0.1, d, grid),
            lambda: ratio_sup(y, x, 0.1, d, grid),
            lambda: ratio_sup(x, quarter, 0.45, d, grid),
            lambda: ratio_sup(x, quarter, 0.25, d, grid),  # ties mismatch
            lambda: rho_stat(x, y, grid, eps_tol=1e-5),
            lambda: ratio_sup(x, y, cap / 3, d, grid),
            lambda: ratio_sup(x, y, 2 * cap, d, grid),
        ]
        first = []
        for step, call in enumerate(calls):
            before = len(enumerations)
            first.append(repr(call()))
            assert len(enumerations) == before + 1, step
        # the same calls in reverse order, each after every other, repeat themselves
        for step in reversed(range(len(calls))):
            assert repr(calls[step]()) == first[step], step
        assert len(set(first)) >= 5  # the sequence sees distinct ratios

    @pytest.mark.parametrize("dim, extent", [(1, 60.0), (2, 9.0)])
    def test_each_probe_gets_the_result_of_a_lone_call(self, monkeypatch, dim, extent):
        # a probe reads a prefix of the table rho_stat enumerated at its cap;
        # a lone call enumerates at its own eps and must select the same pairs
        x, y = moved_lattice(dim, extent, 1), moved_lattice(dim, extent, 2)
        grid = LGrid.integers(int(extent))
        probes = call_log(monkeypatch, "ratio_sup")
        assert not rho_stat(x, y, grid, eps_tol=1e-5).capped
        assert len(probes) > 2
        for args, kwargs in probes:
            assert set(kwargs) == {"_table"}
            assert repr(ratio_sup(*args, **kwargs)) == repr(ratio_sup(*args))
        # ties mismatch in a handed table too: these pairs lie exactly 0.25 apart
        quarter = PointSet(dim, x.sep_radius, x.extent, x.points + np.eye(dim)[0] / 4)
        table = metrics._pair_table(x, quarter, 0.45, grid)
        args = (x, quarter, 0.25, float(dim), grid)
        assert repr(ratio_sup(*args, _table=table)) == repr(ratio_sup(*args))

    def test_one_enumeration_per_rho_stat(self, enumerations):
        # the bisection makes ten probes here, and all read one pair table
        lattice = gen_lattice(1, 1.0, 60.0)
        defect = remove_near(lattice, [(55.0,), (-57.0,)], tol=0.25)
        res = rho_stat(lattice, defect, LGrid.integers(60), eps_tol=1e-3)
        assert not res.capped
        assert len(enumerations) == 1

    def test_one_count_per_distinct_prefix(self, monkeypatch, enumerations, countings):
        # a probe counts mismatches only when it selects a prefix of the pair
        # table that no earlier probe of that table selected
        lattice = gen_lattice(1, 1.0, 60.0)
        x, y = lattice, remove_near(lattice, [(55.0,), (-57.0,)], tol=0.25)
        probes = call_log(monkeypatch, "ratio_sup")
        res = rho_stat(x, y, LGrid.integers(60), eps_tol=1e-3)
        assert not res.capped
        dists = pair_distances(x, y)
        prefixes = {int(np.count_nonzero(dists < args[2])) for args, _ in probes}
        assert len(countings) == 2 * len(prefixes) < 2 * len(probes)


# ---------------------------------------------------------------------------
# rho_stat against the exact infimum

ORACLE_EXTENT = {1: 40.0, 2: 7.0}
ORACLE_EPS_TOL = 1e-6


def edited_lattices(dim: int):
    """The unit lattice with up to six points each moved by at most 0.3 per
    axis or dropped; sep_radius is the measured gap, at least 0.4."""
    base = gen_lattice(dim, 1.0, ORACLE_EXTENT[dim])
    shift = st.tuples(*[st.floats(-0.3, 0.3)] * dim)
    edits = st.lists(
        st.tuples(st.integers(0, len(base) - 1), st.one_of(st.none(), shift)),
        max_size=6,
        unique_by=lambda e: e[0],
    )

    def build(edits):
        pts = base.points.copy()
        for i, move in edits:
            if move is not None:
                pts[i] += move
        pts = lex_sort(np.delete(pts, [i for i, move in edits if move is None], axis=0))
        # moved points may leave the lattice's ball; the grid stops at its radius
        return PointSet(dim, min_pairwise_gap(pts), base.extent + 0.5, pts)

    return edits.map(build)


def exact_rho_stat(x: PointSet, y: PointSet, grid: LGrid) -> float | None:
    """inf {eps in (0, cap] : ratio(eps) < eps}, or None when no eps is feasible.

    Each window's nearest-partner distances are brute forced.  A mismatch
    count only changes at one of them, so the ratio is constant on each
    interval (lo, hi] between consecutive distances below the cap, and its
    feasible part is (max(lo, ratio), hi] when ratio < hi.  The ratio is
    nonincreasing, so the first nonempty part holds the infimum.
    """
    cap = min(x.sep_radius, y.sep_radius) / 2
    dist = np.sqrt(((x.points[:, None, :] - y.points[None, :, :]) ** 2).sum(axis=2))
    in_x, in_y = (x.points**2).sum(axis=1), (y.points**2).sum(axis=1)
    near = []
    for r in grid.array():
        d = dist[in_x <= r * r][:, in_y <= r * r]
        near.append((r, np.concatenate([d.min(axis=1, initial=np.inf), d.min(axis=0, initial=np.inf)])))

    def ratio(eps: float) -> float:
        return max(np.count_nonzero(n >= eps) / r**x.dim for r, n in near)

    lo = 0.0
    for hi in sorted({float(v) for _, n in near for v in n if 0 < v < cap}) + [cap]:
        value = ratio(hi)
        if value < hi:
            return max(lo, value)
        lo = hi
    return None


class TestRhoStatExactInfimum:
    @pytest.mark.parametrize("dim", [1, 2])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_within_eps_tol_above_the_exact_infimum(self, dim, data):
        x = data.draw(edited_lattices(dim), label="x")
        y = data.draw(edited_lattices(dim), label="y")
        grid = LGrid.integers(int(ORACLE_EXTENT[dim]))
        exact = exact_rho_stat(x, y, grid)
        res = rho_stat(x, y, grid, eps_tol=ORACLE_EPS_TOL)
        if exact is None:
            assert res.capped
            assert res.value == min(x.sep_radius, y.sep_radius) / 2
        else:
            assert not res.capped
            assert exact <= res.value <= exact + ORACLE_EPS_TOL


# ---------------------------------------------------------------------------
# hausdorff_distance


class TestHausdorff:
    def test_singletons(self):
        assert hausdorff_distance([0.0], [0.3]) == 0.3

    def test_shifted_windows(self):
        from quasidiff.pointset import window

        x = window(gen_lattice(1, 1.0, 10.0), 5.0)
        y = window(shifted_lattice(0.1, 10.0), 5.0)
        assert hausdorff_distance(x, y) == pytest.approx(0.9, abs=1e-12)

    def test_equal_zero(self):
        pts = [[0.0, 1.0], [2.0, -1.0]]
        assert hausdorff_distance(pts, pts) == 0.0

    def test_one_empty_infinite(self):
        assert hausdorff_distance([], [0.0]) == math.inf
        assert hausdorff_distance([0.0], []) == math.inf

    def test_both_empty_zero(self):
        assert hausdorff_distance([], []) == 0.0

    def test_symmetry_2d(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(-5, 5, size=(40, 2))
        b = rng.uniform(-5, 5, size=(25, 2))
        assert hausdorff_distance(a, b) == hausdorff_distance(b, a)


# ---------------------------------------------------------------------------
# rho_gh


class TestRhoGH:
    def test_identity_exact_zero(self):
        x = gen_lattice(1, 1.0, 10_000.0)
        assert rho_gh(x, x).value == 0.0

    def test_half_shift_caps(self):
        x = gen_lattice(1, 1.0, 10_000.0)
        y = shifted_lattice(0.5, 10_000.0)
        res = rho_gh(x, y)
        assert res.value == 0.25
        assert res.capped

    def test_small_shift(self):
        # feasible window radii 1/eps lie in [9.1, 9.9), so the first scanned
        # eps on the 1e-4 grid past 10/99 is 0.1011
        x = gen_lattice(1, 1.0, 10_000.0)
        y = shifted_lattice(0.1, 10_000.0)
        res = rho_gh(x, y)
        assert res.value == pytest.approx(0.1011, abs=1e-12)
        assert abs(res.value - 10 / 99) <= 2e-4
        assert not res.capped

    def test_insufficient_extent(self):
        x = gen_lattice(1, 1.0, 100.0)
        with pytest.raises(InsufficientExtentError):
            rho_gh(x, shifted_lattice(0.1, 100.0))
        # a coarser scan grid fits the same extent
        assert rho_gh(x, shifted_lattice(0.1, 100.0), eps_tol=0.01).value <= 0.25


# ---------------------------------------------------------------------------
# rho_aut


class TestRhoAut:
    def test_square_defects_sup(self, lattice_1001):
        _, defective = lattice_minus_squares()
        res = rho_aut(lattice_1001, defective, GRID_1000)
        assert res.value == 0.25
        assert res.attained_L == 4.0

    def test_identity_zero(self, lattice_1001):
        assert rho_aut(lattice_1001, lattice_1001, GRID_1000).value == 0.0

    @settings(max_examples=100, deadline=None)
    @given(pair=SMALL_PAIRS)
    @example(pair=SQRT_EDGE)
    def test_counts_the_windows_symmetric_difference(self, pair):
        x, y = pair
        radii = SMALL_GRID.array()
        counts = np.array(
            [
                len(set(map(tuple, window(x, r).points)) ^ set(map(tuple, window(y, r).points)))
                for r in radii
            ]
        )
        ratios = counts / radii**x.dim
        best = int(np.argmax(ratios))
        res = rho_aut(x, y, SMALL_GRID)
        assert res.value == ratios[best]
        if res.value > 0:  # equal sets return 0 without a radius
            assert res.attained_L == radii[best]


# ---------------------------------------------------------------------------
# shared metric properties


def random_defective_lattice(rng: np.random.Generator, extent: float) -> "PointSet":
    """Shifted integer lattice with a random sprinkling of removed points."""
    shift = float(rng.uniform(-0.5, 0.5))
    base = shifted_lattice(shift, extent)
    coords = base.points[:, 0]
    n_defects = int(rng.integers(0, 12))
    drop = rng.choice(coords, size=min(n_defects, len(coords)), replace=False)
    return remove_points(base, drop)


class TestMetricProperties:
    GRID = LGrid.integers(100)
    EXTENT = 120.0

    def pairs(self, count: int, seed: int):
        rng = np.random.default_rng(seed)
        return [
            (
                random_defective_lattice(rng, self.EXTENT),
                random_defective_lattice(rng, self.EXTENT),
            )
            for _ in range(count)
        ]

    def test_symmetry_bit_exact(self):
        for x, y in self.pairs(6, seed=101):
            assert rho_stat(x, y, self.GRID).value == rho_stat(y, x, self.GRID).value
            assert (
                ratio_sup(x, y, 0.25, 1.0, self.GRID).value
                == ratio_sup(y, x, 0.25, 1.0, self.GRID).value
            )
            assert (
                rho_aut(x, y, self.GRID).value
                == rho_aut(y, x, self.GRID).value
            )

    def test_triangle_inequality_sampled(self):
        eps_tol = 1e-6
        rng = np.random.default_rng(202)
        for _ in range(12):
            x = random_defective_lattice(rng, self.EXTENT)
            y = random_defective_lattice(rng, self.EXTENT)
            z = random_defective_lattice(rng, self.EXTENT)
            d_xz = rho_stat(x, z, self.GRID, eps_tol=eps_tol).value
            d_xy = rho_stat(x, y, self.GRID, eps_tol=eps_tol).value
            d_yz = rho_stat(y, z, self.GRID, eps_tol=eps_tol).value
            assert d_xz <= d_xy + d_yz + 2 * eps_tol

    def test_density_distance_dominates(self):
        for x, y in self.pairs(6, seed=303):
            stat = rho_stat(x, y, self.GRID).value
            aut = rho_aut(x, y, self.GRID).value
            assert stat <= aut + 1e-6

    def test_small_distance_forces_window_alignment(self, lattice_1001):
        # a value below eps < min(r0/2, 1) pins the Hausdorff distance of the
        # eps^(-1/d) windows under eps
        from quasidiff.pointset import window

        _, defective = lattice_minus_squares()
        checked = 0
        for eps in [0.26, 0.3, 0.45]:
            stat = rho_stat(lattice_1001, defective, GRID_1000).value
            if not (stat < eps < 0.5):
                continue
            radius = eps ** (-1.0)
            d_h = hausdorff_distance(
                window(lattice_1001, radius), window(defective, radius)
            )
            assert d_h < eps
            checked += 1
        assert checked == 3
