"""Atomic measures, pairings, autocorrelation, and vague-convergence proxies."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quasidiff import geometry, measures
from quasidiff.errors import InvalidArgumentError
from quasidiff.geometry import nearest, sq_norms
from quasidiff.measures import (
    AtomicMeasure,
    TestFamily,
    TestFunction,
    autocorrelation,
    dirac_comb,
    pair,
    portmanteau_check,
    tv_on_ball,
    vague_gap,
)
from quasidiff.metrics import LGrid, rho_stat
from quasidiff.pointset import (
    PointSet,
    ammann_beenker_config,
    gen_cut_project,
    gen_fibonacci,
    gen_lattice,
    window,
)

from conftest import traced_peak


def delta(coord: float) -> AtomicMeasure:
    return AtomicMeasure(1, np.array([[coord]]), np.array([1.0]))


def empty_measure(dim: int = 1) -> AtomicMeasure:
    return AtomicMeasure(dim, np.zeros((0, dim)), np.zeros(0, dtype=np.complex128))


def tents(lo: float, hi: float, count: int, radius: float) -> TestFamily:
    """``count`` tents with centres evenly spaced from lo to hi, in the ball their supports span."""
    funcs = tuple(TestFunction((c,), radius) for c in np.linspace(lo, hi, count))
    return TestFamily(funcs, ((lo + hi) / 2.0,), (hi - lo) / 2.0 + radius)


@pytest.fixture(scope="module")
def gamma_z2():
    return autocorrelation(gen_lattice(1, 1.0, 10.0), 2.0)


# ---------------------------------------------------------------------------
# dirac_comb


class TestDiracComb:
    def test_five_unit_atoms(self):
        comb = dirac_comb(window(gen_lattice(1, 1.0, 10.0), 2.0))
        assert len(comb) == 5
        assert np.all(comb.weights == 1.0)
        assert comb.bucket_tol == 0.0

    def test_total_mass_equals_count(self):
        for x in (gen_lattice(1, 1.0, 30.0), gen_fibonacci(30.0)):
            assert complex(dirac_comb(x).weights.sum()) == complex(len(x.points))

    def test_pairing_sees_single_atom(self):
        comb = dirac_comb(window(gen_lattice(1, 1.0, 10.0), 2.0))
        assert pair(comb, TestFunction((0.0,), 0.5, 1.0)) == 1.0


# ---------------------------------------------------------------------------
# autocorrelation


class TestAutocorrelation:
    def test_lattice_window_two_exact(self, gamma_z2):
        # independent enumeration: the 25 ordered pairs of {-2..2} hit the
        # differences -4..4 with multiplicities 1,2,3,4,5,4,3,2,1; /L = /2
        locs = gamma_z2.locations[:, 0]
        assert np.array_equal(locs, np.arange(-4.0, 5.0))
        expected = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 2.0, 1.5, 1.0, 0.5])
        assert np.array_equal(gamma_z2.weights.real, expected)
        assert np.all(gamma_z2.weights.imag == 0.0)

    def test_weight_at_origin_is_density(self):
        x = gen_fibonacci(30.0)
        gamma = autocorrelation(x, 20.0)
        count = len(window(x, 20.0).points)
        at_zero = gamma.mass_in_ball([0.0], 1e-12).real
        assert at_zero == pytest.approx(count / 20.0, abs=1e-12)

    def test_difference_symmetry(self):
        gamma = autocorrelation(gen_fibonacci(30.0), 20.0)
        locs = gamma.locations[:, 0]
        weights = gamma.weights.real
        for loc, w in zip(locs, weights):
            mirror = np.flatnonzero(np.abs(locs + loc) <= 1e-12)
            assert len(mirror) == 1
            assert weights[mirror[0]] == w

    def test_total_mass_is_squared_count_over_volume(self):
        for x, radius in ((gen_lattice(1, 1.0, 10.0), 2.0), (gen_fibonacci(30.0), 20.0)):
            gamma = autocorrelation(x, radius)
            count = len(window(x, radius).points)
            assert complex(gamma.weights.sum()).real == pytest.approx(
                count**2 / radius, rel=1e-12
            )

    def test_bucket_tol_bound(self):
        x = gen_lattice(1, 1.0, 10.0)
        with pytest.raises(InvalidArgumentError):
            autocorrelation(x, 2.0, bucket_tol=0.3)

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_measure_bucket_tol_must_be_finite_and_nonnegative(self, tol):
        # a NaN passed the check `bucket_tol < 0`
        with pytest.raises(InvalidArgumentError, match="bucket_tol must be finite and >= 0"):
            AtomicMeasure(1, [[0.0], [1.0]], [1.0, 1.0], tol)

    def test_max_range_matches_restriction(self):
        x = gen_fibonacci(30.0)
        full = autocorrelation(x, 20.0)
        near = autocorrelation(x, 20.0, max_range=3.0)
        keep = np.abs(full.locations[:, 0]) <= 3.0
        assert np.array_equal(near.locations, full.locations[keep])
        assert np.array_equal(near.weights, full.weights[keep])
        # 2-d: the two enumerations may pick different first-seen
        # representatives, so atoms are matched by position, not by index
        x = gen_cut_project(ammann_beenker_config(22.0))
        full = autocorrelation(x, 20.0)
        near = autocorrelation(x, 20.0, max_range=3.0)
        keep = np.sqrt(sq_norms(full.locations)) <= 3.0
        dist, idx = nearest(near.locations, full.locations[keep])
        assert len(near) == keep.sum() > 1
        assert dist.max() <= 1e-12
        assert len(np.unique(idx)) == len(idx)
        assert np.array_equal(near.weights, full.weights[keep][idx])

    @pytest.mark.parametrize("dim", [1, 2])
    def test_max_range_ball_is_closed(self, dim):
        # lattice differences of length exactly max_range are kept
        x = gen_lattice(dim, 1.0, 6.0)
        gamma = autocorrelation(x, 5.0, max_range=2.0)
        inside = window(x, 5.0).points
        diffs = Counter(
            tuple(p - q) for p in inside for q in inside if float((p - q) @ (p - q)) <= 4.0
        )
        keys = sorted(diffs)
        assert (2.0,) + (0.0,) * (dim - 1) in diffs
        assert np.array_equal(gamma.locations, np.array(keys).reshape(-1, dim))
        assert np.array_equal(gamma.weights, [diffs[k] / 5.0**dim for k in keys])

    @settings(max_examples=200, deadline=None)
    @given(dim=st.sampled_from([1, 2]), data=st.data())
    def test_matches_counter_of_differences(self, dim, data):
        # quarter-integers: every difference is exact, so with bucket_tol=0
        # the atoms are exactly the distinct differences of ordered pairs
        n = data.draw(st.integers(0, 12), label="n")
        quarters = st.integers(-20, 20).map(lambda k: k / 4)
        pts = data.draw(arrays(np.float64, (n, dim), elements=quarters), label="points")
        x = PointSet(dim, 0.25, 8.0, np.unique(pts, axis=0).reshape(-1, dim))
        radius = data.draw(st.sampled_from([1.0, 2.5, 4.0, 8.0]), label="radius")
        max_range = data.draw(st.sampled_from([None, 0.5, 1.0, 1.3, 2.25]), label="max_range")
        gamma = autocorrelation(x, radius, bucket_tol=0.0, max_range=max_range)
        inside = [p for p in x.points if float(p @ p) <= radius * radius]
        diffs = Counter(
            tuple(p - q)
            for p in inside
            for q in inside
            if max_range is None or float((p - q) @ (p - q)) <= max_range**2
        )
        keys = sorted(diffs)
        assert np.array_equal(gamma.locations, np.array(keys).reshape(-1, dim))
        assert np.array_equal(gamma.weights, [diffs[k] / radius**dim for k in keys])

    def test_full_window_over_the_pair_budget_refused(self, monkeypatch):
        # one budget, and one wording, for the full window and the max_range search
        monkeypatch.setattr(geometry, "_CANDIDATE_BUDGET", 121)
        x = gen_lattice(1, 1.0, 10.0)
        assert len(autocorrelation(x, 5.0)) == 21  # 11 points: 121 pairs
        refusal = r" points \(max_range, --max-range, bounds them\), over the budget of 121$"
        full = "^169 candidate pairs in an autocorrelation window of 13" + refusal
        with pytest.raises(InvalidArgumentError, match=full):
            autocorrelation(x, 6.0)
        with pytest.raises(InvalidArgumentError, match=refusal):
            autocorrelation(x, 10.0, max_range=10.0)

    def test_copies_straddling_a_bucket_edge_are_one_atom(self):
        # sqrt(5) = 2236067977.4998e-9 lies 2e-13 below an edge of the 1e-9
        # grid, so the copies of k + sqrt(5) at L = 4000 fall on both sides of it
        x = gen_fibonacci(4100.0)
        gamma = autocorrelation(x, 4000.0, max_range=5.0)
        p = window(x, 4000.0).points[:, 0]
        pairs = (np.searchsorted(p, p + 5.0, side="right") - np.searchsorted(p, p - 5.0)).sum()
        assert round(complex(gamma.weights.sum()).real * 4000.0) == pairs
        assert len(gamma) == 13  # 0 and +-1, tau, tau^2, 2 tau, tau + 2, tau^3

    def test_bucket_merges_chains_into_the_lowest_key(self, monkeypatch):
        # keys 1, 0, 2, 1, 5: the first three buckets' representatives lie
        # 0.51e-9 apart in a chain, the outer two 1.02e-9 apart
        vecs = np.array([[1.0e-9], [0.49e-9], [1.51e-9], [1.2e-9], [5e-9]])
        reps, counts = measures._bucket([5], lambda start, stop: vecs, 1, 1e-9)
        assert reps.tolist() == [[0.49e-9], [5e-9]]
        assert counts.tolist() == [4, 1]
        # the same, one vector per block
        monkeypatch.setattr(measures, "_PAIR_BLOCK", 1)
        reps, counts = measures._bucket([1] * 5, lambda start, stop: vecs[start:stop], 1, 1e-9)
        assert reps.tolist() == [[0.49e-9], [5e-9]]
        assert counts.tolist() == [4, 1]


# ---------------------------------------------------------------------------
# autocorrelation in row blocks against every pair at once


def one_shot_autocorrelation(x, radius, bucket_tol, max_range=None):
    """Locations and weights from every ordered pair at once, bucketed once:
    the autocorrelation as it was computed before row blocks."""
    pts = x.points[geometry.window_mask(x.points, radius)]
    if max_range is None:
        vecs = (pts[:, None, :] - pts[None, :, :]).reshape(-1, x.dim)
    else:
        rows, cols = geometry._close_pairs(pts, pts, np.nextafter(max_range, np.inf))
        vecs = pts[cols] - pts[rows]
    keys = np.round(vecs / bucket_tol).astype(np.int64) if bucket_tol > 0 else vecs
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    first = np.flatnonzero(starts)
    reps, counts = vecs[order[first]], np.diff(first, append=len(keys))
    if bucket_tol > 0:
        i, j = geometry._close_pairs(reps, reps, bucket_tol * measures._MERGE_GAP)
        label, last = np.arange(len(reps)), None
        while not np.array_equal(label, last):
            last = label.copy()
            np.minimum.at(label, j, label[i])
        merged = np.zeros_like(counts)
        np.add.at(merged, label, counts)
        root = label == np.arange(len(reps))
        reps, counts = reps[root], merged[root]
    order = np.lexsort(reps.T[::-1])
    return reps[order], (counts[order] / radius**x.dim).astype(np.complex128)


def assert_same_bytes(gamma, reference):
    locations, weights = reference
    assert gamma.locations.shape == locations.shape
    assert gamma.locations.tobytes() == locations.tobytes()
    assert gamma.weights.tobytes() == weights.tobytes()


# a few pairs a block, so that one call folds many blocks into its table
SMALL_BLOCK = 7
SPACINGS = (1.0, (1.0 + 5.0**0.5) / 2.0, 2.0**0.5)
# nudges that put differences on, beside and across the edges of the 1e-9
# grid, where copies of one difference fall in neighbouring buckets; or a
# spread that makes almost every difference distinct
EDGE_NUDGES = st.sampled_from([0.0, 2.5e-10, 4.9e-10, 5.1e-10, 7.3e-10])
SPREAD_NUDGES = st.floats(0.0, 0.3)


@st.composite
def nudged_lattice_sets(draw, dim):
    """4 to 40 points of a dim-dimensional lattice, each nudged along every axis."""
    cells = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * dim), min_size=4, max_size=40,
                          unique=True), label="cells")
    spacing = draw(st.sampled_from(SPACINGS), label="spacing")
    nudge = draw(st.sampled_from([EDGE_NUDGES, SPREAD_NUDGES]), label="nudge")
    nudges = draw(arrays(np.float64, (len(cells), dim), elements=nudge), label="nudges")
    pts = np.array(cells, dtype=np.float64).reshape(-1, dim) * spacing + nudges
    return PointSet(dim, 0.25, 15.0, pts[np.lexsort(pts.T[::-1])])


class TestRowBlocks:
    @settings(max_examples=150, deadline=None)
    @given(dim=st.sampled_from([1, 2]), data=st.data())
    def test_blocks_match_every_pair_at_once(self, dim, data):
        x = data.draw(nudged_lattice_sets(dim), label="x")
        radius = data.draw(st.sampled_from([3.0, 8.0, 15.0]), label="radius")
        tol = data.draw(st.sampled_from([0.0, 1e-9]), label="bucket_tol")
        max_range = data.draw(st.sampled_from([None, 1.0, 2.5, 4.0]), label="max_range")
        reference = one_shot_autocorrelation(x, radius, tol, max_range)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(measures, "_PAIR_BLOCK", SMALL_BLOCK)
            assert_same_bytes(autocorrelation(x, radius, tol, max_range), reference)

    @pytest.mark.parametrize(
        "x, radius, tol, max_range",
        [
            # copies of k + sqrt(5) on both sides of a 1e-9 edge
            (gen_fibonacci(4100.0), 4000.0, 1e-9, 5.0),
            (gen_fibonacci(330.0), 300.0, 1e-9, None),
            (gen_fibonacci(330.0), 300.0, 0.0, None),
            (gen_cut_project(ammann_beenker_config(22.0)), 12.0, 1e-9, None),
            (gen_cut_project(ammann_beenker_config(22.0)), 20.0, 1e-9, 3.0),
            (gen_cut_project(ammann_beenker_config(22.0)), 20.0, 0.0, 3.0),
        ],
        ids=["fibonacci-edge", "fibonacci", "fibonacci-exact", "ab", "ab-near", "ab-near-exact"],
    )
    def test_quasicrystal_windows_match_every_pair_at_once(self, monkeypatch, x, radius, tol,
                                                           max_range):
        reference = one_shot_autocorrelation(x, radius, tol, max_range)
        assert_same_bytes(autocorrelation(x, radius, tol, max_range), reference)
        monkeypatch.setattr(measures, "_PAIR_BLOCK", SMALL_BLOCK)
        assert_same_bytes(autocorrelation(x, radius, tol, max_range), reference)

    @pytest.mark.parametrize("max_range", [None, 3.0])
    def test_a_block_holds_the_block_size_or_the_table(self, monkeypatch, max_range):
        folds = []
        fold = measures._fold

        def recorded(table, vecs, tol):
            table = fold(table, vecs, tol)
            folds.append((len(vecs), len(table[0])))
            return table

        monkeypatch.setattr(measures, "_fold", recorded)
        monkeypatch.setattr(measures, "_PAIR_BLOCK", 50)
        x = gen_fibonacci(330.0)
        n = len(window(x, 300.0).points)
        gamma = autocorrelation(x, 300.0, max_range=max_range)
        assert len(folds) > 10 and folds[-1][1] >= len(gamma)
        held = 0
        for pairs, atoms in folds:
            # whole rows of at most max(block, atoms so far) pairs, or one row
            assert pairs <= max(50, held) or (max_range is None and pairs == n)
            held = atoms
        assert sum(pairs for pairs, _ in folds) == round(complex(gamma.weights.sum()).real * 300.0)

    def test_refusals_come_before_any_block(self, monkeypatch):
        def unreachable(table, vecs, tol):
            raise AssertionError("a block was built")

        monkeypatch.setattr(geometry, "_CANDIDATE_BUDGET", 121)
        monkeypatch.setattr(measures, "_fold", unreachable)
        x = gen_lattice(1, 1.0, 10.0)
        for max_range in (None, 10.0):
            with pytest.raises(InvalidArgumentError, match="over the budget of 121$"):
                autocorrelation(x, 6.0, max_range=max_range)

    def test_memory_holds_a_block_and_the_atoms(self):
        # 2.1M ordered pairs, 5,765 atoms: building every pair at once grew
        # the peak resident set by about 60 MB
        x = gen_fibonacci(1100.0)
        autocorrelation(x, 10.0)
        assert traced_peak(lambda: autocorrelation(x, 1000.0)) < 20 * 2**20


# ---------------------------------------------------------------------------
# pair


class TestPair:
    def test_origin_atom_tent(self):
        assert pair(delta(0.0), TestFunction((0.0,), 1.0, 2.0)) == 2.0

    def test_autocorrelation_atom_at_one(self, gamma_z2):
        assert pair(gamma_z2, TestFunction((1.0,), 0.4, 1.0)) == 2.0

    def test_empty_measure_zero(self):
        assert pair(empty_measure(), TestFunction((0.0,), 1.0, 1.0)) == 0j

    def test_bounded_by_supnorm_times_tv(self):
        rng = np.random.default_rng(17)
        locs = np.sort(rng.uniform(-5, 5, size=20)).reshape(-1, 1)
        weights = rng.normal(size=20) + 1j * rng.normal(size=20)
        mu = AtomicMeasure(1, locs, weights)
        for _ in range(20):
            f = TestFunction(
                (float(rng.uniform(-5, 5)),),
                float(rng.uniform(0.2, 3.0)),
                float(rng.uniform(-2, 2)),
            )
            bound = abs(f.amplitude) * tv_on_ball(mu, f.center, f.radius)
            assert abs(pair(mu, f)) <= bound + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            pair(delta(0.0), TestFunction((0.0, 0.0), 1.0, 1.0))


# ---------------------------------------------------------------------------
# tv_on_ball


class TestTvOnBall:
    def test_lattice_unit_interval_bound(self):
        comb = dirac_comb(gen_lattice(1, 1.0, 50.0))
        rng = np.random.default_rng(23)
        for x in rng.uniform(-40, 40, size=50):
            assert tv_on_ball(comb, [float(x)], 0.5) <= 2.0

    def test_autocorrelation_ball_at_origin(self, gamma_z2):
        assert tv_on_ball(gamma_z2, [0.0], 0.5) == 2.5


# ---------------------------------------------------------------------------
# vague_gap


class TestVagueGap:
    def test_identical_zero(self, gamma_z2):
        fam = tents(-3.0, 3.0, 7, 0.4)
        assert vague_gap(gamma_z2, gamma_z2, fam) == 0.0

    def test_hundredth_shift(self):
        # every tent of slope 2 sees at most two atoms moved by 0.01
        fam = tents(-10.0, 10.0, 64, 0.5)
        z = window(gen_lattice(1, 1.0, 20.0), 12.0)
        shifted = PointSet(1, 1.0, 20.0, z.points + 0.01, "shifted")
        gap = vague_gap(dirac_comb(z), dirac_comb(shifted), fam)
        assert gap <= 0.04
        assert gap == pytest.approx(0.02, abs=1e-9)

    def test_autocorrelation_window_growth(self):
        z = gen_lattice(1, 1.0, 250.0)
        fam = tents(-2.0, 2.0, 5, 0.3)
        gap = vague_gap(
            autocorrelation(z, 100.0, max_range=3.0),
            autocorrelation(z, 200.0, max_range=3.0),
            fam,
        )
        assert gap <= 0.03
        assert gap == pytest.approx(0.005, abs=1e-9)


# ---------------------------------------------------------------------------
# portmanteau_check


class TestPortmanteau:
    def reciprocal_sequence(self, n_max: int = 20):
        return [delta(1.0 / n) for n in range(1, n_max + 1)], delta(0.0)

    def test_constant_sequence_passes(self, gamma_z2):
        report = portmanteau_check(
            [gamma_z2] * 4,
            gamma_z2,
            compacts=(([0.0], 2.5), ([1.0], 0.2)),
            opens=(([0.0], 2.5), ([3.5], 0.1)),
        )
        assert report.passed
        assert report.tail_length == 2

    def test_shrinking_atom_compact_condition(self):
        seq, limit = self.reciprocal_sequence()
        report = portmanteau_check(seq, limit, compacts=(([0.0], 0.5),))
        assert report.compact_ok == (True,)

    def test_shrinking_atom_open_conditions(self):
        seq, limit = self.reciprocal_sequence()
        report = portmanteau_check(
            seq, limit, opens=(([1.0], 0.1), ([0.0], 0.1))
        )
        assert report.open_ok == (True, True)
        assert report.passed

    def test_upper_condition_fails_against_empty_limit(self):
        seq, _ = self.reciprocal_sequence()
        report = portmanteau_check(seq, empty_measure(), compacts=(([0.0], 0.5),))
        assert report.compact_ok == (False,)
        assert not report.passed

    def test_needs_two_measures(self):
        with pytest.raises(InvalidArgumentError):
            portmanteau_check([delta(0.0)], delta(0.0))


# ---------------------------------------------------------------------------
# shared properties


class TestMeasureProperties:
    def test_uniform_translation_bound(self):
        # combs of unit-separated sets carry at most (2R + r0)/r0 points in
        # any radius-R interval, uniformly over the family and the center
        sets = (
            gen_lattice(1, 1.0, 60.0),
            gen_fibonacci(60.0),
            gen_lattice(1, 1.5, 60.0),
        )
        r0 = min(s.sep_radius for s in sets)
        radius = 2.0
        cap = (2.0 * radius + r0) / r0
        rng = np.random.default_rng(31)
        centers = rng.uniform(-50, 50, size=40)
        for s in sets:
            comb = dirac_comb(s)
            for c in centers:
                assert tv_on_ball(comb, [float(c)], radius) <= cap

    def test_vague_gap_vanishes_with_statistical_distance(self):
        # nudging only the origin by h makes the window distance ~h while a
        # fixed tent family sees a pairing gap of 2h: both shrink together
        extent = 200.0
        grid = LGrid.integers(150)
        base = gen_lattice(1, 1.0, extent)
        fam = tents(-1.0, 1.0, 3, 0.5)
        comb_base = dirac_comb(window(base, 100.0))
        prev_dist = prev_gap = float("inf")
        for n in (1, 2, 4, 8):
            h = 1.0 / (4 * n)
            pts = base.points.copy()
            pts[np.flatnonzero(pts[:, 0] == 0.0), 0] += h
            nudged = PointSet(1, 1.0 - h, extent, pts, f"nudged-{n}")
            dist = rho_stat(nudged, base, grid).value
            gap = vague_gap(dirac_comb(window(nudged, 100.0)), comb_base, fam)
            assert dist <= h + 1e-5
            assert gap == pytest.approx(2 * h, abs=1e-12)
            assert dist < prev_dist and gap < prev_gap
            prev_dist, prev_gap = dist, gap
