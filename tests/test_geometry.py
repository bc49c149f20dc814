"""The nearest-neighbour, close-pair and minimum-gap primitives against
O(n*m) brute force, and the argument rules: finite and positive finite
numbers, vectors, radius lists, seeds and counts."""

import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import quasidiff
from quasidiff.errors import InvalidArgumentError
from quasidiff.geometry import (
    _close_pairs,
    _require_finite,
    _require_positive_finite,
    _require_radii,
    _require_vector,
    ball_volume,
    min_pairwise_gap,
    nearest,
    require_extent,
    sq_norms,
)
from quasidiff.measures import (
    AtomicMeasure,
    TestFamily,
    TestFunction,
    autocorrelation,
    dirac_comb,
    portmanteau_check,
    tv_on_ball,
)
from quasidiff.metrics import LGrid, hausdorff_distance, mismatch_sets, ratio_sup, rho_gh, rho_stat
from quasidiff.perturb import (
    NoiseModel,
    boundary_crossings,
    char_fn,
    char_fn_grid,
    char_fn_mc,
    perturb,
    recover,
    recovery_trial,
)
from quasidiff.pointset import (
    PointSet,
    fibonacci_cut_project_config,
    gen_lattice,
    gen_poisson,
    remove_near,
    set_stats,
    splice,
    window,
)
from quasidiff.spectral import (
    FrequencyGrid,
    Spectrum,
    amplitude_spectrum,
    analyze_peaks,
    exp_sum,
    singularity_diagnostic,
)

# quarter-integers make exact ties and duplicate targets common; multiples of
# 2^-32 put gaps near the smallest radii, and a coordinate up to 1e12 then
# sets the cell width instead of the radius
COORDS = st.one_of(
    st.integers(-20, 20).map(lambda k: k / 4),
    st.integers(-20, 20).map(lambda k: k / 2**32),
    st.floats(-50.0, 50.0, allow_nan=False),
    st.floats(-1e12, 1e12, allow_nan=False),
)


def point_arrays(dim: int):
    return st.integers(0, 12).flatmap(
        lambda n: arrays(np.float64, (n, dim), elements=COORDS)
    )


def brute_distances(q, t):
    """Distances from every query to every target, computed as the kernels
    compute them: |t - q| in 1-d, sqrt(sq_norms(t - q)) above."""
    if q.shape[1] == 1:
        return np.abs(t[None, :, 0] - q[:, None, 0])
    diff = (t[None, :, :] - q[:, None, :]).reshape(-1, q.shape[1])
    return np.sqrt(sq_norms(diff)).reshape(len(q), len(t))


@settings(max_examples=300, deadline=None)
@given(dim=st.sampled_from([1, 2, 3, 4]), data=st.data())
def test_nearest_matches_brute_force(dim, data):
    q = data.draw(point_arrays(dim), label="queries")
    t = data.draw(point_arrays(dim), label="targets")
    dist, index = nearest(q, t)
    assert dist.shape == index.shape == (len(q),)
    if len(t) == 0:
        assert np.isinf(dist).all()
        return
    brute = brute_distances(q, t)
    assert np.array_equal(dist, brute.min(axis=1))
    if dim == 1:
        assert np.array_equal(dist, np.abs(q[:, 0] - t[index, 0]))
        for i in range(len(q)):
            # a tie between a left and a right neighbour goes to the right one
            tied = t[brute[i] == dist[i], 0]
            right = tied[tied >= q[i, 0]]
            if len(right):
                assert t[index[i], 0] == right.min()
    else:
        # an exact tie goes to the lowest target index (remove_near reads it)
        assert np.array_equal(index, brute.argmin(axis=1))


def test_nearest_of_no_queries_is_empty():
    dist, index = nearest(np.zeros((0, 2)), np.ones((3, 2)))
    assert dist.shape == index.shape == (0,)


@pytest.mark.parametrize("a, b", [(np.zeros((0, 1)), np.zeros((3, 2))),
                                  (np.zeros((3, 1)), np.zeros((0, 2))),
                                  (np.zeros((0, 1)), np.zeros((0, 2)))])
def test_mismatched_dimensions_are_refused_whatever_the_sizes(a, b):
    # the empty-set shortcuts ran first: hausdorff_distance gave inf, or 0
    for call in (nearest, hausdorff_distance):
        for q, t in ((a, b), (b, a)):
            with pytest.raises(InvalidArgumentError, match="dimension mismatch"):
                call(q, t)


def test_nearest_of_far_apart_sets_in_chunks_under_the_budget(monkeypatch):
    # the radius reaches the far set for every query at once, so one
    # enumeration would test all 400 x 400 candidates, one over the budget;
    # quarter-integer coordinates repeat, so ties are common
    monkeypatch.setattr(quasidiff.geometry, "_CANDIDATE_BUDGET", 400 * 400 - 1)
    rng = np.random.default_rng(7)
    q = rng.integers(0, 20, size=(400, 2)) / 4
    t = 1000.0 + rng.integers(0, 20, size=(400, 2)) / 4
    dist, index = nearest(q, t)
    brute = brute_distances(q, t)
    assert np.array_equal(dist, brute.min(axis=1))
    assert np.array_equal(index, brute.argmin(axis=1))


def test_nearest_of_far_apart_sets_starts_at_their_bounding_box_gap(monkeypatch):
    # a radius below the gap between the sets' boxes pairs no query: starting
    # from the targets' spacing took 17 rounds here, and from the gap 2; the
    # boxes' farthest corners lie within twice the gap, so one round pairs all
    radii = []

    def counting(a, b, r):
        radii.append(r)
        return _close_pairs(a, b, r)

    monkeypatch.setattr(quasidiff.geometry, "_close_pairs", counting)
    rng = np.random.default_rng(0)
    q = rng.random((2000, 2))
    t = 1000.0 + rng.random((2000, 2))
    dist, index = nearest(q, t)
    assert len(radii) == 1
    brute = brute_distances(q, t)
    assert np.array_equal(dist, brute.min(axis=1))
    assert np.array_equal(index, brute.argmin(axis=1))


@settings(max_examples=300, deadline=None)
@given(
    dim=st.sampled_from([1, 2, 3, 4]),
    r=st.one_of(
        st.integers(1, 40).map(lambda k: k / 4),
        st.integers(1, 40).map(lambda k: k / 2**32),
        st.floats(1e-9, 60.0, allow_nan=False),
    ),
    data=st.data(),
)
def test_close_pairs_match_brute_force(dim, r, data):
    # quarter-integer coordinates and radii put many pairs at exactly r,
    # which the strict comparison excludes
    a = data.draw(point_arrays(dim), label="a")
    b = data.draw(point_arrays(dim), label="b")
    if dim == 1:
        b = np.sort(b, axis=0)  # the 1-d search needs sorted targets
    i, j = _close_pairs(a, b, r)
    ii, jj = np.nonzero(brute_distances(a, b) < r)  # row-major: (i, j) order
    assert i.tolist() == ii.tolist() and j.tolist() == jj.tolist()


@settings(max_examples=300, deadline=None)
@given(dim=st.sampled_from([1, 2, 3, 4]), data=st.data())
def test_min_pairwise_gap_matches_brute_force(dim, data):
    p = data.draw(point_arrays(dim), label="points")
    gap = min_pairwise_gap(p)
    if len(p) < 2:
        assert gap == math.inf
        return
    brute = brute_distances(p, p)
    assert gap == brute[np.triu_indices(len(p), 1)].min()


def test_a_pair_whose_squared_gap_underflows_is_found():
    # its squared gap rounds to 0, so it passes the strict test at any radius,
    # but its cells lay 2^e apart: min_pairwise_gap took the min of no pairs
    p = np.array([[0.0, 0.0], [0.0, 1.96583296e-281]])
    assert min_pairwise_gap(p) == brute_distances(p, p)[0, 1] == 0.0
    i, j = _close_pairs(p, p, 5e-324)
    assert list(zip(i.tolist(), j.tolist())) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_import_does_not_load_scipy():
    # the runtime depends on numpy only; scipy is a benchmark extra
    src = os.path.dirname(os.path.dirname(quasidiff.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", "import quasidiff, sys; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert out.strip() == "False"


def test_ball_volume_keeps_the_closed_form_and_survives_gamma_overflow():
    for dim in range(1, 342):
        assert ball_volume(dim) == math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)
    with pytest.raises(OverflowError):
        math.gamma(342 / 2 + 1)
    assert 0.0 < ball_volume(342) < ball_volume(341)
    assert ball_volume(342) == pytest.approx(ball_volume(340) * 2 * math.pi / 342, rel=1e-12)
    assert ball_volume(2000) == 0.0


# ---------------------------------------------------------------------------
# window radii

BAD_RADII = [0.0, -5.0, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("radius", BAD_RADII)
def test_require_extent_refuses_non_positive_or_non_finite_radius(radius):
    with pytest.raises(InvalidArgumentError, match="positive finite"):
        require_extent(radius, 10.0, "window radius")


LINE = gen_lattice(1, 1.0, 20.0)
WINDOWED_CALLS = {
    "autocorrelation": lambda r: autocorrelation(LINE, r),
    "mismatch_sets": lambda r: mismatch_sets(LINE, LINE, r, 0.25),
    "splice": lambda r: splice(LINE, LINE, r),
    "window": lambda r: window(LINE, r),
    "amplitude_spectrum": lambda r: amplitude_spectrum(
        LINE, r, FrequencyGrid(((0.0, 1.0, 0.5),))
    ),
    "recovery_trial": lambda r: recovery_trial(
        LINE, NoiseModel.gaussian(1, 0.1), [0], [[1.0]], r
    ),
}


@pytest.mark.parametrize("radius", [-5.0, math.nan])
@pytest.mark.parametrize("call", sorted(WINDOWED_CALLS))
def test_windowed_calls_refuse_negative_and_nan_radius(call, radius):
    # a negative radius used to act as the ball of radius |r| (and gave
    # autocorrelation negative weights); a NaN radius gave an empty window
    with pytest.raises(InvalidArgumentError, match="positive finite"):
        WINDOWED_CALLS[call](radius)


RADIUS_LISTS = {
    "LGrid": lambda radii: LGrid(radii),
    "boundary_crossings": lambda radii: boundary_crossings(
        LINE, NoiseModel.gaussian(1, 0.1), 0, radii
    ),
    "set_stats": lambda radii: set_stats(LINE, radii),
    "singularity_diagnostic": lambda radii: singularity_diagnostic(
        LINE, radii, FrequencyGrid(((0.0, 1.0, 0.5),))
    ),
}


@pytest.mark.parametrize(
    "radii", [(1.0, math.nan, 3.0), (math.nan, 2.0, 3.0), (1.0, 2.0, math.inf)]
)
@pytest.mark.parametrize("call", sorted(RADIUS_LISTS))
def test_radius_lists_refuse_nan(call, radii):
    # "positive and strictly increasing" must not pass a NaN, for which
    # every comparison is False, nor an infinite radius (LGrid took one)
    with pytest.raises(InvalidArgumentError):
        RADIUS_LISTS[call](radii)


GRID_10 = LGrid.integers(10)
COMB = dirac_comb(LINE)
POSITIVE_REALS = {
    "ratio_sup eps": lambda v: ratio_sup(LINE, LINE, v, 1.0, GRID_10),
    "mismatch_sets eps": lambda v: mismatch_sets(LINE, LINE, 5.0, v),
    "rho_stat eps_tol": lambda v: rho_stat(LINE, LINE, GRID_10, v),
    "rho_gh eps_tol": lambda v: rho_gh(LINE, LINE, v),
    "recover guard": lambda v: recover(
        amplitude_spectrum(LINE, 10.0, FrequencyGrid(((0.0, 1.0, 0.5),))),
        NoiseModel.gaussian(1, 0.1),
        v,
    ),
    "Spectrum window_radius": lambda v: Spectrum(
        FrequencyGrid(((0.0, 1.0, 0.5),)), v, "", np.zeros(3)
    ),
    "TestFunction radius": lambda v: TestFunction((0.0,), v),
    "TestFamily region_radius": lambda v: TestFamily((TestFunction((0.0,), 0.5),), (0.0,), v),
    "autocorrelation max_range": lambda v: autocorrelation(LINE, 5.0, max_range=v),
    # a negative radius acted as the ball of radius |r|, a NaN one as empty
    "mass_in_ball radius": lambda v: COMB.mass_in_ball([0.0], v),
    "tv_on_ball radius": lambda v: tv_on_ball(COMB, [0.0], v),
    "portmanteau_check ball radius": lambda v: portmanteau_check(
        [COMB, COMB], COMB, compacts=(((0.0,), v),)
    ),
}


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, True])
@pytest.mark.parametrize("call", sorted(POSITIVE_REALS))
def test_positive_reals_refuse_zero_negative_non_finite_and_bool(call, value):
    with pytest.raises(InvalidArgumentError, match="must be a positive finite number, got "):
        POSITIVE_REALS[call](value)


NOISE = NoiseModel.gaussian(1, 0.1)
SPECTRUM = amplitude_spectrum(LINE, 10.0, FrequencyGrid(((0.0, 1.0, 0.5),)))
# each real argument, as the entry point taking it at v, with a value it takes
REALS = {
    "_require_finite": (lambda v: _require_finite(v, "v"), -0.5),
    "_require_positive_finite": (lambda v: _require_positive_finite(v, "v"), 0.5),
    "_require_radii": (lambda v: _require_radii((v,), "v"), 0.5),
    "NoiseModel.gaussian sigma": (lambda v: NoiseModel.gaussian(2, v), 0.5),
    "NoiseModel.uniform half_width": (lambda v: NoiseModel.uniform(1, v), 0.5),
    "NoiseModel sigmas": (lambda v: NoiseModel(1, "gaussian", sigmas=(v,)), 0.5),
    "NoiseModel.gaussian_mixture weight": (
        lambda v: NoiseModel.gaussian_mixture(1, [(v, (0.0,), 0.1)]), 1.0
    ),
    "NoiseModel.gaussian_mixture sigma": (
        lambda v: NoiseModel.gaussian_mixture(1, [(1.0, (0.0,), v)]), 0.5
    ),
    "NoiseModel.pareto_radial alpha": (lambda v: NoiseModel.pareto_radial(2, v, 1.0), 3.0),
    "NoiseModel.pareto_radial scale": (lambda v: NoiseModel.pareto_radial(2, 3.0, v), 0.5),
    "FrequencyGrid min": (lambda v: FrequencyGrid(((v, 1.0, 0.1),)), 0.5),
    "FrequencyGrid max": (lambda v: FrequencyGrid(((0.0, v, 0.1),)), 0.5),
    "FrequencyGrid step": (lambda v: FrequencyGrid(((0.0, 1.0, v),)), 0.5),
    "TestFunction center": (lambda v: TestFunction((v,), 1.0), 0.5),
    "TestFunction amplitude": (lambda v: TestFunction((0.0,), 1.0, v), 0.5),
    "TestFamily region_center": (
        lambda v: TestFamily((TestFunction((0.0,), 0.5),), (v,), 1.0), 0.5
    ),
    "TestFamily.tents_1d lo": (lambda v: TestFamily.tents_1d(v, 1.0, 2, 0.3), 0.5),
    "PointSet sep_radius": (lambda v: PointSet(1, v, 10.0, [[0.0], [1.0]]), 0.5),
    "PointSet extent": (lambda v: PointSet(1, 0.5, v, [[0.0]]), 0.5),
    "AtomicMeasure bucket_tol": (lambda v: AtomicMeasure(1, [[0.0], [1.0]], [1.0, 1.0], v), 0.5),
    "analyze_peaks peak_window_width": (lambda v: analyze_peaks(SPECTRUM, v), 1.0),
    "analyze_peaks threshold_ratio": (lambda v: analyze_peaks(SPECTRUM, 1.0, v), 0.5),
    "autocorrelation bucket_tol": (lambda v: autocorrelation(LINE, 5.0, bucket_tol=v), 0.1),
    "remove_near tol": (lambda v: remove_near(LINE, [[0.0]], v), 0.25),
    "recover guard": (lambda v: recover(SPECTRUM, NOISE, v), 0.5),
    "Spectrum window_radius": (lambda v: Spectrum(SPECTRUM.grid, v, "", np.zeros(3)), 0.5),
    "window radius": (lambda v: window(LINE, v), 0.5),
    "gen_lattice spacing": (lambda v: gen_lattice(1, v, 3.0), 0.5),
    "LGrid radius": (lambda v: LGrid((v,)), 0.5),
    "set_stats radius": (lambda v: set_stats(LINE, (v,)), 0.5),
    "ratio_sup exponent": (lambda v: ratio_sup(LINE, LINE, 0.25, v, GRID_10), 0.5),
    "portmanteau_check tol": (lambda v: portmanteau_check([COMB, COMB], COMB, tol=v), 0.5),
}


@pytest.mark.parametrize(
    "value", ["a", None, math.nan, math.inf, -math.inf, True, np.True_, 10**400]
)
@pytest.mark.parametrize("call", sorted(REALS))
def test_real_arguments_refuse_what_is_no_finite_real(call, value):
    # these ended in a bare ValueError or TypeError, or were taken: True as
    # 1.0, a NaN weight, bound or tolerance as itself
    make, good = REALS[call]
    with pytest.raises(InvalidArgumentError):
        make(value)
    make(good)


PLANE = gen_lattice(2, 1.0, 5.0)
NOISE_2D = NoiseModel.gaussian(2, 0.1)
# each argument that is one vector of the set's dimension, 2, taken at v
VECTORS = {
    "exp_sum": lambda v: exp_sum(PLANE, v),
    "char_fn": lambda v: char_fn(NOISE_2D, v),
    "char_fn_mc": lambda v: char_fn_mc(NOISE_2D, v, 100),
    "char_fn_grid": lambda v: char_fn_grid(NOISE_2D, [v]),
    "recovery_trial": lambda v: recovery_trial(PLANE, NOISE_2D, [0], [v], 3.0),
    "mass_in_ball": lambda v: dirac_comb(PLANE).mass_in_ball(v, 1.0),
    "tv_on_ball": lambda v: tv_on_ball(dirac_comb(PLANE), v, 1.0),
    "AtomicMeasure locations": lambda v: AtomicMeasure(2, [v], [1.0]),
    "NoiseModel.gaussian_mixture mean": lambda v: NoiseModel.gaussian_mixture(
        2, [(1.0, v, 0.1)]
    ),
    "CutProjectConfig offset": lambda v: dataclasses.replace(
        fibonacci_cut_project_config(100.0), offset=v
    ),
}


@pytest.mark.parametrize(
    "vector",
    [(0.5,), (0.5, 0.5, 0.5), ((0.5, 0.5),), ((0.5,), (0.5, 0.5)),
     *[(v, v) for v in ("a", None, math.nan, math.inf, True, 10**400)],
     (True, 0.5), (0.5, np.True_)],
)
@pytest.mark.parametrize("call", sorted(VECTORS))
def test_vector_arguments_refuse_a_wrong_length_or_no_finite_reals(call, vector):
    # a wrong length ended in numpy's reshape ValueError, a NaN frequency
    # gave a NaN sum, and a bool among numbers was cast to 1.0
    with pytest.raises(InvalidArgumentError):
        VECTORS[call](vector)
    VECTORS[call]((0.5, 0.25))


@pytest.mark.parametrize(
    "value, expected",
    [(0.5, 0.5), (np.float64(0.5), 0.5), (np.float32(0.1), float(np.float32(0.1))),
     (np.int64(3), 3.0), (3, 3.0), (Fraction(1, 3), 1 / 3), (2**1000, 2.0**1000)],
)
def test_the_number_rules_return_the_python_float_of_what_they_take(value, expected):
    for rule in (_require_finite, _require_positive_finite):
        out = rule(value, "v")
        assert type(out) is float and out == expected
    if isinstance(value, (float, np.number)):  # numpy casts the others to objects
        out = _require_vector([value], "v", 1)
        assert out.dtype == np.float64 and out.tolist() == [expected]


SEEDED_CALLS = {
    "gen_poisson": lambda seed: gen_poisson(1.0, 1, 10.0, seed),
    "perturb": lambda seed: perturb(LINE, NOISE, seed),
    "boundary_crossings": lambda seed: boundary_crossings(LINE, NOISE, seed, [5.0, 10.0]),
    "recovery_trial": lambda seed: recovery_trial(LINE, NOISE, [0, seed], [[0.5]], 10.0),
    "char_fn_mc": lambda seed: char_fn_mc(NOISE, [0.5], 100, seed),
}


def _content(result):
    """What a seeded call returned, down to every bit and a set's label."""
    if isinstance(result, PointSet):
        return result.points.tobytes(), result.label
    return repr(result)


@pytest.mark.parametrize("seed", [1.5, True, -1])
@pytest.mark.parametrize("call", sorted(SEEDED_CALLS))
def test_seeded_calls_refuse_a_seed_that_is_no_non_negative_integer(call, seed):
    # 1.5 and True used to draw the numbers of seed 1
    refusal = f"seed must be a non-negative integer, got {seed!r}"
    with pytest.raises(InvalidArgumentError, match=refusal):
        SEEDED_CALLS[call](seed)


@pytest.mark.parametrize("call", sorted(SEEDED_CALLS))
def test_seeded_calls_draw_a_numpy_integer_seed_as_its_value(call):
    assert _content(SEEDED_CALLS[call](np.int64(3))) == _content(SEEDED_CALLS[call](3))


# each counted call with the least count it takes
COUNTED_CALLS = {
    "LGrid.integers": (LGrid.integers, 1),
    # the standard error takes the sample variance, so two samples at least
    "char_fn_mc": (lambda n: char_fn_mc(NOISE, [0.5], n), 2),
    "TestFamily.tents_1d": (lambda n: TestFamily.tents_1d(-1.0, 1.0, n, 0.3), 1),
    "PointSet dim": (lambda n: PointSet(n, 1.0, 10.0, np.zeros((0, 1))), 1),
    # the factories repeated a scalar dim times: 2.5 ended in a TypeError
    "NoiseModel.gaussian dim": (lambda n: NoiseModel.gaussian(n, 0.1), 1),
    "NoiseModel.uniform dim": (lambda n: NoiseModel.uniform(n, 0.1), 1),
}


@pytest.mark.parametrize("count", [2.5, True, 0])
@pytest.mark.parametrize("call", sorted(COUNTED_CALLS))
def test_counted_calls_refuse_a_count_that_is_no_integer_or_too_small(call, count):
    make, least = COUNTED_CALLS[call]
    for bad in (count, least - 1):
        with pytest.raises(InvalidArgumentError, match=r"must be an integer >= \d+, got "):
            make(bad)
    make(np.int64(least))
