import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasidiff import geometry, pointset
from quasidiff.errors import (
    DuplicatePointError,
    InsufficientExtentError,
    InvalidArgumentError,
    SeamViolationError,
)
from quasidiff.geometry import min_pairwise_gap
from quasidiff.perturb import NoiseModel, perturb
from quasidiff.pointset import (
    TAU,
    PointSet,
    ammann_beenker_config,
    fibonacci_cut_project_config,
    gen_cut_project,
    gen_fibonacci,
    gen_lattice,
    gen_poisson,
    gen_visible,
    remove_near,
    sparse_union,
    splice,
    window,
)

from conftest import traced_peak


# ---------------------------------------------------------------------------
# lattice generator


def test_lattice_1d_counts():
    x = gen_lattice(1, 1.0, 3.0)
    assert len(x) == 7
    assert np.array_equal(x.points[:, 0], np.arange(-3, 4))


def test_lattice_2d_count_matches_enumeration():
    x = gen_lattice(2, 1.0, 2.0)
    # independent oracle: exhaustive integer enumeration
    expected = {
        (m, n)
        for m in range(-2, 3)
        for n in range(-2, 3)
        if m * m + n * n <= 4
    }
    assert len(expected) == 13
    assert {tuple(map(int, p)) for p in x.points} == expected


def test_lattice_matches_meshgrid_order():
    axis = np.arange(-2.0, 3.0)
    for dim in (1, 2, 3):
        grid = np.stack([g.ravel() for g in np.meshgrid(*([axis] * dim), indexing="ij")], axis=1)
        expected = grid[(grid * grid).sum(axis=1) <= 4.0]
        assert gen_lattice(dim, 1.0, 2.0).points.tobytes() == expected.tobytes()


def test_lattice_past_meshgrids_64_axes_is_the_origin():
    # numpy's meshgrid refused 65 axes with a bare ValueError
    x = gen_lattice(65, 1.0, 0.5)
    assert x.points.shape == (1, 65) and not x.points.any()


@pytest.mark.parametrize(
    "call, refusal",
    [
        # (2k + 1)^dim took 104,140 digits, past what Python prints
        (lambda: gen_lattice(100000, 1.0, 5.0),
         r"^inf points in a 100000-d box of reach 5\.0 \(11\^100000\), over the budget"),
        # the power of 10^20 in Python ints did not return
        (lambda: gen_lattice(10**20, 1.0, 5.0), r"^100000000000000000000 axes of one generated point, "),
        (lambda: gen_poisson(1.0, 10**400, 10.0, 0), r"^about 10\^400\.0 axes of one generated "),
        (lambda: gen_lattice(10**5000, 1.0, 0.5), r"^about 10\^5000\.0 axes of one generated "),
    ],
    ids=["lattice-d1e5", "lattice-d1e20", "poisson-d1e400", "lattice-d1e5000"],
)
def test_huge_dimensions_are_refused_by_their_size(call, refusal):
    with pytest.raises(InvalidArgumentError, match=refusal):
        call()


@pytest.mark.parametrize(
    "points",
    [[[math.nan]], [[0.0], [math.nan]], [[math.inf]], [[-1.0, 0.0], [0.0, -math.inf]]],
)
def test_non_finite_coordinate_rejected(points):
    with pytest.raises(InvalidArgumentError, match="non-finite coordinate"):
        PointSet(len(points[0]), 1.0, 5.0, np.array(points))


def test_points_cannot_change_through_a_writable_base():
    # the metrics key their pair table on the PointSet object, so its points
    # must not change after the checks; a view shared them with its base
    base = np.arange(-5.0, 6.0).reshape(-1, 1)
    x = PointSet(1, 1.0, 5.0, base[:])
    base[7, 0] = 2.5
    assert np.array_equal(x.points[:, 0], np.arange(-5.0, 6.0))
    with pytest.raises(ValueError):
        x.points[7, 0] = 2.5


def test_lattice_spacing_scales_sep_radius():
    x = gen_lattice(1, 0.5, 1.0)
    assert x.sep_radius == 0.5
    assert len(x) == 5


@pytest.mark.parametrize("spacing,extent", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)])
def test_lattice_rejects_nonpositive_arguments(spacing, extent):
    with pytest.raises(InvalidArgumentError):
        gen_lattice(1, spacing, extent)


# ---------------------------------------------------------------------------
# cut-and-project generator


def test_cut_project_fibonacci_matches_substitution_chain():
    cps = gen_cut_project(fibonacci_cut_project_config(100.0))
    fib = gen_fibonacci(100.0)
    a, b = cps.points[:, 0], fib.points[:, 0]
    best = math.inf
    for origin_a in a[np.abs(a) <= 3.0]:
        for origin_b in b[np.abs(b) <= 3.0]:
            shifted = np.sort(a - (origin_a - origin_b))
            idx = np.clip(np.searchsorted(shifted, b), 1, len(shifted) - 1)
            near = np.minimum(
                np.abs(shifted[idx] - b), np.abs(shifted[idx - 1] - b)
            )
            matched = int((near < 1e-6).sum())
            best = min(best, (len(a) + len(b) - 2 * matched) / (2 * 100.0))
    assert best < 1e-3


@pytest.mark.parametrize(
    "cfg, sep",
    [
        (ammann_beenker_config(20.0), 0.41421356237309287),
        (ammann_beenker_config(40.0), 0.4142135623730895),
        # past the reach of the reference box enumeration below
        (ammann_beenker_config(120.0), 0.414213562373087),
        (ammann_beenker_config(200.0), 0.4142135623730719),
        (fibonacci_cut_project_config(100.0), 1.0),
    ],
)
def test_cut_project_declares_its_measured_gap(cfg, sep):
    x = gen_cut_project(cfg)
    assert x.sep_radius == sep
    assert x.sep_radius == min_pairwise_gap(x.points)


def test_sorted_sets_measure_their_gap_without_sorting_again(monkeypatch):
    # gen_cut_project and perturb hand sorted points to the gap measurement,
    # which sorted them a second time
    sorts = []
    lex_sort = geometry.lex_sort
    monkeypatch.setattr(geometry, "lex_sort", lambda p: sorts.append(len(p)) or lex_sort(p))
    x = gen_cut_project(ammann_beenker_config(20.0), label="ammann-beenker")
    moved = perturb(x, NoiseModel.gaussian(2, 0.05), seed=3)
    assert sorts == []
    assert moved.sep_radius == min_pairwise_gap(moved.points) == 0.27930228355991915


@pytest.mark.parametrize(
    "field, value, refusal",
    [
        ("physical", ((TAU, math.nan),), "physical entries must be finite"),
        ("internal", ((math.inf, -1.0),), "internal entries must be finite"),
        ("window", ((1.0 - TAU, math.inf),), "window entries must be finite"),
        ("offset", (math.nan, 0.0), "offset entries must be finite"),
        ("window", ((0.0,),), "window entries must be finite reals: rows of length 2"),
        ("window", ((0.0, 1.0, 2.0),), "window entries must be finite reals: rows of length 2"),
    ],
)
def test_cut_project_refuses_a_malformed_entry(field, value, refusal):
    # a NaN offset or an infinite window bound enumerated nothing, a NaN row
    # failed np.linalg.cond with a LinAlgError, and a window entry that was
    # no pair failed to unpack with a ValueError
    cfg = fibonacci_cut_project_config(100.0)
    with pytest.raises(InvalidArgumentError, match=refusal):
        dataclasses.replace(cfg, **{field: value})


def test_cut_project_ammann_beenker_density_stability():
    d100 = len(gen_cut_project(ammann_beenker_config(100.0))) / 100.0**2
    d200 = len(gen_cut_project(ammann_beenker_config(200.0))) / 200.0**2
    assert abs(d100 - d200) / d200 < 0.02


def _box_enumeration(cfg):
    """The model set of ``cfg`` by the enumeration ``gen_cut_project`` used
    before the ellipsoid: static box bounds on the shifted coordinates, each
    axis pruned with the box bounds of the axes not yet fixed.  Its visited
    tree grows as extent^3 on Ammann-Beenker, so it serves small configs."""
    n, d, s = cfg.total_dim, len(cfg.physical), cfg.stacked()
    m = np.linalg.inv(s)
    offset = np.asarray(cfg.offset, dtype=np.float64)
    y_lo = np.array([-cfg.extent] * d + [lo for lo, _ in cfg.window])
    y_hi = np.array([cfg.extent] * d + [hi for _, hi in cfg.window])
    v_mid = m @ (0.5 * (y_lo + y_hi))
    v_half = np.abs(m) @ (0.5 * (y_hi - y_lo))
    v_lo_static, v_hi_static = v_mid - v_half - 1e-9, v_mid + v_half + 1e-9
    partial = np.zeros((1, 0), dtype=np.float64)
    for k in range(n):
        fixed = partial @ s[:, :k].T if k else np.zeros((len(partial), n))
        tail_lo = np.zeros(n)
        tail_hi = np.zeros(n)
        if k + 1 < n:
            rest = s[:, k + 1 :]
            lo_part = np.where(rest > 0, rest * v_lo_static[k + 1 :], rest * v_hi_static[k + 1 :])
            hi_part = np.where(rest > 0, rest * v_hi_static[k + 1 :], rest * v_lo_static[k + 1 :])
            tail_lo, tail_hi = lo_part.sum(axis=1), hi_part.sum(axis=1)
        lo_k = np.full(len(partial), v_lo_static[k])
        hi_k = np.full(len(partial), v_hi_static[k])
        for j in range(n):
            c = s[j, k]
            if c == 0.0:
                continue
            a = (y_lo[j] - fixed[:, j] - tail_hi[j]) / c
            b = (y_hi[j] - fixed[:, j] - tail_lo[j]) / c
            if c < 0:
                a, b = b, a
            lo_k = np.maximum(lo_k, a - 1e-9)
            hi_k = np.minimum(hi_k, b + 1e-9)
        z_lo = np.ceil(lo_k - offset[k]).astype(np.int64)
        counts = np.maximum(np.floor(hi_k - offset[k]).astype(np.int64) - z_lo + 1, 0)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        z_k = np.arange(counts.sum()) - starts + np.repeat(z_lo, counts)
        partial = np.column_stack([np.repeat(partial, counts, axis=0), z_k + offset[k]])
    phys = partial @ s[:d].T
    keep = geometry.sq_norms(phys) <= cfg.extent * cfg.extent * (1.0 + 1e-12)
    internal = partial @ s[d:].T
    for i, (lo, hi) in enumerate(cfg.window):
        keep &= (internal[:, i] >= lo) & (internal[:, i] < hi)
    return pointset._with_measured_gap(d, cfg.extent, geometry.lex_sort(phys[keep]), "box", 0.0)


def _assert_same_model_set(cfg):
    x, ref = gen_cut_project(cfg), _box_enumeration(cfg)
    assert x.points.tobytes() == ref.points.tobytes()
    assert repr(x.sep_radius) == repr(ref.sep_radius)


@pytest.mark.parametrize(
    "cfg",
    [ammann_beenker_config(e) for e in (5.0, 20.0, 60.0)]
    + [dataclasses.replace(ammann_beenker_config(50.0), offset=v)
       for v in ((0.3, 0.1, -0.2, 0.45), (0.0, 0.0, 0.0, 0.0))]
    + [fibonacci_cut_project_config(e) for e in (10.0, 1e3, 1e5)]
    # subnormal extents: diag(1 / half) S overflowed without its floor
    + [config(e) for config in (ammann_beenker_config, fibonacci_cut_project_config)
       for e in (1e-300, 5e-324)],
)
def test_cut_project_matches_the_box_enumeration(cfg):
    _assert_same_model_set(cfg)


def _offsets(n):
    return st.tuples(*[st.floats(-0.5, 0.5, exclude_max=True)] * n)


@settings(max_examples=40, deadline=None)
@given(st.floats(1.0, 60.0), _offsets(4))
def test_ammann_beenker_matches_the_box_enumeration_at_any_offset(extent, offset):
    _assert_same_model_set(dataclasses.replace(ammann_beenker_config(extent), offset=offset))


@settings(max_examples=40, deadline=None)
@given(st.floats(1.0, 1e4), _offsets(2))
def test_fibonacci_matches_the_box_enumeration_at_any_offset(extent, offset):
    _assert_same_model_set(dataclasses.replace(fibonacci_cut_project_config(extent), offset=offset))


@pytest.mark.parametrize("extent", [1e19, 1e20, 1e100])
@pytest.mark.parametrize("config", [ammann_beenker_config, fibonacci_cut_project_config])
def test_cut_project_at_a_huge_extent_is_refused_with_its_count(config, extent):
    # the candidate counts were cast to int64 and wrapped: Ammann-Beenker
    # gave 0 points at 1e19 and 1e20 and Fibonacci 1 point at 1e20, the
    # casts past 1e19 with a RuntimeWarning
    n = config(extent).total_dim
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match=rf"^[1-9][0-9]* cut-and-project candidates "
                           rf"on 1 of {n} axes, over the budget of 20000000$"):
            gen_cut_project(config(extent))


def test_cut_project_at_the_largest_float_extent_counts_inf():
    # the interval of the first axis is wider than the float range: its
    # count overflowed with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match="^inf cut-and-project candidates on 1 of 4"):
            gen_cut_project(ammann_beenker_config(sys.float_info.max))


@pytest.mark.parametrize(
    "budget, config, extent, generated",
    [
        # the largest axis: 144,722 candidates for 144,721 points
        (150_000, fibonacci_cut_project_config, 1e5, 144_721),
        # the box enumeration visited 6,792,595 candidates on 3 of 4 axes
        (400_000, ammann_beenker_config, 200.0, 125_676),
        (1_000, ammann_beenker_config, 40.0, None),
    ],
)
def test_cut_project_budget_bounds_every_axis(monkeypatch, budget, config, extent, generated):
    monkeypatch.setattr(pointset, "_ENUM_BUDGET", budget)
    if generated is None:
        with pytest.raises(InvalidArgumentError, match=rf"^[0-9]+ cut-and-project candidates on "
                           rf"[1-4] of 4 axes, over the budget of {budget}$"):
            gen_cut_project(config(extent))
    else:
        assert len(gen_cut_project(config(extent))) == generated


def test_cut_project_memory_follows_the_points():
    # Ammann-Beenker at extent 120 peaked at 194 MB of arrays (and grew the
    # resident set by 195 MB) under the box enumeration, and at 43 MB with
    # the ellipsoid's candidates alive through the gap check; freed before
    # it, at 28 MB
    gen_cut_project(ammann_beenker_config(10.0))
    assert traced_peak(lambda: gen_cut_project(ammann_beenker_config(120.0))) < 36 * 2**20


# ---------------------------------------------------------------------------
# Fibonacci chain


def test_fibonacci_prefix_word():
    x = gen_fibonacci(6.0)
    nonneg = x.points[x.points[:, 0] >= -1e-12][:, 0]
    expected = [0.0, TAU, TAU + 1.0, 2 * TAU + 1.0, 3 * TAU + 1.0]
    assert np.allclose(nonneg[: len(expected)], expected, atol=1e-9)


def test_fibonacci_gap_alphabet():
    x = gen_fibonacci(500.0)
    gaps = np.diff(x.points[:, 0])
    assert math.isclose(gaps.min(), 1.0, rel_tol=1e-12)
    assert math.isclose(gaps.max(), TAU, rel_tol=1e-12)
    # only the two tile lengths occur
    assert np.all(
        (np.abs(gaps - 1.0) < 1e-9) | (np.abs(gaps - TAU) < 1e-9)
    )


def test_fibonacci_density():
    x = gen_fibonacci(1001.0)
    count = int((np.abs(x.points[:, 0]) <= 1000.0).sum())
    assert abs(count / 1000.0 - 1.447) / 1.447 < 0.01


def test_fibonacci_count_over_the_enumeration_budget_refused(monkeypatch):
    # about 1,447 points expected on [-1000, 1000]: refused before the word is built
    monkeypatch.setattr(pointset, "_ENUM_BUDGET", 1000)
    refusal = "expected Fibonacci points, over the budget of 1000$"
    with pytest.raises(InvalidArgumentError, match=refusal):
        gen_fibonacci(1000.0)
    assert len(gen_fibonacci(600.0)) < 1000


def test_fibonacci_declares_its_measured_gap_past_two_to_the_21():
    # the b-tile that crosses 2^21 lands on a coarser float grid
    assert gen_fibonacci(2097152.0).sep_radius == 1.0
    x = gen_fibonacci(2097153.0)
    assert x.sep_radius == np.diff(x.points[:, 0]).min() == 0.9999999997671694


@pytest.mark.parametrize("points", [[[0.0]], np.zeros((0, 1))])
def test_extent_whose_square_overflows_refused(points):
    # with an infinite squared limit, a window of radius 1e200 would keep 1e300
    with pytest.raises(InvalidArgumentError, match="its square overflows"):
        PointSet(1, 0.0, 1e300, points)
    assert PointSet(1, 0.0, 1e154, points).extent == 1e154


@pytest.mark.parametrize("dim, extent", [(3, 1e120), (5, 1e70)])
def test_extent_whose_power_dim_overflows_refused(dim, extent):
    # every window weight divides by radius ** dim
    with pytest.raises(InvalidArgumentError, match=f"its power {dim} overflows"):
        PointSet(dim, 0.0, extent, np.zeros((1, dim)))
    assert PointSet(dim, 0.0, extent / 1e30, np.zeros((1, dim))).extent == extent / 1e30


@pytest.mark.parametrize("sep", [math.inf, math.nan, -1.0])
def test_sep_radius_must_be_finite_and_nonnegative(sep):
    # an infinite separation made rho_stat bisect up to an infinite radius
    with pytest.raises(InvalidArgumentError, match="sep_radius must be finite and >= 0"):
        PointSet(1, sep, 5.0, [[0.0]])


@pytest.mark.parametrize(
    "extent",
    # glibc 2.36's pow on x86-64 gives reach ** 2 one ulp below reach * reach
    # for the first and one ulp above it for the second
    [19.723746422474584, 113.4664026760873],
)
def test_extent_limit_is_the_correctly_rounded_square(extent):
    reach = extent * (1.0 + 1e-9)
    assert PointSet(1, 0.0, extent, [[reach]]).extent == extent
    beyond = math.nextafter(reach, math.inf)
    assert beyond * beyond > reach * reach
    with pytest.raises(InvalidArgumentError, match="outside the extent ball"):
        PointSet(1, 0.0, extent, [[beyond]])


# ---------------------------------------------------------------------------
# visible lattice points


def test_visible_small_window():
    x = gen_visible(2.0)
    got = {tuple(map(int, p)) for p in x.points}
    assert got == {
        (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1),
    }


def test_visible_membership():
    pts = {tuple(map(int, p)) for p in gen_visible(3.0).points}
    assert (1, 0) in pts
    assert (2, 0) not in pts


def test_visible_density():
    x = gen_visible(500.0)
    assert abs(len(x) / 500.0**2 - 6 / math.pi) / (6 / math.pi) < 0.02


# ---------------------------------------------------------------------------
# Poisson generator


def test_poisson_determinism():
    a = gen_poisson(1.0, 1, 100.0, seed=12)
    b = gen_poisson(1.0, 1, 100.0, seed=12)
    assert np.array_equal(a.points, b.points)
    c = gen_poisson(1.0, 1, 100.0, seed=13)
    assert not np.array_equal(a.points, c.points)


def test_poisson_intensity_calibration():
    counts = [len(gen_poisson(1.0, 1, 100.0, seed=s)) for s in range(50)]
    assert 0.95 <= np.mean(counts) / 200.0 <= 1.05


def test_poisson_flagged_not_uniformly_discrete():
    assert gen_poisson(1.0, 1, 50.0, seed=0).sep_radius == 0.0


# ---------------------------------------------------------------------------
# window


def test_window_basic():
    z = gen_lattice(1, 1.0, 100.0)
    assert np.array_equal(window(z, 2.5).points[:, 0], [-2, -1, 0, 1, 2])


def test_window_closed_ball_boundary():
    z = gen_lattice(1, 1.0, 100.0)
    assert np.array_equal(window(z, 2.0).points[:, 0], [-2, -1, 0, 1, 2])


def test_window_fibonacci():
    w = window(gen_fibonacci(10.0), 2.0)
    nonneg = sorted(p for p in w.points[:, 0] if p >= -1e-12)
    assert np.allclose(nonneg, [0.0, TAU], atol=1e-9)
    # the chain is two-sided, so the mirror tile endpoint is present too
    assert np.allclose(sorted(w.points[:, 0]), [-TAU, 0.0, TAU], atol=1e-9)


def test_window_preserves_metadata_and_sets_extent():
    z = gen_lattice(1, 1.0, 100.0)
    w = window(z, 7.0)
    assert w.extent == 7.0
    assert w.sep_radius == z.sep_radius
    assert w.label == z.label


def test_window_beyond_extent_fails():
    with pytest.raises(InsufficientExtentError):
        window(gen_lattice(1, 1.0, 10.0), 11.0)


@settings(max_examples=40, deadline=None)
@given(
    l1=st.floats(min_value=1.0, max_value=50.0),
    l2=st.floats(min_value=1.0, max_value=50.0),
)
def test_window_composition(l1, l2):
    z = gen_fibonacci(60.0)
    a = window(window(z, l1), min(l1, l2))
    b = window(z, min(l1, l2))
    assert np.array_equal(a.points, b.points)


# ---------------------------------------------------------------------------
# splice


def test_splice_identity():
    z = gen_lattice(1, 1.0, 50.0)
    assert splice(z, z, 5.0) == z


def test_splice_seam_violation():
    z = gen_lattice(1, 1.0, 50.0)
    zs_pts = np.arange(-50, 50) + 0.5
    zs = PointSet(1, 1.0, 50.0, zs_pts.reshape(-1, 1), "half-shift")
    with pytest.raises(SeamViolationError):
        splice(z, zs, 5.0)
    spliced = splice(z, zs, 5.0, allow_smaller=True)
    assert spliced.sep_radius == 0.5


def test_splice_count_identity_2d():
    inner = gen_lattice(2, 1.0, 10.0)
    outer = gen_cut_project(ammann_beenker_config(10.0))
    s = splice(inner, outer, 3.0, allow_smaller=True)
    n_inner = int((np.linalg.norm(inner.points, axis=1) <= 3.0).sum())
    n_annulus = int((np.linalg.norm(outer.points, axis=1) > 3.0).sum())
    assert len(s) == n_inner + n_annulus


# ---------------------------------------------------------------------------
# sparse union


def test_sparse_union_with_empty():
    z = gen_lattice(1, 1.0, 50.0)
    empty = PointSet(1, 1.0, 50.0, np.zeros((0, 1)), "empty")
    assert np.array_equal(sparse_union(z, empty).points, z.points)


def test_sparse_union_measured_separation():
    z = gen_lattice(1, 1.0, 1000.0)
    extras = PointSet(
        1, 1.0, 1000.0,
        np.array([[k * k + 0.5] for k in range(2, 32)]), "squares+half",
    )
    assert sparse_union(z, extras).sep_radius == 0.5


def test_sparse_union_duplicate_point_rejected():
    z = gen_lattice(1, 1.0, 10.0)
    dup = PointSet(1, 1.0, 10.0, np.array([[4.0]]), "dup")
    with pytest.raises(DuplicatePointError):
        sparse_union(z, dup)


def test_sparse_union_autocorrelation_pairing_gap():
    from quasidiff.measures import TestFunction, autocorrelation, pair

    z = gen_lattice(1, 1.0, 10050.0)
    extras = PointSet(
        1, 1.0, 10050.0,
        np.array([[k * k + 0.5] for k in range(2, 32)]), "squares+half",
    )
    u = sparse_union(z, extras)
    f = TestFunction((1.0,), 1.0, 1.0)
    gap = abs(
        pair(autocorrelation(u, 10000.0, max_range=2.5), f)
        - pair(autocorrelation(z, 10000.0, max_range=2.5), f)
    )
    assert gap < 0.02
    # exact value: 30 extras x 4 ordered pairs x tent value 0.5 / 10^4
    assert math.isclose(gap, 0.006, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# remove_near


def test_remove_near_exact_targets():
    z = gen_lattice(1, 1.0, 50.0)
    out = remove_near(z, [(4.0,), (9.0,), (16.0,)], 0.1)
    gone = set(z.points[:, 0]) - set(out.points[:, 0])
    assert gone == {4.0, 9.0, 16.0}


def test_remove_near_no_match_is_silent():
    z = gen_lattice(1, 1.0, 50.0)
    out = remove_near(z, [(4.5,)], 0.1)
    assert np.array_equal(out.points, z.points)


def test_remove_near_tol_bound():
    z = gen_lattice(1, 1.0, 50.0)
    with pytest.raises(InvalidArgumentError):
        remove_near(z, [(4.0,)], 0.5)


def test_remove_near_quartic_removal_count_growth():
    fib = gen_fibonacci(10100.0)
    coords = fib.points[:, 0]
    targets = []
    for k in range(1, 11):
        t = float(k) ** 4
        i = np.searchsorted(coords, t)
        if i >= len(coords) or (i > 0 and abs(coords[i - 1] - t) < abs(coords[i] - t)):
            i -= 1
        targets.append((float(coords[i]),))
    thinned = remove_near(fib, targets, 0.25)
    removed = np.setdiff1d(coords, thinned.points[:, 0])
    assert len(removed) == 10
    radii = np.array([16.0, 81.0, 256.0, 625.0, 1296.0, 2401.0, 4096.0, 6561.0, 10000.0])
    counts = np.array([(np.abs(removed) <= r).sum() for r in radii])
    slope = np.polyfit(np.log(radii), np.log(counts), 1)[0]
    assert abs(slope - 0.25) <= 0.05


# ---------------------------------------------------------------------------
# invariants


def _generators():
    yield gen_lattice(1, 1.0, 200.0), [1.0, 7.0, 50.0, 200.0]
    yield gen_lattice(2, 1.0, 40.0), [1.0, 5.0, 40.0]
    yield gen_fibonacci(200.0), [1.0, 7.0, 50.0, 200.0]
    yield gen_visible(40.0), [1.0, 5.0, 40.0]
    yield gen_cut_project(fibonacci_cut_project_config(200.0)), [1.0, 50.0, 200.0]
    yield gen_cut_project(ammann_beenker_config(40.0)), [1.0, 5.0, 40.0]


def test_counting_bound_every_generator():
    for x, radii in _generators():
        norms = np.linalg.norm(x.points, axis=1)
        for radius in radii:
            if radius < x.sep_radius:
                continue
            count = int((norms <= radius).sum())
            assert count <= (3 * radius / x.sep_radius) ** x.dim, (x.label, radius)


def test_translate_box_count_bound():
    # packing bound: disjoint r0/2 balls around points in a box fit in the
    # inflated box
    for x, _ in _generators():
        r0 = x.sep_radius
        d = x.dim
        if d == 1:
            inflated = 2.0 + r0
            unit_ball = 2.0
        else:
            inflated = 4.0 + 4 * 2 * (r0 / 2) + math.pi * (r0 / 2) ** 2
            unit_ball = math.pi
        bound = (2.0 / r0) ** d * inflated / unit_ball
        centers = np.arange(-(x.extent - 1.5), x.extent - 1.0, 0.5)
        for c in centers[:: max(1, len(centers) // 40)]:
            center = np.full(d, float(c))
            inside = np.all(np.abs(x.points - center) <= 1.0, axis=1)
            assert int(inside.sum()) <= bound + 1e-9, (x.label, c)


def test_generator_determinism():
    assert gen_fibonacci(300.0) == gen_fibonacci(300.0)
    assert gen_visible(30.0) == gen_visible(30.0)
    a = gen_cut_project(ammann_beenker_config(30.0))
    b = gen_cut_project(ammann_beenker_config(30.0))
    assert np.array_equal(a.points, b.points)
