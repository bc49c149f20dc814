"""The nearest-neighbour, close-pair and minimum-gap primitives against
O(n*m) brute force, and the radius check every window goes through."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import quasidiff
from quasidiff.errors import InvalidArgumentError
from quasidiff.geometry import (
    _close_pairs,
    ball_volume,
    min_pairwise_gap,
    nearest,
    require_extent,
    sq_norms,
)
from quasidiff.measures import autocorrelation
from quasidiff.metrics import LGrid, mismatch_sets
from quasidiff.perturb import NoiseModel, boundary_crossings, recovery_trial
from quasidiff.pointset import gen_lattice, set_stats, splice, window
from quasidiff.spectral import FrequencyGrid, amplitude_spectrum, singularity_diagnostic

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
@given(dim=st.sampled_from([1, 2, 3]), data=st.data())
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
    # from the targets' spacing took 17 rounds here
    radii = []

    def counting(a, b, r):
        radii.append(r)
        return _close_pairs(a, b, r)

    monkeypatch.setattr(quasidiff.geometry, "_close_pairs", counting)
    rng = np.random.default_rng(0)
    q = rng.random((2000, 2))
    t = 1000.0 + rng.random((2000, 2))
    dist, index = nearest(q, t)
    assert len(radii) <= 2
    brute = brute_distances(q, t)
    assert np.array_equal(dist, brute.min(axis=1))
    assert np.array_equal(index, brute.argmin(axis=1))


@settings(max_examples=300, deadline=None)
@given(
    dim=st.sampled_from([1, 2, 3]),
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
@given(dim=st.sampled_from([1, 2, 3]), data=st.data())
def test_min_pairwise_gap_matches_brute_force(dim, data):
    p = data.draw(point_arrays(dim), label="points")
    gap = min_pairwise_gap(p)
    if len(p) < 2:
        assert gap == math.inf
        return
    brute = brute_distances(p, p)
    assert gap == brute[np.triu_indices(len(p), 1)].min()


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


@pytest.mark.parametrize("radii", [(1.0, math.nan, 3.0), (math.nan, 2.0, 3.0)])
@pytest.mark.parametrize("call", sorted(RADIUS_LISTS))
def test_radius_lists_refuse_nan(call, radii):
    # "positive and strictly increasing" must not pass a NaN, for which
    # every comparison is False
    with pytest.raises(InvalidArgumentError):
        RADIUS_LISTS[call](radii)
