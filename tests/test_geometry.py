"""The nearest-neighbour primitive against an O(n*m) brute force, and the
radius check every window goes through."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quasidiff.errors import InvalidArgumentError
from quasidiff.geometry import nearest, require_extent
from quasidiff.measures import autocorrelation
from quasidiff.metrics import LGrid, mismatch_sets
from quasidiff.perturb import NoiseModel, boundary_crossings, recovery_trial
from quasidiff.pointset import gen_lattice, set_stats, splice, window
from quasidiff.spectral import FrequencyGrid, amplitude_spectrum, singularity_diagnostic

# quarter-integers make exact ties and duplicate targets common
COORDS = st.one_of(
    st.integers(-20, 20).map(lambda k: k / 4),
    st.floats(-50.0, 50.0, allow_nan=False),
)


def point_arrays(dim: int):
    return st.integers(0, 12).flatmap(
        lambda n: arrays(np.float64, (n, dim), elements=COORDS)
    )


@settings(max_examples=300, deadline=None)
@given(dim=st.sampled_from([1, 2]), data=st.data())
def test_nearest_matches_brute_force(dim, data):
    q = data.draw(point_arrays(dim), label="queries")
    t = data.draw(point_arrays(dim), label="targets")
    dist, index = nearest(q, t)
    assert dist.shape == index.shape == (len(q),)
    if len(t) == 0:
        assert np.isinf(dist).all()
        return
    if dim == 1:
        gaps = np.abs(q[:, None, 0] - t[None, :, 0])
        assert np.array_equal(dist, gaps.min(axis=1))
        assert np.array_equal(dist, np.abs(q[:, 0] - t[index, 0]))
        for i in range(len(q)):
            # a tie between a left and a right neighbour goes to the right one
            tied = t[gaps[i] == dist[i], 0]
            right = tied[tied >= q[i, 0]]
            if len(right):
                assert t[index[i], 0] == right.min()
    else:
        brute = np.sqrt(((q[:, None, :] - t[None, :, :]) ** 2).sum(axis=2))
        np.testing.assert_allclose(dist, brute.min(axis=1), rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            dist, np.linalg.norm(q - t[index], axis=1), rtol=1e-12, atol=0
        )


def test_nearest_of_no_queries_is_empty():
    dist, index = nearest(np.zeros((0, 2)), np.ones((3, 2)))
    assert dist.shape == index.shape == (0,)


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
