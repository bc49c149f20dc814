"""The nearest-neighbour primitive against an O(n*m) brute force."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quasidiff.geometry import nearest

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
