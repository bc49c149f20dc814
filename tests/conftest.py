import os
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from quasidiff.pointset import PointSet, gen_lattice

# HYPOTHESIS_PROFILE=ci: the same examples on every run, and a failure prints
# the blob that reproduces it
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


def pytest_collection_modifyitems(items):
    # a RuntimeWarning (overflow, invalid value, division by zero, an infinite
    # noise moment) fails the test that raised it, in this directory only: from
    # library code it is a fault to fix or report, not to filter
    here = pathlib.Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))


def shifted_lattice(shift: float, extent: float, spacing: float = 1.0) -> PointSet:
    """Integer lattice translated by ``shift``, clipped to the extent ball."""
    lo = -np.floor((extent + shift) / spacing)
    hi = np.floor((extent - shift) / spacing)
    pts = np.arange(lo, hi + 1) * spacing + shift
    pts = pts[np.abs(pts) <= extent]
    return PointSet(1, spacing, extent, pts.reshape(-1, 1), f"lattice+{shift}")


def remove_points(x: PointSet, coords) -> PointSet:
    """Drop the points whose first coordinate matches ``coords`` exactly."""
    mask = ~np.isin(x.points[:, 0], np.asarray(coords, dtype=np.float64))
    return PointSet(x.dim, x.sep_radius, x.extent, x.points[mask], x.label)


def traced_peak(call) -> int:
    """Peak bytes held at once while ``call()`` runs, by tracemalloc, which
    counts numpy's buffers.  A child process's ru_maxrss would not do: on
    Linux a child starts with its parent's high-water mark, so after other
    tests have run it cannot see a smaller regression."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def lattice_1001():
    return gen_lattice(1, 1.0, 1001.0)
