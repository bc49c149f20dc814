"""Exponential sums, periodograms, peak analysis, and spectral-type verdicts."""

import cmath
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
from quasidiff import spectral
from quasidiff.errors import (
    EmptySpectrumError,
    InsufficientExtentError,
    InvalidArgumentError,
)
from quasidiff.measures import autocorrelation
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
    window,
)
from quasidiff.spectral import (
    FrequencyGrid,
    Spectrum,
    amplitude_spectrum,
    analyze_peaks,
    singularity_diagnostic,
)

from conftest import traced_peak


def node_index(grid: FrequencyGrid, freq: float) -> int:
    idx = np.flatnonzero(np.abs(grid.axis_values(0) - freq) < 1e-9)
    assert len(idx) == 1
    return int(idx[0])


@pytest.fixture(scope="module")
def lattice_220():
    return gen_lattice(1, 1.0, 220.0)


@pytest.fixture(scope="module")
def fibonacci_1000():
    return gen_fibonacci(1000.0)


@pytest.fixture(scope="module")
def ammann_beenker_60():
    return gen_cut_project(ammann_beenker_config(60.0))


# quarter-integers put many points on one phase; free floats fill the rest
SPECTRUM_COORDS = st.one_of(
    st.integers(-20, 20).map(lambda k: k / 4), st.floats(-5.0, 5.0, allow_nan=False)
)
# 1-d node counts: an odd count has its centre node in the middle, an even
# one a mode more on the right; one node takes a two-node fine grid
LONG_AXIS_COUNTS = [1, 2, 3, 5, 16, 17, 48, 97, 100, 101, 997, 1024, 1031]


def spectrum_points(dim: int, data) -> PointSet:
    # coordinates lie in [-5, 5], so every point is within 5 * sqrt(3) < 9 in d <= 3
    n = data.draw(st.integers(0, 12), label="n")
    pts = data.draw(arrays(np.float64, (n, dim), elements=SPECTRUM_COORDS), label="points")
    return PointSet(dim, 0.0, 9.0, np.unique(pts, axis=0).reshape(-1, dim))


def assert_matches_direct_sum(x: PointSet, radius: float, grid: FrequencyGrid) -> None:
    spec = amplitude_spectrum(x, radius, grid)
    inside = [p for p in x.points if float(p @ p) <= radius * radius]
    scale = radius**x.dim
    for amp, lam in zip(spec.amplitude, grid.nodes()):
        direct = sum(cmath.exp(-2j * math.pi * float(p @ lam)) for p in inside)
        assert abs(amp - direct / scale) <= 1e-9 * max(len(inside), 1) / scale


# amplitudes of a 1-d Fibonacci and a 2-d Ammann-Beenker grid, as a digest;
# the Fibonacci sizes are those of the diffraction-catalog scenario, large
# enough that a threaded BLAS product splits its work differently
_AMPLITUDE_DIGEST = """
import hashlib
from quasidiff.pointset import ammann_beenker_config, gen_cut_project, gen_fibonacci
from quasidiff.spectral import FrequencyGrid, amplitude_spectrum
digest = hashlib.sha256()
for x, radius, grid in (
    (gen_fibonacci(4100.0), 4000.0, FrequencyGrid(((0.04, 1.06, 6.25e-5),))),
    (gen_cut_project(ammann_beenker_config(60.0)), 55.0,
     FrequencyGrid(((-1.0, 1.0, 0.02), (-1.0, 1.0, 0.02)))),
):
    digest.update(amplitude_spectrum(x, radius, grid).amplitude.tobytes())
print(digest.hexdigest())
"""


# ---------------------------------------------------------------------------
# the phase kernel


def np_exp_phases(t):
    """The complex exponential that the table kernel replaced."""
    return np.exp((-2j * np.pi) * (t - np.round(t)))


# phases up to 1e12, and runs long enough to cross several kernel blocks
PHASES = st.one_of(
    arrays(np.float64, st.integers(0, 40), elements=st.floats(-1e12, 1e12)),
    arrays(np.float64, st.integers(0, 40), elements=st.floats(-2.0, 2.0)),
    st.integers(0, 2**32).map(
        lambda seed: np.random.default_rng(seed).uniform(-1e4, 1e4, 3 * spectral._BLOCK + 17)
    ),
)


class TestPhases:
    @pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52, reason="long double is double here")
    @settings(max_examples=100, deadline=None)
    @given(t=PHASES)
    def test_within_1e_15_of_a_long_double_reference(self, t):
        # t - round(t) is exact, so the reference needs no wider reduction
        turns = (t - np.round(t)).astype(np.longdouble) * (8 * np.arctan(np.longdouble(1)))
        z = spectral._phases(t)
        assert np.abs(z.real - np.cos(turns)).max(initial=0) <= 1e-15
        assert np.abs(z.imag + np.sin(turns)).max(initial=0) <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(t=PHASES)
    def test_within_1e_15_of_the_complex_exponential(self, t):
        assert np.abs(spectral._phases(t) - np_exp_phases(t)).max(initial=0) <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(t=st.lists(st.one_of(st.integers(-2**53, 2**53).map(float),
                                st.floats(2.0**52, 1e300), st.floats(-1e300, -2.0**52)),
                      max_size=40))
    def test_an_integer_phase_is_exactly_one(self, t):
        # so lambda = 0 counts points exactly, however large the coordinates
        assert (spectral._phases(np.array(t)) == 1).all()

    @settings(max_examples=100, deadline=None)
    @given(k=st.lists(st.integers(-2**40, 2**40), min_size=1, max_size=40))
    def test_a_phase_on_the_table_is_its_entry(self, k):
        t = np.array(k) / spectral._TURNS
        q = np.round((t - np.round(t)) * spectral._TURNS).astype(int)
        assert np.array_equal(spectral._phases(t), spectral._TABLE[q + spectral._TURNS // 2])

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0), (1,), (7,), (3, 5), (3, 9000)])
    def test_shapes_are_kept(self, shape):
        t = np.random.default_rng(1).uniform(-50, 50, shape)
        for table in (t, t.T):  # a transposed table is not contiguous
            z = spectral._phases(table)
            assert z.shape == table.shape and z.dtype == np.complex128
            assert np.abs(z - np_exp_phases(table)).max(initial=0) <= 1e-15

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_a_phase_that_is_not_finite_is_refused(self, bad):
        t = np.zeros(3 * spectral._BLOCK)
        t[-1] = bad
        with pytest.raises(InvalidArgumentError, match="phase <p, lambda> is not finite"):
            spectral._phases(t)

    @pytest.mark.parametrize("call", [
        # 5 x 1e308 overflows: these returned nan + nan j with RuntimeWarnings
        lambda: spectral._free_sums(gen_lattice(1, 1.0, 5.0).points, np.array([[1e308]])),
        lambda: spectral._free_sums(gen_lattice(2, 1.0, 5.0).points, np.array([[1e308, -1e308]])),
        # the first step of this grid times a point 2 overflows in the taps
        lambda: amplitude_spectrum(gen_lattice(1, 1.0, 5.0), 5.0,
                                   FrequencyGrid(((0.0, 1.5e308, 1e308),))),
        # and so does the centre node of this one, in the points' weights
        lambda: amplitude_spectrum(gen_lattice(2, 1.0, 5.0), 5.0,
                                   FrequencyGrid(((1e308, 1.5e308, 1e307), (0.0, 1.0, 0.5)))),
    ], ids=["free-sums-1d", "free-sums-2d", "grid-taps", "grid-weights"])
    def test_sums_whose_phases_overflow_are_refused(self, call):
        # a RuntimeWarning fails the test (see conftest), so none is raised
        with pytest.raises(InvalidArgumentError, match="phase <p, lambda> is not finite"):
            call()

    @pytest.mark.parametrize("modes, fine", [(np.arange(7) - 3, 16), (np.arange(8) - 3, 18),
                                             (np.arange(1), 2), (np.arange(2001) - 1000, 4050)])
    def test_kernel_transform_is_its_full_length_form(self, modes, fine):
        # the full-length sum of the cosines, before the transform was mirrored
        full = np.full(len(modes), 0.5 * spectral._HALF_STEPS[0])
        for j in range(1, spectral._TAPS + 1):
            full += spectral._HALF_STEPS[j] * np.cos((np.pi * j / fine) * modes)
        assert spectral._kernel_transform(modes, fine).tobytes() == full.tobytes()

    @pytest.mark.parametrize("fine", [2, 6, 10, 16, 32768])
    def test_taps_are_their_modulo_form(self, fine):
        # a modulo over every tap, and the kernel formed in new arrays, before
        # one modulo a point and the kernel in place; a fine grid of fewer
        # nodes than taps wraps them more than once
        t = np.random.default_rng(fine).uniform(-50.0, 50.0, 4014)
        t[:4] = [0.0, 0.5, -0.5, 1.0 - 2.0**-53]
        u = spectral._turns(t) * fine
        base = np.floor(u)
        offsets = np.arange(1 - spectral._TAPS // 2, 1 + spectral._TAPS // 2)
        z = (offsets - (u - base)[:, None]) / (spectral._TAPS / 2)
        weights = np.exp(spectral._BETA * (np.sqrt(1.0 - z * z) - 1.0))
        index = (base.astype(np.int64)[:, None] + offsets) % fine
        got = spectral._taps(t, fine)
        assert got[0].dtype == index.dtype and got[0].tobytes() == index.tobytes()
        assert got[1].tobytes() == weights.tobytes()


# ---------------------------------------------------------------------------
# sums at free frequencies (the noise-recovery trials)


class TestFreeSums:
    def test_zero_frequency_counts_points(self):
        z5 = window(gen_lattice(1, 1.0, 10.0), 5.0)
        assert spectral._free_sums(z5.points, np.array([[0.0]]))[0] == 11 + 0j

    def test_half_frequency_alternates(self):
        # five even against six odd integers in [-5, 5]
        z5 = window(gen_lattice(1, 1.0, 10.0), 5.0)
        value = spectral._free_sums(z5.points, np.array([[0.5]]))[0]
        assert value == pytest.approx(-1.0 + 0j, abs=1e-12)

    def test_quarter_frequency_on_a_long_lattice_is_exact(self):
        # every phase k/4 is reduced mod 1 before the exponential, so the
        # 10,001 terms cancel to the one left over without rounding drift
        z = gen_lattice(1, 1.0, 5000.0)
        assert abs(spectral._free_sums(z.points, np.array([[0.25]]))[0] - 1.0) <= 1e-13

    def test_single_point_unit_modulus(self):
        lams = np.array([[0.0], [0.31], [-1.7], [12.25]])
        sums = spectral._free_sums(np.array([[0.37]]), lams)
        assert np.abs(sums) == pytest.approx(np.ones(4), abs=1e-12)

    def test_bounded_by_count(self):
        rng = np.random.default_rng(5)
        fib = gen_fibonacci(40.0)
        sums = spectral._free_sums(fib.points, rng.uniform(-3, 3, size=(25, 1)))
        assert (np.abs(sums) <= len(fib.points) + 1e-9).all()

    def test_rows_match_one_phase_table(self):
        # a row's phases are one product a point in 1-d, as in the table
        # lams @ points.T, and a contiguous row sums pairwise as .sum(axis=1)
        # does; in 2-d they are the fixed-order column sum, with no BLAS
        rng = np.random.default_rng(7)
        line = gen_lattice(1, 1.0, 5000.0).points
        lams = rng.uniform(-3, 3, size=(8, 1))
        table = spectral._phases(lams @ line.T).sum(axis=1)
        assert spectral._free_sums(line, lams).tobytes() == table.tobytes()
        plane = gen_cut_project(ammann_beenker_config(30.0)).points
        lams = rng.uniform(-3, 3, size=(8, 2))
        rows = [spectral._phases(plane[:, 0] * lam[0] + plane[:, 1] * lam[1]).sum()
                for lam in lams]
        assert spectral._free_sums(plane, lams).tobytes() == np.array(rows).tobytes()

    def test_memory_holds_one_row(self):
        # 8 x 100,001 phases: the whole table peaked at 19.2 MB, a row at a
        # time at 3.2 MB
        line = gen_lattice(1, 1.0, 50000.0).points
        lams = np.linspace(-3.3, 2.9, 8).reshape(-1, 1)
        spectral._free_sums(line[:10], lams)
        assert traced_peak(lambda: spectral._free_sums(line, lams)) < 6 * 2**20


# ---------------------------------------------------------------------------
# amplitude_spectrum


class TestAmplitudeSpectrum:
    GRID = FrequencyGrid(axes=((-1.0, 3.0, 0.25),))

    def test_lattice_window_five(self, lattice_220):
        spec = amplitude_spectrum(lattice_220, 5.0, self.GRID)
        amp = spec.amplitude
        assert amp[node_index(self.GRID, 0.0)] == pytest.approx(2.2, abs=1e-12)
        assert amp[node_index(self.GRID, 0.5)] == pytest.approx(-0.2, abs=1e-12)

    @pytest.mark.parametrize("radius", [5.0, 8.0, 50.0])
    def test_integer_frequencies_see_all_phases(self, lattice_220, radius):
        spec = amplitude_spectrum(lattice_220, radius, self.GRID)
        expected = (2 * radius + 1) / radius
        for lam in (1.0, 2.0, 3.0):
            value = spec.amplitude[node_index(self.GRID, lam)]
            assert value == pytest.approx(expected, abs=1e-9)

    def test_zero_frequency_is_count_over_volume(self):
        fib = gen_fibonacci(40.0)
        spec = amplitude_spectrum(fib, 30.0, self.GRID)
        count = len(window(fib, 30.0).points)
        assert spec.amplitude[node_index(self.GRID, 0.0)] == count / 30.0

    def test_power_consistent_with_amplitude(self, lattice_220):
        spec = amplitude_spectrum(lattice_220, 50.0, self.GRID)
        recomputed = 50.0 * np.abs(spec.amplitude) ** 2
        assert np.allclose(spec.power, recomputed, rtol=1e-12, atol=0)

    def test_window_beyond_extent(self):
        x = gen_lattice(1, 1.0, 10.0)
        with pytest.raises(InsufficientExtentError):
            amplitude_spectrum(x, 11.0, self.GRID)

    @pytest.mark.parametrize("radius", [0.0, math.inf, math.nan])
    def test_spectrum_needs_positive_finite_radius(self, radius):
        # an infinite radius (e.g. from a spectrum sidecar) gave infinite power
        with pytest.raises(InvalidArgumentError, match="positive finite"):
            Spectrum(self.GRID, radius, "x", np.ones(self.GRID.node_count))

    def test_spectrum_refuses_a_radius_whose_power_dim_overflows(self):
        grid = FrequencyGrid(axes=((0.0, 1.0, 1.0), (0.0, 1.0, 1.0)))
        with pytest.raises(InvalidArgumentError, match="its power 2 overflows"):
            Spectrum(grid, 1e200, "x", np.ones(grid.node_count))
        assert Spectrum(self.GRID, 1e200, "x", np.ones(self.GRID.node_count)).power[0] == 1e200

    @pytest.mark.parametrize("a, b", [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1)])
    def test_fibonacci_amplitudes_match_closed_form(self, fibonacci_1000, a, b):
        # Bragg peak of the model set at k, with (k, k*) = S^-T (a, b) for the
        # stacked projection S: |amplitude| -> |window transform at k*| / |det S|.
        # The window has length tau, |det S| = sqrt 5, and the window of length
        # 2L normalised by L contributes the factor 2.
        s = fibonacci_cut_project_config(1.0).stacked()
        k, k_star = np.linalg.solve(s.T, [a, b])
        spec = amplitude_spectrum(fibonacci_1000, 1000.0, FrequencyGrid(((k, k + 1e-3, 1e-3),)))
        closed = 2 / math.sqrt(5) * abs(math.sin(math.pi * TAU * k_star) / (math.pi * k_star))
        assert abs(abs(spec.amplitude[0]) - closed) <= 2e-3

    @settings(max_examples=100, deadline=None)
    @given(dim=st.sampled_from([1, 2]), data=st.data())
    def test_matches_direct_sum(self, dim, data):
        x = spectrum_points(dim, data)
        radius = data.draw(st.sampled_from([1.0, 2.5, 4.0, 5.0]), label="radius")
        axes = tuple(
            (lo, lo + step * count, step)
            for lo, step, count in data.draw(
                st.lists(
                    st.tuples(
                        st.floats(-3.0, 3.0), st.floats(0.01, 0.5), st.integers(1, 6)
                    ),
                    min_size=dim,
                    max_size=dim,
                ),
                label="axes",
            )
        )
        assert_matches_direct_sum(x, radius, FrequencyGrid(axes))

    @settings(max_examples=60, deadline=None)
    @given(dim=st.sampled_from([1, 3]), data=st.data())
    def test_long_and_three_axis_grids_match_direct_sum(self, dim, data):
        x = spectrum_points(dim, data)
        if dim == 1:
            counts = [data.draw(st.sampled_from(LONG_AXIS_COUNTS), label="count")]
        else:
            counts = data.draw(st.lists(st.integers(1, 5), min_size=3, max_size=3), label="counts")
        axes = []
        for count in counts:
            lo = data.draw(st.floats(-3.0, 3.0), label="lo")
            step = data.draw(st.floats(1e-3, 0.5), label="step")
            axes.append((lo, lo + step * (count - 0.5), step))
        grid = FrequencyGrid(tuple(axes))
        assert grid.shape == tuple(counts)
        assert_matches_direct_sum(x, 5.0, grid)

    @pytest.mark.parametrize(
        "z",
        [
            (0, 1, 0, 0),
            (1, 1, 0, 0),
            (1, -1, 0, 0),
            # k* on a zero of the window transform
            (1, 0, 0, 0),
            (0, 0, 1, 0),
            (1, 0, 1, 0),
            (1, 0, -1, 0),
            (1, 1, 0, 1),
        ],
    )
    def test_ammann_beenker_amplitudes_match_closed_form(self, ammann_beenker_60, z):
        # Bragg peak at k, with (k, k*) = S^-T z for the stacked projection S:
        # |amplitude| -> pi * |window transform at k*| / |det S|.  The window is
        # the box [-1, 1)^2, whose transform is prod_i sin(2 pi k*_i) / (pi k*_i),
        # |det S| = 4, and the radius-L disc normalised by L^2 contributes pi.
        s = ammann_beenker_config(60.0).stacked()
        k, k_star = np.split(np.linalg.solve(s.T, z), 2)
        grid = FrequencyGrid(tuple((v, v + 1e-3, 1e-3) for v in k))
        spec = amplitude_spectrum(ammann_beenker_60, 55.0, grid)
        closed = math.pi * abs(np.prod(2 * np.sinc(2 * k_star))) / 4
        assert abs(abs(spec.amplitude[0]) - closed) <= 1e-2

    def test_three_axis_grid_matches_a_direct_float64_sum(self):
        # the points are spread one tap of each leading axis at a time;
        # every phase is below 3 * 1.2 * 5 = 18,
        # so the unreduced direct sum loses under 1e-13 a term
        rng = np.random.default_rng(3)
        pts = rng.uniform(-5.0, 5.0, size=(200, 3))
        grid = FrequencyGrid(((-0.3, 0.9, 0.3), (0.1, 1.1, 0.25), (-1.2, 0.0, 0.2)))
        assert grid.shape == (5, 5, 7)
        direct = np.exp(-2j * np.pi * (grid.nodes() @ pts.T)).sum(axis=1)
        assert np.abs(spectral._grid_sums(pts, grid) - direct).max() <= 1e-13 * len(pts)

    @pytest.mark.parametrize(
        "axes",
        [
            ((-1.0, 1.0, 0.05),),  # through 0
            ((0.04, 1.2, 2.5e-3),),  # one-sided, above 0
            ((-2.0, -0.5, 0.01),),  # one-sided, below 0
            ((0.3, 0.35, 0.1),),  # one node
            ((-1.0, 1.0, 0.1), (-0.5, 1.0, 0.1)),  # through 0
            ((0.1, 0.15, 0.1), (0.0, 2.0, 0.05)),  # a one-node axis
            ((-0.3, 0.9, 0.3), (0.1, 1.1, 0.25), (-1.2, 0.0, 0.2)),  # 0 on no axis
            ((-0.5, 0.5, 0.1), (0.2, 0.25, 0.1), (0.5, 1.5, 0.25)),  # a one-node axis
        ],
    )
    def test_grid_sums_match_a_direct_float64_sum(self, axes):
        rng = np.random.default_rng(len(axes))
        n = 400
        pts = rng.uniform(-20.0, 20.0, size=(n, len(axes)))
        grid = FrequencyGrid(axes)
        direct = np.exp(-2j * np.pi * (grid.nodes() @ pts.T)).sum(axis=1)
        sums = spectral._grid_sums(pts, grid)
        assert np.abs(sums - direct).max() <= 1e-11 * n
        # a node at 0 holds the count exactly
        assert (sums[~grid.nodes().any(axis=1)] == n).all()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_points_whose_phase_sits_at_half_a_period(self, dim):
        # at step 1/2 an odd coordinate p has phase p / 2 at +1/2 or -1/2
        # mod 1 (0.5 rounds to 0, 1.5 to 2), so its taps wrap around the
        # fine grid from either end
        odd = np.arange(-9.0, 10.0, 2.0)
        pts = np.stack(np.meshgrid(*[odd] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
        grid = FrequencyGrid(((-1.0, 1.5, 0.5),) * dim)
        direct = np.exp(-2j * np.pi * (grid.nodes() @ pts.T)).sum(axis=1)
        sums = spectral._grid_sums(pts, grid)
        assert np.abs(sums - direct).max() <= 1e-11 * len(pts)

    @pytest.mark.parametrize(
        "axes, fine",
        [
            # modes -49 .. 50 about the centre node: 2 (2 * 50 + 1) = 202 fine
            # nodes, rounded up to 216 = 2^3 3^3
            (((0.0, 0.99, 0.01),), 216),
            # 3 x 4 nodes, modes up to 1 and 2 from the centre: 6 x 10
            (((0.0, 2.0, 1.0), (0.0, 3.0, 1.0)), 60),
        ],
    )
    def test_table_budget_admits_its_size_and_refuses_one_entry_more(
        self, monkeypatch, axes, fine
    ):
        x = gen_lattice(len(axes), 1.0, 3.0)
        # every point lies in the radius-3 window: (d + 1) tap tables of 16 a point
        entries = fine + (len(axes) + 1) * 16 * len(x)
        grid = FrequencyGrid(axes)
        monkeypatch.setattr(spectral, "_SPREAD_BUDGET", entries)
        amplitude = amplitude_spectrum(x, 3.0, grid).amplitude[0]
        assert amplitude == pytest.approx(len(x) / 3.0 ** len(axes), rel=1e-15)
        monkeypatch.setattr(spectral, "_SPREAD_BUDGET", entries - 1)
        refusal = f"^{entries} fine-grid nodes and kernel taps .*, over the budget of {entries - 1}$"
        with pytest.raises(InvalidArgumentError, match=refusal):
            amplitude_spectrum(x, 3.0, grid)
        # the sums at a free list of frequencies build rows x points entries
        lams = grid.nodes()
        entries = len(lams) * len(x)
        monkeypatch.setattr(spectral, "_TABLE_BUDGET", entries)
        direct = np.exp(-2j * np.pi * (lams @ x.points.T)).sum(axis=1)
        assert np.abs(spectral._free_sums(x.points, lams) - direct).max() <= 1e-13 * len(x)
        monkeypatch.setattr(spectral, "_TABLE_BUDGET", entries - 1)
        refusal = (
            f"^{entries} free-frequency phase-table entries, over the budget of {entries - 1}$"
        )
        with pytest.raises(InvalidArgumentError, match=refusal):
            spectral._free_sums(x.points, lams)

    def test_amplitudes_do_not_depend_on_blas_threads(self):
        src = os.path.dirname(os.path.dirname(quasidiff.__file__))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            run = subprocess.run(
                [sys.executable, "-c", _AMPLITUDE_DIGEST],
                env=env, capture_output=True, text=True, timeout=300, check=True,
            )
            digests.append(run.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# periodogram


class TestPeriodogram:
    GRID = FrequencyGrid(axes=((-1.0, 1.0, 0.125),))

    def test_lattice_window_five_power(self, lattice_220):
        spec = amplitude_spectrum(lattice_220, 5.0, self.GRID)
        assert spec.power[node_index(self.GRID, 0.0)] == pytest.approx(24.2, abs=1e-12)
        assert spec.power[node_index(self.GRID, 0.5)] == pytest.approx(0.2, abs=1e-12)

    def test_wiener_identity_at_zero(self, lattice_220):
        # 25 ordered pairs of the 5-point window over L = 2 on either side
        spec = amplitude_spectrum(lattice_220, 2.0, self.GRID)
        assert spec.power[node_index(self.GRID, 0.0)] == pytest.approx(12.5, abs=1e-12)
        gamma = autocorrelation(lattice_220, 2.0)
        assert complex(gamma.weights.sum()).real == pytest.approx(12.5, abs=1e-12)

    def test_wiener_identity_on_random_sets(self):
        # the periodogram must be the Fourier sum of autocorrelation atoms
        rng = np.random.default_rng(42)
        grid = FrequencyGrid(axes=((-1.6, 1.55, 0.05),))
        assert grid.node_count == 64
        lam = grid.nodes()[:, 0]
        for trial in range(5):
            size = int(rng.integers(50, 500))
            coords = rng.choice(np.arange(-240, 241), size=size, replace=False) * 0.25
            x = PointSet(1, 0.25, 60.0, np.sort(coords).reshape(-1, 1), f"rand{trial}")
            spec = amplitude_spectrum(x, 50.0, grid)
            gamma = autocorrelation(x, 50.0)
            phases = np.exp(-2j * np.pi * np.outer(lam, gamma.locations[:, 0]))
            fourier = (phases * gamma.weights[None, :]).sum(axis=1)
            assert np.abs(fourier.imag).max() < 1e-9
            rel = np.abs(spec.power - fourier.real) / np.maximum(spec.power, 1.0)
            assert rel.max() <= 1e-9

    def test_translation_invariance(self):
        rng = np.random.default_rng(9)
        coords = np.sort(rng.choice(np.arange(-10, 11), size=12, replace=False) * 0.5)
        x = PointSet(1, 0.5, 20.0, coords.reshape(-1, 1), "base")
        y = PointSet(1, 0.5, 20.0, coords.reshape(-1, 1) + 3.25, "moved")
        px = amplitude_spectrum(x, 10.0, self.GRID).power
        py = amplitude_spectrum(y, 10.0, self.GRID).power
        assert np.allclose(px, py, rtol=1e-9, atol=1e-9)

    def test_power_nonnegative_and_even(self):
        fib = gen_fibonacci(40.0)
        spec = amplitude_spectrum(fib, 30.0, self.GRID)
        assert (spec.power >= 0).all()
        scale = max(1.0, float(spec.power.max()))
        assert np.allclose(spec.power, spec.power[::-1], rtol=0, atol=1e-9 * scale)


# ---------------------------------------------------------------------------
# analyze_peaks


class TestAnalyzePeaks:
    # each band holds 2 * int(band) + 1 integer peaks; at every band edge the
    # outermost support box must end on a node of zero power
    @pytest.mark.parametrize("band", [1.5, 2.5, 3.5, 4.5])
    def test_lattice_unit_window_masses(self, lattice_220, band):
        spec = amplitude_spectrum(
            lattice_220, 50.0, FrequencyGrid(axes=((-band, band, 1e-3),))
        )
        report = analyze_peaks(spec, peak_window_width=1.0)
        expected = np.arange(-int(band), int(band) + 1, dtype=float)
        assert len(report.peaks) == len(expected)
        for peak, expected_loc in zip(report.peaks, expected):
            assert peak.location == pytest.approx(expected_loc, abs=1e-3)
            # one full period of the squared Dirichlet kernel integrates to
            # the window's point count: 101/50 = 2.02
            assert peak.mass == pytest.approx(2.02, abs=1e-3)
        assert report.background_level == 0.0
        assert len(report.support_boxes) == len(expected)

    @settings(max_examples=200, deadline=None)
    @given(
        heights=st.lists(st.integers(0, 6), min_size=3, max_size=60),
        half_width=st.integers(1, 12),
        threshold_ratio=st.sampled_from([0.0, 0.3, 0.5]),
    )
    def test_thinning_accepts_what_the_pairwise_rule_accepts(
        self, heights, half_width, threshold_ratio
    ):
        # quarter steps and half-widths keep every distance exact, so ties at
        # exactly half a width are common
        step = 0.25
        grid = FrequencyGrid(((0.0, step * (len(heights) - 0.5), step),))
        spec = Spectrum(grid, 1.0, "h", np.asarray(heights, dtype=float))
        width = 2 * half_width * step
        report = analyze_peaks(spec, peak_window_width=width, threshold_ratio=threshold_ratio)

        power, freqs = spec.power, grid.axis_values(0)
        interior = np.arange(1, len(freqs) - 1)
        is_max = (power[interior] > power[interior - 1]) & (power[interior] > power[interior + 1])
        cand = interior[is_max & (power[interior] >= threshold_ratio * power.max())]
        accepted = []
        for idx in cand[np.argsort(-power[cand], kind="stable")]:
            if all(abs(freqs[idx] - freqs[j]) >= width / 2 for j in accepted):
                accepted.append(idx)
        assert [p.node_location for p in report.peaks] == sorted(freqs[accepted].tolist())

    @settings(max_examples=200, deadline=None)
    @given(
        power=st.lists(st.floats(0.0, 1e3), min_size=3, max_size=300),
        half_width=st.floats(1.0, 30.0),
    )
    def test_masses_are_the_trapezoid_of_each_box_to_the_bit(self, power, half_width):
        # masses are summed for all peaks of one slice length at once
        step = 0.01
        grid = FrequencyGrid(((-1.0, -1.0 + step * (len(power) - 0.5), step),))
        spec = Spectrum(grid, 1.0, "p", np.sqrt(power))
        report = analyze_peaks(spec, peak_window_width=2 * half_width * step, threshold_ratio=0.0)
        freqs = grid.axis_values(0)
        outside = np.ones(len(freqs), dtype=bool)
        for peak, (lo, hi) in zip(report.peaks, report.support_boxes):
            a, b = np.searchsorted(freqs, lo, side="left"), np.searchsorted(freqs, hi, side="right")
            mass = float(np.trapezoid(spec.power[a:b], freqs[a:b])) if b - a >= 2 else 0.0
            assert peak.mass == mass
            outside[a:b] = False
        rest = spec.power[outside]
        assert report.background_level == (float(np.median(rest)) if len(rest) else 0.0)
        assert report.background_mean == (float(rest.mean()) if len(rest) else 0.0)

    def test_threshold_above_one_yields_no_peaks(self, lattice_220):
        spec = amplitude_spectrum(
            lattice_220, 50.0, FrequencyGrid(axes=((-2.5, 2.5, 1e-3),))
        )
        report = analyze_peaks(spec, peak_window_width=1.0, threshold_ratio=1.5)
        assert report.peaks == ()
        assert report.background_level == float(np.median(spec.power))

    def test_poisson_only_zero_peak_survives_half_threshold(self):
        grid = FrequencyGrid(axes=((-0.1, 0.5, 1e-3),))
        for seed in range(5):
            x = gen_poisson(1.0, 1, 2100.0, seed=seed)
            spec = amplitude_spectrum(x, 2000.0, grid)
            report = analyze_peaks(spec, threshold_ratio=0.5)
            assert all(abs(p.location) <= 0.01 for p in report.peaks)

    def test_rejects_narrow_window(self, lattice_220):
        spec = amplitude_spectrum(
            lattice_220, 50.0, FrequencyGrid(axes=((-0.5, 0.5, 1e-2),))
        )
        with pytest.raises(InvalidArgumentError):
            analyze_peaks(spec, peak_window_width=1e-2)

    def test_needs_three_nodes(self, lattice_220):
        spec = amplitude_spectrum(lattice_220, 5.0, FrequencyGrid(axes=((0.0, 1.0, 1.0),)))
        with pytest.raises(EmptySpectrumError):
            analyze_peaks(spec, peak_window_width=2.0)


# ---------------------------------------------------------------------------
# singularity_diagnostic


class TestSingularityDiagnostic:
    def test_lattice_singular_dominant(self, lattice_220):
        # the default peak window is 4/L wide; the L = 200 window holds
        # n = 401 points, whose power |sum_m e(m lam)|^2 / L integrates over
        # |lam - k| <= 2/L to (2hn + sum_m 2(n - m) sin(2 pi m h)/(pi m)) / L
        # with h = 2/L and m = 1..n-1 (the Fejer kernel), 1.954387...
        grid = FrequencyGrid(axes=((0.04, 2.46, 2e-4),))
        report = singularity_diagnostic(lattice_220, [50.0, 100.0, 200.0], grid)
        assert report.verdict == "singular-dominant"
        n, radius = 401, 200.0
        h = 2.0 / radius
        m = np.arange(1, n)
        tail = (2 * (n - m) * np.sin(2 * np.pi * m * h) / (np.pi * m)).sum()
        fejer = (2 * h * n + tail) / radius
        last = report.rows[-1]
        assert sorted(round(p.location) for p in last.top_off_zero) == [1, 2]
        for peak in last.top_off_zero:
            assert peak.mass == pytest.approx(fejer, abs=1e-4)
        assert report.background_ratio < 0.01

    def test_poisson_ac_dominant(self):
        grid = FrequencyGrid(axes=((0.04, 1.06, 1e-3),))
        for seed in range(3):
            x = gen_poisson(1.0, 1, 2100.0, seed=seed)
            report = singularity_diagnostic(x, [500.0, 1000.0, 2000.0], grid)
            assert report.verdict == "AC-dominant"
            assert report.background_fraction >= 0.05

    def test_perturbed_lattice_mixed(self):
        # damped-but-stable integer peaks riding on a real continuous floor;
        # the verdict is deterministic for the pinned seed
        noisy = perturb(
            gen_lattice(1, 1.0, 1100.0),
            NoiseModel(1, "gaussian", sigmas=(0.1,)),
            seed=2,
        )
        grid = FrequencyGrid(axes=((0.04, 2.46, 4e-4),))
        report = singularity_diagnostic(noisy, [250.0, 500.0, 1000.0], grid)
        assert report.verdict == "mixed"
        assert report.masses_stable
        assert report.background_fraction >= 0.05

    def test_requires_three_increasing_radii(self, lattice_220):
        grid = FrequencyGrid(axes=((0.04, 1.0, 1e-2),))
        with pytest.raises(InvalidArgumentError):
            singularity_diagnostic(lattice_220, [50.0, 100.0], grid)
        with pytest.raises(InvalidArgumentError):
            singularity_diagnostic(lattice_220, [50.0, 100.0, 100.0], grid)

    def test_requires_extent(self, lattice_220):
        grid = FrequencyGrid(axes=((0.04, 1.0, 1e-2),))
        with pytest.raises(InsufficientExtentError):
            singularity_diagnostic(lattice_220, [50.0, 100.0, 500.0], grid)

    def test_a_2d_grid_is_refused_before_any_spectrum(self, monkeypatch):
        # analyze_peaks refused it only after a full 2-d spectrum was built
        calls = []

        def counting(*args):
            calls.append(args)
            return amplitude_spectrum(*args)

        monkeypatch.setattr(spectral, "amplitude_spectrum", counting)
        plane = gen_lattice(2, 1.0, 60.0)
        grid = FrequencyGrid(axes=((-1.0, 1.0, 0.01), (-1.0, 1.0, 0.01)))
        with pytest.raises(InvalidArgumentError, match="1-d frequency grid"):
            singularity_diagnostic(plane, [10.0, 20.0, 40.0], grid)
        assert calls == []


# ---------------------------------------------------------------------------
# grid plumbing


class TestFrequencyGrid:
    def test_axis_values_inclusive(self):
        grid = FrequencyGrid(axes=((-1.0, 1.0, 0.5),))
        assert np.array_equal(grid.axis_values(0), [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_two_dimensional_nodes(self):
        grid = FrequencyGrid(axes=((0.0, 1.0, 1.0), (0.0, 2.0, 1.0)))
        assert grid.shape == (2, 3)
        assert grid.node_count == 6
        nodes = grid.nodes()
        assert nodes.shape == (6, 2)
        assert nodes[0].tolist() == [0.0, 0.0]
        assert nodes[-1].tolist() == [1.0, 2.0]

    def test_budget_enforced(self):
        with pytest.raises(InvalidArgumentError):
            FrequencyGrid(axes=((0.0, 1.0, 1e-9),))

    def test_rejects_bad_axis(self):
        with pytest.raises(InvalidArgumentError):
            FrequencyGrid(axes=((1.0, 0.0, 0.1),))
        with pytest.raises(InvalidArgumentError):
            FrequencyGrid(axes=((0.0, 1.0, 0.0),))
