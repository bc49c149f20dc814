"""Exponential sums, periodograms, peak analysis, and spectral-type verdicts."""

import numpy as np
import pytest

from quasidiff.errors import (
    EmptySpectrumError,
    InsufficientExtentError,
    InvalidArgumentError,
)
from quasidiff.measures import autocorrelation
from quasidiff.perturb import NoiseModel, perturb
from quasidiff.pointset import PointSet, gen_fibonacci, gen_lattice, gen_poisson, window
from quasidiff.spectral import (
    FrequencyGrid,
    amplitude_spectrum,
    analyze_peaks,
    exp_sum,
    singularity_diagnostic,
)


def node_index(grid: FrequencyGrid, freq: float) -> int:
    idx = np.flatnonzero(np.abs(grid.axis_values(0) - freq) < 1e-9)
    assert len(idx) == 1
    return int(idx[0])


@pytest.fixture(scope="module")
def lattice_220():
    return gen_lattice(1, 1.0, 220.0)


# ---------------------------------------------------------------------------
# exp_sum


class TestExpSum:
    def test_zero_frequency_counts_points(self):
        z5 = window(gen_lattice(1, 1.0, 10.0), 5.0)
        assert exp_sum(z5, [0.0]) == 11 + 0j

    def test_half_frequency_alternates(self):
        # five even against six odd integers in [-5, 5]
        z5 = window(gen_lattice(1, 1.0, 10.0), 5.0)
        value = exp_sum(z5, [0.5])
        assert value == pytest.approx(-1.0 + 0j, abs=1e-12)

    def test_single_point_unit_modulus(self):
        pt = PointSet(1, 1.0, 5.0, np.array([[0.37]]), "pt")
        for lam in (0.0, 0.31, -1.7, 12.25):
            assert abs(exp_sum(pt, [lam])) == pytest.approx(1.0, abs=1e-12)

    def test_bounded_by_count(self):
        rng = np.random.default_rng(5)
        fib = gen_fibonacci(40.0)
        for lam in rng.uniform(-3, 3, size=25):
            assert abs(exp_sum(fib, [float(lam)])) <= len(fib.points) + 1e-9


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
        assert gamma.total_mass.real == pytest.approx(12.5, abs=1e-12)

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
    def test_lattice_unit_window_masses(self, lattice_220):
        spec = amplitude_spectrum(
            lattice_220, 50.0, FrequencyGrid(axes=((-2.5, 2.5, 1e-3),))
        )
        report = analyze_peaks(spec, peak_window_width=1.0)
        assert len(report.peaks) == 5
        for peak, expected_loc in zip(report.peaks, (-2.0, -1.0, 0.0, 1.0, 2.0)):
            assert peak.location == pytest.approx(expected_loc, abs=1e-3)
            # one full period of the squared Dirichlet kernel integrates to
            # the window's point count: 101/50 = 2.02
            assert peak.mass == pytest.approx(2.02, abs=1e-3)
        assert report.background_level == 0.0
        assert len(report.support_boxes) == 5

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
        # half-unit peak windows integrate essentially the whole kernel, so
        # each atom's mass approaches the density 2 as the window grows
        grid = FrequencyGrid(axes=((0.04, 2.46, 2e-4),))
        report = singularity_diagnostic(
            lattice_220, [50.0, 100.0, 200.0], grid, peak_window_width=0.5
        )
        assert report.verdict == "singular-dominant"
        last = report.rows[-1]
        assert last.top_off_zero
        for peak in last.top_off_zero:
            assert abs(peak.mass - 2.0) <= 0.02 * 2.0
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
