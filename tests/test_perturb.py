"""Random displacements, characteristic functions, and Fourier-side recovery."""

import math

import numpy as np
import pytest

from quasidiff.errors import (
    DegenerateTrialError,
    InsufficientExtentError,
    InvalidArgumentError,
)
from quasidiff.perturb import (
    NoiseModel,
    boundary_crossings,
    char_fn,
    char_fn_grid,
    char_fn_mc,
    displacement_margin,
    perturb,
    recover,
    recovery_trial,
)
from quasidiff.pointset import gen_lattice
from quasidiff.spectral import FrequencyGrid, Spectrum, amplitude_spectrum

GAUSS01 = NoiseModel.gaussian(1, 0.1)
MIXTURE = NoiseModel.gaussian_mixture(1, [(0.5, (0.1,), 0.05), (0.5, (-0.1,), 0.2)])


# ---------------------------------------------------------------------------
# noise models


class TestNoiseModel:
    def test_mixture_weights_must_sum_to_one(self):
        with pytest.raises(InvalidArgumentError):
            NoiseModel.gaussian_mixture(1, [(0.5, (0.0,), 0.1), (0.4, (1.0,), 0.1)])

    def test_heavy_tail_moment_flag(self):
        with pytest.warns(RuntimeWarning, match="infinite"):
            thin = NoiseModel.pareto_radial(1, alpha=1.2, scale=0.1)
        assert not thin.finite_moment
        fat = NoiseModel.pareto_radial(1, alpha=2.0, scale=0.1)
        assert fat.finite_moment

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidArgumentError):
            NoiseModel(1, "cauchy")

    @pytest.mark.parametrize(
        "kind, args, name",
        [
            ("gaussian", (1, math.nan), "sigma"),
            ("gaussian", (2, [0.1, math.inf]), "sigma"),
            ("uniform", (1, math.inf), "half-width"),
            ("uniform", (1, math.nan), "half-width"),
            ("gaussian_mixture", (1, [(math.nan, (0.0,), 0.1)]), "mixture weight"),
            ("gaussian_mixture", (1, [(math.inf, (0.0,), 0.1)]), "mixture weight"),
            ("gaussian_mixture", (1, [(1.0, (math.inf,), 0.1)]), "mixture mean"),
            ("gaussian_mixture", (1, [(1.0, (0.0,), math.nan)]), "mixture sigma"),
            ("pareto_radial", (1, math.inf, 0.1), "alpha"),
            ("pareto_radial", (1, math.nan, 0.1), "alpha"),
            ("pareto_radial", (1, 3.0, math.inf), "scale"),
        ],
    )
    def test_non_finite_parameter_rejected(self, kind, args, name):
        with pytest.raises(InvalidArgumentError, match=f"noise {name} must be finite"):
            getattr(NoiseModel, kind)(*args)


# ---------------------------------------------------------------------------
# perturb


class TestPerturb:
    def test_zero_noise_is_identity(self):
        x = gen_lattice(1, 1.0, 50.0)
        assert perturb(x, NoiseModel.gaussian(1, 0.0), seed=7) == x

    def test_deterministic_per_seed(self):
        x = gen_lattice(1, 1.0, 50.0)
        a = perturb(x, GAUSS01, seed=3)
        b = perturb(x, GAUSS01, seed=3)
        c = perturb(x, GAUSS01, seed=4)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)

    def test_mean_displacement_half_normal(self):
        # E |xi| = sigma * sqrt(2/pi) = 0.0798 for sigma = 0.1
        base = gen_lattice(1, 1.0, 1000.0)
        means = [
            float(np.abs(perturb(base, GAUSS01, seed=s).points - base.points).mean())
            for s in range(10)
        ]
        assert abs(np.mean(means) - 0.0798) <= 0.005

    def test_measured_separation_reported(self):
        x = gen_lattice(1, 1.0, 50.0)
        moved = perturb(x, GAUSS01, seed=1)
        gaps = np.diff(moved.points[:, 0])
        assert moved.sep_radius == pytest.approx(float(gaps.min()), abs=1e-15)

    def test_dimension_mismatch(self):
        x = gen_lattice(2, 1.0, 10.0)
        with pytest.raises(InvalidArgumentError):
            perturb(x, GAUSS01, seed=0)


# ---------------------------------------------------------------------------
# characteristic functions


class TestCharFn:
    def test_unity_at_zero_frequency(self):
        heavy = NoiseModel.pareto_radial(1, alpha=2.0, scale=0.1)
        for model in (GAUSS01, NoiseModel.uniform(1, 0.25), MIXTURE):
            assert char_fn(model, [0.0]) == 1.0 + 0j
        assert char_fn_mc(heavy, [0.0], mc_samples=1000)[0] == 1.0 + 0j

    def test_gaussian_closed_form(self):
        value = char_fn(GAUSS01, [1.0])
        assert value.imag == 0.0
        assert value.real == pytest.approx(math.exp(-2 * math.pi**2 * 0.01), abs=1e-15)
        assert abs(value.real - 0.8209) <= 1e-4

    def test_uniform_closed_form(self):
        value = char_fn(NoiseModel.uniform(1, 0.25), [1.0])
        assert value.real == pytest.approx(2.0 / math.pi, abs=1e-15)

    def test_uniform_sinc_zero(self):
        value = char_fn(NoiseModel.uniform(1, 0.25), [2.0])
        assert abs(value) < 1e-12

    def test_monte_carlo_matches_closed_forms(self):
        for model, lam in ((GAUSS01, 0.7), (NoiseModel.uniform(1, 0.25), 0.6), (MIXTURE, 0.9)):
            closed = char_fn(model, [lam])
            mc, stderr = char_fn_mc(model, [lam], mc_samples=200_000)
            assert abs(mc - closed) <= 3 * stderr

    def test_heavy_tail_requires_sampling(self):
        heavy = NoiseModel.pareto_radial(1, alpha=2.0, scale=0.1)
        with pytest.raises(InvalidArgumentError):
            char_fn(heavy, [1.0])
        value, stderr = char_fn_mc(heavy, [1.0], mc_samples=50_000)
        assert abs(value) <= 1.0 + 1e-12
        assert stderr > 0

    def test_zero_samples_rejected(self):
        with pytest.raises(InvalidArgumentError):
            char_fn_mc(GAUSS01, [1.0], mc_samples=0)

    def test_modulus_never_exceeds_one(self):
        freqs = np.linspace(-4, 4, 81).reshape(-1, 1)
        for model in (GAUSS01, NoiseModel.uniform(1, 0.4), MIXTURE):
            assert (np.abs(char_fn_grid(model, freqs)) <= 1.0 + 1e-12).all()


# ---------------------------------------------------------------------------
# recover


class TestRecover:
    GRID = FrequencyGrid(axes=((-1.5, 1.5, 0.05),))

    def spectrum(self):
        return amplitude_spectrum(gen_lattice(1, 1.0, 60.0), 50.0, self.GRID)

    def test_zero_noise_identity(self):
        spec = self.spectrum()
        rec = recover(spec, NoiseModel.gaussian(1, 0.0))
        assert rec.valid.all()
        assert np.array_equal(rec.amplitude, spec.amplitude)

    def test_undoes_multiplication_exactly(self):
        spec = self.spectrum()
        psi = char_fn_grid(GAUSS01, self.GRID.nodes())
        blurred = Spectrum(self.GRID, spec.window_radius, "blurred", spec.amplitude * psi)
        rec = recover(blurred, GAUSS01)
        assert rec.valid.all()  # gaussian psi stays above the default guard here
        err = np.abs(rec.amplitude - spec.amplitude)
        assert (err <= 1e-12 * np.maximum(np.abs(spec.amplitude), 1.0)).all()

    def test_sinc_zero_marked_invalid(self):
        grid = FrequencyGrid(axes=((0.0, 2.0, 0.5),))
        spec = amplitude_spectrum(gen_lattice(1, 1.0, 60.0), 50.0, grid)
        model = NoiseModel.uniform(1, 0.25)
        for guard in (1e-3, 1e-9):
            rec = recover(spec, model, guard=guard)
            freqs = grid.axis_values(0)
            assert not rec.valid[np.flatnonzero(freqs == 2.0)[0]]
            assert rec.valid[np.flatnonzero(freqs == 0.0)[0]]

    def test_invalid_nodes_carry_no_numbers(self):
        grid = FrequencyGrid(axes=((0.0, 2.0, 0.5),))
        spec = amplitude_spectrum(gen_lattice(1, 1.0, 60.0), 50.0, grid)
        rec = recover(spec, NoiseModel.uniform(1, 0.25))
        assert np.isnan(rec.power[~rec.valid]).all()

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            recover(self.spectrum(), NoiseModel.gaussian(2, 0.1))


# ---------------------------------------------------------------------------
# boundary crossings


class TestBoundaryCrossings:
    def test_zero_noise_no_crossings(self):
        lat = gen_lattice(1, 1.0, 1100.0, label="int-lattice")
        rep = boundary_crossings(lat, NoiseModel.gaussian(1, 0.0), 0, [100.0, 1000.0])
        assert all(r.exits == 0 and r.entries == 0 for r in rep.records)

    def test_gaussian_crossing_counts(self):
        lat = gen_lattice(1, 1.0, 1100.0, label="int-lattice")
        near_counts = []
        near_ratios, far_ratios = [], []
        for seed in range(10):
            rep = boundary_crossings(lat, GAUSS01, seed, [100.0, 1000.0])
            near, far = rep.records
            near_counts.append(near.exits + near.entries)
            near_ratios.append(near.ratio)
            far_ratios.append(far.ratio)
            assert near.ratio <= 0.03
        assert near_counts == [1, 1, 1, 2, 0, 2, 1, 1, 0, 0]
        assert sum(c <= 3 for c in near_counts) >= 9
        # the crossing ratio thins as the window grows
        assert float(np.median(near_ratios)) == 0.01
        assert float(np.median(far_ratios)) == 0.001

    def test_margin_is_high_quantile(self):
        margin = displacement_margin(GAUSS01)
        assert margin == pytest.approx(0.32893245309979235, abs=1e-12)
        # 99.9th percentile of |N(0, 0.1)| is 0.1 * 3.2905
        assert abs(margin - 0.32905) <= 0.01

    def test_extent_must_cover_margin(self):
        lat = gen_lattice(1, 1.0, 100.0)
        with pytest.raises(InsufficientExtentError):
            boundary_crossings(lat, GAUSS01, 0, [100.0])


# ---------------------------------------------------------------------------
# recovery trials


class TestRecoveryTrial:
    def test_lattice_recovery_medians(self):
        z = gen_lattice(1, 1.0, 5010.0, label="int-lattice")
        report = recovery_trial(z, GAUSS01, range(10), [[1.0], [0.5]], radius=5000.0)
        bragg, off = report.rows
        assert bragg.true_amplitude.real == pytest.approx(2.0002, abs=1e-9)
        assert off.true_amplitude.real == pytest.approx(0.0002, abs=1e-9)
        assert bragg.median_abs_error == pytest.approx(0.012233165342502985, abs=1e-12)
        assert off.median_abs_error == pytest.approx(0.004658123108897488, abs=1e-12)
        med_bragg = float(np.median([abs(r - 2.0) for r in bragg.recovered]))
        med_off = float(np.median([abs(r) for r in off.recovered]))
        assert med_bragg <= 0.05
        assert med_off <= 0.05

    def test_zero_noise_exact(self):
        z = gen_lattice(1, 1.0, 10.0)
        report = recovery_trial(
            z, NoiseModel.gaussian(1, 0.0), [0], [[0.0]], radius=5.0
        )
        (row,) = report.rows
        assert row.true_amplitude == 2.2 + 0j
        assert row.recovered == (2.2 + 0j,)
        assert row.median_abs_error == 0.0

    def test_all_frequencies_guarded_is_degenerate(self):
        z = gen_lattice(1, 1.0, 20.0)
        with pytest.raises(DegenerateTrialError):
            recovery_trial(z, NoiseModel.uniform(1, 0.25), [0], [[2.0]], radius=10.0)

    def test_invalid_frequency_reported_not_divided(self):
        z = gen_lattice(1, 1.0, 20.0)
        report = recovery_trial(
            z, NoiseModel.uniform(1, 0.25), [0], [[1.0], [2.0]], radius=10.0
        )
        good, bad = report.rows
        assert good.valid and good.recovered
        assert not bad.valid
        assert bad.recovered == ()
        assert math.isnan(bad.median_abs_error)

    def test_window_plus_margin_needs_extent(self):
        z = gen_lattice(1, 1.0, 100.0)
        with pytest.raises(InsufficientExtentError):
            recovery_trial(z, GAUSS01, [0], [[1.0]], radius=100.0)

    def test_perturbed_amplitude_unbiased(self):
        # across seeds the perturbed amplitude averages to psi * truth
        z = gen_lattice(1, 1.0, 210.0)
        lam = np.array([[1.0]])
        radius = 200.0
        truth = 401.0 / 200.0
        psi = char_fn(GAUSS01, [1.0])
        values = []
        for seed in range(50):
            moved = perturb(z, GAUSS01, seed)
            pts = moved.points[np.abs(moved.points[:, 0]) <= radius]
            phases = np.exp(-2j * np.pi * pts[:, 0] * lam[0, 0])
            values.append(complex(phases.sum() / radius))
        values = np.array(values)
        mean = values.mean()
        stderr = math.sqrt(
            (values.real.var(ddof=1) + values.imag.var(ddof=1)) / len(values)
        )
        assert abs(mean - psi * truth) <= 3 * stderr
