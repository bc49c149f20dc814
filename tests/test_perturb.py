"""Random displacements, characteristic functions, and Fourier-side recovery."""

import importlib
import math
import os
import subprocess
import sys

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
from quasidiff.geometry import _dot, min_pairwise_gap, sq_norms, window_mask
from quasidiff.pointset import ammann_beenker_config, gen_cut_project, gen_lattice, window
from quasidiff.spectral import FrequencyGrid, Spectrum, _free_sums, amplitude_spectrum

import quasidiff

from conftest import traced_peak

GAUSS01 = NoiseModel.gaussian(1, 0.1)
MIXTURE = NoiseModel.gaussian_mixture(1, [(0.5, (0.1,), 0.05), (0.5, (-0.1,), 0.2)])


# ---------------------------------------------------------------------------
# noise models


class TestNoiseModel:
    def test_mixture_weights_must_sum_to_one(self):
        with pytest.raises(InvalidArgumentError):
            NoiseModel.gaussian_mixture(1, [(0.5, (0.0,), 0.1), (0.4, (1.0,), 0.1)])

    @pytest.mark.parametrize(
        "components", [[(1.0, (0.0,))], None, [None], 5, [(1.0, (0.0,), 0.1, 0.0)]]
    )
    def test_mixture_components_are_weight_mean_sigma_triples(self, components):
        # a pair ended in a bare ValueError, None in a TypeError
        with pytest.raises(InvalidArgumentError, match=r"\(weight, mean, sigma\) triples, got "):
            NoiseModel.gaussian_mixture(1, components)

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
        "kind, read, unread",
        [
            ("gaussian", {"sigmas": (0.1,)}, {"alpha": 3.0}),
            ("gaussian", {"sigmas": (0.1,)}, {"half_widths": (0.1,)}),
            ("uniform", {"half_widths": (0.1,)}, {"sigmas": (0.1,)}),
            ("uniform", {"half_widths": (0.1,)}, {"components": ((1.0, (0.0,), 0.1),)}),
            ("gaussian_mixture", {"components": ((1.0, (0.0,), 0.1),)}, {"scale": 0.1}),
            ("pareto_radial", {"alpha": 3.0, "scale": 0.1}, {"sigmas": (0.1,)}),
            ("pareto_radial", {"alpha": 3.0, "scale": 0.1}, {"half_widths": (0.1,)}),
        ],
    )
    def test_field_the_kind_does_not_read_rejected(self, kind, read, unread):
        NoiseModel(1, kind, **read)
        (field,) = unread
        with pytest.raises(InvalidArgumentError, match=f"{kind} model does not read {field}"):
            NoiseModel(1, kind, **read, **unread)

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
        # a weight, alpha and scale must also be positive, and say so
        with pytest.raises(InvalidArgumentError, match=f"noise {name} must be (a positive )?finite"):
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

    def test_stream_keyed_by_index_within_the_set(self):
        # same set, label, model and seed: bit-identical.  The draw follows
        # the canonical index, so a window's point i draws the full set's
        # draw i, not its own point's: perturbing and windowing do not commute
        z = gen_lattice(1, 1.0, 200.0)
        moved = perturb(z, GAUSS01, seed=3)
        again = perturb(gen_lattice(1, 1.0, 200.0), GAUSS01, seed=3)
        assert np.array_equal(again.points, moved.points)
        relabeled = perturb(gen_lattice(1, 1.0, 200.0, label="other"), GAUSS01, seed=3)
        assert not np.array_equal(relabeled.points, moved.points)
        w = window(z, 100.0)
        of_window = perturb(w, GAUSS01, seed=3).points - w.points
        full = moved.points - z.points  # 1-d noise this small keeps the order
        # displacements recovered from positions up to 200 carry ~3e-14 rounding
        assert np.allclose(of_window, full[: len(w.points)], rtol=0, atol=1e-12)
        assert not np.allclose(of_window, full[window_mask(z.points, 100.0)], rtol=0, atol=0.1)

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
        assert moved.sep_radius == float(gaps.min())

    def test_measured_separation_reported_in_2d(self):
        x = gen_cut_project(ammann_beenker_config(20.0), label="ammann-beenker")
        moved = perturb(x, NoiseModel.gaussian(2, 0.05), seed=3)
        assert moved.sep_radius == min_pairwise_gap(moved.points)
        assert moved.sep_radius == 0.27930228355991915

    def test_single_point_keeps_input_separation(self):
        x = gen_lattice(1, 1.0, 0.5)
        assert perturb(x, GAUSS01, seed=0).sep_radius == 1.0

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

    def test_phases_past_the_float_range_are_refused(self):
        # alpha = 0.01 draws radii past 1e308: this returned (nan, nan) with
        # RuntimeWarnings, which now fail the test (see conftest); the draw
        # itself is refused before any phase is taken
        with pytest.warns(RuntimeWarning, match="infinite"):
            heavy = NoiseModel.pareto_radial(2, 0.01, 1.0)
        with pytest.raises(InvalidArgumentError, match="draws a displacement past the float range"):
            char_fn_mc(heavy, [0.5, 0.5], 10**5)
        # finite draws whose phases overflow
        with pytest.raises(InvalidArgumentError, match="phase <p, lambda> is not finite"):
            char_fn_mc(NoiseModel.gaussian(2, 1.0), [1e308, 0.0], 1000)
        far = NoiseModel.gaussian_mixture(1, [(1.0, (1e308,), 0.1)])
        with pytest.raises(InvalidArgumentError, match="phase <p, lambda> is not finite"):
            char_fn(far, [5.0])
        # two products that overflow with opposite signs: inf - inf
        far = NoiseModel.gaussian_mixture(2, [(1.0, (1e308, 1e308), 0.1)])
        with pytest.raises(InvalidArgumentError, match="phase <p, lambda> is not finite"):
            char_fn(far, [5.0, -5.0])

    def test_zero_samples_rejected(self):
        with pytest.raises(InvalidArgumentError):
            char_fn_mc(GAUSS01, [1.0], mc_samples=0)

    def test_samples_over_the_budget_refused_before_drawing(self, monkeypatch):
        # the budget counts coordinates: samples times the model's dimension
        monkeypatch.setattr(importlib.import_module("quasidiff.perturb"), "_SAMPLE_BUDGET", 200)
        model = NoiseModel.gaussian(2, 0.1)
        char_fn_mc(model, [0.5, 0.5], 100)
        refusal = "^202 displacement coordinates for 101 samples in dimension 2, over the budget of 200$"
        with pytest.raises(InvalidArgumentError, match=refusal):
            char_fn_mc(model, [0.5, 0.5], 101)

    def test_modulus_never_exceeds_one(self):
        freqs = np.linspace(-4, 4, 81).reshape(-1, 1)
        for model in (GAUSS01, NoiseModel.uniform(1, 0.4), MIXTURE):
            assert (np.abs(char_fn_grid(model, freqs)) <= 1.0 + 1e-12).all()

    def test_planar_psi_does_not_depend_on_the_openblas_kernel(self):
        # Prescott's kernel has no FMA: a BLAS product <xi, lambda> gave the
        # mixture's psi at (2.5, -1.1) another last bit under it
        src = os.path.dirname(os.path.dirname(quasidiff.__file__))
        digests = []
        for coretype in (None, "Prescott"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            env.update({"OPENBLAS_CORETYPE": coretype} if coretype else {})
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            run = subprocess.run(
                [sys.executable, "-c", _PSI_DIGEST],
                env=env, capture_output=True, text=True, timeout=300, check=True,
            )
            digests.append(run.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]


_PSI_DIGEST = """
import hashlib
import numpy as np
from quasidiff.perturb import NoiseModel, char_fn_grid, char_fn_mc
mixture = NoiseModel.gaussian_mixture(2, [(0.7, (0.03, 0.01), 0.05), (0.3, (0.1, -0.05), 0.02)])
axis = np.linspace(-3.0, 3.0, 41)
freqs = np.stack([g.ravel() for g in np.meshgrid(axis, axis + 0.37, indexing="ij")], axis=1)
digest = hashlib.sha256(char_fn_grid(mixture, np.vstack([[(2.5, -1.1)], freqs])).tobytes())
for model in (mixture, NoiseModel.gaussian(2, 0.05)):
    mean, err = char_fn_mc(model, (2.5, -1.1), 10**5, seed=1)
    digest.update(np.array([mean.real, mean.imag, err]).tobytes())
print(digest.hexdigest())
"""


# ---------------------------------------------------------------------------
# keyed draws in counter blocks, and Monte Carlo psi folded block by block

NOISE_MODULE = importlib.import_module("quasidiff.perturb")
BLOCK = NOISE_MODULE._MC_BLOCK

# law and frequency of each streamed estimate
STREAM_LAWS = {
    "gaussian-1d": (GAUSS01, [0.7]),
    "uniform-2d": (NoiseModel.uniform(2, (0.2, 0.3)), [0.7, -0.3]),
    "mixture-2d": (
        NoiseModel.gaussian_mixture(2, [(0.7, (0.0, 0.0), 0.05), (0.3, (0.1, -0.05), 0.2)]),
        [1.5, 0.5],
    ),
    "pareto-2d": (NoiseModel.pareto_radial(2, 3.0, 0.1), [0.7, 0.3]),
}


def one_shot_char_fn(model, lam, n, seed):
    """The estimate from one draw of all n samples: numpy's complex mean, and
    the ddof=1 variances of the real and imaginary parts."""
    xi = NOISE_MODULE._displacements(model, seed, f"charfn:{model.kind}:{model.dim}", range(n))
    vals = np.exp(-2j * np.pi * (xi @ np.asarray(lam, dtype=np.float64)))
    spread = (vals.real.var(ddof=1) + vals.imag.var(ddof=1)) / n
    return complex(vals.mean()), math.sqrt(spread)


class TestCounterBlocks:
    @pytest.mark.parametrize("name", sorted(STREAM_LAWS))
    def test_a_counter_range_draws_the_rows_of_one_draw(self, name):
        model, _ = STREAM_LAWS[name]
        whole = NOISE_MODULE._displacements(model, 5, "blocks", range(3 * BLOCK + 5))
        for start, stop in ((0, 2), (7, 19), (BLOCK - 1, BLOCK + 1), (BLOCK, 2 * BLOCK),
                            (3 * BLOCK, 3 * BLOCK + 5)):
            part = NOISE_MODULE._displacements(model, 5, "blocks", range(start, stop))
            assert part.shape == (stop - start, model.dim)
            assert part.tobytes() == whole[start:stop].tobytes()

    @pytest.mark.parametrize("n", [2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    @pytest.mark.parametrize("name", sorted(STREAM_LAWS))
    def test_streamed_estimate_matches_one_draw(self, name, n):
        model, lam = STREAM_LAWS[name]
        value, stderr = char_fn_mc(model, lam, n, seed=4)
        ref_value, ref_stderr = one_shot_char_fn(model, lam, n, seed=4)
        assert abs(value - ref_value) <= 1e-12
        assert stderr == pytest.approx(ref_stderr, rel=1e-9, abs=0)

    def test_draws_one_block_of_counters_at_a_time(self, monkeypatch):
        ranges = []
        draw = NOISE_MODULE._displacements

        def recorded(model, seed, label, counters):
            ranges.append(counters)
            return draw(model, seed, label, counters)

        monkeypatch.setattr(NOISE_MODULE, "_displacements", recorded)
        char_fn_mc(GAUSS01, [0.7], 2 * BLOCK + 3)
        assert ranges == [range(0, BLOCK), range(BLOCK, 2 * BLOCK),
                          range(2 * BLOCK, 2 * BLOCK + 3)]

    def test_memory_does_not_grow_with_the_sample_count(self):
        # 2^22 planar samples, the whole sample budget: one draw of them grew
        # the peak resident set by about 350 MB; blocks whose draws and fold
        # made whole-block temporaries traced 8.57 MB, in place 3.38 MB
        model = NoiseModel.pareto_radial(2, 3.0, 0.1)
        char_fn_mc(model, [0.7, 0.3], 2)
        assert traced_peak(lambda: char_fn_mc(model, [0.7, 0.3], 2**22)) < 6 * 2**20


DRAW_BLOCK = NOISE_MODULE._BLOCK
RNG_MODULE = importlib.import_module("quasidiff.rng")


def out_of_place_uniforms(key, counters, slot):
    """The keyed uniforms by the copying formulas the in-place mixer replaced."""
    def splitmix64(x):
        x = (x + RNG_MODULE._GOLDEN).astype(np.uint64)
        x ^= x >> np.uint64(30)
        x *= RNG_MODULE._MIX1
        x ^= x >> np.uint64(27)
        x *= RNG_MODULE._MIX2
        x ^= x >> np.uint64(31)
        return x

    c = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        h = splitmix64(c ^ (np.uint64(slot) * RNG_MODULE._SLOT_SALT))
        h = splitmix64(h ^ np.uint64(key))
    return (h >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def copying_fold(model, lam, mc_samples, seed):
    """char_fn_mc's fold with a fresh array for the deviations and their squares."""
    label = f"charfn:{model.kind}:{model.dim}"
    n, mean, m2 = 0, 0j, 0.0
    for start in range(0, mc_samples, BLOCK):
        xi = NOISE_MODULE._displacements(model, seed, label,
                                         range(start, min(start + BLOCK, mc_samples)))
        vals = NOISE_MODULE._phases(_dot(xi, np.asarray(lam, dtype=np.float64)))
        k, block_mean = len(vals), complex(vals.mean())
        dev = (vals - block_mean).view(np.float64)
        delta = block_mean - mean
        n += k
        mean += delta * (k / n)
        m2 += float((dev * dev).sum()) + abs(delta) ** 2 * (n - k) * (k / n)
    return mean, math.sqrt(m2 / (n - 1) / n)


class TestDrawsInPlace:
    @pytest.mark.parametrize("name", sorted(STREAM_LAWS))
    def test_blocks_give_the_bytes_of_one_draw(self, name):
        model, _ = STREAM_LAWS[name]
        n = 3 * DRAW_BLOCK + 5
        key = RNG_MODULE.stream_key(5, "blocks")
        with np.errstate(over="ignore", invalid="ignore"):
            one_draw = NOISE_MODULE._draw(model, key, np.arange(n, dtype=np.uint64))
        whole = NOISE_MODULE._displacements(model, 5, "blocks", range(n))
        assert whole.tobytes() == one_draw.tobytes()
        for start, stop in ((DRAW_BLOCK - 3, DRAW_BLOCK + 3), (DRAW_BLOCK + 1, 3 * DRAW_BLOCK - 1),
                            (2 * DRAW_BLOCK - 1, n)):
            part = NOISE_MODULE._displacements(model, 5, "blocks", range(start, stop))
            assert part.tobytes() == one_draw[start:stop].tobytes()

    def test_mixing_in_place_gives_the_copying_formulas_bits(self):
        counters = np.arange(10**5, dtype=np.uint64)
        key = RNG_MODULE.stream_key(3, "mix")
        for slot in (0, 1, 7):
            expected = out_of_place_uniforms(key, counters, slot)
            assert RNG_MODULE.uniforms(key, counters, slot).tobytes() == expected.tobytes()
        u1, u2 = out_of_place_uniforms(key, counters, 4), out_of_place_uniforms(key, counters, 5)
        expected = np.sqrt(-2.0 * np.log(1.0 - u1)) * np.cos(2.0 * np.pi * u2)
        assert RNG_MODULE.normals(key, counters, 4).tobytes() == expected.tobytes()
        assert counters.tobytes() == np.arange(10**5, dtype=np.uint64).tobytes()

    @pytest.mark.parametrize("n", [2, BLOCK + 1, 3 * BLOCK + 5])
    @pytest.mark.parametrize("name", sorted(STREAM_LAWS))
    def test_fold_in_place_gives_the_copying_folds_bits(self, name, n):
        model, lam = STREAM_LAWS[name]
        assert char_fn_mc(model, lam, n, seed=6) == copying_fold(model, lam, n, seed=6)

    def test_memory_holds_the_output_and_one_block(self):
        # 10^6 planar mixture draws at once traced 5 times their output
        model, _ = STREAM_LAWS["mixture-2d"]
        n = 10**6
        assert traced_peak(lambda: NOISE_MODULE._displacements(model, 0, "x", range(n))) \
            < 1.25 * n * model.dim * 8


# ---------------------------------------------------------------------------
# draws past the float range


def test_draws_past_the_float_range_are_refused_where_drawn():
    # every caller reported these badly: displacement_margin returned nan,
    # boundary_crossings refused a nan margin and perturb an infinite extent,
    # each after RuntimeWarnings, which fail this test (see conftest)
    with pytest.warns(RuntimeWarning, match="infinite"):
        heavy = NoiseModel.pareto_radial(2, 0.01, 1.0)
    plane = gen_lattice(2, 1.0, 50.0)
    refusal = ("^pareto_radial noise \\(alpha=0.01, scale=1.0\\) in dimension 2 draws a "
               "displacement past the float range$")
    for call in (lambda: displacement_margin(heavy),
                 lambda: boundary_crossings(plane, heavy, 0, [5.0]),
                 lambda: perturb(plane, heavy, 0),
                 lambda: char_fn_mc(heavy, [0.5, 0.5], 10**5)):
        with pytest.raises(InvalidArgumentError, match=refusal):
            call()
    # a finite sigma times a normal past the float range
    huge = NoiseModel.gaussian(1, 1e308)
    refusal = "^gaussian noise \\(sigmas=\\(1e\\+308,\\)\\) in dimension 1 draws a displacement"
    with pytest.raises(InvalidArgumentError, match=refusal):
        perturb(gen_lattice(1, 1.0, 50.0), huge, 0)


def test_finite_draws_whose_squares_overflow_are_refused():
    # every draw is finite, but a displaced coordinate past about 1.3e154
    # squares to inf: perturb reported an infinite extent
    with pytest.warns(RuntimeWarning, match="infinite"):
        heavy = NoiseModel.pareto_radial(1, 0.01, 1.0)
    refusal = r"^lattice1d\[1.0\]: the displaced points' extent is too large: its square overflows$"
    with pytest.raises(InvalidArgumentError, match=refusal):
        perturb(gen_lattice(1, 1.0, 60.0), heavy, 0)
    # a draw that stays below the overflow still gives a set
    far = perturb(gen_lattice(1, 1.0, 60.0), heavy, 3)
    assert math.isfinite(far.extent) and far.extent > 60.0


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

    @pytest.mark.parametrize("guard", [math.inf, math.nan, 0.0, -1e-3])
    def test_guard_must_be_positive_and_finite(self, guard):
        # an infinite guard would mark every node invalid and still succeed
        with pytest.raises(InvalidArgumentError, match="guard must be a positive finite number"):
            recover(self.spectrum(), GAUSS01, guard=guard)


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

    def test_counts_match_public_perturb(self):
        # at integer radii the lattice points on the sphere cross about half
        # the time, so every record carries counts; 1-d noise this small keeps
        # the canonical order, so point i of the perturbed set is point i moved
        lat = gen_lattice(1, 1.0, 1100.0, label="int-lattice")
        radii = np.arange(1.0, 1001.0)
        before = sq_norms(lat.points)
        crossings = 0
        for seed in range(3):
            after = sq_norms(perturb(lat, GAUSS01, seed).points)
            for rec in boundary_crossings(lat, GAUSS01, seed, radii).records:
                r2 = rec.window_radius**2
                assert rec.exits == int(((before <= r2) & (after > r2)).sum())
                assert rec.entries == int(((before > r2) & (after < r2)).sum())
                crossings += rec.exits + rec.entries
        assert crossings > 1000

    def test_counts_conserve_window_counts_in_2d(self):
        x = gen_cut_project(ammann_beenker_config(20.0), label="ammann-beenker")
        model = NoiseModel.gaussian(2, 0.05)
        before = sq_norms(x.points)
        for seed in range(3):
            after = sq_norms(perturb(x, model, seed).points)
            for rec in boundary_crossings(x, model, seed, [5.0, 10.0, 15.0]).records:
                r2 = rec.window_radius**2
                inside = int((before <= r2).sum()) - rec.exits + rec.entries
                assert int((after <= r2).sum()) == inside

    def test_extent_must_cover_margin(self):
        lat = gen_lattice(1, 1.0, 100.0)
        with pytest.raises(InsufficientExtentError):
            boundary_crossings(lat, GAUSS01, 0, [100.0])


# ---------------------------------------------------------------------------
# displacement margin memo

# the noise laws of the benchmark's noise-recovery workload, plus a law of the
# same kind and dimension as the first with a different parameter (the margin
# draw is keyed by kind and dimension only, so the two share a stream)
MARGIN_LAWS = {
    "gaussian-1d": GAUSS01,
    "gaussian-1d-wide": NoiseModel.gaussian(1, 0.2),
    "uniform-1d": NoiseModel.uniform(1, 0.2),
    "gaussian-2d": NoiseModel.gaussian(2, 0.05),
    "mixture-2d": NoiseModel.gaussian_mixture(
        2, [(0.7, (0.0, 0.0), 0.05), (0.3, (0.1, -0.05), 0.02)]
    ),
    "pareto-2d": NoiseModel.pareto_radial(2, 4.0, 0.1),
}


class TestDisplacementMarginMemo:
    @pytest.mark.parametrize("name", sorted(MARGIN_LAWS))
    def test_memo_matches_uncached_computation(self, name):
        model = MARGIN_LAWS[name]
        first = displacement_margin(model)
        assert first == NOISE_MODULE._margin.__wrapped__(model)
        assert displacement_margin(model) == first

    def test_equal_models_share_one_entry(self):
        before = NOISE_MODULE._margin.cache_info()
        displacement_margin(NoiseModel.gaussian(1, 0.3))
        displacement_margin(NoiseModel.gaussian(1, 0.3))
        after = NOISE_MODULE._margin.cache_info()
        assert after.misses - before.misses <= 1
        assert after.hits - before.hits >= 1

    def test_model_built_from_lists_hashes(self):
        listed = NoiseModel(1, "gaussian", sigmas=[0.1])
        assert listed == GAUSS01
        assert displacement_margin(listed) == displacement_margin(GAUSS01)

    def test_different_parameters_never_share_a_value(self):
        values = [displacement_margin(m) for m in MARGIN_LAWS.values()]
        assert len(set(values)) == len(values)
        # same (kind, dim), same stream: the margin scales with sigma
        wide = MARGIN_LAWS["gaussian-1d-wide"]
        assert displacement_margin(wide) == 2 * displacement_margin(GAUSS01)


class TestMarginBlocks:
    @pytest.mark.parametrize("name", sorted(STREAM_LAWS))
    def test_blocks_match_one_draw_of_every_sample(self, name):
        model, _ = STREAM_LAWS[name]
        xi = NOISE_MODULE._displacements(model, 0, f"margin:{model.kind}:{model.dim}",
                                         range(NOISE_MODULE._MARGIN_SAMPLES))
        one_draw = np.percentile(np.sqrt(sq_norms(xi)), NOISE_MODULE._MARGIN_PERCENTILE)
        assert displacement_margin(model) == float(one_draw)

    def test_memory_holds_a_block_of_draws(self):
        # 200,000 planar heavy-tailed draws at once peaked at 15.3 MB, in
        # counter blocks at 6.6 MB
        model, _ = STREAM_LAWS["pareto-2d"]
        displacement_margin(GAUSS01)
        NOISE_MODULE._margin.cache_clear()
        assert traced_peak(lambda: displacement_margin(model)) < 10 * 2**20


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

    @pytest.mark.parametrize("dim", [1, 2])
    def test_per_seed_amplitudes_match_public_path(self, dim):
        # each seed's amplitude is the phase sum over window(perturb(x)); in
        # 2-d perturb's lex sort reorders the summation, hence the tolerance
        if dim == 1:
            x, model, radius = gen_lattice(1, 1.0, 510.0), GAUSS01, 500.0
            lams = [[1.0], [0.5], [0.25], [0.1]]
        else:
            x = gen_cut_project(ammann_beenker_config(25.0), label="ammann-beenker")
            model, radius = NoiseModel.gaussian(2, 0.05), 20.0
            lams = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.5], [1.0, 1.0]]
        seeds = range(4)
        report = recovery_trial(x, model, seeds, lams, radius)
        psi = char_fn_grid(model, np.asarray(lams))
        scale = radius**x.dim
        for k, seed in enumerate(seeds):
            w = window(perturb(x, model, seed), radius)
            expected = _free_sums(w.points, np.asarray(lams, dtype=float)) / scale / psi
            got = np.array([row.recovered[k] for row in report.rows])
            if dim == 1:
                assert np.array_equal(got, expected)
            else:
                bound = 1e-12 * len(w.points) / scale / np.abs(psi)
                assert (np.abs(got - expected) <= bound).all()

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


# ---------------------------------------------------------------------------
# closed-form spectrum of a perturbed lattice


def test_perturbed_lattice_power_matches_closed_form():
    # for i.i.d. displacements with characteristic function psi the window's
    # expected power is (N / L^d)(1 - |psi|^2) + |psi|^2 power_0: a continuous
    # floor plus the damped unperturbed power (Hof 1995; Baake, Birkner &
    # Moody 2010).  On these nodes N lam = lam mod 1, so power_0 = 1/L and
    # the floor dominates.  The bound is a standard-error multiple.
    z = gen_lattice(1, 1.0, 2010.0)
    radius = 2000.0
    model = NoiseModel.gaussian(1, 0.2)
    grid = FrequencyGrid(axes=((0.105, 0.895, 0.01),))
    assert grid.node_count == 80
    count = int((np.abs(z.points[:, 0]) <= radius).sum())
    psi2 = np.abs(char_fn_grid(model, grid.nodes())) ** 2
    power0 = amplitude_spectrum(z, radius, grid).power
    predicted = count / radius * (1 - psi2) + psi2 * power0
    # one node-averaged ratio of measured to predicted power per seed
    ratios = np.array(
        [
            (amplitude_spectrum(perturb(z, model, seed), radius, grid).power / predicted).mean()
            for seed in range(100)
        ]
    )
    stderr = ratios.std(ddof=1) / math.sqrt(len(ratios))
    assert abs(ratios.mean() - 1.0) <= 3 * stderr
