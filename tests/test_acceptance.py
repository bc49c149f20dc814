"""Fourteen end-to-end checks of the library's headline behaviors.

Each test measures the relevant quantities with the public API, prints one
``[PASS]``/``[FAIL]`` line carrying the measured values, and asserts the
pinned bounds.  Run with ``pytest -v`` to see one status line per check.
"""

import time

import numpy as np
import pytest

from quasidiff.geometry import min_pairwise_gap
from quasidiff.measures import TestFamily, TestFunction, autocorrelation, vague_gap
from quasidiff.metrics import (
    LGrid,
    hausdorff_distance,
    ratio_sup,
    rho_gh,
    rho_stat,
)
from quasidiff.perturb import NoiseModel, boundary_crossings, char_fn, recovery_trial
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
    splice,
    window,
)
from quasidiff.scenarios import random_lattice_variant
from quasidiff.spectral import (
    FrequencyGrid,
    amplitude_spectrum,
    analyze_peaks,
    singularity_diagnostic,
)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {num:02d} {name}: {detail}"
    print(line)
    assert ok, line


def int_lattice(extent: float) -> PointSet:
    return gen_lattice(1, 1.0, extent, label="int-lattice")


# ---------------------------------------------------------------------------
# 01: the statistical window distance is a metric on seeded random windows


def test_01_statistical_distance_is_a_metric():
    eps_tol = 1e-6
    triples = 500
    grid = LGrid.integers(200)
    base = gen_lattice(1, 1.0, 200.0, label="int-lattice")
    rng = np.random.default_rng(7)

    t0 = time.perf_counter()
    id_bad = sym_bad = tri_bad = 0
    worst_excess = 0.0
    for t in range(triples):
        xs = [random_lattice_variant(rng, base, 3 * t + j) for j in range(3)]
        for x in xs:
            if rho_stat(x, x, grid, eps_tol=eps_tol).value != 0.0:
                id_bad += 1
        d = {}
        for i, j in ((0, 1), (1, 2), (0, 2)):
            fwd = rho_stat(xs[i], xs[j], grid, eps_tol=eps_tol).value
            rev = rho_stat(xs[j], xs[i], grid, eps_tol=eps_tol).value
            if fwd != rev:
                sym_bad += 1
            d[(i, j)] = fwd
        excess = d[(0, 2)] - d[(0, 1)] - d[(1, 2)]
        worst_excess = max(worst_excess, excess)
        tri_bad += excess > 2 * eps_tol
    elapsed = time.perf_counter() - t0

    ok = id_bad == 0 and sym_bad == 0 and tri_bad == 0 and elapsed < 60.0
    report(
        1,
        "metric axioms on random windows",
        ok,
        f"{triples} triples: {id_bad} nonzero self-distances, {sym_bad} asymmetric "
        f"pairs, {tri_bad} triangle violations beyond {2 * eps_tol:g} "
        f"(worst excess {worst_excess:.3g}) in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 02: pinned values of the statistical window distance


def test_02_statistical_distance_pinned_values():
    t0 = time.perf_counter()
    grid = LGrid.integers(1000)
    base = int_lattice(1001.0)
    no_squares = remove_near(base, [(float(k * k),) for k in range(2, 32)], tol=0.25)
    defect = rho_stat(base, no_squares, grid)

    # translated lattice, clipped back to the same extent ball
    moved = base.points + 0.49
    moved = moved[np.abs(moved[:, 0]) <= 1001.0]
    shifted = PointSet(1, 1.0, 1001.0, moved, "shift-049")
    apart = rho_stat(base, shifted, grid)
    elapsed = time.perf_counter() - t0

    ok = (
        abs(defect.value - 0.25) <= 1e-6
        and not defect.capped
        and apart.value == 0.5
        and apart.capped
        and elapsed < 10.0
    )
    report(
        2,
        "pinned window distances",
        ok,
        f"squares removed: {defect.value:.8f} (want 0.25 +- 1e-6); "
        f"0.49-shift: {apart.value} capped={apart.capped} (want 0.5 capped); "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 03: a small window distance forces window alignment in the Hausdorff sense


def test_03_small_distance_implies_hausdorff_alignment():
    grid = LGrid.integers(100)
    good = 0
    details = []
    for i in range(100):
        rng = np.random.default_rng(3000 + i)
        delta = float(rng.uniform(0.02, 0.15))
        base = gen_lattice(1, 1.0, 120.0, label=f"pair-base-{i}")
        pts = base.points.copy()
        interior = (np.abs(pts[:, 0]) >= 3.0) & (np.abs(pts[:, 0]) <= 115.0)
        # pull each jittered point toward the origin so no point crosses a
        # window boundary and the pair differs by per-point displacements
        magnitude = rng.uniform(0.0, delta, size=int(interior.sum()))
        pts[interior, 0] -= np.sign(pts[interior, 0]) * magnitude
        order = np.argsort(pts[:, 0])
        y = PointSet(1, 1.0 - delta, base.extent, pts[order], f"pair-jitter-{i}")

        rho = rho_stat(base, y, grid)
        if rho.capped:
            continue
        floor = max(rho.value, delta) + 0.01
        # half-integer window radii keep the boundary clear of jittered points
        candidates = [1.0 / (m + 0.5) for m in range(2, 50)]
        eligible = [e for e in candidates if floor < e < 0.5]
        if not eligible:
            continue
        eps = min(eligible)
        radius = eps ** (-1.0)
        h = hausdorff_distance(window(base, radius), window(y, radius))
        good += rho.value < eps < 0.5 and h < eps
        if i < 3:
            details.append(f"(rho={rho.value:.3f}, eps={eps:.3f}, h={h:.3f})")

    ok = good == 100
    report(
        3,
        "window alignment under small distance",
        ok,
        f"{good}/100 pairs with hausdorff(windows at eps^-1) < eps; "
        f"first pairs {' '.join(details)}",
    )


# ---------------------------------------------------------------------------
# 04: window counts never exceed the packing bound (3L/r0)^d


def test_04_window_counting_bound():
    generators = [
        gen_lattice(1, 1.0, 200.0),
        gen_lattice(2, 1.0, 30.0),
        gen_fibonacci(200.0),
        gen_visible(30.0),
        gen_poisson(1.0, 1, 200.0, seed=5),
        gen_cut_project(fibonacci_cut_project_config(200.0)),
        gen_cut_project(ammann_beenker_config(30.0)),
    ]
    checked = violations = 0
    for x in generators:
        radii = LGrid.integers(int(min(x.extent, 200.0))).array()
        # a set with no declared separation (Poisson) gets its measured
        # minimum gap as the packing radius
        r0 = x.sep_radius or min_pairwise_gap(x.points)
        for radius in radii:
            count = len(window(x, float(radius)))
            bound = (3.0 * float(radius) / r0) ** x.dim
            checked += 1
            violations += count > bound
    ok = violations == 0 and checked > 0
    report(
        4,
        "packing bound on window counts",
        ok,
        f"{violations} violations over {checked} generator/radius combinations "
        f"({len(generators)} generators)",
    )


# ---------------------------------------------------------------------------
# 05: the periodogram equals the Fourier sum of the autocorrelation atoms


def test_05_periodogram_matches_autocorrelation_transform():
    grid = FrequencyGrid(axes=((-1.6, 1.55, 0.05),))
    assert grid.node_count == 64
    freqs = grid.nodes()[:, 0]
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(500 + i)
        size = int(rng.integers(50, 501))
        support = rng.choice(np.arange(-400, 401), size=size, replace=False)
        pts = np.sort(support).astype(np.float64) * 0.25
        x = PointSet(1, 0.25, 100.0, pts.reshape(-1, 1), f"random-quarter-{i}")

        gamma = autocorrelation(x, 50.0)
        ps = amplitude_spectrum(x, 50.0, grid)
        phases = np.exp(-2j * np.pi * np.outer(freqs, gamma.locations[:, 0]))
        fourier = phases @ gamma.weights
        rel = np.abs(ps.power - fourier.real) / np.maximum(np.abs(ps.power), 1.0)
        worst = max(worst, float(rel.max()), float(np.abs(fourier.imag).max()))

    ok = worst <= 1e-9
    report(
        5,
        "power spectrum consistency",
        ok,
        f"worst relative gap {worst:.3g} over 50 random sets x 64 frequencies "
        f"(bound 1e-9)",
    )


# ---------------------------------------------------------------------------
# 06: integer-lattice peaks carry the squared-kernel mass 2.02 at L = 50


def test_06_lattice_peak_masses():
    t0 = time.perf_counter()
    x = gen_lattice(1, 1.0, 60.0)
    grid = FrequencyGrid(axes=((-2.5, 2.5, 1e-3),))
    rep = analyze_peaks(amplitude_spectrum(x, 50.0, grid), peak_window_width=1.0)
    elapsed = time.perf_counter() - t0

    locations = sorted(p.location for p in rep.peaks)
    masses = [p.mass for p in rep.peaks]
    ok = (
        len(rep.peaks) == 5
        and np.allclose(locations, [-2.0, -1.0, 0.0, 1.0, 2.0], atol=1e-3)
        and all(abs(m - 2.02) <= 1e-3 for m in masses)
        and elapsed < 30.0
    )
    report(
        6,
        "lattice peak masses",
        ok,
        f"{len(rep.peaks)} peaks at {np.round(locations, 4).tolist()}, masses "
        f"{np.round(masses, 5).tolist()} (want 2.02 +- 1e-3); {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 07: Poisson samples show a flat spectrum near level 2 and read as
#     absolutely-continuous-dominant


def test_07_poisson_flat_spectrum_and_verdicts():
    band = FrequencyGrid(axes=((0.05, 0.5, 2.5e-3),))
    diag_grid = FrequencyGrid(axes=((0.04, 1.06, 1e-3),))
    means = []
    ac_verdicts = 0
    for seed in range(20):
        x = gen_poisson(1.0, 1, 2100.0, seed=seed)
        means.append(float(amplitude_spectrum(x, 2000.0, band).power.mean()))
        verdict = singularity_diagnostic(x, [500.0, 1000.0, 2000.0], diag_grid).verdict
        ac_verdicts += verdict == "AC-dominant"
    grand = float(np.mean(means))

    ok = abs(grand - 2.0) <= 0.2 and ac_verdicts >= 18
    report(
        7,
        "Poisson spectral control",
        ok,
        f"mean band power {grand:.4f} (want 2 +- 10%), AC-dominant verdicts "
        f"{ac_verdicts}/20 (want >= 18)",
    )


# ---------------------------------------------------------------------------
# 08: Fibonacci-chain peaks are stable under window doubling


def test_08_fibonacci_peaks_stable_under_doubling():
    fib = gen_fibonacci(4100.0)
    grid = FrequencyGrid(axes=((0.04, 1.06, 6.25e-5),))
    diag = singularity_diagnostic(fib, [1000.0, 2000.0, 4000.0], grid)
    final, previous = diag.rows[-1], diag.rows[-2]  # windows 4000 and 2000

    worst_pos = worst_mass = 0.0
    for peak in final.top_off_zero:
        mate = min(previous.top_off_zero, key=lambda q: abs(q.location - peak.location))
        worst_pos = max(worst_pos, abs(mate.location - peak.location))
        worst_mass = max(worst_mass, abs(peak.mass - mate.mass) / abs(peak.mass))

    ok = (
        worst_pos < 1e-3
        and worst_mass < 0.05
        and diag.background_ratio < 0.01
        and diag.verdict == "singular-dominant"
    )
    report(
        8,
        "quasiperiodic peak stability",
        ok,
        f"top-5 position drift {worst_pos:.2g} (< 1e-3), mass drift "
        f"{worst_mass:.2%} (< 5%), background/top {diag.background_ratio:.2g} "
        f"(< 1%), verdict {diag.verdict}",
    )


# ---------------------------------------------------------------------------
# 09: thinning defects near fourth powers restores the Fibonacci statistics


def test_09_sparse_defects_wash_out():
    extent = 4100.0
    base = gen_fibonacci(extent)
    values = base.points[:, 0]
    grid = LGrid.integers(4096)
    fam = TestFamily(
        functions=tuple(TestFunction((c,), 0.15) for c in (0.0, 1.0, TAU)),
        region_center=(0.81,),
        region_radius=1.0,
    )
    gamma_base = autocorrelation(base, 4000.0, max_range=2.0)

    def defective(n: int) -> PointSet:
        targets = []
        k = n
        while k**4 <= extent - 1:
            j = int(np.searchsorted(values, float(k**4)))
            cands = [i for i in (j - 1, j) if 0 <= i < len(values)]
            best = min(cands, key=lambda i: abs(values[i] - k**4))
            targets.append((float(values[best]),))
            k += 1
        return remove_near(base, targets, tol=0.25)

    ratios = []
    gaps = []
    for n in (2, 4, 8):
        x = defective(n)
        ratios.append(ratio_sup(x, base, eps=0.25, exponent=0.5, grid=grid).value)
        gaps.append(vague_gap(autocorrelation(x, 4000.0, max_range=2.0), gamma_base, fam))

    decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    ok = decreasing and gaps[-1] < gaps[0] / 2 and gaps[-1] < 0.01
    report(
        9,
        "defect sequence converges",
        ok,
        f"sqrt-normalized defect ratios {np.round(ratios, 5).tolist()} "
        f"(strictly decreasing), autocorrelation gaps n=2: {gaps[0]:.4g} -> "
        f"n=8: {gaps[-1]:.4g} (< half and < 0.01)",
    )


# ---------------------------------------------------------------------------
# 10: splices align with the lattice in windows yet keep distinct statistics


def test_10_window_alignment_without_statistical_agreement():
    lattice = int_lattice(420.0)
    fib = gen_fibonacci(420.0)
    fam = TestFamily(
        functions=(TestFunction((0.0,), 0.25), TestFunction((1.0,), 0.25)),
        region_center=(0.5,),
        region_radius=0.8,
    )
    rows = []
    align_ok = gap_ok = True
    for n in (5, 10, 20):
        x = splice(lattice, fib, radius=float(n), allow_smaller=True)
        value = rho_gh(x, lattice, eps_tol=0.0025).value
        radius = 20.0 * n
        gap = vague_gap(
            autocorrelation(x, radius, max_range=1.3),
            autocorrelation(lattice, radius, max_range=1.3),
            fam,
        )
        align_ok &= value <= 1.0 / n + 1e-12
        gap_ok &= gap >= 0.3
        rows.append(f"n={n}: align {value:.4f} <= {1.0 / n:g}, gap {gap:.3f}")

    ok = align_ok and gap_ok
    report(10, "alignment is not statistical closeness", ok, "; ".join(rows))


# ---------------------------------------------------------------------------
# 11: spectra vary continuously along a sequence converging in window distance


def lattice_with_thin_displacements(n: int, extent: float) -> PointSet:
    """Unit lattice with points at 0 and +-(4nk+1) pushed right by 1/(4n)."""
    base = gen_lattice(1, 1.0, extent + 1.0, label=f"near-lattice-{n}")
    pts = base.points.copy()
    p = pts[:, 0]
    step = 4 * n
    plus = (p >= step + 1) & (np.mod(p - 1, step) == 0)
    minus = (p <= -(step + 1)) & (np.mod(-p - 1, step) == 0)
    pts[plus | minus | (p == 0), 0] += 1.0 / step
    return PointSet(1, 1.0 - 1.0 / step, base.extent, pts, f"near-lattice-{n}")


def test_11_spectrum_moves_continuously_with_the_set():
    lattice = int_lattice(2051.0)
    lgrid = LGrid.integers(2000)
    fgrid = FrequencyGrid(axes=((-1.6, 1.596875, 0.003125),))
    assert fgrid.node_count == 1024
    ref = amplitude_spectrum(lattice, 2000.0, fgrid)

    devs = []
    dist_ok = True
    for n in (4, 8, 16, 32):
        x = lattice_with_thin_displacements(n, 2050.0)
        dist_ok &= rho_stat(x, lattice, lgrid).value <= 1.0 / n
        spec = amplitude_spectrum(x, 2000.0, fgrid)
        devs.append(float(np.abs(spec.amplitude - ref.amplitude).max()))

    monotone = all(b < a for a, b in zip(devs, devs[1:]))
    ok = dist_ok and monotone and devs[-1] < 0.02
    report(
        11,
        "spectral continuity",
        ok,
        f"max amplitude deviations {np.round(devs, 5).tolist()} for n=4,8,16,32 "
        f"(strictly decreasing, final < 0.02); distances <= 1/n: {dist_ok}",
    )


# ---------------------------------------------------------------------------
# 12: dividing by the noise characteristic function recovers the amplitudes


def test_12_amplitude_recovery_under_gaussian_noise():
    t0 = time.perf_counter()
    z = int_lattice(5010.0)
    model = NoiseModel.gaussian(1, 0.1)
    rep = recovery_trial(z, model, list(range(10)), [[1.0], [0.5]], radius=5000.0)
    bragg, off = rep.rows
    med_bragg = float(np.median([abs(r - 2.0) for r in bragg.recovered]))
    med_off = float(np.median([abs(r) for r in off.recovered]))

    psi_g = char_fn(NoiseModel.gaussian(1, 0.1), [1.0])
    psi_u = char_fn(NoiseModel.uniform(1, 0.25), [1.0])
    cf_ok = abs(psi_g - 0.8209) <= 1e-4 and abs(psi_u - 2.0 / np.pi) <= 1e-4
    elapsed = time.perf_counter() - t0

    ok = med_bragg <= 0.05 and med_off <= 0.05 and cf_ok and elapsed < 120.0
    report(
        12,
        "amplitude recovery",
        ok,
        f"median |recovered - 2| at the unit frequency {med_bragg:.4f}, median "
        f"|recovered| at the half-integer frequency {med_off:.4f} (both <= 0.05); "
        f"gaussian psi(1) {psi_g.real:.5f} (0.8209 +- 1e-4), uniform psi(1) "
        f"{psi_u.real:.5f} (2/pi +- 1e-4); {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 13: boundary crossings thin out as the window grows


def test_13_boundary_crossings_thin_out():
    lattice = int_lattice(1100.0)
    model = NoiseModel.gaussian(1, 0.1)
    near, far = [], []
    for seed in range(10):
        rep = boundary_crossings(lattice, model, seed, [100.0, 1000.0])
        near.append(rep.records[0].ratio)
        far.append(rep.records[-1].ratio)
    med_near = float(np.median(near))
    med_far = float(np.median(far))

    ok = med_far < med_near and med_far <= 0.005
    report(
        13,
        "boundary crossings thin out",
        ok,
        f"median crossings-per-radius {med_near:.4g} at L=100 -> {med_far:.4g} "
        f"at L=1000 (decreasing, final <= 0.005)",
    )


# ---------------------------------------------------------------------------
# 14: a dyadic thinning sequence is Cauchy with the expected rate


def test_14_dyadic_sequence_converges_at_rate():
    limit = int_lattice(512.0)
    grid = LGrid.integers(512)
    rows = []
    ok = True
    for k in range(1, 9):
        targets = [(float(m),) for m in range(2**k, 513, 2**k)]
        member = remove_near(limit, targets, tol=0.25)
        value = rho_stat(member, limit, grid).value
        bound = 2.0 ** (-k + 1)
        ok &= value <= bound
        rows.append(f"k={k}: {value:.6g} <= {bound:g}")

    report(14, "dyadic convergence rate", ok, "; ".join(rows))
