"""Named end-to-end experiment pipelines with pass/fail criteria.

Each scenario assembles generators, distances, measures, spectra, and
perturbations into one reproducible experiment: given the same
:class:`ScenarioConfig` it produces byte-identical result files (timings are
reported to the caller but kept out of the files).  Every criterion carries
its measured value and its threshold, so a failing run says exactly what was
measured.

Registered scenarios:

* ``metric-axioms``      — identity/symmetry/triangle on random window pairs;
* ``completeness``       — a dyadic Cauchy defect sequence and its limit;
* ``gh-vs-vague``        — the statistical distance and the vague gap shrink
                           (or stay large) together;
* ``defect-convergence`` — sparse defects: normalized defect counts decay and
                           autocorrelations converge;
* ``gh-counterexample``  — window-alignment distance small while the
                           autocorrelations stay far apart;
* ``uniform-quasicrystalline`` — vanishing-density extras keep a common peak
                           support; tail inequalities of vague convergence;
* ``ft-continuity``      — spectra move continuously with the statistical
                           distance;
* ``boundary``           — window-membership changes under noise are rare and
                           their density decays with the radius;
* ``recovery``           — dividing perturbed spectra by the noise
                           characteristic function recovers the truth;
* ``diffraction-catalog``— lattice / Poisson / quasiperiodic diffraction
                           signatures side by side.

:data:`SCENARIOS` maps each name to its pipeline and to the tolerances that
pipeline reads, with their defaults, so each tolerance is declared once.  A
pipeline takes the seed, then those tolerances as keyword arguments, and
returns its criteria and one ``(name, table, plot kind)``;
:func:`run_scenario` writes the table into ``<scenario>-result.json`` and
plots it as ``<scenario>-<name>.svg``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, InvalidArgumentError, UnknownScenarioError
from .geometry import _finite_float, _require_integer, _require_type
from .measures import (
    TestFamily,
    TestFunction,
    autocorrelation,
    dirac_comb,
    portmanteau_check,
    vague_gap,
)
from .metrics import LGrid, ratio_sup, rho_gh, rho_stat
from .perturb import NoiseModel, boundary_crossings, char_fn, recovery_trial
from .pointset import (
    TAU,
    PointSet,
    gen_fibonacci,
    gen_lattice,
    gen_poisson,
    remove_near,
    sparse_union,
    splice,
    window,
)
from .spectral import (
    FrequencyGrid,
    amplitude_spectrum,
    analyze_peaks,
    singularity_diagnostic,
)
from .io import atomic_write_text
from .svg import Table, plot_emit

__all__ = [
    "ScenarioConfig",
    "CriterionResult",
    "ScenarioResult",
    "SCENARIOS",
    "run_scenario",
]


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative input of one scenario run; unknown JSON keys are rejected.

    Values are checked, not converted, the same way for API and JSON
    configs: a bool is no seed, and a tolerance is a finite real number
    (stored as a float, so 1 and 1.0 hash alike).
    """

    scenario: str
    seed: int = 0
    out_dir: str = "."
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        def refuse(key: str, wanted: str):
            value = getattr(self, key)
            raise ConfigError(f"config key {key!r}: {key} must be {wanted}, got {value!r}")

        for key in ("scenario", "out_dir"):
            if not isinstance(getattr(self, key), str):
                refuse(key, "a string")
        try:
            object.__setattr__(self, "seed", _require_integer(self.seed, "seed"))
        except InvalidArgumentError as exc:
            raise ConfigError(f"config key 'seed': {exc}") from None
        if not (
            isinstance(self.tolerances, dict)
            and all(isinstance(k, str) and _finite_float(v) is not None
                    for k, v in self.tolerances.items())
        ):
            refuse("tolerances", "an object of named finite numbers")
        tolerances = {k: _finite_float(v) for k, v in self.tolerances.items()}
        object.__setattr__(self, "tolerances", tolerances)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "scenario" not in doc:
            raise ConfigError("config needs a 'scenario' key")
        return cls(**doc)

    def canonical(self) -> dict:
        # The output directory is a delivery detail, not part of the
        # experiment's identity: the same config must produce byte-identical
        # result files wherever they land.
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "tolerances": dict(sorted(self.tolerances.items())),
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CriterionResult:
    name: str
    measured: str
    threshold: str
    passed: bool


@dataclass(frozen=True)
class ScenarioResult:
    scenario: str
    criteria: tuple[CriterionResult, ...]
    tables: dict
    manifest: tuple[str, ...]
    elapsed_seconds: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)


def _crit(name: str, measured, threshold: str, passed: bool) -> CriterionResult:
    return CriterionResult(name, str(measured), threshold, bool(passed))


# ---------------------------------------------------------------------------
# shared constructions


def _lattice_with_sparse_displacements(n: int, extent: float) -> PointSet:
    """Unit lattice with every point at 0 or +-(4nk+1) pushed right by 1/(4n).

    The displaced points thin out at rate 1/(4n) and move by 1/(4n), so the
    statistical distance to the unperturbed lattice is about 1/(4n) -- well
    under 1/n -- while the displacement pattern is deterministic.
    """
    base = gen_lattice(1, 1.0, extent + 1.0, label=f"near-lattice-{n}")
    pts = base.points.copy()
    p = pts[:, 0]
    step = 4 * n
    plus = (p >= step + 1) & (np.mod(p - 1, step) == 0)
    minus = (p <= -(step + 1)) & (np.mod(-p - 1, step) == 0)
    mask = plus | minus | (p == 0)
    pts[mask, 0] += 1.0 / step
    return PointSet(1, 1.0 - 1.0 / step, base.extent, pts, f"near-lattice-{n}")


def random_lattice_variant(rng: np.random.Generator, base: PointSet, tag: int) -> PointSet:
    """A defective and/or sparsely shifted copy of the unit lattice ``base``.

    One draw picks the kind: 0 keeps the lattice, 1 drops 1-8 random points,
    2 also pushes every point p with |p - 1| a multiple of a random stride
    right by a random shift (so the separation falls to 1 - shift).  The
    draws consume ``rng`` in a fixed order, so a seeded generator gives the
    same variants every run.
    """
    pts = base.points.copy()
    kind = int(rng.integers(0, 3))
    if kind >= 1:
        k = int(rng.integers(1, 9))
        idx = rng.choice(len(pts), size=k, replace=False)
        pts = np.delete(pts, idx, axis=0)
    sep = 1.0
    if kind == 2:
        shift = float(rng.uniform(0.02, 0.2))
        stride = int(rng.integers(8, 40))
        mask = np.mod(np.abs(pts[:, 0] - 1.0), stride) == 0
        pts[mask, 0] += shift
        sep = 1.0 - shift
    order = np.lexsort(pts.T[::-1])
    return PointSet(1, sep, base.extent, pts[order], f"variant-{tag}")


def _fibonacci_autocorr_family(radius: float = 0.15) -> TestFamily:
    centers = (0.0, 1.0, TAU)
    funcs = tuple(TestFunction((c,), radius) for c in centers)
    return TestFamily(
        functions=funcs,
        region_center=(0.81,),
        region_radius=1.0,
    )


# ---------------------------------------------------------------------------
# scenarios


def _scenario_metric_axioms(seed: int, eps_tol: float, triples: int):
    grid = LGrid.integers(200)
    rng = np.random.default_rng(seed)
    base = gen_lattice(1, 1.0, 200.0, label="int-lattice")
    id_bad = 0
    sym_bad = 0
    tri_bad = 0
    worst_excess = 0.0
    rows = []
    for t in range(triples):
        xs = [random_lattice_variant(rng, base, 3 * t + j) for j in range(3)]
        for x in xs:
            if rho_stat(x, x, grid, eps_tol=eps_tol).value != 0.0:
                id_bad += 1
        d = {}
        for (i, j) in ((0, 1), (1, 2), (0, 2)):
            fwd = rho_stat(xs[i], xs[j], grid, eps_tol=eps_tol).value
            rev = rho_stat(xs[j], xs[i], grid, eps_tol=eps_tol).value
            if fwd != rev:
                sym_bad += 1
            d[(i, j)] = fwd
        excess = d[(0, 2)] - d[(0, 1)] - d[(1, 2)]
        worst_excess = max(worst_excess, excess)
        if excess > 2 * eps_tol:
            tri_bad += 1
        if t < 50:
            rows.append((float(t), d[(0, 1)], d[(1, 2)], d[(0, 2)]))

    table = Table(("triple", "d01", "d12", "d02"), tuple(rows))
    criteria = (
        _crit("identity-zero", id_bad, "0 nonzero self-distances", id_bad == 0),
        _crit("symmetry-exact", sym_bad, "0 asymmetric pairs", sym_bad == 0),
        _crit(
            "triangle-slack",
            f"{tri_bad} violations (worst excess {worst_excess:.3g})",
            f"0 violations beyond 2*eps_tol = {2 * eps_tol:g}",
            tri_bad == 0,
        ),
    )
    return criteria, ("triples", table, "line")


def _scenario_completeness(seed: int, eps_tol: float):
    extent = 512.0
    grid = LGrid.integers(512)
    limit = gen_lattice(1, 1.0, extent, label="int-lattice")

    def thinned(k: int) -> PointSet:
        targets = [(float(m),) for m in range(2**k, int(extent) + 1, 2**k)]
        return remove_near(limit, targets, tol=0.25)

    members = {k: thinned(k) for k in range(1, 9)}
    rows = []
    bound_ok = True
    step_ok = True
    for k in range(1, 9):
        value = rho_stat(members[k], limit, grid, eps_tol=eps_tol).value
        bound = 2.0 ** (-k + 1)
        bound_ok &= value <= bound
        rows.append((float(k), value, bound))
    for k in range(1, 8):
        step = rho_stat(members[k], members[k + 1], grid, eps_tol=eps_tol).value
        step_ok &= step <= 2.0**-k + 2 * eps_tol

    table = Table(("k", "distance_to_limit", "dyadic_bound"), tuple(rows))
    criteria = (
        _crit(
            "dyadic-bound",
            "; ".join(f"k={int(r[0])}: {r[1]:.6g}" for r in rows),
            "distance(member k, limit) <= 2^(1-k) for k = 1..8",
            bound_ok,
        ),
        _crit(
            "cauchy-steps",
            "consecutive distances measured",
            "distance(member k, member k+1) <= 2^-k + 2*eps_tol",
            step_ok,
        ),
    )
    return criteria, ("dyadic", table, "line")


def _scenario_gh_vs_vague(seed: int, eps_tol: float, pairing_tol: float):
    extent = 2051.0
    grid = LGrid.integers(2000)
    lattice = gen_lattice(1, 1.0, extent, label="int-lattice")
    comb_lattice = dirac_comb(window(lattice, 100.0))
    tents = TestFamily(
        functions=tuple(TestFunction((float(c),), 0.5) for c in (-1, 0, 1)),
        region_center=(0.0,),
        region_radius=1.5,
    )

    rows = []
    for n in (1, 2, 4, 8, 16):
        x = _lattice_with_sparse_displacements(n, extent - 1.0)
        dist = rho_stat(x, lattice, grid, eps_tol=eps_tol).value
        gap = vague_gap(dirac_comb(window(x, 100.0)), comb_lattice, tents)
        rows.append((float(n), dist, gap))
    ns, dists, gaps = np.array(rows).T

    shifted = PointSet(
        1, 1.0, extent + 1.0, lattice.points + 0.5, "shifted-lattice"
    )
    ctrl_dist = rho_stat(shifted, lattice, grid, eps_tol=eps_tol)
    ctrl_gap = vague_gap(dirac_comb(window(shifted, 100.0)), comb_lattice, tents)

    table = Table(("n", "window_distance", "vague_gap"), tuple(rows))
    criteria = (
        _crit(
            "distance-shrinks",
            "; ".join(f"n={int(r[0])}: {r[1]:.6g}" for r in rows),
            "distance <= 1/(2n), strictly decreasing",
            (dists <= 1.0 / (2 * ns)).all() and (np.diff(dists) < 0).all(),
        ),
        _crit(
            "gap-shrinks-with-distance",
            "; ".join(f"n={int(r[0])}: {r[2]:.6g}" for r in rows),
            "vague gap = 1/(2n) +- pairing_tol, strictly decreasing",
            (abs(gaps - 1.0 / (2 * ns)) <= pairing_tol).all() and (np.diff(gaps) < 0).all(),
        ),
        _crit(
            "control-stays-apart",
            f"distance {ctrl_dist.value:.6g} (capped={ctrl_dist.capped}), gap {ctrl_gap:.6g}",
            "half-shifted control: distance = 0.5 capped and gap = 1",
            ctrl_dist.value == 0.5
            and ctrl_dist.capped
            and abs(ctrl_gap - 1.0) <= pairing_tol,
        ),
    )
    return criteria, ("sequence", table, "line")


def _scenario_defect_convergence(seed: int, gap_ceiling: float):
    extent = 4100.0
    base = gen_fibonacci(extent)
    values = base.points[:, 0]
    grid = LGrid.integers(4096)
    fam = _fibonacci_autocorr_family()
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

    ns = (2, 4, 8)
    rows = []
    ratios = []
    gaps = []
    for n in ns:
        x = defective(n)
        ratio = ratio_sup(x, base, eps=0.25, exponent=0.5, grid=grid).value
        gamma = autocorrelation(x, 4000.0, max_range=2.0)
        gap = vague_gap(gamma, gamma_base, fam)
        ratios.append(ratio)
        gaps.append(gap)
        rows.append((float(n), ratio, gap))

    decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    table = Table(("n", "defect_ratio_sqrt", "vague_gap"), tuple(rows))
    criteria = (
        _crit(
            "defect-rate-decreasing",
            "; ".join(f"n={int(r[0])}: {r[1]:.6g}" for r in rows),
            "sqrt-normalized defect ratio strictly decreasing in n",
            decreasing,
        ),
        _crit(
            "autocorrelation-converges",
            f"gap(n=8) = {gaps[-1]:.6g}, gap(n=2) = {gaps[0]:.6g}",
            f"gap(n=8) < gap(n=2)/2 and < {gap_ceiling:g}",
            gaps[-1] < gaps[0] / 2 and gaps[-1] < gap_ceiling,
        ),
    )
    return criteria, ("defects", table, "line")


def _scenario_gh_counterexample(seed: int, scan_step: float, gap_floor: float):
    extent = 420.0
    lattice = gen_lattice(1, 1.0, extent, label="int-lattice")
    fib = gen_fibonacci(extent)
    fam = TestFamily(
        functions=(TestFunction((0.0,), 0.25), TestFunction((1.0,), 0.25)),
        region_center=(0.5,),
        region_radius=0.8,
    )

    ns = (5, 10, 20)
    rows = []
    align_ok = True
    gap_ok = True
    for n in ns:
        x = splice(lattice, fib, radius=float(n), allow_smaller=True)
        res = rho_gh(x, lattice, eps_tol=scan_step)
        radius = 20.0 * n
        gamma_x = autocorrelation(x, radius, max_range=1.3)
        gamma_l = autocorrelation(lattice, radius, max_range=1.3)
        gap = vague_gap(gamma_x, gamma_l, fam)
        rows.append((float(n), res.value, gap))
        align_ok &= res.value <= 1.0 / n + 1e-12
        gap_ok &= gap >= gap_floor

    table = Table(("n", "alignment_distance", "vague_gap_at_20n"), tuple(rows))
    criteria = (
        _crit(
            "alignment-vanishes",
            "; ".join(f"n={int(r[0])}: {r[1]:.6g}" for r in rows),
            "window-alignment distance <= 1/n",
            align_ok,
        ),
        _crit(
            "autocorrelations-stay-apart",
            "; ".join(f"n={int(r[0])}: {r[2]:.6g}" for r in rows),
            f"vague gap at window 20n >= {gap_floor:g}",
            gap_ok,
        ),
    )
    return criteria, ("splice", table, "line")


def _scenario_uniform_quasicrystalline(seed: int, portmanteau_tol: float, support_pad: float):
    extent = 600.0
    base = gen_fibonacci(extent)
    grid = FrequencyGrid(axes=((0.04, 1.2, 2.5e-4),))

    def with_extras(m: int) -> PointSet:
        ks = [k for k in range(m, int(extent)) if k * k + 0.37 <= extent * 0.99]
        pts = np.array([[k * k + 0.37] for k in ks])
        extras = PointSet(1, 1.0, extent, pts, f"extras-{m}")
        return sparse_union(base, extras)

    members = [base, with_extras(4), with_extras(9)]
    reports = [
        analyze_peaks(amplitude_spectrum(x, 500.0, grid), threshold_ratio=0.05)
        for x in members
    ]
    boxes = reports[0].support_boxes
    pad = support_pad + grid.axes[0][2]
    contained = True
    worst = ""
    for x, rep in zip(members[1:], reports[1:]):
        for peak in rep.peaks:
            if not any(lo - pad <= peak.location <= hi + pad for lo, hi in boxes):
                contained = False
                worst = f"{x.label}: stray peak at {peak.location:.6g}"

    radii = (150.0, 250.0, 350.0, 500.0)
    seq = [autocorrelation(members[1], r, max_range=2.0) for r in radii]
    balls = [((0.0,), 0.2), ((1.0,), 0.2), ((TAU,), 0.2)]
    port = portmanteau_check(seq, seq[-1], compacts=balls, opens=balls, tol=portmanteau_tol)

    diag = singularity_diagnostic(
        base, [125.0, 250.0, 500.0], FrequencyGrid(axes=((0.04, 1.2, 1.25e-4),))
    )

    rows = tuple(
        (float(i), len(rep.peaks), rep.background_level)
        for i, rep in enumerate(reports)
    )
    table = Table(("member", "peak_count", "background_level"), rows)
    criteria = (
        _crit(
            "common-peak-support",
            worst or f"all peaks inside the {len(boxes)} base support boxes",
            "every member's detected peaks lie in the base support boxes",
            contained,
        ),
        _crit(
            "vague-tail-inequalities",
            f"compact_ok={port.compact_ok}, open_ok={port.open_ok}",
            f"both tail inequalities hold at tol {portmanteau_tol:g}",
            port.passed,
        ),
        _crit(
            "base-verdict-singular",
            diag.verdict,
            "base member diagnosed singular-dominant",
            diag.verdict == "singular-dominant",
        ),
    )
    return criteria, ("members", table, "scatter")


def _scenario_ft_continuity(seed: int, deviation_ceiling: float):
    extent = 2051.0
    lattice = gen_lattice(1, 1.0, extent, label="int-lattice")
    grid = FrequencyGrid(axes=((-1.6, 1.596875, 0.003125),))
    lgrid = LGrid.integers(2000)
    ref = amplitude_spectrum(lattice, 2000.0, grid)

    ns = (4, 8, 16, 32)
    rows = []
    dist_ok = True
    devs = []
    for n in ns:
        x = _lattice_with_sparse_displacements(n, extent - 1.0)
        dist = rho_stat(x, lattice, lgrid).value
        spec = amplitude_spectrum(x, 2000.0, grid)
        dev = float(np.abs(spec.amplitude - ref.amplitude).max())
        rows.append((float(n), dist, dev))
        devs.append(dev)
        dist_ok &= dist <= 1.0 / n

    mono = all(b < a for a, b in zip(devs, devs[1:]))
    table = Table(("n", "window_distance", "max_amplitude_deviation"), tuple(rows))
    criteria = (
        _crit(
            "distance-bound",
            "; ".join(f"n={int(r[0])}: {r[1]:.6g}" for r in rows),
            "statistical distance <= 1/n",
            dist_ok,
        ),
        _crit(
            "deviation-monotone",
            "; ".join(f"n={int(r[0])}: {r[2]:.6g}" for r in rows),
            "max spectrum deviation strictly decreasing in n",
            mono,
        ),
        _crit(
            "deviation-small",
            f"{devs[-1]:.6g}",
            f"deviation at n=32 < {deviation_ceiling:g}",
            devs[-1] < deviation_ceiling,
        ),
    )
    return criteria, ("deviation", table, "line")


def _scenario_boundary(seed: int, far_ratio_ceiling: float):
    lattice = gen_lattice(1, 1.0, 1100.0, label="int-lattice")
    model = NoiseModel.gaussian(1, 0.1)
    radii = [100.0, 1000.0]

    rows = []
    near_ok = 0
    for s in range(10):
        rep = boundary_crossings(lattice, model, seed + s, radii)
        near, far = rep.records[0], rep.records[-1]
        rows.append(
            (
                float(s),
                float(near.exits + near.entries),
                near.ratio,
                far.ratio,
            )
        )
        near_ok += near.exits + near.entries <= 3
    med_near = float(np.median([r[2] for r in rows]))
    med_far = float(np.median([r[3] for r in rows]))

    zero = boundary_crossings(lattice, NoiseModel.gaussian(1, 0.0), seed, radii)
    zero_ok = all(r.exits == 0 and r.entries == 0 for r in zero.records)

    table = Table(("seed", "near_crossings", "near_ratio", "far_ratio"), tuple(rows))
    criteria = (
        _crit(
            "median-ratio-decays",
            f"median ratio {med_near:.6g} at L={radii[0]:g} -> {med_far:.6g} at L={radii[-1]:g}",
            "median crossing ratio strictly smaller at the larger window",
            med_far < med_near,
        ),
        _crit(
            "far-ratio-small",
            f"{med_far:.6g}",
            f"median ratio at L={radii[-1]:g} <= {far_ratio_ceiling:g}",
            med_far <= far_ratio_ceiling,
        ),
        _crit(
            "near-crossings-rare",
            f"{near_ok}/10 seeds with <= 3 crossings at L={radii[0]:g}",
            ">= 9 of 10 seeds",
            near_ok >= 9,
        ),
        _crit(
            "zero-noise-zero-crossings",
            "all zero" if zero_ok else "nonzero crossings",
            "zero noise never crosses",
            zero_ok,
        ),
    )
    return criteria, ("crossings", table, "scatter")


def _scenario_recovery(seed: int, median_error_ceiling: float, char_fn_tol: float):
    lattice = gen_lattice(1, 1.0, 5010.0, label="int-lattice")
    model = NoiseModel.gaussian(1, 0.1)
    seeds = [seed + s for s in range(10)]

    report = recovery_trial(lattice, model, seeds, [[1.0], [0.5]], radius=5000.0)
    bragg, off = report.rows
    med_bragg = float(np.median([abs(r - 2.0) for r in bragg.recovered]))
    med_off = float(np.median([abs(r) for r in off.recovered]))

    psi_g = char_fn(NoiseModel.gaussian(1, 0.1), [1.0])
    psi_u = char_fn(NoiseModel.uniform(1, 0.25), [1.0])
    cf_ok = abs(psi_g - 0.8209) <= char_fn_tol and abs(psi_u - 2.0 / np.pi) <= char_fn_tol

    rows = tuple(
        (float(s), abs(bragg.recovered[i] - 2.0), abs(off.recovered[i]))
        for i, s in enumerate(seeds)
    )
    table = Table(("seed", "bragg_error", "off_bragg_magnitude"), rows)
    criteria = (
        _crit(
            "bragg-amplitude-recovered",
            f"median |recovered - 2| = {med_bragg:.6g}",
            f"<= {median_error_ceiling:g} at the unit frequency",
            med_bragg <= median_error_ceiling,
        ),
        _crit(
            "off-bragg-stays-null",
            f"median |recovered| = {med_off:.6g}",
            f"<= {median_error_ceiling:g} at the half-integer frequency",
            med_off <= median_error_ceiling,
        ),
        _crit(
            "characteristic-closed-forms",
            f"gaussian {psi_g.real:.6f}, uniform {psi_u.real:.6f}",
            f"0.8209 and 2/pi within {char_fn_tol:g}",
            cf_ok,
        ),
    )
    return criteria, ("recovery", table, "scatter")


def _doubling_drift(diag) -> tuple[float, float]:
    """Worst position and relative mass drift of the final row's top peaks
    against their matches at the previous (half) radius."""
    final, previous = diag.rows[-1], diag.rows[-2]
    worst_pos = 0.0
    worst_mass = 0.0
    for peak in final.top_off_zero:
        mates = [
            q for q in previous.top_off_zero if abs(q.location - peak.location) <= 0.05
        ]
        if not mates:
            return float("inf"), float("inf")
        mate = min(mates, key=lambda q: abs(q.location - peak.location))
        worst_pos = max(worst_pos, abs(mate.location - peak.location))
        worst_mass = max(
            worst_mass, abs(peak.mass - mate.mass) / max(abs(peak.mass), 1e-300)
        )
    return worst_pos, worst_mass


def _scenario_diffraction_catalog(seed: int, mass_tol: float, poisson_rel_tol: float):

    # lattice: unit-mass peaks of equal weight at every integer frequency
    lattice = gen_lattice(1, 1.0, 220.0, label="int-lattice")
    peak_grid = FrequencyGrid(axes=((-2.5, 2.5, 4e-4),))
    peaks = analyze_peaks(
        amplitude_spectrum(lattice, 50.0, peak_grid), peak_window_width=1.0
    )
    masses = [p.mass for p in peaks.peaks]
    mass_ok = len(masses) == 5 and all(abs(m - 2.02) <= mass_tol for m in masses)
    diag_grid = FrequencyGrid(axes=((0.04, 2.46, 2e-4),))
    lat_diag = singularity_diagnostic(lattice, [50.0, 100.0, 200.0], diag_grid)

    # Poisson control: flat spectrum at twice the intensity, AC verdict
    pois_grid = FrequencyGrid(axes=((0.05, 0.5, 2.5e-3),))
    pois_diag_grid = FrequencyGrid(axes=((0.04, 1.06, 1e-3),))
    powers = []
    ac_verdicts = 0
    pois_rows = []
    for s in range(20):
        x = gen_poisson(1.0, 1, 2100.0, seed=seed + s)
        spec = amplitude_spectrum(x, 2000.0, pois_grid)
        powers.append(spec.power.mean())
        verdict = singularity_diagnostic(
            x, [500.0, 1000.0, 2000.0], pois_diag_grid
        ).verdict
        ac_verdicts += verdict == "AC-dominant"
        pois_rows.append((float(s), float(spec.power.mean())))
    mean_power = float(np.mean(powers))

    # quasiperiodic chain: stable narrow peaks, no background
    fib = gen_fibonacci(4100.0)
    fib_grid = FrequencyGrid(axes=((0.04, 1.06, 6.25e-5),))
    fib_diag = singularity_diagnostic(fib, [1000.0, 2000.0, 4000.0], fib_grid)
    drift_pos, drift_mass = _doubling_drift(fib_diag)

    table = Table(("seed", "poisson_mean_power"), tuple(pois_rows))
    criteria = (
        _crit(
            "lattice-peak-masses",
            f"{len(masses)} peaks, masses {[round(m, 5) for m in masses]}",
            f"5 peaks of mass 2.02 +- {mass_tol:g}",
            mass_ok,
        ),
        _crit(
            "lattice-verdict",
            lat_diag.verdict,
            "singular-dominant",
            lat_diag.verdict == "singular-dominant",
        ),
        _crit(
            "poisson-flat-level",
            f"mean power {mean_power:.6g}",
            f"within {poisson_rel_tol:.0%} of 2 over the low-frequency band",
            abs(mean_power - 2.0) <= poisson_rel_tol * 2.0,
        ),
        _crit(
            "poisson-verdicts",
            f"{ac_verdicts}/20 AC-dominant",
            ">= 18 of 20 seeds",
            ac_verdicts >= 18,
        ),
        _crit(
            "quasiperiodic-stability",
            f"position drift {drift_pos:.3g}, mass drift {drift_mass:.3g}, "
            f"background ratio {fib_diag.background_ratio:.3g}",
            "drift < 1e-3 and < 5%, background/top < 1%, singular-dominant",
            fib_diag.verdict == "singular-dominant"
            and drift_pos < 1e-3
            and drift_mass < 0.05
            and fib_diag.background_ratio < 0.01,
        ),
    )
    return criteria, ("poisson", table, "scatter")


# name -> (pipeline, the tolerances it reads with their defaults)
SCENARIOS = {
    "metric-axioms": (_scenario_metric_axioms, {"eps_tol": 1e-6, "triples": 500}),
    "completeness": (_scenario_completeness, {"eps_tol": 1e-6}),
    "gh-vs-vague": (_scenario_gh_vs_vague, {"eps_tol": 1e-6, "pairing_tol": 1e-9}),
    "defect-convergence": (_scenario_defect_convergence, {"gap_ceiling": 0.01}),
    "gh-counterexample": (_scenario_gh_counterexample, {"scan_step": 0.0025, "gap_floor": 0.3}),
    "uniform-quasicrystalline": (
        _scenario_uniform_quasicrystalline,
        {"portmanteau_tol": 0.05, "support_pad": 0.0},
    ),
    "ft-continuity": (_scenario_ft_continuity, {"deviation_ceiling": 0.02}),
    "boundary": (_scenario_boundary, {"far_ratio_ceiling": 0.005}),
    "recovery": (_scenario_recovery, {"median_error_ceiling": 0.05, "char_fn_tol": 1e-4}),
    "diffraction-catalog": (
        _scenario_diffraction_catalog,
        {"mass_tol": 1e-3, "poisson_rel_tol": 0.10},
    ),
}


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Run one registered scenario, write its artifacts, return the result.

    The scenario receives every tolerance it declares in :data:`SCENARIOS`,
    each at the configured value or else at its default; a configured name
    it does not declare is refused.  A tolerance declared with an integer
    default is a count, passed as an int; a configured value that is not a
    whole number >= 1 is refused.
    """
    if _require_type(cfg, ScenarioConfig, "cfg").scenario not in SCENARIOS:
        raise UnknownScenarioError(
            f"unknown scenario {cfg.scenario!r}; registered: {sorted(SCENARIOS)}"
        )
    pipeline, defaults = SCENARIOS[cfg.scenario]
    unknown = set(cfg.tolerances) - set(defaults)
    if unknown:
        raise ConfigError(
            f"scenario {cfg.scenario!r} does not use tolerances {sorted(unknown)}; "
            f"allowed: {sorted(defaults)}"
        )
    tolerances = {name: float(cfg.tolerances.get(name, v)) for name, v in defaults.items()}
    for name, v in defaults.items():
        count = tolerances[name]
        if isinstance(v, int):
            if not (count.is_integer() and count >= 1):
                raise ConfigError(
                    f"config key 'tolerances': {name} must be an integer >= 1, got {count!r}"
                )
            tolerances[name] = int(count)
    t0 = time.perf_counter()
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
        probe = os.path.join(cfg.out_dir, ".write-probe~")
        with open(probe, "w", encoding="utf-8") as handle:
            handle.write("")
        os.unlink(probe)
    except OSError as exc:
        raise ConfigError(f"output directory {cfg.out_dir!r} is not writable: {exc}") from exc

    criteria, (name, table, kind) = pipeline(cfg.seed, **tolerances)
    elapsed = time.perf_counter() - t0

    config_hash = cfg.config_hash()
    svg_path = os.path.join(cfg.out_dir, f"{cfg.scenario}-{name}.svg")
    plot_emit(table, kind, svg_path, title=f"{cfg.scenario}: {name}", config_hash=config_hash)

    doc = {
        "scenario": cfg.scenario,
        "config": cfg.canonical(),
        "config_hash": config_hash,
        "passed": all(c.passed for c in criteria),
        "criteria": [
            {
                "name": c.name,
                "measured": c.measured,
                "threshold": c.threshold,
                "passed": c.passed,
            }
            for c in criteria
        ],
        "tables": {
            name: {"columns": list(table.columns), "rows": [list(r) for r in table.rows]}
        },
    }
    result_path = os.path.join(cfg.out_dir, f"{cfg.scenario}-result.json")
    atomic_write_text(result_path, json.dumps(doc, indent=2, sort_keys=True) + "\n")

    return ScenarioResult(
        scenario=cfg.scenario,
        criteria=tuple(criteria),
        tables={name: table},
        manifest=(svg_path, result_path),
        elapsed_seconds=elapsed,
    )
