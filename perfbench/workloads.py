"""The benchmark's three workloads: inputs from a seed, one pass, and checks.

Each workload has three parts:

* ``setup(seed, out_dir, smoke)`` builds the inputs (counted in ``setup_s``);
* ``steps(inputs)`` lists one pass as named calls ``[(name, fn), ...]``; the
  pass runs them in order and times each (see :func:`run`);
* ``check(inputs, outputs, seed)`` returns ``[(check name, passed), ...]``
  for ``failed_frac``, where ``outputs`` maps each step name to its result;
  it runs after the pass, untimed and untraced.

The seed feeds the scenario ``seed``, the choice of removed points and the
noise seeds.  ``smoke=True`` shrinks every size so the tests can run each
workload in a few seconds; the benchmark itself always runs full size.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import statistics
import time

import numpy as np
import quasidiff as qd

from names import WORKLOAD_SCENARIOS

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# the seed whose scenario results are compared with reference.json
DEFAULT_SEED = 0


# ---------------------------------------------------------------------------
# scenario results


def run(steps):
    """Run a pass's steps in order: ``(outputs, seconds)``, both keyed by step."""
    outputs, seconds = {}, {}
    for name, fn in steps:
        t0 = time.perf_counter()
        outputs[name] = fn()
        seconds[name] = time.perf_counter() - t0
    return outputs, seconds


def _scenario_configs(names, seed: int, out_dir: str):
    return [qd.ScenarioConfig(scenario=n, seed=seed, out_dir=out_dir) for n in names]


_SCENARIO = "scenario:"


def _scenario_steps(configs) -> list:
    return [(_SCENARIO + cfg.scenario, functools.partial(qd.run_scenario, cfg)) for cfg in configs]


def result_doc(out_dir: str, scenario: str) -> dict:
    with open(os.path.join(out_dir, f"{scenario}-result.json"), encoding="utf-8") as handle:
        return json.load(handle)


_NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf|nan)")


def _last_place(token: str) -> float:
    """One unit in the last printed digit of a decimal token."""
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def _same_number(ref, got) -> bool:
    if isinstance(ref, float) and isinstance(got, float):
        return math.isclose(ref, got, rel_tol=1e-9, abs_tol=1e-12) or (
            math.isnan(ref) and math.isnan(got)
        )
    return ref == got


def same_measured(ref: str, got: str) -> bool:
    """Criterion text equality with numbers compared as numbers.

    Integers (counts) must match exactly.  A printed decimal may move by
    1e-9 relative or by one unit in its last printed digit, since a last-bit
    change can flip the rounding of a value printed to six digits.
    """
    a, b = _NUMBER.split(ref), _NUMBER.split(got)
    if len(a) != len(b) or a[::2] != b[::2]:
        return False
    for x, y in zip(a[1::2], b[1::2]):
        if x == y:
            continue
        if not any(c in x + y for c in ".eEn"):
            return False  # two different integers
        fx, fy = float(x), float(y)
        if not (math.isclose(fx, fy, rel_tol=1e-9) or abs(fx - fy) <= 1.000001 * _last_place(x)):
            return False
    return True


def matches_reference(doc: dict, ref: dict) -> bool:
    """Criteria and table numbers of a result document against a reference."""
    crit, ref_crit = doc["criteria"], ref["criteria"]
    if [(c["name"], c["passed"], c["threshold"]) for c in crit] != [
        (c["name"], c["passed"], c["threshold"]) for c in ref_crit
    ]:
        return False
    if not all(same_measured(r["measured"], c["measured"]) for r, c in zip(ref_crit, crit)):
        return False
    if doc["tables"].keys() != ref["tables"].keys():
        return False
    for name, table in ref["tables"].items():
        got = doc["tables"][name]
        if got["columns"] != table["columns"] or len(got["rows"]) != len(table["rows"]):
            return False
        for row_ref, row in zip(table["rows"], got["rows"]):
            if len(row) != len(row_ref) or not all(map(_same_number, row_ref, row)):
                return False
    return True


def _scenario_checks(inputs, outputs, seed: int) -> list:
    results = {
        name[len(_SCENARIO):]: res for name, res in outputs.items() if name.startswith(_SCENARIO)
    }
    checks = []
    for name, res in results.items():
        checks += [(f"{name}:{c.name}", c.passed) for c in res.criteria]
    if seed == DEFAULT_SEED:
        with open(REFERENCE_PATH, encoding="utf-8") as handle:
            reference = json.load(handle)
        for name in results:
            doc = result_doc(inputs["out_dir"], name)
            checks.append((f"{name}:reference", matches_reference(doc, reference[name])))
    return checks


def _pair_count_check(name: str, x, radius: float, gamma) -> tuple:
    """A full-window autocorrelation holds every ordered pair: mass * L^d = n^2."""
    n = int((np.square(x.points).sum(axis=1) <= radius * radius).sum())
    pairs = float(np.real(gamma.weights).sum()) * radius**x.dim
    return (name, math.isclose(pairs, n * n, rel_tol=1e-9))


# ---------------------------------------------------------------------------
# planar sets: no scenario reaches d=2, so both workloads below add direct
# calls on Ammann-Beenker and visible points


def _remove_far(x, count: int, seed: int):
    """``x`` without ``count`` seed-chosen points from the outer eighth."""
    norms = np.sqrt(np.square(x.points).sum(axis=1))
    far = np.flatnonzero(norms > 0.875 * x.extent)
    pick = np.random.default_rng(seed).choice(far, size=count, replace=False)
    return qd.remove_near(x, x.points[np.sort(pick)], tol=0.1)


def _planar_sets(smoke) -> dict:
    r = 12.0 if smoke else 40.0
    return {
        "planar_radius": r,
        "ab": qd.gen_cut_project(qd.ammann_beenker_config(r), label="ammann-beenker"),
        "visible": qd.gen_visible(r),
    }


# ---------------------------------------------------------------------------
# diffract: the paper's diffraction experiments and planar spectra


def _diffract_setup(seed, out_dir, smoke):
    names = ("uniform-quasicrystalline",) if smoke else WORKLOAD_SCENARIOS["diffract"]
    nodes = 21 if smoke else 101
    step = 2.0 / (nodes - 1)
    return {
        "out_dir": out_dir,
        "configs": _scenario_configs(names, seed, out_dir),
        **_planar_sets(smoke),
        "grid": qd.FrequencyGrid(axes=((-1.0, 1.0, step), (-1.0, 1.0, step))),
    }


def _diffract_steps(inputs):
    r, grid = inputs["planar_radius"], inputs["grid"]
    return _scenario_steps(inputs["configs"]) + [
        ("spectrum:ammann-beenker", lambda: qd.amplitude_spectrum(inputs["ab"], r, grid)),
        ("spectrum:visible", lambda: qd.amplitude_spectrum(inputs["visible"], r, grid)),
    ]


def _direct_sum_checks(name, x, radius, spec, seed) -> list:
    """Amplitudes at sampled nodes against a plain float64 sum over the window."""
    pts = x.points[np.square(x.points).sum(axis=1) <= radius * radius]
    scale = radius**x.dim
    nodes = spec.grid.nodes()
    amp = spec.amplitude.reshape(-1)
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(nodes), size=min(32, len(nodes)), replace=False)
    direct = np.array(
        [np.exp(-2j * np.pi * (pts @ nodes[i])).sum() / scale for i in idx]
    )
    tol = 1e-9 * len(pts) / scale
    zero = int(np.argmin(np.square(nodes).sum(axis=1)))
    return [
        (f"{name}:direct-sum", bool(np.all(np.abs(amp[idx] - direct) <= tol))),
        (
            f"{name}:amplitude-at-zero",
            not np.any(nodes[zero]) and math.isclose(amp[zero].real, len(pts) / scale, rel_tol=1e-9)
            and abs(amp[zero].imag) <= tol,
        ),
    ]


def _diffract_check(inputs, outputs, seed):
    checks = _scenario_checks(inputs, outputs, seed)
    for name, key in (("ammann-beenker", "ab"), ("visible", "visible")):
        spec = outputs["spectrum:" + name]
        checks += _direct_sum_checks(name, inputs[key], inputs["planar_radius"], spec, seed)
    return checks


# ---------------------------------------------------------------------------
# compare: statistical and window-alignment distances, vague gaps,
# autocorrelations -- in one and two dimensions, no spectra


def _compare_setup(seed, out_dir, smoke):
    names = ("completeness", "gh-counterexample") if smoke else WORKLOAD_SCENARIOS["compare"]
    radius = 100.0 if smoke else 1000.0
    planar = _planar_sets(smoke)
    return {
        "out_dir": out_dir,
        "configs": _scenario_configs(names, seed, out_dir),
        "fib": qd.gen_fibonacci(radius * 1.1),
        "radius": radius,
        **planar,
        "ab_defect": _remove_far(planar["ab"], 10, seed),
        "lgrid": qd.LGrid.integers(int(planar["planar_radius"])),
        "full_radius": 6.0 if smoke else 16.0,
    }


def _compare_steps(inputs):
    r, ab, vis, defect = inputs["planar_radius"], inputs["ab"], inputs["visible"], inputs["ab_defect"]
    return _scenario_steps(inputs["configs"]) + [
        ("autocorrelation:fibonacci", lambda: qd.autocorrelation(inputs["fib"], inputs["radius"])),
        ("rho_stat", lambda: qd.rho_stat(ab, defect, inputs["lgrid"])),
        ("rho_gh:defect", lambda: qd.rho_gh(ab, defect, eps_tol=1.0 / r)),
        ("rho_gh:visible", lambda: qd.rho_gh(ab, vis, eps_tol=1.0 / r)),
        ("autocorrelation:ammann-beenker", lambda: qd.autocorrelation(ab, r, max_range=3.0)),
        (
            "autocorrelation:ammann-beenker-full",
            lambda: qd.autocorrelation(ab, inputs["full_radius"]),
        ),
    ]


def _compare_check(inputs, outputs, seed):
    ab, defect = inputs["ab"], inputs["ab_defect"]
    checks = _scenario_checks(inputs, outputs, seed)
    checks.append(
        _pair_count_check(
            "fibonacci:pair-count", inputs["fib"], inputs["radius"],
            outputs["autocorrelation:fibonacci"],
        )
    )
    cap = min(ab.sep_radius, defect.sep_radius) / 2
    stat = outputs["rho_stat"].value
    checks.append(("rho_stat:self-zero", qd.rho_stat(ab, ab, inputs["lgrid"]).value == 0.0))
    checks.append(("rho_stat:within-cap", 0.0 < stat <= cap))
    gh = (outputs["rho_gh:defect"], outputs["rho_gh:visible"])
    checks.append(("rho_gh:in-range", all(0.0 < g.value <= 0.25 for g in gh)))
    checks.append(
        _pair_count_check(
            "ammann-beenker:pair-count", ab, inputs["full_radius"],
            outputs["autocorrelation:ammann-beenker-full"],
        )
    )
    return checks


# ---------------------------------------------------------------------------
# noise-recovery: keyed noise draws, narrow exponential sums


# the recovery scenario's default median_error_ceiling
RECOVERY_CEILING = 0.05
_PARETO = (4.0, 0.1)  # alpha, scale
_PARETO_LAM = (1.0, 0.5)
# window radii of the direct boundary_crossings calls
BOUNDARY_RADII = (5.0, 15.0)
# displacement_margin is the 99.9% quantile of the displacement length
_MARGIN_Q = 0.999


def _noise_setup(seed, out_dir, smoke):
    names = ("recovery",) if smoke else WORKLOAD_SCENARIOS["noise-recovery"]
    seeds = 4 if smoke else 20
    lat_radius = 20000.0 if smoke else 50000.0
    ab_radius = 20.0 if smoke else 55.0
    gaussian_1d = qd.NoiseModel.gaussian(1, 0.1)
    gaussian_2d = qd.NoiseModel.gaussian(2, 0.05)
    mixture = qd.NoiseModel.gaussian_mixture(
        2, [(0.7, (0.0, 0.0), 0.05), (0.3, (0.1, -0.05), 0.02)]
    )
    pareto = qd.NoiseModel.pareto_radial(2, *_PARETO)
    line = qd.gen_lattice(1, 1.0, 200.0)
    plane = qd.gen_cut_project(qd.ammann_beenker_config(20.0), label="ammann-beenker")
    return {
        "out_dir": out_dir,
        "configs": _scenario_configs(names, seed, out_dir),
        "noise_seeds": [seeds * seed + i for i in range(seeds)],
        "lattice": qd.gen_lattice(1, 1.0, lat_radius + 100.0),
        "lattice_radius": lat_radius,
        "ab": qd.gen_cut_project(qd.ammann_beenker_config(ab_radius + 5.0), label="ammann-beenker"),
        "ab_radius": ab_radius,
        "gaussian_1d": gaussian_1d,
        "gaussian_2d": gaussian_2d,
        "mixture": mixture,
        "pareto": pareto,
        # name, model, set, displacement_margin in closed form (None: no check)
        "boundary_models": (
            ("gaussian-1d", gaussian_1d, line, 0.1 * statistics.NormalDist().inv_cdf(0.5 + _MARGIN_Q / 2)),
            ("uniform-1d", qd.NoiseModel.uniform(1, 0.2), line, 0.2 * _MARGIN_Q),
            ("gaussian-2d", gaussian_2d, plane, 0.05 * math.sqrt(-2.0 * math.log(1 - _MARGIN_Q))),
            ("mixture-2d", mixture, plane, None),
            ("pareto-2d", pareto, plane, None),
        ),
        "mc_samples": 10**4 if smoke else 10**6,
        "seed": seed,
    }


def _boundary_study(x, model, seeds) -> list:
    return [qd.boundary_crossings(x, model, s, BOUNDARY_RADII) for s in seeds]


def _noise_steps(inputs):
    seeds = inputs["noise_seeds"]
    ab = inputs["ab"]
    return (
        _scenario_steps(inputs["configs"])
        # one call per model and seed, as a boundary study over noise laws runs
        + [
            ("boundary:" + name, functools.partial(_boundary_study, x, model, seeds))
            for name, model, x, _ in inputs["boundary_models"]
        ]
        + [
            (
                "recovery:lattice",
                lambda: qd.recovery_trial(
                    inputs["lattice"],
                    inputs["gaussian_1d"],
                    seeds,
                    [[v] for v in (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5)],
                    radius=inputs["lattice_radius"],
                ),
            ),
            (
                "recovery:ammann-beenker",
                lambda: qd.recovery_trial(
                    ab,
                    inputs["gaussian_2d"],
                    seeds,
                    [[0.0, 0.0], [1.0, 0.0], [0.5, 0.5], [1.0, 1.0]],
                    radius=inputs["ab_radius"],
                ),
            ),
            ("perturb", lambda: [qd.perturb(ab, inputs["mixture"], s) for s in seeds]),
            (
                "char_fn_mc",
                lambda: qd.char_fn_mc(
                    inputs["pareto"], _PARETO_LAM, inputs["mc_samples"], seed=inputs["seed"]
                ),
            ),
        ]
    )


def pareto_radial_psi_2d(alpha: float, scale: float, lam) -> float:
    """Characteristic function of the planar radial Pareto law by quadrature.

    The direction is uniform, so psi = E J0(2 pi |lam| R), with R of density
    (alpha/scale) (1 + r/scale)^-(alpha+1).
    """
    from scipy import integrate, special

    k = 2.0 * math.pi * math.hypot(*lam)
    density = lambda r: alpha / scale * (1.0 + r / scale) ** (-alpha - 1.0)
    value, _ = integrate.quad(lambda r: density(r) * special.j0(k * r), 0.0, np.inf, limit=400)
    return value


def _crossings_conserve(x, moved, report) -> bool:
    """Window counts of the perturbed set: before - exits + entries, at every radius."""
    before, after = np.square(x.points).sum(axis=1), np.square(moved.points).sum(axis=1)
    return all(
        int((after <= r.window_radius**2).sum())
        == int((before <= r.window_radius**2).sum()) - r.exits + r.entries
        for r in report.records
    )


def _noise_check(inputs, outputs, seed):
    checks = _scenario_checks(inputs, outputs, seed)
    for name in ("lattice", "ammann-beenker"):
        report = outputs["recovery:" + name]
        checks.append(
            (
                f"recovery_trial:{name}",
                all(row.valid and row.median_abs_error <= RECOVERY_CEILING for row in report.rows),
            )
        )
    for name, model, x, margin in inputs["boundary_models"]:
        reports = outputs["boundary:" + name]
        checks.append(
            (
                f"boundary_crossings:{name}:conservation",
                all(
                    _crossings_conserve(x, qd.perturb(x, model, s), report)
                    for s, report in zip(inputs["noise_seeds"], reports)
                ),
            )
        )
        if margin is not None:
            checks.append(
                (
                    f"boundary_crossings:{name}:margin",
                    all(math.isclose(r.margin, margin, rel_tol=0.02) for r in reports),
                )
            )
    n = len(inputs["ab"].points)
    checks.append(("perturb:point-count", all(len(p.points) == n for p in outputs["perturb"])))
    value, stderr = outputs["char_fn_mc"]
    psi = pareto_radial_psi_2d(*_PARETO, _PARETO_LAM)
    checks.append(("char_fn_mc:quadrature", abs(value - psi) <= 5.0 * stderr + 1e-12))
    return checks


# ---------------------------------------------------------------------------

WORKLOADS = {
    "diffract": (_diffract_setup, _diffract_steps, _diffract_check),
    "compare": (_compare_setup, _compare_steps, _compare_check),
    "noise-recovery": (_noise_setup, _noise_steps, _noise_check),
}
