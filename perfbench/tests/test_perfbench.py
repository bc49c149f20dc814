"""Tests of the benchmark itself: the workloads, the tracer, the checks.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import quasidiff as qd  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def traced():
    t = tracer.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def _calls(t, name):
    return sum(1 for span in t.spans if span[0] == name)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_workload_passes_its_checks(name, tmp_path):
    setup, steps, check = workloads.WORKLOADS[name]
    inputs = setup(workloads.DEFAULT_SEED, str(tmp_path), True)
    outputs, seconds = workloads.run(steps(inputs))
    assert outputs.keys() == seconds.keys()
    checks = check(inputs, outputs, workloads.DEFAULT_SEED)
    assert checks
    assert [n for n, ok in checks if not ok] == []


def test_run_prints_the_result_line():
    # one untraced and one traced full-size pass
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "noise-recovery",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(tracer.LAYER_UNITS)
    # 100 direct boundary_crossings calls, 11 from the boundary scenario and
    # 3 from the recovery_trial calls
    assert result["metrics"]["perturb.displacement_margin.calls"]["value"] == 114
    assert result["metrics"]["spectral.amplitude_spectrum.calls"]["value"] == 0


def test_tracer_sees_calls_made_inside_the_library(traced):
    x = qd.gen_fibonacci(300.0)
    grid = qd.FrequencyGrid(axes=((0.04, 1.2, 1e-3),))
    # the package-level name, as users call it
    qd.singularity_diagnostic(x, [50.0, 100.0, 200.0], grid)
    assert _calls(traced, "spectral.singularity_diagnostic") == 1
    assert _calls(traced, "spectral.amplitude_spectrum") == 3
    assert _calls(traced, "spectral.analyze_peaks") == 3
    diag = [i for i, span in enumerate(traced.spans) if span[0] == "spectral.singularity_diagnostic"]
    parents = {span[3] for span in traced.spans if span[0] == "spectral.amplitude_spectrum"}
    assert parents == set(diag)


def test_ratio_sup_calls_per_rho_stat_are_the_bisection_probes(traced):
    lattice = qd.gen_lattice(1, 1.0, 60.0)
    defect = qd.remove_near(lattice, [(55.0,), (-57.0,)], tol=0.25)
    eps_tol = 1e-3
    res = qd.rho_stat(lattice, defect, qd.LGrid.integers(60), eps_tol=eps_tol)
    assert not res.capped  # the cap probe is feasible
    probes = 1 + math.ceil(math.log2(0.5 / eps_tol))  # cap = half the separation 1
    layers = tracer.layer_metrics(traced.spans)
    assert layers["metrics.ratio_sup.calls"] == probes == 10
    assert layers["metrics.rho_stat.calls"] == 1


def test_hausdorff_calls_per_rho_gh_are_the_scan_steps(traced):
    lattice = qd.gen_lattice(1, 1.0, 420.0)
    fib = qd.gen_fibonacci(420.0)
    x = qd.splice(lattice, fib, radius=10.0, allow_smaller=True)
    eps_tol = 0.0025
    res = qd.rho_gh(x, lattice, eps_tol=eps_tol)
    assert not res.capped
    steps = round(res.attained_eps / eps_tol)
    assert steps > 1
    assert _calls(traced, "metrics.hausdorff_distance") == steps


def test_layer_metrics_count_from_arguments_and_results(traced):
    x = qd.gen_cut_project(qd.ammann_beenker_config(8.0))
    grid = qd.FrequencyGrid(axes=((-1.0, 1.0, 0.25), (-1.0, 1.0, 0.25)))
    qd.amplitude_spectrum(x, 6.0, grid)
    qd.autocorrelation(x, 5.0)
    sq = (x.points**2).sum(axis=1)
    n6, n5 = int((sq <= 36.0).sum()), int((sq <= 25.0).sum())
    layers = tracer.layer_metrics(traced.spans)
    assert layers["spectral.phase_terms"] == n6 * 81
    assert layers["measures.pairs"] == n5 * n5
    assert layers["measures.autocorrelation.calls"] == 1
    assert layers["pointset.points_generated"] == len(x.points)


def test_uninstall_restores_every_binding():
    import quasidiff.spectral as spectral

    before = (qd.amplitude_spectrum, spectral.amplitude_spectrum)
    t = tracer.Tracer()
    t.install()
    assert spectral.amplitude_spectrum is not before[1]
    assert sys.modules["quasidiff.scenarios"].amplitude_spectrum is spectral.amplitude_spectrum
    t.uninstall()
    assert (qd.amplitude_spectrum, spectral.amplitude_spectrum) == before


def test_outermost_and_self_time():
    spans = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, None],
        ["a", 2.0, 3.0, 1, None],  # nested a: not outermost
        ["c", 5.0, 6.0, 0, None],
    ]
    assert tracer._busy(spans, ["a"]) == 10.0
    assert tracer._self(spans, ["a"]) == 10.0 - 3.0 - 1.0
    assert tracer._busy(spans, ["b", "c"]) == 4.0


def test_fastest_pass_takes_each_step_at_its_fastest():
    import run

    passes = [{"step_s": {"a": 3.0, "b": 1.0}}, {"step_s": {"a": 2.0, "b": 1.5}}]
    assert run.fastest_pass_s(passes) == 2.0 + 1.0
    assert run.fastest_pass_s(passes[:1]) == 4.0


def test_measured_text_comparison():
    same = workloads.same_measured
    assert same("n=1: 0.500001; n=2: 0.25", "n=1: 0.500002; n=2: 0.25")
    assert not same("n=1: 0.500001", "n=1: 0.500003")
    assert not same("18/20 AC-dominant", "17/20 AC-dominant")
    assert not same("all zero", "nonzero crossings")
    assert same("drift 1.5e-05", "drift 1.6e-05")
    assert same("ratio inf", "ratio inf")


def test_benchmark_json_names_what_the_runner_reports():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        doc = json.load(handle)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracer.LAYER_UNITS
    assert sorted(tracer.SCENARIO_NAMES) == sorted(qd.SCENARIOS)
