"""The benchmark's workload names and the quasidiff scenarios each one runs.

Kept apart from ``workloads.py`` so that ``run.py`` and ``tracer.py`` can use
the names without importing quasidiff.
"""

# workload -> scenarios a full-size pass runs through ``run_scenario``
WORKLOAD_SCENARIOS = {
    "diffract": ("diffraction-catalog", "uniform-quasicrystalline", "ft-continuity"),
    "compare": (
        "metric-axioms",
        "completeness",
        "gh-vs-vague",
        "defect-convergence",
        "gh-counterexample",
    ),
    "noise-recovery": ("boundary", "recovery"),
}

WORKLOADS = tuple(WORKLOAD_SCENARIOS)
SCENARIO_NAMES = tuple(s for names in WORKLOAD_SCENARIOS.values() for s in names)
