"""The public surface: one known-good call for every callable in
``quasidiff.__all__``, and a check that the table names each of them, so a
new public name comes with a caller.  An exported error's entry is a library
call that raises exactly that error."""

import types
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import quasidiff
from quasidiff import measures
from quasidiff import (
    SCENARIOS,
    TAU,
    AtomicMeasure,
    FrequencyGrid,
    InvalidArgumentError,
    LGrid,
    MetricResult,
    NoiseModel,
    PointSet,
    QuasidiffError,
    ScenarioConfig,
    Spectrum,
    Table,
    TestFamily,
    TestFunction,
    ammann_beenker_config,
    amplitude_spectrum,
    analyze_peaks,
    autocorrelation,
    boundary_crossings,
    char_fn,
    char_fn_grid,
    char_fn_mc,
    dirac_comb,
    displacement_margin,
    fibonacci_cut_project_config,
    gen_cut_project,
    gen_fibonacci,
    gen_lattice,
    gen_poisson,
    gen_visible,
    hausdorff_distance,
    mismatch_sets,
    perturb,
    plot_emit,
    portmanteau_check,
    ratio_sup,
    read_points,
    read_spectrum,
    recover,
    recovery_trial,
    remove_near,
    rho_aut,
    rho_gh,
    rho_stat,
    run_scenario,
    singularity_diagnostic,
    sparse_union,
    splice,
    tv_on_ball,
    vague_gap,
    window,
    write_points,
    write_spectrum,
)

LINE = gen_lattice(1, 1.0, 20.0)
NOISE = NoiseModel.gaussian(1, 0.1)
GRID = FrequencyGrid(((-1.0, 1.0, 0.125),))
SPECTRUM = amplitude_spectrum(LINE, 10.0, GRID)
COMB = dirac_comb(window(LINE, 5.0))
TENTS = TestFamily((TestFunction((0.0,), 0.5), TestFunction((1.0,), 0.5)), (0.5,), 1.0)
TABLE = Table(("x", "y"), ((0.0, 1.0), (1.0, 2.0)))


def _written(tmp, write, value, read):
    path = str(tmp / "file")
    write(path, value)
    return read(path)


def _junk_file(tmp):
    (tmp / "junk.pts").write_text("not a point file\n")
    return read_points(str(tmp / "junk.pts"))


# each public callable, at a call that returns, or that raises the error
CALLS = {
    # errors
    "AmbiguousRemovalError": lambda tmp: remove_near(LINE, [[-0.1], [0.1]], 0.25),
    "ConfigError": lambda tmp: ScenarioConfig.from_json("[]"),
    "DegenerateTrialError": lambda tmp: recovery_trial(
        LINE, NoiseModel.uniform(1, 0.25), [0], [[2.0]], 10.0
    ),
    "DuplicatePointError": lambda tmp: PointSet(1, 0.0, 5.0, [[0.0], [0.0]]),
    "EmptySpectrumError": lambda tmp: analyze_peaks(
        Spectrum(FrequencyGrid(((0.0, 1.0, 1.0),)), 1.0, "", np.ones(2)), 1.0
    ),
    "FormatError": _junk_file,
    "InsufficientExtentError": lambda tmp: window(LINE, 30.0),
    "InvalidArgumentError": lambda tmp: gen_lattice(0, 1.0, 5.0),
    "NotUniformlyDiscreteError": lambda tmp: autocorrelation(gen_poisson(1.0, 1, 10.0, 0), 5.0),
    "QuasidiffError": lambda tmp: window(LINE, 30.0),
    "SeamViolationError": lambda tmp: splice(
        LINE, PointSet(1, 1.0, 20.0, np.arange(-19.5, 20.0)[:, None]), 5.0
    ),
    "UnknownScenarioError": lambda tmp: run_scenario(ScenarioConfig("no-such-scenario")),
    # point sets
    "PointSet": lambda tmp: PointSet(1, 1.0, 5.0, [[0.0], [1.0]]),
    "CutProjectConfig": lambda tmp: fibonacci_cut_project_config(20.0),
    "fibonacci_cut_project_config": lambda tmp: fibonacci_cut_project_config(20.0),
    "ammann_beenker_config": lambda tmp: ammann_beenker_config(5.0),
    "gen_cut_project": lambda tmp: gen_cut_project(ammann_beenker_config(5.0)),
    "gen_fibonacci": lambda tmp: gen_fibonacci(20.0),
    "gen_lattice": lambda tmp: gen_lattice(2, 1.0, 5.0),
    "gen_poisson": lambda tmp: gen_poisson(1.0, 1, 10.0, 0),
    "gen_visible": lambda tmp: gen_visible(5.0),
    "window": lambda tmp: window(LINE, 5.0),
    "splice": lambda tmp: splice(LINE, gen_lattice(1, 2.0, 20.0), 5.0),
    "sparse_union": lambda tmp: sparse_union(LINE, PointSet(1, 1.0, 20.0, [[0.5]])),
    "remove_near": lambda tmp: remove_near(LINE, [[0.1]], 0.25),
    # metrics
    "LGrid": lambda tmp: LGrid((1.0, 2.0)),
    "MetricResult": lambda tmp: rho_stat(LINE, LINE, LGrid.integers(5)),
    "mismatch_sets": lambda tmp: mismatch_sets(LINE, LINE, 5.0, 0.25),
    "ratio_sup": lambda tmp: ratio_sup(LINE, LINE, 0.25, 1.0, LGrid.integers(5)),
    "rho_stat": lambda tmp: rho_stat(LINE, window(LINE, 10.0), LGrid.integers(5)),
    "rho_gh": lambda tmp: rho_gh(LINE, LINE, 0.01),
    "rho_aut": lambda tmp: rho_aut(LINE, LINE, LGrid.integers(5)),
    "hausdorff_distance": lambda tmp: hausdorff_distance(LINE.points, LINE.points + 0.1),
    # measures
    "AtomicMeasure": lambda tmp: AtomicMeasure(1, [[0.0]], [1.0]),
    "TestFunction": lambda tmp: TestFunction((0.0,), 0.5),
    "TestFamily": lambda tmp: TestFamily((TestFunction((0.0,), 0.5),), (0.0,), 1.0),
    "dirac_comb": lambda tmp: dirac_comb(LINE),
    "autocorrelation": lambda tmp: autocorrelation(LINE, 5.0),
    "tv_on_ball": lambda tmp: tv_on_ball(COMB, (0.0,), 0.5),
    "vague_gap": lambda tmp: vague_gap(COMB, COMB, TENTS),
    "PortmanteauReport": lambda tmp: portmanteau_check([COMB, COMB], COMB),
    "portmanteau_check": lambda tmp: portmanteau_check(
        [COMB, COMB], COMB, compacts=[((0.0,), 1.0)], opens=[((0.0,), 1.0)]
    ),
    # spectra
    "FrequencyGrid": lambda tmp: FrequencyGrid(((0.0, 1.0, 0.5), (0.0, 1.0, 0.5))),
    "Spectrum": lambda tmp: Spectrum(GRID, 1.0, "", np.ones(GRID.node_count)),
    "amplitude_spectrum": lambda tmp: amplitude_spectrum(LINE, 10.0, GRID),
    "Peak": lambda tmp: analyze_peaks(SPECTRUM, 0.25).peaks[0],
    "PeakReport": lambda tmp: analyze_peaks(SPECTRUM, 0.25),
    "analyze_peaks": lambda tmp: analyze_peaks(SPECTRUM, 0.25),
    "DiagnosticRow": lambda tmp: singularity_diagnostic(LINE, [4.0, 8.0, 16.0], GRID).rows[0],
    "SingularityReport": lambda tmp: singularity_diagnostic(LINE, [4.0, 8.0, 16.0], GRID),
    "singularity_diagnostic": lambda tmp: singularity_diagnostic(LINE, [4.0, 8.0, 16.0], GRID),
    # noise
    "NoiseModel": lambda tmp: NoiseModel.gaussian_mixture(1, [(1.0, (0.0,), 0.1)]),
    "perturb": lambda tmp: perturb(LINE, NOISE, 0),
    "char_fn": lambda tmp: char_fn(NOISE, (0.5,)),
    "char_fn_grid": lambda tmp: char_fn_grid(NOISE, [[0.5]]),
    "char_fn_mc": lambda tmp: char_fn_mc(NOISE, (0.5,), 100),
    "displacement_margin": lambda tmp: displacement_margin(NOISE),
    "recover": lambda tmp: recover(SPECTRUM, NOISE),
    "BoundaryRecord": lambda tmp: boundary_crossings(LINE, NOISE, 0, [5.0]).records[0],
    "BoundaryReport": lambda tmp: boundary_crossings(LINE, NOISE, 0, [5.0, 10.0]),
    "boundary_crossings": lambda tmp: boundary_crossings(LINE, NOISE, 0, [5.0, 10.0]),
    "RecoveryRow": lambda tmp: recovery_trial(LINE, NOISE, [0], [[0.5]], 10.0).rows[0],
    "RecoveryReport": lambda tmp: recovery_trial(LINE, NOISE, [0, 1], [[0.5]], 10.0),
    "recovery_trial": lambda tmp: recovery_trial(LINE, NOISE, range(2), [[0.5], [1.0]], 10.0),
    # files, plots and scenarios
    "write_points": lambda tmp: _written(tmp, write_points, LINE, read_points),
    "read_points": lambda tmp: _written(tmp, write_points, LINE, read_points),
    "write_spectrum": lambda tmp: _written(tmp, write_spectrum, SPECTRUM, read_spectrum),
    "read_spectrum": lambda tmp: _written(tmp, write_spectrum, SPECTRUM, read_spectrum),
    "Table": lambda tmp: Table(("x", "y"), ((0.0, 1.0),)),
    "plot_emit": lambda tmp: plot_emit(TABLE, "line", str(tmp / "plot.svg")),
    "ScenarioConfig": lambda tmp: ScenarioConfig("completeness", 0, str(tmp)),
    "ScenarioResult": lambda tmp: run_scenario(ScenarioConfig("completeness", 0, str(tmp))),
    "CriterionResult": lambda tmp: run_scenario(
        ScenarioConfig("completeness", 0, str(tmp))
    ).criteria[0],
    "run_scenario": lambda tmp: run_scenario(ScenarioConfig("completeness", 0, str(tmp))),
}
# the exported constants
VALUES = {"SCENARIOS": SCENARIOS, "TAU": TAU}


def test_every_public_name_has_an_entry():
    public = {name for name in quasidiff.__all__ if callable(getattr(quasidiff, name))}
    assert public == set(CALLS)
    assert set(quasidiff.__all__) == public | set(VALUES)
    for name, value in VALUES.items():
        assert getattr(quasidiff, name) is value


def test_a_star_import_binds_no_module():
    # the submodules are attributes of the package, but "io" must not
    # shadow the standard library's in an importer's namespace
    namespace: dict = {}
    exec("from quasidiff import *", namespace)
    assert not [n for n, v in namespace.items() if isinstance(v, types.ModuleType)]
    assert set(namespace) - {"__builtins__"} == set(quasidiff.__all__)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_public_call(name, tmp_path):
    obj = getattr(quasidiff, name)
    if isinstance(obj, type) and issubclass(obj, QuasidiffError):
        with pytest.raises(obj) as info:
            CALLS[name](tmp_path)
        assert obj is QuasidiffError or type(info.value) is obj
        return
    result = CALLS[name](tmp_path)
    if isinstance(obj, type):
        assert isinstance(result, obj)


# a wrong object where a library type is wanted: each ended in a bare
# AttributeError or TypeError
WRONG_OBJECTS = {
    "gen_cut_project-cfg": lambda: gen_cut_project(None),
    "window-x": lambda: window(None, 5.0),
    "splice-inner": lambda: splice(None, LINE, 1.0),
    "sparse_union-extra": lambda: sparse_union(LINE, None),
    "remove_near-x": lambda: remove_near(None, [[0.0]], 0.1),
    "autocorrelation-x": lambda: autocorrelation(None, 1.0),
    "dirac_comb-x": lambda: dirac_comb(None),
    "perturb-model": lambda: perturb(LINE, None, 0),
    "ratio_sup-grid": lambda: ratio_sup(LINE, LINE, 0.25, 1.0, [1.0, 2.0]),
    "amplitude_spectrum-grid": lambda: amplitude_spectrum(LINE, 5.0, None),
    "analyze_peaks-spec": lambda: analyze_peaks(None, 1.0),
    "run_scenario-cfg": lambda: run_scenario(None),
    "portmanteau_check-seq": lambda: portmanteau_check(None, COMB),
    "portmanteau_check-entry": lambda: portmanteau_check([1, 2], COMB),
    "read_points-path": lambda: read_points(None),
    "recovery_trial-x": lambda: recovery_trial(None, NOISE, [0], [[0.5]], 5.0),
    "recovery_trial-model": lambda: recovery_trial(LINE, None, [0], [[0.5]], 5.0),
    "boundary_crossings-x": lambda: boundary_crossings(None, NOISE, 0, [5.0]),
    "boundary_crossings-model": lambda: boundary_crossings(LINE, None, 0, [5.0]),
    "displacement_margin-model": lambda: displacement_margin(None),
    # the memo's hash of a list failed before the function ran: unhashable type
    "displacement_margin-list": lambda: displacement_margin([]),
    "char_fn-model": lambda: char_fn(None, (0.5,)),
    "char_fn_grid-model": lambda: char_fn_grid(None, [[0.5]]),
    "char_fn_mc-model": lambda: char_fn_mc(None, (0.5,), 100),
    "recover-spec": lambda: recover(None, NOISE),
    "recover-model": lambda: recover(SPECTRUM, None),
    "vague_gap-mu": lambda: vague_gap(None, COMB, TENTS),
    "vague_gap-nu": lambda: vague_gap(COMB, None, TENTS),
    "vague_gap-family": lambda: vague_gap(COMB, COMB, None),
    "tv_on_ball-mu": lambda: tv_on_ball(None, (0.0,), 1.0),
    "pair-mu": lambda: measures.pair(None, TENTS.functions[0]),
    "pair-f": lambda: measures.pair(COMB, None),
    "singularity_diagnostic-x": lambda: singularity_diagnostic(None, [2.0, 4.0, 8.0], GRID),
    "singularity_diagnostic-grid": lambda: singularity_diagnostic(LINE, [2.0, 4.0, 8.0], None),
    "write_points-x": lambda: write_points("unwritten.txt", None),
    "write_points-path": lambda: write_points(None, LINE),
    "write_spectrum-spec": lambda: write_spectrum("unwritten.csv", None),
    "write_spectrum-path": lambda: write_spectrum(None, SPECTRUM),
    "read_spectrum-path": lambda: read_spectrum(None),
    "plot_emit-table": lambda: plot_emit(None, "line", "unwritten.svg"),
    "plot_emit-path": lambda: plot_emit(TABLE, "line", None),
    "MetricResult-value": lambda: MetricResult(None),
    "MetricResult-array": lambda: MetricResult(np.array([1.0, 2.0])),
    "MetricResult-attained_L": lambda: MetricResult(1.0, attained_L="x"),
    "MetricResult-attained_eps": lambda: MetricResult(1.0, attained_eps=[0.5]),
    # float() reads no array of two values
    "MetricResult-attained_L-array": lambda: MetricResult(1.0, attained_L=np.array([1.0, 2.0])),
    "Spectrum-grid": lambda: Spectrum(None, 1.0, "", SPECTRUM.amplitude),
    "Spectrum-label": lambda: Spectrum(GRID, 1.0, None, np.ones(GRID.node_count)),
    "PointSet-label": lambda: PointSet(1, 0.0, 5.0, [[0.0], [1.0]], None),
    "gen_fibonacci-label": lambda: gen_fibonacci(5.0, label=None),
}


@pytest.mark.parametrize("case", sorted(WRONG_OBJECTS))
def test_a_wrong_object_is_refused_naming_the_type_wanted(case):
    with pytest.raises(InvalidArgumentError, match=" must be "):
        WRONG_OBJECTS[case]()


@pytest.mark.parametrize("value", [0, 2.5, np.float64(0.5), np.int64(3), float("inf"), np.array([0.5])])
@pytest.mark.parametrize("attained", [None, 1, 2.0, np.float64(4.0), np.int32(5), np.array(2.0),
                                      Decimal("0.5"), Fraction(1, 3), True, 10 ** 400])
def test_a_metric_result_takes_every_number_it_took_before_its_checks(value, attained):
    result = MetricResult(value, attained_L=attained, attained_eps=attained)
    assert result.attained_L is attained and result.attained_eps is attained
