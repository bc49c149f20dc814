"""quasidiff: window statistics, comparison metrics and diffraction
approximations for uniformly discrete point sets.
"""

from types import ModuleType as _ModuleType

from .errors import (
    AmbiguousRemovalError,
    ConfigError,
    DegenerateTrialError,
    DuplicatePointError,
    EmptySpectrumError,
    FormatError,
    InsufficientExtentError,
    InvalidArgumentError,
    NotUniformlyDiscreteError,
    QuasidiffError,
    SeamViolationError,
    UnknownScenarioError,
)
from .io import read_points, read_spectrum, write_points, write_spectrum
from .measures import (
    AtomicMeasure,
    PortmanteauReport,
    TestFamily,
    TestFunction,
    autocorrelation,
    dirac_comb,
    portmanteau_check,
    tv_on_ball,
    vague_gap,
)
from .metrics import (
    LGrid,
    MetricResult,
    hausdorff_distance,
    mismatch_sets,
    ratio_sup,
    rho_aut,
    rho_gh,
    rho_stat,
)
from .perturb import (
    BoundaryRecord,
    BoundaryReport,
    NoiseModel,
    RecoveryReport,
    RecoveryRow,
    boundary_crossings,
    char_fn,
    char_fn_grid,
    char_fn_mc,
    displacement_margin,
    perturb,
    recover,
    recovery_trial,
)
from .pointset import (
    TAU,
    CutProjectConfig,
    PointSet,
    ammann_beenker_config,
    fibonacci_cut_project_config,
    gen_cut_project,
    gen_fibonacci,
    gen_lattice,
    gen_poisson,
    gen_visible,
    remove_near,
    sparse_union,
    splice,
    window,
)
from .scenarios import (
    SCENARIOS,
    CriterionResult,
    ScenarioConfig,
    ScenarioResult,
    run_scenario,
)
from .spectral import (
    DiagnosticRow,
    FrequencyGrid,
    Peak,
    PeakReport,
    SingularityReport,
    Spectrum,
    amplitude_spectrum,
    analyze_peaks,
    singularity_diagnostic,
)
from .svg import Table, plot_emit

__version__ = "0.1.0"

# the re-exported names; the submodules are bound here too, but a star
# import must not rebind a name such as io
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)]
