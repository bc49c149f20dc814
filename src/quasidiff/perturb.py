"""Random displacement of point sets, noise characteristic functions, the
division-by-psi recovery map, and boundary-crossing statistics.

Randomness is counter-based and keyed by (seed, set label, canonical point
index), never by coordinates: the same (set, model, seed) triple produces a
bit-identical perturbation on any machine, any chunking, any thread count,
and two different seeds (or two differently labeled sets) get independent
streams by construction.

The characteristic function psi(lambda) = E e^(-2 pi i <xi, lambda>) has
closed forms for the gaussian, uniform-box and gaussian-mixture models;
the heavy-tailed radial model is estimated by Monte Carlo with a reported
standard error.  Because sample i depends only on (seed, label, i), the
estimate draws and folds its samples in fixed blocks of counters (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011), merging each
block's mean and sum of squared deviations by the pairwise update of Chan,
Golub & LeVeque ("Updating formulae and a pairwise algorithm for computing
sample variances", 1979): its memory is one block, whatever the sample
count, and the sample budget bounds its work.  A draw past the float
range is refused where it is drawn.  Recovery divides a measured amplitude
spectrum by psi, refusing (marking invalid, never dividing) every node
where |psi| falls under a guard threshold.
"""

from __future__ import annotations

import functools
import math
import reprlib
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import rng
from .errors import DegenerateTrialError, InvalidArgumentError
from .geometry import _require_finite, _require_integer, _require_positive_finite, _require_radii
from .geometry import _SAMPLE_BUDGET, _require_budget, _require_items, _require_type, _require_vector
from .geometry import lex_sort, require_extent, sq_norms, window_mask
from .pointset import PointSet, _with_measured_gap
from .spectral import _BLOCK, Spectrum, _free_sums, _phases

_MARGIN_SAMPLES = 200_000
_MARGIN_PERCENTILE = 99.9
_MOMENT_EPS = 0.5  # finite_moment asks for E |xi|^(dim + _MOMENT_EPS) < infinity
_GUARD = 1e-3  # smallest |psi| that recovery divides by
# samples per block of char_fn_mc and displacement_margin, and the fold
# block of char_fn_mc's estimate (its bits depend on it): each block is
# drawn spectral._BLOCK counters at a time and folded in place, so
# char_fn_mc holds about 3.5 MB of planar samples whatever the count
_MC_BLOCK = 2**16

__all__ = [
    "NoiseModel",
    "BoundaryRecord",
    "BoundaryReport",
    "RecoveryRow",
    "RecoveryReport",
    "perturb",
    "char_fn",
    "char_fn_mc",
    "char_fn_grid",
    "recover",
    "displacement_margin",
    "boundary_crossings",
    "recovery_trial",
]


# the parameter fields each kind reads; the others must keep their defaults
_PARAMETERS = {
    "gaussian": ("sigmas",),
    "uniform": ("half_widths",),
    "gaussian_mixture": ("components",),
    "pareto_radial": ("alpha", "scale"),
}


@dataclass(frozen=True)
class NoiseModel:
    """Displacement law for independent per-point noise.

    kinds and their parameter tuples:

    * "gaussian": sigmas — one standard deviation per axis;
    * "uniform": half_widths — the box [-a_i, a_i] per axis;
    * "gaussian_mixture": components (weight, mean vector, isotropic sigma);
    * "pareto_radial": (alpha, scale): direction uniform on the sphere,
      radius scale * ((1-u)^(-1/alpha) - 1) — heavy tail of index alpha, so
      the moment E |xi|^m is finite exactly when m < alpha.

    A parameter field that the kind does not read must keep its default, and
    every parameter must be finite.  ``finite_moment`` records whether
    E |xi|^(dim + 1/2) is finite; construction warns when it is not.
    """

    dim: int
    kind: str
    sigmas: tuple[float, ...] = ()
    half_widths: tuple[float, ...] = ()
    components: tuple[tuple[float, tuple[float, ...], float], ...] = ()
    alpha: float = 0.0
    scale: float = 0.0

    def __post_init__(self):
        _require_integer(self.dim, "dim", 1)
        # every parameter is stored as the float the rules return, in tuples,
        # so a model built from lists still hashes (and keys the
        # displacement_margin memo)
        if self.kind in ("gaussian", "uniform"):
            name, what = {"gaussian": ("sigmas", "noise sigma"),
                          "uniform": ("half_widths", "noise half-width")}[self.kind]
            values = _require_vector(getattr(self, name), what, self.dim)
            object.__setattr__(self, name, tuple(_require_finite(v, what, 0) for v in values))
        elif self.kind == "gaussian_mixture":
            triples = _require_items(self.components, "noise mixture components",
                                     "(weight, mean, sigma) triples", 3)
            components = tuple(
                (_require_positive_finite(w, "noise mixture weight"),
                 tuple(_require_vector(mean, "noise mixture mean", self.dim).tolist()),
                 _require_finite(s, "noise mixture sigma", 0))
                for w, mean, s in triples
            )
            if not components:
                raise InvalidArgumentError("mixture needs at least one component")
            if abs(sum(w for w, _, _ in components) - 1.0) > 1e-12:
                raise InvalidArgumentError("mixture weights must sum to 1")
            object.__setattr__(self, "components", components)
        elif self.kind == "pareto_radial":
            object.__setattr__(self, "alpha", _require_positive_finite(self.alpha, "noise alpha"))
            object.__setattr__(self, "scale", _require_positive_finite(self.scale, "noise scale"))
        else:
            raise InvalidArgumentError(f"unknown noise kind {self.kind!r}")
        for f in fields(self)[2:]:
            if f.name not in _PARAMETERS[self.kind] and getattr(self, f.name) != f.default:
                raise InvalidArgumentError(f"{self.kind} model does not read {f.name}")
        if not self.finite_moment:
            warnings.warn(
                f"noise model has infinite E|xi|^(d+eps) moment: alpha={self.alpha!r} "
                f"<= dim + {_MOMENT_EPS!r} = {self.dim + _MOMENT_EPS!r}",
                RuntimeWarning,
                stacklevel=2,
            )

    @property
    def finite_moment(self) -> bool:
        """Whether E |xi|^(dim + 1/2) < infinity."""
        if self.kind == "pareto_radial":
            return self.alpha > self.dim + _MOMENT_EPS
        return True

    @classmethod
    def gaussian(cls, dim: int, sigma) -> "NoiseModel":
        return cls(dim=dim, kind="gaussian", sigmas=_per_axis(dim, sigma))

    @classmethod
    def uniform(cls, dim: int, half_width) -> "NoiseModel":
        return cls(dim=dim, kind="uniform", half_widths=_per_axis(dim, half_width))

    @classmethod
    def gaussian_mixture(cls, dim: int, components) -> "NoiseModel":
        return cls(dim=dim, kind="gaussian_mixture", components=components)

    @classmethod
    def pareto_radial(cls, dim: int, alpha: float, scale: float) -> "NoiseModel":
        return cls(dim=dim, kind="pareto_radial", alpha=alpha, scale=scale)


def _per_axis(dim: int, value) -> tuple:
    """A scalar ``value`` repeated once per axis, or a sequence of them as a tuple."""
    dim = _require_integer(dim, "dim", 1)
    return tuple(value) if np.iterable(value) else (value,) * dim


# ---------------------------------------------------------------------------
# sampling

# slot layout per point index: axis j draws its normal from slots (2j, 2j+1);
# the uniform channel for axis j is slot j; one extra shared draw (component
# choice, or the radial profile) lives at slot 2*dim.


def _displacements(model: NoiseModel, seed: int, label: str, counters: range) -> np.ndarray:
    """One displacement per counter; row i is drawn at counter ``counters[i]``
    of the stream keyed by (seed, label), so a block of counters gives the
    matching rows of a longer draw bit for bit.

    Every keyed noise draw (perturbation, boundary counts, recovery trials,
    Monte Carlo psi, the displacement margin) comes from here.  The output
    is allocated once and filled ``_BLOCK`` counters at a time, so the
    draw's temporaries are one block's whatever the count.  A draw past the
    float range (a heavy tail's radius, or a huge scale times a normal) is
    refused, naming the law.
    """
    key = rng.stream_key(seed, label)
    xi = np.empty((len(counters), model.dim))
    for s in range(0, len(counters), _BLOCK):
        block = counters[s:s + _BLOCK]
        indices = np.arange(block.start, block.stop, dtype=np.uint64)
        with np.errstate(over="ignore", invalid="ignore"):
            xi[s:s + _BLOCK] = _draw(model, key, indices)
        if not np.isfinite(xi[s:s + _BLOCK]).all():
            law = ", ".join(f"{name}={reprlib.repr(getattr(model, name))}"
                            for name in _PARAMETERS[model.kind])
            raise InvalidArgumentError(
                f"{model.kind} noise ({law}) in dimension {model.dim} draws a displacement "
                "past the float range"
            )
    return xi


def _draw(model: NoiseModel, key: int, indices: np.ndarray) -> np.ndarray:
    """The law's displacements at the given counters, unchecked."""
    d = model.dim
    if model.kind == "uniform":
        u = np.stack([rng.uniforms(key, indices, j) for j in range(d)], axis=1)
        return np.asarray(model.half_widths) * (2.0 * u - 1.0)
    g = np.stack([rng.normals(key, indices, 2 * j) for j in range(d)], axis=1)
    if model.kind == "gaussian":
        return np.asarray(model.sigmas) * g
    u = rng.uniforms(key, indices, 2 * d)
    if model.kind == "gaussian_mixture":
        weights = np.array([w for w, _, _ in model.components])
        means = np.array([mean for _, mean, _ in model.components])
        sigmas = np.array([s for _, _, s in model.components])
        comp = np.searchsorted(np.cumsum(weights), u, side="right")
        comp = np.minimum(comp, len(weights) - 1)
        return means[comp] + sigmas[comp][:, None] * g
    # pareto_radial: uniform direction, heavy-tailed radius
    norm = np.sqrt(sq_norms(g))
    norm[norm == 0] = 1.0
    radius = model.scale * ((1.0 - u) ** (-1.0 / model.alpha) - 1.0)
    return g / norm[:, None] * radius[:, None]


def perturb(x: PointSet, model: NoiseModel, seed: int) -> PointSet:
    """Displace every point independently; deterministic in (set, model, seed).

    Point i (in canonical order) uses the stream keyed by (seed, the set's
    label, i): the same set, label, model and seed give a bit-identical
    result, and different seeds are independent.  Draws follow the index
    within the set, so windowing the input first changes which draw each
    point gets: perturbing a window is not the window of the perturbed set.
    The result's ``sep_radius`` is the measured minimum gap of the displaced
    points (the input's when fewer than two points remain).
    """
    if _require_type(model, NoiseModel, "model").dim != _require_type(x, PointSet, "x").dim:
        raise InvalidArgumentError("noise model and set dimensions differ")
    moved = x.points + _displacements(model, seed, x.label, range(len(x.points)))
    pts = lex_sort(moved)
    reach = float(np.sqrt(sq_norms(pts).max(initial=0.0)))
    if math.isinf(reach):
        # finite draws whose squares overflow: refused as PointSet refuses
        # such an extent, not reported as an infinite one
        raise InvalidArgumentError(
            f"{x.label or 'point set'}: the displaced points' extent is too large: "
            "its square overflows"
        )
    extent = x.extent if reach <= x.extent * (1.0 + 1e-9) else reach * (1.0 + 1e-12)
    return _with_measured_gap(x.dim, extent, pts, x.label, x.sep_radius)


# ---------------------------------------------------------------------------
# characteristic functions


def char_fn_grid(model: NoiseModel, freqs: np.ndarray) -> np.ndarray:
    """Closed-form psi at every frequency row; heavy-tail models have none."""
    _require_type(model, NoiseModel, "model")
    freqs = _require_vector(freqs, "frequencies", model.dim, rows=True)
    if model.kind == "gaussian":
        sig = np.asarray(model.sigmas)
        return np.exp(-2.0 * np.pi**2 * (freqs**2 * sig**2).sum(axis=1)).astype(np.complex128)
    if model.kind == "uniform":
        hw = np.asarray(model.half_widths)
        # sin(2 pi a l) / (2 pi a l) = np.sinc(2 a l)
        return np.prod(np.sinc(2.0 * hw * freqs), axis=1).astype(np.complex128)
    if model.kind == "gaussian_mixture":
        out = np.zeros(len(freqs), dtype=np.complex128)
        for w, mean, s in model.components:
            decay = np.exp(-2.0 * np.pi**2 * s * s * sq_norms(freqs))
            # _phases refuses a product that overflows, and inf - inf where two do
            with np.errstate(over="ignore", invalid="ignore"):
                t = freqs @ np.asarray(mean)
            out += w * _phases(t) * decay
        return out
    raise InvalidArgumentError(
        f"{model.kind} has no closed-form characteristic function; use char_fn_mc"
    )


def char_fn_mc(model: NoiseModel, lam, mc_samples: int, seed: int = 0) -> tuple[complex, float]:
    """Monte Carlo psi estimate and its standard error (ddof=1: two samples at least).

    The samples are drawn, phased and folded ``_MC_BLOCK`` counters at a
    time, and each block's mean and sum of squared deviations joins the
    running pair by the pairwise update of Chan, Golub & LeVeque (1979):
    memory stays at one block whatever ``mc_samples`` is, and nothing
    cancels the way sum |v|^2 - n |mean|^2 would with a mean near 1.  A
    block's draws are dropped once phased, and its deviations and their
    squares overwrite its phases in place.
    """
    _require_type(model, NoiseModel, "model")
    mc_samples = _require_integer(mc_samples, "mc_samples", 2)
    lam = _require_vector(lam, "frequency", model.dim)
    _require_budget(mc_samples * model.dim, _SAMPLE_BUDGET,
                    f"displacement coordinates for {mc_samples} samples in dimension {model.dim}")
    label = f"charfn:{model.kind}:{model.dim}"
    n, mean, m2 = 0, 0j, 0.0
    for start in range(0, mc_samples, _MC_BLOCK):
        xi = _displacements(model, seed, label, range(start, min(start + _MC_BLOCK, mc_samples)))
        # _phases refuses a product that overflows, and inf - inf where two do
        with np.errstate(over="ignore", invalid="ignore"):
            t = xi @ lam
        del xi
        vals = _phases(t)
        del t
        k, block_mean = len(vals), complex(vals.mean())
        # the deviations overwrite the phases, and their squares the deviations
        vals -= block_mean
        dev = vals.view(np.float64)
        dev *= dev
        delta = block_mean - mean
        n += k
        mean += delta * (k / n)
        m2 += float(dev.sum()) + abs(delta) ** 2 * (n - k) * (k / n)
    return mean, math.sqrt(m2 / (n - 1) / n)


def char_fn(model: NoiseModel, lam) -> complex:
    """psi(lambda) = E e^(-2 pi i <xi, lambda>) in closed form; |psi| <= 1 always.

    The heavy-tailed radial model has none: estimate it with :func:`char_fn_mc`.
    """
    _require_type(model, NoiseModel, "model")
    return complex(char_fn_grid(model, [_require_vector(lam, "frequency", model.dim)])[0])


# ---------------------------------------------------------------------------
# recovery


def recover(spec: Spectrum, model: NoiseModel, guard: float = _GUARD) -> Spectrum:
    """Undo the noise on the Fourier side: amplitude / psi where safe.

    Nodes with |psi| < guard keep no value (NaN) and are flagged invalid;
    they are never divided.  Only models with closed-form psi are eligible —
    dividing by a Monte Carlo estimate would inject its sampling noise into
    every downstream comparison.
    """
    guard = _require_positive_finite(guard, "guard")
    _require_type(spec, Spectrum, "spec")
    if _require_type(model, NoiseModel, "model").dim != spec.grid.dim:
        raise InvalidArgumentError("noise model and spectrum dimensions differ")
    psi = char_fn_grid(model, spec.grid.nodes())
    good = spec.valid & (np.abs(psi) >= guard)
    amp = np.where(good, spec.amplitude / np.where(good, psi, 1.0), np.nan + 0j)
    return Spectrum(spec.grid, spec.window_radius, spec.label, amp, good)


# ---------------------------------------------------------------------------
# boundary behavior and end-to-end trials


def displacement_margin(model: NoiseModel) -> float:
    """High quantile (99.9%) of the displacement length, by fixed-seed MC.

    The 200,000 samples are drawn ``_MC_BLOCK`` counters at a time, and only
    their lengths are kept: each sample is keyed by its counter, so the
    blocks give the lengths of one draw bit for bit.  The stream is keyed by
    the model alone, so the result is memoised per (frozen, hashable) model:
    each distinct law pays for its samples once.
    """
    return _margin(_require_type(model, NoiseModel, "model"))


@functools.lru_cache(maxsize=None)
def _margin(model: NoiseModel) -> float:
    """:func:`displacement_margin` of a checked model, memoised."""
    label = f"margin:{model.kind}:{model.dim}"
    lengths = np.empty(_MARGIN_SAMPLES)
    for start in range(0, _MARGIN_SAMPLES, _MC_BLOCK):
        stop = min(start + _MC_BLOCK, _MARGIN_SAMPLES)
        lengths[start:stop] = np.sqrt(sq_norms(_displacements(model, 0, label, range(start, stop))))
    return float(np.percentile(lengths, _MARGIN_PERCENTILE))


@dataclass(frozen=True)
class BoundaryRecord:
    window_radius: float
    exits: int
    entries: int
    ratio: float  # (exits + entries) / window_radius^dim


@dataclass(frozen=True)
class BoundaryReport:
    margin: float
    records: tuple[BoundaryRecord, ...]


def boundary_crossings(x: PointSet, model: NoiseModel, seed: int, l_list) -> BoundaryReport:
    """Counts of window-membership changes caused by one perturbation.

    For each radius L: ``exits`` counts points of the window whose displaced
    position leaves the (strictly) open complement boundary |p + xi| > L,
    ``entries`` counts outside points whose displaced position lands at
    |p + xi| < L.  The declared extent must cover max(L) plus a reported
    high-quantile displacement margin, so no crossing is missed for lack of
    data.
    """
    if _require_type(model, NoiseModel, "model").dim != _require_type(x, PointSet, "x").dim:
        raise InvalidArgumentError("noise model and set dimensions differ")
    radii = _require_radii(l_list, "l_list")
    margin = displacement_margin(model)
    require_extent(max(radii) + margin, x.extent, "max radius + displacement margin")
    before = sq_norms(x.points)
    after = sq_norms(x.points + _displacements(model, seed, x.label, range(len(x.points))))
    records = []
    for radius in radii:
        r2 = radius * radius
        exits = int(((before <= r2) & (after > r2)).sum())
        entries = int(((before > r2) & (after < r2)).sum())
        records.append(
            BoundaryRecord(radius, exits, entries, (exits + entries) / radius**x.dim)
        )
    return BoundaryReport(margin, tuple(records))


@dataclass(frozen=True)
class RecoveryRow:
    lam: tuple[float, ...]
    true_amplitude: complex
    recovered: tuple[complex, ...]
    median_abs_error: float
    valid: bool


@dataclass(frozen=True)
class RecoveryReport:
    window_radius: float
    margin: float
    rows: tuple[RecoveryRow, ...]


def recovery_trial(
    x: PointSet,
    model: NoiseModel,
    seeds,
    lambdas,
    radius: float,
) -> RecoveryReport:
    """Compare noise-undone amplitudes against the unperturbed truth.

    Each seed displaces every point with :func:`perturb`'s draw, windows the
    displaced points at the given radius, measures amplitudes at every
    requested frequency and divides by psi.  Frequencies with |psi| under
    :func:`recover`'s default guard 1e-3 are reported invalid (nothing is
    divided); if every frequency is invalid the trial is degenerate and raises.
    """
    if _require_type(model, NoiseModel, "model").dim != _require_type(x, PointSet, "x").dim:
        raise InvalidArgumentError("noise model and set dimensions differ")
    seeds = [_require_integer(s, "seed")
             for s in _require_items(seeds, "seeds", "a sequence of seeds")]
    if not seeds:
        raise InvalidArgumentError("need at least one seed")
    lams = _require_vector(lambdas, "frequencies", x.dim, rows=True)
    if len(lams) == 0:
        raise InvalidArgumentError("need at least one frequency")
    margin = displacement_margin(model)
    radius = require_extent(radius, x.extent - margin, "window radius")
    scale = radius**x.dim
    base = x.points[window_mask(x.points, radius)]
    truth = _free_sums(base, lams) / scale
    psi = char_fn_grid(model, lams)
    usable = np.abs(psi) >= _GUARD
    if not usable.any():
        raise DegenerateTrialError("every requested frequency falls under the psi guard")
    per_seed = []
    for seed in seeds:
        moved = x.points + _displacements(model, seed, x.label, range(len(x.points)))
        pts = moved[window_mask(moved, radius)]
        per_seed.append(_free_sums(pts, lams) / scale)
    rows = []
    for i, lam in enumerate(lams):
        if usable[i]:
            rec = tuple(complex(vals[i] / psi[i]) for vals in per_seed)
            err = float(np.median([abs(r - truth[i]) for r in rec]))
        else:
            rec = ()
            err = math.nan
        rows.append(
            RecoveryRow(
                lam=tuple(float(v) for v in lam),
                true_amplitude=complex(truth[i]),
                recovered=rec,
                median_abs_error=err,
                valid=bool(usable[i]),
            )
        )
    return RecoveryReport(radius, margin, tuple(rows))
