"""Finite-window diffraction: exponential sums, peak analysis, and the
singular-versus-absolutely-continuous evidence diagnostic.

The infinite-volume diffraction measure is approached through periodograms:
power(lambda) = |sum over the radius-L window of e^(-2 pi i <p, lambda>)|^2
divided by L^d.  Point-spectrum atoms show up as peaks of width ~1/L whose
integrated mass is stable as L doubles; an absolutely continuous component
shows up as a window-stable positive background.  Nothing at finite L can
*prove* spectral singularity — every verdict below ships with the raw
numbers and thresholds it was derived from.

Amplitude values are exp-sums divided by L^d, so power = L^d |amplitude|^2;
both are carried on an explicit rectangular :class:`FrequencyGrid`.

Every exponential sum goes through one step, :func:`_phases`: a table of
phases <p, lambda> is reduced mod 1 and then exponentiated, so an integer
phase contributes exactly 1 however large it is.

Every grid is a tensor product of uniform axes, so its exponential sums
factor and no (node, point) phase matrix is built.  In d >= 2 each axis
contributes one K_i x n table of e^(-2 pi i lambda_i p_i) and the sum is
their contraction over the points.  A 1-d axis of M nodes is split as
k = k1 K2 + k2 with K2 = ceil(sqrt M) (Cooley & Tukey 1965), which gives two
tables of about sqrt(M) x n entries.  The kernel thus makes about
(K1 + K2) n complex exponentials instead of M n, and holds about
(K1 + K2) n complex entries at a time.  The contraction runs in numpy's own
einsum loops, not in a threaded BLAS, so amplitudes are bit-identical run
to run and for any BLAS thread count.  Sums at a free list of frequencies
(``exp_sum``, the noise-recovery trials) take the phases
``freqs @ points.T`` and sum each row over the points, under the same
table budget as the grid sums.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySpectrumError, InvalidArgumentError
from .geometry import _power, _require_finite, _require_positive_finite, _require_radii
from .geometry import _require_vector, require_extent, window_mask
from .geometry import _NODE_BUDGET, _TABLE_BUDGET, _require_budget
from .pointset import PointSet

__all__ = [
    "FrequencyGrid",
    "Spectrum",
    "Peak",
    "PeakReport",
    "DiagnosticRow",
    "SingularityReport",
    "exp_sum",
    "amplitude_spectrum",
    "analyze_peaks",
    "singularity_diagnostic",
]


@dataclass(frozen=True)
class FrequencyGrid:
    """Rectangular grid of frequencies: per-axis (min, max, step) triples."""

    axes: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        axes = tuple(
            (_require_finite(lo, "grid axis min"), _require_finite(hi, "grid axis max"),
             _require_positive_finite(step, "grid step"))
            for lo, hi, step in self.axes
        )
        object.__setattr__(self, "axes", axes)
        if not axes:
            raise InvalidArgumentError("FrequencyGrid needs at least one axis")
        for lo, hi, step in axes:
            if not lo < hi:
                raise InvalidArgumentError("each axis needs max > min")
            if not math.isfinite((hi - lo) / step):
                raise InvalidArgumentError("grid axis would hold a non-finite number of nodes")
        _require_budget(self.node_count, _NODE_BUDGET, "nodes in a frequency grid")

    @property
    def dim(self) -> int:
        return len(self.axes)

    def _axis_count(self, i: int) -> int:
        lo, hi, step = self.axes[i]
        return int(math.floor((hi - lo) / step + 1e-9)) + 1

    def axis_values(self, i: int) -> np.ndarray:
        lo, hi, step = self.axes[i]
        return lo + step * np.arange(self._axis_count(i))

    @property
    def shape(self) -> tuple[int, ...]:
        # arithmetic only: the budget check runs before any array this size
        # may be allocated
        return tuple(self._axis_count(i) for i in range(self.dim))

    @property
    def node_count(self) -> int:
        return math.prod(self.shape)

    def nodes(self) -> np.ndarray:
        """All grid nodes as an (M, d) array in lexicographic order."""
        axes = [self.axis_values(i) for i in range(self.dim)]
        if self.dim == 1:
            return axes[0].reshape(-1, 1)
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Amplitudes on a frequency grid, for one window radius, with the power
    L^d |amplitude|^2 derived from them.

    ``valid`` marks nodes carrying a defined value; noise-undoing division
    (see the perturbation module) blanks nodes where the divisor is too
    small, and every consumer must honor the mask.  Invalid nodes have NaN
    power.
    """

    grid: FrequencyGrid
    window_radius: float
    label: str
    amplitude: np.ndarray
    valid: np.ndarray = None  # type: ignore[assignment]
    power: np.ndarray = field(init=False)

    def __post_init__(self):
        m = self.grid.node_count
        amp = np.asarray(self.amplitude, dtype=np.complex128).reshape(-1)
        valid = (
            np.ones(m, dtype=bool)
            if self.valid is None
            else np.asarray(self.valid, dtype=bool).reshape(-1)
        )
        if len(amp) != m or len(valid) != m:
            raise InvalidArgumentError("spectrum arrays must match the grid's node count")
        object.__setattr__(
            self, "window_radius", _require_positive_finite(self.window_radius, "window_radius")
        )
        if not np.isfinite(amp[valid]).all():
            raise InvalidArgumentError("valid nodes must carry finite values")
        scale = _power(self.window_radius, self.grid.dim)
        if math.isinf(scale):
            raise InvalidArgumentError(
                f"window_radius {self.window_radius!r} is too large: its power "
                f"{self.grid.dim} overflows"
            )
        pw = np.where(valid, scale * (amp.real**2 + amp.imag**2), np.nan)
        for arr in (amp, pw, valid):
            arr.flags.writeable = False
        object.__setattr__(self, "amplitude", amp)
        object.__setattr__(self, "power", pw)
        object.__setattr__(self, "valid", valid)

    def __repr__(self) -> str:
        return (
            f"Spectrum(label={self.label!r}, L={self.window_radius!r}, "
            f"nodes={self.grid.node_count}, valid={int(self.valid.sum())})"
        )


# ---------------------------------------------------------------------------
# exponential sums


def _phases(t: np.ndarray) -> np.ndarray:
    """e^(-2 pi i t) entrywise, with t reduced mod 1 first."""
    return np.exp((-2j * np.pi) * (t - np.round(t)))


def _grid_sums(points: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """sum_p e^(-2 pi i <p, lambda>) at every node of the grid, in node order.

    The factors are per-axis phase tables (two for a split 1-d axis, see the
    module docstring).  The last two are contracted over the points; each
    row of every leading table (d >= 3) is first multiplied into the second
    to last, one leading node at a time.
    """
    m = grid.node_count
    if len(points) == 0:
        return np.zeros(m, dtype=np.complex128)
    if grid.dim == 1:
        lo, _, step = grid.axes[0]
        k2 = math.isqrt(m - 1) + 1  # ceil(sqrt(m))
        k1 = -(-m // k2)
        p = points[:, 0]
        axes = [(step * k2 * np.arange(k1), p), (lo + step * np.arange(k2), p)]
    else:
        axes = [(grid.axis_values(i), points[:, i]) for i in range(grid.dim)]
    # one table row per axis value, counted before any table exists
    _require_budget(sum(len(v) for v, _ in axes) * len(points), _TABLE_BUDGET,
                    f"phase-table entries for {m} nodes over {len(points)} window points")
    *lead, inner, last = [_phases(np.multiply.outer(v, c)) for v, c in axes]
    blocks = []
    for rows in itertools.product(*lead):
        w = inner
        for row in rows:
            w = w * row
        blocks.append(np.einsum("ap,bp->ab", w, last))
    return np.concatenate(blocks, axis=None)[:m]


def _free_sums(points: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """sum_p e^(-2 pi i <p, lambda>) at each row of ``lams``, under the table budget."""
    _require_budget(len(lams) * len(points), _TABLE_BUDGET, "free-frequency phase-table entries")
    return _phases(lams @ points.T).sum(axis=1)


def exp_sum(x: PointSet, lam) -> complex:
    """Exponential sum of the whole set at one frequency; |result| <= #points."""
    return complex(_free_sums(x.points, _require_vector(lam, "frequency", x.dim)[None])[0])


def amplitude_spectrum(x: PointSet, radius: float, grid: FrequencyGrid) -> Spectrum:
    """Normalized transform on the window: exp-sum / radius^dim per node."""
    if grid.dim != x.dim:
        raise InvalidArgumentError("grid and point set dimensions differ")
    radius = require_extent(radius, x.extent, "window radius")
    sums = _grid_sums(x.points[window_mask(x.points, radius)], grid)
    return Spectrum(grid, radius, x.label, sums / radius**x.dim)


# ---------------------------------------------------------------------------
# peak analysis


@dataclass(frozen=True)
class Peak:
    """One detected peak.  ``node_location`` is the grid node of the maximum;
    ``location`` adds the sub-step quadratic refinement."""

    node_location: float
    location: float
    height: float
    mass: float


@dataclass(frozen=True)
class PeakReport:
    peaks: tuple[Peak, ...]
    background_level: float
    background_mean: float
    support_boxes: tuple[tuple[float, float], ...]
    window_width: float
    threshold: float
    total_grid_mass: float

    @property
    def total_peak_mass(self) -> float:
        return float(sum(p.mass for p in self.peaks))

    @property
    def pure_point_fraction(self) -> float:
        if self.total_grid_mass <= 0:
            return 0.0
        return min(1.0, self.total_peak_mass / self.total_grid_mass)


def analyze_peaks(
    spec: Spectrum,
    peak_window_width: float | None = None,
    threshold_ratio: float = 0.5,
) -> PeakReport:
    """Detect power peaks on a 1-d spectrum and integrate their masses.

    Peaks are strict local maxima at or above threshold_ratio * max power,
    thinned greedily (highest first) so surviving peaks are at least half a
    window width apart.  Each peak's location is refined by a quadratic fit
    through the three nodes around the maximum; when its two neighbours
    differ by at most 1e-12 times the peak power, which is rounding noise of
    the exponential sums, the peak counts as symmetric and stays on its
    node, so noise cannot move a support box edge.  Its mass is the trapezoid
    integral of power over the width-wide interval centered there, and the
    background is the median (the mean is also reported) of power outside
    all peak intervals.  The intervals double as estimated support boxes.
    """
    if spec.grid.dim != 1:
        raise InvalidArgumentError("peak analysis is defined for 1-d spectra")
    if not spec.valid.all():
        raise InvalidArgumentError("peak analysis needs a fully valid spectrum")
    freqs = spec.grid.axis_values(0)
    power = spec.power
    if len(freqs) < 3:
        raise EmptySpectrumError("need at least three nodes to look for peaks")
    step = spec.grid.axes[0][2]
    width = 4.0 / spec.window_radius if peak_window_width is None else peak_window_width
    width = _require_finite(width, "peak window width")
    threshold_ratio = _require_finite(threshold_ratio, "threshold ratio")
    if width < 2 * step * (1 - 1e-12):
        raise InvalidArgumentError("peak window width must cover at least two grid steps")

    top = float(power.max())
    threshold = threshold_ratio * top
    interior = np.arange(1, len(freqs) - 1)
    is_max = (power[interior] > power[interior - 1]) & (power[interior] > power[interior + 1])
    cand = interior[is_max & (power[interior] >= threshold)]
    cand = cand[np.argsort(-power[cand], kind="stable")]

    # only the two accepted neighbours of a candidate can be the nearest
    accepted: list[int] = []
    taken: list[float] = []  # accepted locations, sorted
    for idx in cand:
        f = float(freqs[idx])
        i = bisect.bisect_left(taken, f)
        if (i == len(taken) or taken[i] - f >= width / 2) and (
            i == 0 or f - taken[i - 1] >= width / 2
        ):
            taken.insert(i, f)
            accepted.append(int(idx))

    peaks = []
    boxes = []
    outside = np.ones(len(freqs), dtype=bool)
    for idx in accepted:
        pm, p0, pp = power[idx - 1], power[idx], power[idx + 1]
        denom = pm - 2.0 * p0 + pp
        symmetric = denom == 0 or abs(pm - pp) <= 1e-12 * p0
        offset = 0.0 if symmetric else 0.5 * (pm - pp) / denom
        loc = float(freqs[idx] + offset * step)
        lo, hi = loc - width / 2, loc + width / 2
        # freqs is sorted, so the nodes in [lo, hi] are one slice
        a, b = np.searchsorted(freqs, lo, side="left"), np.searchsorted(freqs, hi, side="right")
        mass = float(np.trapezoid(power[a:b], freqs[a:b])) if b - a >= 2 else 0.0
        peaks.append(Peak(float(freqs[idx]), loc, float(p0), mass))
        boxes.append((lo, hi))
        outside[a:b] = False
    order = np.argsort([p.location for p in peaks], kind="stable")
    peaks = tuple(peaks[i] for i in order)
    boxes = tuple(boxes[i] for i in order)

    rest = power[outside]
    bg_median = float(np.median(rest)) if len(rest) else 0.0
    bg_mean = float(rest.mean()) if len(rest) else 0.0
    return PeakReport(
        peaks=peaks,
        background_level=bg_median,
        background_mean=bg_mean,
        support_boxes=boxes,
        window_width=width,
        threshold=threshold,
        total_grid_mass=float(np.trapezoid(power, freqs)),
    )


# ---------------------------------------------------------------------------
# singular-vs-continuous evidence


@dataclass(frozen=True)
class DiagnosticRow:
    window_radius: float
    peak_count: int
    total_peak_mass: float
    background_level: float
    background_mean: float
    pure_point_fraction: float
    top_off_zero: tuple[Peak, ...]


@dataclass(frozen=True)
class SingularityReport:
    rows: tuple[DiagnosticRow, ...]
    verdict: str
    masses_stable: bool
    background_ratio: float
    background_fraction: float
    level_stable: bool
    thresholds: dict = field(
        default_factory=lambda: dict(_THRESHOLDS)
    )


_THRESHOLDS = {
    "background_over_top_peak": 0.01,
    "mass_drift_over_doubling": 0.05,
    "background_mass_fraction": 0.05,
    "level_stability": 0.25,
    "peak_threshold_ratio": 0.01,
}


def _off_zero(report: PeakReport) -> list[Peak]:
    return [p for p in report.peaks if abs(p.location) > report.window_width]


def singularity_diagnostic(x: PointSet, l_list, grid: FrequencyGrid) -> SingularityReport:
    """Evidence for a point-dominant versus continuous-dominant spectrum.

    Periodograms at each radius are peak-analyzed with the default 4/L peak
    window (detection threshold 1% of the maximum, so small stable atoms are
    counted rather than swept into the background).  The verdict is:

    * "singular-dominant" — the top (up to five) off-zero peaks persist at
      every radius with mass drift < 5% over the last doubling, background
      stays below 1% of the top peak, and the continuous-mass estimate
      (median background times grid span, against the grid's total mass) is
      below 5%;
    * "AC-dominant" — no such stable off-zero peak family, band-averaged
      power stable within 25% over the last doubling, and the
      continuous-mass estimate at or above 5%;
    * "mixed" — anything else.

    Stability of the continuous level is judged on the average power over
    the whole grid, not over the leftover non-peak nodes: at small radii the
    peak windows can tile nearly the entire band, leaving so few background
    nodes that their mean swings wildly between radii even for a flat
    spectrum, while the all-node average concentrates.

    The median-times-span estimate, not the mass outside peak windows, is
    what separates a true continuous component from a dusting of atoms too
    small to detect: undetected atoms barely move the median.

    All raw numbers and thresholds ride along in the report.
    """
    if grid.dim != 1:
        raise InvalidArgumentError("the singularity diagnostic needs a 1-d frequency grid")
    radii = _require_radii(l_list, "l_list")
    if len(radii) < 3:
        raise InvalidArgumentError(f"need at least three window radii, got {len(radii)}")
    require_extent(radii[-1], x.extent, "largest window radius")

    reports = [
        analyze_peaks(
            amplitude_spectrum(x, radius, grid),
            threshold_ratio=_THRESHOLDS["peak_threshold_ratio"],
        )
        for radius in radii
    ]

    rows = []
    for radius, rep in zip(radii, reports):
        off = sorted(_off_zero(rep), key=lambda p: -p.height)[:5]
        rows.append(
            DiagnosticRow(
                window_radius=radius,
                peak_count=len(rep.peaks),
                total_peak_mass=rep.total_peak_mass,
                background_level=rep.background_level,
                background_mean=rep.background_mean,
                pure_point_fraction=rep.pure_point_fraction,
                top_off_zero=tuple(off),
            )
        )

    last, prev = reports[-1], reports[-2]
    tracked = rows[-1].top_off_zero
    match_tol = max(last.window_width, prev.window_width) / 2

    def find(peaks, loc, tol):
        best, dist = None, tol
        for p in peaks:
            d = abs(p.location - loc)
            if d <= dist:
                best, dist = p, d
        return best

    masses_stable = len(tracked) > 0
    for peak in tracked:
        # the loop ends in prev, whose tolerance is match_tol: mate is prev's
        for rep in reports[:-1]:
            mate = find(rep.peaks, peak.location, max(match_tol, rep.window_width / 2))
            if mate is None:
                masses_stable = False
                break
        if not masses_stable:
            break
        drift = abs(peak.mass - mate.mass) / max(abs(peak.mass), 1e-300)
        if drift >= _THRESHOLDS["mass_drift_over_doubling"]:
            masses_stable = False
            break

    top_height = max((p.height for p in last.peaks), default=0.0)
    bg_ratio = last.background_level / top_height if top_height > 0 else math.inf
    lo_axis, hi_axis, _ = grid.axes[0]
    span = hi_axis - lo_axis
    if last.total_grid_mass > 0:
        bg_frac = min(1.0, last.background_level * span / last.total_grid_mass)
    else:
        bg_frac = 0.0
    prev_avg = prev.total_grid_mass
    last_avg = last.total_grid_mass
    level_stable = last_avg > 0 and abs(last_avg - prev_avg) <= (
        _THRESHOLDS["level_stability"] * last_avg
    )

    if (
        masses_stable
        and bg_ratio < _THRESHOLDS["background_over_top_peak"]
        and bg_frac < _THRESHOLDS["background_mass_fraction"]
    ):
        verdict = "singular-dominant"
    elif (
        not masses_stable
        and level_stable
        and bg_frac >= _THRESHOLDS["background_mass_fraction"]
    ):
        verdict = "AC-dominant"
    else:
        verdict = "mixed"

    return SingularityReport(
        rows=tuple(rows),
        verdict=verdict,
        masses_stable=masses_stable,
        background_ratio=bg_ratio,
        background_fraction=bg_frac,
        level_stable=level_stable,
    )
