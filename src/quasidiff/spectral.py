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

Every phase argument t = <p, lambda> is the fixed-order column sum
p_0 lambda_0 + p_1 lambda_1 + ... of :func:`quasidiff.geometry._dot`, with
no BLAS product and no product of per-axis phases (in 1-d, one product).
Every exponential sum goes through one split of its phases,
:func:`_split`, of the table-driven method (Tang, "Table-driven
implementation of the exponential function in IEEE floating-point
arithmetic", ACM TOMS 1989), with no complex exponential; the kernel
:func:`_phases` takes t to e^(-2 pi i t) with it.  The phase is reduced mod
1 exactly, r = t - round(t), and split exactly as r = q / 1024 + b with q =
round(1024 r), so |b| <= 1/2048.  A table built once holds the 1,025 turns
E_q = e^(-2 pi i q / 1024), from ``np.exp`` but for the quarter and half
turns q = +-256 and +-512, which are the literals -i, i and -1; cos(2 pi b)
and sin(2 pi b) come from their Taylor polynomials of degree 6 and 5, exact
to rounding at |2 pi b| <= pi / 1024; and the phase is the table entry
times cos - i sin, within 1e-15 of e^(-2 pi i t).  An integer phase gives
exactly 1 however large it is, so lambda = 0 counts points exactly, and a
quarter-integer one gives exactly -i, -1 or i.  The split works in blocks
of 8,192 entries, whose temporaries stay in cache: on 8 x 100,000 phases
the kernel took 14 ms against the complex ``np.exp``'s 35 ms (x86-64 with
AVX-512, numpy 2.4), and unblocked it was slower than ``np.exp``.  A phase
that is not finite, a product past the float range, is refused in
:func:`_turns`, the one reduction that the split and the grid sums' kernel
taps share.

A sum needs no phase: sum_t e^(-2 pi i t) = sum_q E_q (N_q + C_q - i S_q),
where N_q counts the phases of entry q and C_q and S_q sum their
cos(2 pi b) - 1 and sin(2 pi b).  Sums at a free list of frequencies take
them with ``np.bincount``, three a block, and then one sum over the 1,025
entries in real arithmetic: at 8 frequencies over 100,001 perturbed
lattice points this took 13-14 ns a phase against 20 for forming the phases
and adding them up (x86-64 with AVX-512, numpy 2.4), and its largest error
against a long-double sum was 1.2e-16 n, as before.

Every grid is a tensor product of uniform axes, so its exponential sums
are a type-1 non-uniform FFT (Greengard & Lee, "Accelerating the nonuniform
fast Fourier transform", SIAM Review 2004).  On an axis of K nodes
lambda = lambda_c + m step, with m counted from the centre node c, so
e^(-2 pi i p lambda) is the weight e^(-2 pi i p lambda_c) times
e^(-2 pi i m t) with t = p step taken mod 1.  Each point's weight is spread
onto a uniform grid over one period, of at least 2K nodes (oversampling 2)
rounded up to a 5-smooth length, with a separable kernel of 16 taps, the
exponential of a semicircle (Barnett, Magland & af Klinteberg, SISC 2019);
one ``np.fft.fftn`` takes the grid to the modes, and each axis is divided
by the kernel's Fourier transform.  The cost is O(n 16^d + M log M) for n points and M nodes,
instead of the direct sum's n M, and the error stays at rounding level,
about 1e-14 n.  The centre node's weights, and the node nearest 0, which is
summed directly so that lambda = 0, when it is a node, counts the points
exactly, take one phase of the whole <p, lambda> per point.  The spreading
sums with ``np.bincount``, in input order, and pocketfft is not a BLAS, so
amplitudes are bit-identical run to run and for any BLAS kernel or thread
count.  Sums at a free list of frequencies (the noise-recovery trials) are
direct, one frequency at a time, binned by table entry as above, so memory
holds one row of phase arguments and the table budget bounds the work.
"""

from __future__ import annotations

import bisect
import itertools
import math
import reprlib
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySpectrumError, InvalidArgumentError
from .geometry import _dot, _power, _require_finite, _require_positive_finite, _require_radii
from .geometry import _numbers, _require_items, _require_type, require_extent, window_mask
from .geometry import _NODE_BUDGET, _SPREAD_BUDGET, _TABLE_BUDGET, _require_budget
from .pointset import PointSet

__all__ = [
    "FrequencyGrid",
    "Spectrum",
    "Peak",
    "PeakReport",
    "DiagnosticRow",
    "SingularityReport",
    "amplitude_spectrum",
    "analyze_peaks",
    "singularity_diagnostic",
]


@dataclass(frozen=True)
class FrequencyGrid:
    """Rectangular grid of frequencies: per-axis (min, max, step) triples."""

    axes: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        triples = _require_items(self.axes, "grid axes", "(min, max, step) triples", 3)
        axes = tuple(
            (_require_finite(lo, "grid axis min"), _require_finite(hi, "grid axis max"),
             _require_positive_finite(step, "grid step"))
            for lo, hi, step in triples
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
        mesh = np.meshgrid(*[self.axis_values(i) for i in range(self.dim)], indexing="ij")
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
        m = _require_type(self.grid, FrequencyGrid, "grid").node_count
        _require_type(self.label, str, "label")
        amp = _numbers(self.amplitude, "iufc")
        valid = np.ones(m, dtype=bool) if self.valid is None else _numbers(self.valid, "b")
        if amp is None or valid is None:
            raise InvalidArgumentError(
                f"a spectrum's amplitudes must be complex numbers and its valid mask bools, got "
                f"{reprlib.repr(self.amplitude)} and {reprlib.repr(self.valid)}"
            )
        amp, valid = amp.astype(np.complex128, copy=False).reshape(-1), valid.reshape(-1)
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


def _turns(t: np.ndarray) -> np.ndarray:
    """t - round(t), the phase t mod 1 in [-1/2, 1/2], exactly.  A t that is
    not finite, a product <p, lambda> past the float range, is refused."""
    if not np.isfinite(t).all():
        raise InvalidArgumentError(
            "a phase <p, lambda> is not finite: a coordinate times a frequency "
            "overflows the float range"
        )
    r = np.rint(t)  # np.round's own loop for 0 decimals, without its wrapper
    return np.subtract(t, r, out=r)


# the table of the split, E_q = e^(-2 pi i q / _TURNS) at q = -_TURNS / 2 .. _TURNS / 2
_TURNS = 1024
_TABLE = np.exp((-2j * np.pi / _TURNS) * np.arange(-_TURNS // 2, _TURNS // 2 + 1))
# the quarter and half turns as literals: np.exp leaves a 6.1e-17 real part
# at q = +-_TURNS / 4 and a 1.2e-16 imaginary part at +-_TURNS / 2, which a
# lattice at lambda = 1/4 or 1/2 would add up once a point
_TABLE[[0, _TURNS // 4, 3 * _TURNS // 4, _TURNS]] = [-1, 1j, complex(0, -1), -1]
# Taylor coefficients of cos(2 pi b) - 1 (b^2, b^4, b^6) and of sin(2 pi b)
# (b, b^3, b^5): at |b| <= 1 / (2 _TURNS) the next terms are below 1e-21
_COS = (-(2 * np.pi) ** 2 / 2, (2 * np.pi) ** 4 / 24, -(2 * np.pi) ** 6 / 720)
_SIN = (2 * np.pi, -(2 * np.pi) ** 3 / 6, (2 * np.pi) ** 5 / 120)
# entries per block, so that a block's temporaries stay in cache
_BLOCK = 8192


def _split(t: np.ndarray):
    """The flat phases ``t`` split a _BLOCK at a time (see the module
    docstring): yields each block's start, its table indices q + _TURNS / 2,
    and its cos(2 pi b) - 1 and sin(2 pi b)."""
    for s in range(0, len(t), _BLOCK):
        r = _turns(t[s:s + _BLOCK])
        # r = q / _TURNS + b exactly, |b| <= 1 / (2 _TURNS); each step is
        # done in an array of the block, and 1 / _TURNS is a power of two
        q = r * _TURNS
        np.rint(q, out=q)
        b = q * (1 / _TURNS)
        np.subtract(r, b, out=b)
        b2 = np.multiply(b, b, out=r)
        cos_m1 = b2 * _COS[2]
        cos_m1 += _COS[1]
        cos_m1 *= b2
        cos_m1 += _COS[0]
        cos_m1 *= b2
        sin = b2 * _SIN[2]
        sin += _SIN[1]
        sin *= b2
        sin += _SIN[0]
        sin *= b
        j = q.astype(np.intp)
        j += _TURNS // 2
        yield s, j, cos_m1, sin


def _phases(t: np.ndarray) -> np.ndarray:
    """e^(-2 pi i t) entrywise, by table and polynomial (see the module docstring)."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty(t.shape, dtype=np.complex128)
    res = out.reshape(-1)
    for s, j, cos_m1, sin in _split(t.reshape(-1)):
        e = _TABLE[j]
        res[s:s + _BLOCK] = e + e * (cos_m1 - 1j * sin)
    return out


# the gridding kernel: the exponential of a semicircle
# e^(beta (sqrt(1 - z^2) - 1)) on |z| <= 1, spread over _TAPS fine-grid steps;
# beta = 2.30 _TAPS suits oversampling 2 (Barnett, Magland & af Klinteberg)
_TAPS = 16
_BETA = 2.30 * _TAPS
_OVERSAMPLING = 2


def _kernel(z: np.ndarray) -> np.ndarray:
    """The kernel at each entry of ``z``, computed in z's own array."""
    np.multiply(z, z, out=z)
    np.subtract(1.0, z, out=z)
    np.sqrt(z, out=z)
    z -= 1.0
    z *= _BETA
    return np.exp(z, out=z)


# the kernel at half-step offsets j / 2, j = 0 .. _TAPS, in fine-grid steps
_HALF_STEPS = _kernel(np.arange(_TAPS + 1) / _TAPS)


def _kernel_transform(modes: np.ndarray, fine: int) -> np.ndarray:
    """The kernel's Fourier transform at each mode m of a ``fine``-node grid:
    the integral of phi(2x / _TAPS) e^(-2 pi i m x / fine) over x in fine
    steps, by the trapezoid rule at half steps.  The kernel falls to
    e^-beta ~ 1e-16 at its ends, so the rule is exact to rounding.  The
    transform is even in m, so it is evaluated once per |m|."""
    m = np.abs(modes)
    half = np.arange(m.max() + 1)
    out = np.full(len(half), 0.5 * _HALF_STEPS[0])
    for j in range(1, _TAPS + 1):
        out += _HALF_STEPS[j] * np.cos((np.pi * j / fine) * half)
    return out[m]


def _smooth(n: int) -> int:
    """The least 2^a 3^b 5^c >= n: pocketfft takes any other length through
    Bluestein's algorithm, several times slower and larger."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _taps(t: np.ndarray, fine: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices on a ``fine``-node grid over one period, and kernel weights,
    of the _TAPS nodes nearest each phase t (mod 1): two n x _TAPS arrays."""
    u = _turns(t) * fine
    base = np.floor(u)
    offsets = np.arange(1 - _TAPS // 2, 1 + _TAPS // 2)
    # each point's distance to its taps, within [-_TAPS / 2, _TAPS / 2]
    z = np.subtract(offsets, (u - base)[:, None])
    z /= _TAPS / 2
    # one modulo a point places its first tap; the others count up from it
    index = ((base.astype(np.int64) + offsets[0]) % fine)[:, None] + np.arange(_TAPS)
    over = index >= fine
    while over.any():  # a grid of fewer than _TAPS nodes wraps more than once
        np.subtract(index, fine, out=index, where=over)
        np.greater_equal(index, fine, out=over)
    return index, _kernel(z)


def _grid_sums(points: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """sum_p e^(-2 pi i <p, lambda>) at every node of the grid, in node order,
    by a type-1 non-uniform FFT (see the module docstring).

    Modes count grid steps from each axis's centre node, whose phases are
    the points' weights.  Each point is spread onto the fine grid one tap
    of every leading axis at a time, so at most n x _TAPS entries exist at
    once; the node nearest 0 is summed directly.
    """
    shape, n = grid.shape, len(points)
    if n == 0:
        return np.zeros(grid.node_count, dtype=np.complex128)
    centre = [(k - 1) // 2 for k in shape]
    # the modes span |m| <= k - 1 - c, at most a 1 / _OVERSAMPLING share of the fine grid
    fine = [_smooth(_OVERSAMPLING * (2 * (k - 1 - c) + 1)) for k, c in zip(shape, centre)]
    _require_budget(math.prod(fine) + (grid.dim + 1) * _TAPS * n, _SPREAD_BUDGET,
                    f"fine-grid nodes and kernel taps for {grid.node_count} nodes over "
                    f"{n} window points")
    strides = [math.prod(fine[i + 1:]) for i in range(grid.dim)]
    index, kernel = [], []
    for i, ((_, _, step), f, stride) in enumerate(zip(grid.axes, fine, strides)):
        j, w = _taps(_dot(points[:, i:i + 1], (step,)), f)
        index.append(j * stride)
        kernel.append(w)

    # e^(-2 pi i <p, lambda>) per point at the node of per-axis indices ``node``
    def node_phases(node):
        return _phases(_dot(points, [lo + step * k for (lo, _, step), k in zip(grid.axes, node)]))

    weights = node_phases(centre)
    spread = np.zeros(math.prod(fine), dtype=np.complex128)
    for lead in itertools.product(range(_TAPS), repeat=grid.dim - 1):
        j, w = index[-1], weights
        for i, t in enumerate(lead):
            j = j + index[i][:, t, None]
            w = w * kernel[i][:, t]
        # bincount adds in input order, on one thread
        j = j.ravel()
        for part, c in ((spread.real, w.real), (spread.imag, w.imag)):
            part += np.bincount(j, (c[:, None] * kernel[-1]).ravel(), minlength=len(spread))
    modes = [np.arange(k) - c for k, c in zip(shape, centre)]
    sums = np.fft.fftn(spread.reshape(fine))[np.ix_(*[m % f for m, f in zip(modes, fine)])]
    for i, (m, f) in enumerate(zip(modes, fine)):
        sums /= _kernel_transform(m, f).reshape([-1 if a == i else 1 for a in range(grid.dim)])
    # lambda = 0, when it is a node, gives the count exactly
    zero = tuple(round(min(max(-lo / step, 0.0), k - 1))
                 for (lo, _, step), k in zip(grid.axes, shape))
    sums[zero] = node_phases(zero).sum()
    return sums.ravel()


def _free_sums(points: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """sum_p e^(-2 pi i <p, lambda>) at each row of ``lams``, one row at a
    time and binned by table entry, so no phase is formed (see the module
    docstring): the table budget bounds the work, and memory holds one row."""
    _require_budget(len(lams) * len(points), _TABLE_BUDGET, "free-frequency phase-table entries")
    sums = np.empty(len(lams), dtype=np.complex128)
    bins = len(_TABLE)
    for k, lam in enumerate(lams):
        # per table entry q: N_q, C_q and S_q of the module docstring
        count = np.zeros(bins, dtype=np.intp)
        cos_m1, sin = np.zeros(bins), np.zeros(bins)
        for _, j, c, s in _split(_dot(points, lam)):
            count += np.bincount(j, minlength=bins)
            cos_m1 += np.bincount(j, c, bins)
            sin += np.bincount(j, s, bins)
        # sum_q E_q (N_q + C_q - i S_q), in real arithmetic
        cos = count + cos_m1
        sums[k] = complex(np.sum(_TABLE.real * cos + _TABLE.imag * sin),
                          np.sum(_TABLE.imag * cos - _TABLE.real * sin))
    return sums


def amplitude_spectrum(x: PointSet, radius: float, grid: FrequencyGrid) -> Spectrum:
    """Normalized transform on the window: exp-sum / radius^dim per node."""
    if _require_type(grid, FrequencyGrid, "grid").dim != _require_type(x, PointSet, "x").dim:
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
    if _require_type(spec, Spectrum, "spec").grid.dim != 1:
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

    acc = np.array(accepted, dtype=np.intp)
    pm, p0, pp = power[acc - 1], power[acc], power[acc + 1]
    denom = pm - 2.0 * p0 + pp
    symmetric = (denom == 0) | (np.abs(pm - pp) <= 1e-12 * p0)
    offset = np.where(symmetric, 0.0, 0.5 * (pm - pp) / np.where(symmetric, 1.0, denom))
    loc = freqs[acc] + offset * step
    lo, hi = loc - width / 2, loc + width / 2
    # freqs is sorted, so the nodes in [lo, hi] are one slice [a, b)
    a, b = np.searchsorted(freqs, lo, side="left"), np.searchsorted(freqs, hi, side="right")
    # np.trapezoid over each slice: its pairwise sum depends only on the
    # length, so the rows of one length are summed together, to the same bits
    length = b - a
    mass = np.zeros(len(acc))
    for n in np.unique(length[length >= 2]):
        rows = np.flatnonzero(length == n)
        nodes = a[rows, None] + np.arange(n)
        y = power[nodes]
        mass[rows] = (np.diff(freqs[nodes], axis=1) * (y[:, 1:] + y[:, :-1]) / 2.0).sum(axis=1)
    covered = np.cumsum(np.bincount(a, minlength=len(freqs) + 1)
                        - np.bincount(b, minlength=len(freqs) + 1))
    outside = covered[:-1] == 0
    order = np.argsort(loc, kind="stable")
    peaks = tuple(Peak(*v) for v in zip(freqs[acc][order].tolist(), loc[order].tolist(),
                                        p0[order].tolist(), mass[order].tolist()))
    boxes = tuple(zip(lo[order].tolist(), hi[order].tolist()))

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
    _require_type(x, PointSet, "x")
    if _require_type(grid, FrequencyGrid, "grid").dim != 1:
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
