"""Text formats for point sets and spectra, with atomic writes.

Points file: UTF-8; first line ``# d=<int> r0=<float> extent=<float>
label=<text>``; one point per following line, comma-separated coordinates in
shortest round-trip decimal, lexicographically sorted (the reader enforces
order and uniqueness).

Spectrum file: CSV with header ``lambda_1,..,lambda_d,re,im,power,L`` plus a
JSON sidecar (same path + ".json") carrying the grid axes and source
metadata.  Invalid nodes store nan.  The reader rebuilds the ``Spectrum``,
which derives the power from the amplitudes, and refuses files where the
stored column disagrees.

Every row of both files, and of the command line's autocorrelation CSV, goes
through one row codec: ``_format_rows`` writes the columns as Python float
reprs, and ``_parse_rows`` casts all rows at once.  Blank lines are skipped,
and every error names ``path:line``, the file line of the first bad row.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import tempfile

import numpy as np

from .errors import (
    DuplicatePointError,
    EmptySpectrumError,
    FormatError,
    QuasidiffError,
)
from .geometry import _require_positive_finite, _require_type, lex_order_faults
from .pointset import PointSet
from .spectral import FrequencyGrid, Spectrum

__all__ = [
    "atomic_write_text",
    "read_points",
    "write_points",
    "read_spectrum",
    "write_spectrum",
]


def _require_path(path):
    """``path`` itself if it is a str or path-like object, else refused."""
    return _require_type(path, (str, os.PathLike), "path")


def atomic_write_text(path: str, text: str) -> None:
    """Write the whole file or nothing: temp file in place, then rename."""
    directory = os.path.dirname(os.path.abspath(_require_path(path)))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# label is optional on read (an omitted label means ""); the writer always
# emits it.
_HEADER = re.compile(r"^# d=(\S+) r0=(\S+) extent=(\S+)(?: label=(.*))?$")


def _rows(*columns) -> list[list[float]]:
    """The rows of the stacked columns, as Python floats."""
    return np.column_stack(columns).tolist()


def _format_rows(header: str, *columns) -> str:
    """The header, then the rows as comma-separated float reprs: shortest
    round-trip decimals, and ``nan`` for a missing value.  ``repr`` maps
    the flattened values once, and each row joins the next d of them."""
    table = np.column_stack(columns)
    values = map(repr, table.ravel().tolist())
    lines = map(",".join, zip(*[values] * table.shape[1]))
    return "\n".join(itertools.chain([header], lines)) + "\n"


def _parse_rows(path: str, lines: list[str], width: int, columns: str, cell: str):
    """The non-blank ``lines`` (file lines 2 on) as an (n, width) array, and
    the file line of each row.  numpy's str cast is Python's ``float``, so
    only the error path, which finds the bad number's line, loops."""
    keep = list(map(bool, map(str.strip, lines)))
    body = list(itertools.compress(lines, keep))
    linenos = np.flatnonzero(keep) + 2
    counts = np.fromiter(map(str.count, body, itertools.repeat(",")), np.intp, len(body)) + 1
    k = _first(counts != width)
    if k is not None:
        raise FormatError(f"{path}:{linenos[k]}: expected {width} {columns}, got {counts[k]}")
    try:
        values = np.array(",".join(body).split(",") if body else [], dtype=np.float64)
    except ValueError:
        for lineno, line in zip(linenos, body):
            try:
                list(map(float, line.split(",")))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: bad {cell}: {exc}") from exc
        raise
    return values.reshape(len(body), width), linenos


def _first(mask: np.ndarray) -> int | None:
    return int(np.argmax(mask)) if mask.any() else None


def write_points(path: str, x: PointSet) -> None:
    _require_type(x, PointSet, "x")
    header = f"# d={x.dim} r0={x.sep_radius!r} extent={x.extent!r} label={x.label}"
    atomic_write_text(path, _format_rows(header, x.points))


def read_points(path: str) -> PointSet:
    with open(_require_path(path), "r", encoding="utf-8") as handle:
        raw = handle.read().splitlines()
    if not raw:
        raise FormatError(f"{path}: empty file")
    match = _HEADER.match(raw[0])
    if match is None:
        raise FormatError(f"{path}: malformed header line {raw[0]!r}")
    try:
        dim = int(match.group(1))
        sep = float(match.group(2))
        extent = float(match.group(3))
    except ValueError as exc:
        raise FormatError(f"{path}: non-numeric header field: {exc}") from exc
    if dim < 1:
        raise FormatError(f"{path}: header dimension d={dim} is below 1")
    label = match.group(4) or ""
    pts, linenos = _parse_rows(path, raw[1:], dim, "coordinates", "coordinate")
    try:
        return PointSet(dim, sep, extent, pts, label)
    except QuasidiffError as exc:
        refused = exc
    # the set checks finiteness and order itself; only once it refuses are
    # they checked again here, to name the file line of the fault
    k = _first(~np.isfinite(pts).all(axis=1))
    if k is not None:
        raise FormatError(f"{path}:{linenos[k]}: non-finite coordinate in {raw[linenos[k] - 1]!r}")
    inverted, duplicated = lex_order_faults(pts)
    if duplicated is not None and (inverted is None or duplicated < inverted):
        raise DuplicatePointError(f"{path}: duplicate point on line {linenos[duplicated]}")
    if inverted is not None:
        raise FormatError(
            f"{path}: points not lexicographically sorted at line {linenos[inverted]}"
        )
    raise refused


def _sidecar_path(path: str) -> str:
    return os.fspath(path) + ".json"


def _spectrum_header(d: int) -> str:
    return ",".join([f"lambda_{i + 1}" for i in range(d)] + ["re", "im", "power", "L"])


def write_spectrum(path: str, spec: Spectrum) -> None:
    nodes = _require_type(spec, Spectrum, "spec").grid.nodes()
    # an invalid node's power is nan already; its amplitude is blanked here
    parts = np.where(spec.valid, [spec.amplitude.real, spec.amplitude.imag], np.nan)
    radius = np.full(len(nodes), float(spec.window_radius))
    text = _format_rows(_spectrum_header(spec.grid.dim), nodes, *parts, spec.power, radius)
    atomic_write_text(path, text)
    sidecar = {
        "axes": [[lo, hi, step] for lo, hi, step in spec.grid.axes],
        "window_radius": spec.window_radius,
        "label": spec.label,
        "valid_count": int(spec.valid.sum()),
    }
    atomic_write_text(_sidecar_path(path), json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def read_spectrum(path: str) -> Spectrum:
    side = _sidecar_path(_require_path(path))
    if not os.path.exists(side):
        raise FormatError(f"{path}: missing grid sidecar {side}")
    with open(side, "r", encoding="utf-8") as handle:
        try:
            meta = json.load(handle)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{side}: invalid JSON: {exc}") from exc
    try:
        grid = FrequencyGrid(axes=meta["axes"])
        radius = _require_positive_finite(meta["window_radius"], "window_radius")
        label = str(meta.get("label", ""))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{side}: bad metadata: {exc}") from exc
    with open(path, "r", encoding="utf-8") as handle:
        raw = handle.read().splitlines()
    if not raw:
        raise FormatError(f"{path}: empty file")
    d = grid.dim
    if raw[0] != _spectrum_header(d):
        raise FormatError(f"{path}: unexpected header {raw[0]!r}")
    vals, linenos = _parse_rows(path, raw[1:], d + 4, "columns", "number")
    if not len(vals):
        raise EmptySpectrumError(f"{path}: no spectrum rows")
    if len(vals) != grid.node_count:
        raise FormatError(
            f"{path}: {len(vals)} rows but the grid declares {grid.node_count} nodes"
        )
    nodes = grid.nodes()
    real, imag, power, radii = vals[:, d:].T
    blank = np.isnan(vals[:, d : d + 3])
    valid = ~blank[:, 0]
    # a nan value fails every comparison, so it is never reported as a mismatch
    off_grid = (np.abs(vals[:, :d] - nodes) > 1e-15 * np.maximum(1.0, np.abs(nodes))).any(axis=1)
    off_radius = np.abs(radii - radius) > 1e-15 * max(1.0, radius)
    for bad, what in (
        (off_grid, "frequency row does not match the declared grid"),
        (off_radius, "window radius differs from the sidecar"),
        (blank.any(axis=1) & ~blank.all(axis=1), "partially-nan row"),
    ):
        k = _first(bad)
        if k is not None:
            raise FormatError(f"{path}:{linenos[k]}: {what}")
    amp = np.empty(len(vals), dtype=np.complex128)
    amp.real, amp.imag = real, np.where(valid, imag, 0.0)
    spec = Spectrum(grid, radius, label, amp, valid)
    k = _first(np.abs(power - spec.power) > 1e-9 * np.maximum(1.0, np.abs(spec.power)))
    if k is not None:
        raise FormatError(
            f"{path}:{linenos[k]}: stored power {float(power[k])!r} disagrees with recomputed "
            f"{float(spec.power[k])!r}"
        )
    return spec
