"""Text formats for point sets and spectra, with atomic writes.

Points file: UTF-8; first line ``# d=<int> r0=<float> extent=<float>
label=<text>``; one point per following line, comma-separated coordinates in
shortest round-trip decimal, lexicographically sorted (the reader enforces
order and uniqueness).

Spectrum file: CSV with header ``lambda_1,..,lambda_d,re,im,power,L`` plus a
JSON sidecar (same path + ".json") carrying the grid axes and source
metadata.  Invalid nodes store nan.  The reader recomputes power from the
amplitudes and refuses files where the stored column disagrees.
"""

from __future__ import annotations

import json
import os
import re
import tempfile

import numpy as np

from .errors import (
    DuplicatePointError,
    EmptySpectrumError,
    FormatError,
)
from .pointset import PointSet
from .spectral import FrequencyGrid, Spectrum

__all__ = [
    "atomic_write_text",
    "read_points",
    "write_points",
    "read_spectrum",
    "write_spectrum",
    "sidecar_path",
]


def atomic_write_text(path: str, text: str) -> None:
    """Write the whole file or nothing: temp file in place, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _is_nan(v: float) -> bool:
    return v != v


# label is optional on read (an omitted label means ""); the writer always
# emits it.
_HEADER = re.compile(r"^# d=(\S+) r0=(\S+) extent=(\S+)(?: label=(.*))?$")


def write_points(path: str, x: PointSet) -> None:
    lines = [f"# d={x.dim} r0={x.sep_radius!r} extent={x.extent!r} label={x.label}"]
    # tolist() gives Python floats, whose repr is the shortest round-trip decimal
    lines.extend(",".join(map(repr, row)) for row in x.points.tolist())
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_points(path: str) -> PointSet:
    with open(path, "r", encoding="utf-8") as handle:
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
    rows = []
    for lineno, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != dim:
            raise FormatError(f"{path}:{lineno}: expected {dim} coordinates, got {len(parts)}")
        try:
            row = [float(p) for p in parts]
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: bad coordinate: {exc}") from exc
        if not np.isfinite(row).all():
            raise FormatError(f"{path}:{lineno}: non-finite coordinate in {line!r}")
        rows.append(row)
    pts = np.array(rows, dtype=np.float64).reshape(len(rows), dim)
    for i in range(1, len(pts)):
        a, b = pts[i - 1], pts[i]
        if tuple(a) == tuple(b):
            raise DuplicatePointError(f"{path}: duplicate point on line {i + 2}")
        if tuple(a) > tuple(b):
            raise FormatError(f"{path}: points not lexicographically sorted at line {i + 2}")
    return PointSet(dim, sep, extent, pts, label)


def sidecar_path(path: str) -> str:
    return path + ".json"


def write_spectrum(path: str, spec: Spectrum) -> None:
    d = spec.grid.dim
    header = ",".join([f"lambda_{i + 1}" for i in range(d)] + ["re", "im", "power", "L"])
    nodes = spec.grid.nodes()
    lines = [header]
    for i in range(len(nodes)):
        coords = [repr(float(v)) for v in nodes[i]]
        if spec.valid[i]:
            re_s = repr(float(spec.amplitude[i].real))
            im_s = repr(float(spec.amplitude[i].imag))
            pw_s = repr(float(spec.power[i]))
        else:
            re_s = im_s = pw_s = "nan"
        lines.append(",".join(coords + [re_s, im_s, pw_s, repr(float(spec.window_radius))]))
    atomic_write_text(path, "\n".join(lines) + "\n")
    sidecar = {
        "axes": [[lo, hi, step] for lo, hi, step in spec.grid.axes],
        "window_radius": spec.window_radius,
        "label": spec.label,
        "valid_count": int(spec.valid.sum()),
    }
    atomic_write_text(sidecar_path(path), json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def read_spectrum(path: str) -> Spectrum:
    side = sidecar_path(path)
    if not os.path.exists(side):
        raise FormatError(f"{path}: missing grid sidecar {side}")
    with open(side, "r", encoding="utf-8") as handle:
        try:
            meta = json.load(handle)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{side}: invalid JSON: {exc}") from exc
    try:
        grid = FrequencyGrid(axes=tuple(tuple(float(v) for v in axis) for axis in meta["axes"]))
        radius = float(meta["window_radius"])
        label = str(meta.get("label", ""))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{side}: bad metadata: {exc}") from exc
    with open(path, "r", encoding="utf-8") as handle:
        raw = handle.read().splitlines()
    if not raw:
        raise FormatError(f"{path}: empty file")
    d = grid.dim
    expected_header = ",".join([f"lambda_{i + 1}" for i in range(d)] + ["re", "im", "power", "L"])
    if raw[0] != expected_header:
        raise FormatError(f"{path}: unexpected header {raw[0]!r}")
    body = [line for line in raw[1:] if line.strip()]
    if not body:
        raise EmptySpectrumError(f"{path}: no spectrum rows")
    if len(body) != grid.node_count:
        raise FormatError(
            f"{path}: {len(body)} rows but the grid declares {grid.node_count} nodes"
        )
    nodes = grid.nodes()
    amp = np.empty(len(body), dtype=np.complex128)
    valid = np.empty(len(body), dtype=bool)
    for i, line in enumerate(body):
        parts = line.split(",")
        if len(parts) != d + 4:
            raise FormatError(f"{path}:{i + 2}: expected {d + 4} columns, got {len(parts)}")
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise FormatError(f"{path}:{i + 2}: bad number: {exc}") from exc
        if any(abs(vals[j] - nodes[i, j]) > 1e-15 * max(1.0, abs(nodes[i, j])) for j in range(d)):
            raise FormatError(f"{path}:{i + 2}: frequency row does not match the declared grid")
        if abs(vals[d + 3] - radius) > 1e-15 * max(1.0, radius):
            raise FormatError(f"{path}:{i + 2}: window radius differs from the sidecar")
        re_v, im_v, pw_v = vals[d], vals[d + 1], vals[d + 2]
        if _is_nan(re_v) or _is_nan(im_v) or _is_nan(pw_v):
            if not (_is_nan(re_v) and _is_nan(im_v) and _is_nan(pw_v)):
                raise FormatError(f"{path}:{i + 2}: partially-nan row")
            amp[i] = np.nan + 0j
            valid[i] = False
            continue
        expect = radius**d * (re_v * re_v + im_v * im_v)
        if abs(pw_v - expect) > 1e-9 * max(1.0, abs(expect)):
            raise FormatError(
                f"{path}:{i + 2}: stored power {pw_v!r} disagrees with recomputed {expect!r}"
            )
        amp[i] = complex(re_v, im_v)
        valid[i] = True
    return Spectrum(grid, radius, label, amp, valid)


