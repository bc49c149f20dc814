"""Self-contained deterministic SVG plots (line, scatter).

Output bytes are a pure function of the inputs: numbers are formatted with
'%.6g', the palette is fixed, and nothing (timestamps, ids, library
versions) else enters the file, so re-plotting identical data yields an
identical file.  The provenance hash of the producing configuration is
embedded in a <metadata> element.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidArgumentError
from .io import atomic_write_text

__all__ = ["Table", "plot_emit"]

_PALETTE = ("#1b6ca8", "#c8552d", "#3d8c40", "#7b4ba2", "#a8861b", "#555555")
_WIDTH = 640.0
_HEIGHT = 400.0
_MARGIN_L = 62.0
_MARGIN_R = 14.0
_MARGIN_T = 34.0
_MARGIN_B = 44.0


@dataclass(frozen=True)
class Table:
    """Column-named numeric table feeding one plot."""

    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.columns:
            raise InvalidArgumentError("a table needs at least one column")
        if not self.rows:
            raise InvalidArgumentError("a table needs at least one row")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise InvalidArgumentError("ragged table row")

    def column(self, i: int) -> list[float]:
        return [float(r[i]) for r in self.rows]


def _fmt(v: float) -> str:
    return format(float(v), ".6g")


def _span(values) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if hi <= lo:
        pad = max(abs(lo), 1.0) * 0.5
        return lo - pad, hi + pad
    return lo, hi


class _Scale:
    def __init__(self, lo: float, hi: float, out_lo: float, out_hi: float):
        self.lo, self.hi, self.out_lo, self.out_hi = lo, hi, out_lo, out_hi

    def __call__(self, v: float) -> float:
        t = (v - self.lo) / (self.hi - self.lo)
        return self.out_lo + t * (self.out_hi - self.out_lo)


def _axes(xs: _Scale, ys: _Scale, xlabel: str, ylabel: str) -> list[str]:
    x0, x1 = xs.out_lo, xs.out_hi
    y0, y1 = ys.out_lo, ys.out_hi  # y0 is the bottom (larger svg y)
    parts = [
        f'<rect x="{_fmt(x0)}" y="{_fmt(y1)}" width="{_fmt(x1 - x0)}" '
        f'height="{_fmt(y0 - y1)}" fill="none" stroke="#222" stroke-width="1"/>'
    ]
    for v, anchor_x in ((xs.lo, x0), (xs.hi, x1)):
        parts.append(
            f'<text x="{_fmt(anchor_x)}" y="{_fmt(y0 + 16)}" font-size="11" '
            f'text-anchor="middle" fill="#222">{_fmt(v)}</text>'
        )
    for v, anchor_y in ((ys.lo, y0), (ys.hi, y1)):
        parts.append(
            f'<text x="{_fmt(x0 - 6)}" y="{_fmt(anchor_y + 4)}" font-size="11" '
            f'text-anchor="end" fill="#222">{_fmt(v)}</text>'
        )
    parts.append(
        f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(y0 + 32)}" font-size="12" '
        f'text-anchor="middle" fill="#222">{_escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="14" y="{_fmt((y0 + y1) / 2)}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {_fmt((y0 + y1) / 2)})" fill="#222">{_escape(ylabel)}</text>'
    )
    return parts


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def plot_emit(
    table: Table,
    kind: str,
    path: str,
    title: str = "",
    config_hash: str = "",
) -> None:
    """Write one standalone SVG; byte-identical for identical arguments."""
    if kind not in ("line", "scatter"):
        raise InvalidArgumentError(f"unknown plot kind {kind!r}")
    if len(table.columns) < 2:
        raise InvalidArgumentError(f"{kind} plots need an x column and a y column")

    body: list[str] = []
    xs_vals = table.column(0)
    x_lo, x_hi = _span(xs_vals)
    y_lo, y_hi = _span([v for i in range(1, len(table.columns)) for v in table.column(i)])
    xs = _Scale(x_lo, x_hi, _MARGIN_L, _WIDTH - _MARGIN_R)
    ys = _Scale(y_lo, y_hi, _HEIGHT - _MARGIN_B, _MARGIN_T)

    if kind == "line":
        for ci in range(1, len(table.columns)):
            pts = " ".join(
                f"{_fmt(xs(x))},{_fmt(ys(y))}" for x, y in zip(xs_vals, table.column(ci))
            )
            color = _PALETTE[(ci - 1) % len(_PALETTE)]
            body.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
            body.append(
                f'<text x="{_fmt(_WIDTH - _MARGIN_R)}" y="{_fmt(_MARGIN_T + 14 * ci)}" '
                f'font-size="11" text-anchor="end" fill="{color}">'
                f"{_escape(table.columns[ci])}</text>"
            )
    else:
        for x, y in zip(xs_vals, table.column(1)):
            body.append(
                f'<circle cx="{_fmt(xs(x))}" cy="{_fmt(ys(y))}" r="2.2" '
                f'fill="{_PALETTE[0]}"/>'
            )

    ylabel = "value" if kind == "line" and len(table.columns) > 2 else table.columns[1]
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" '
        f'viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">',
        f"<metadata>config-hash:{_escape(config_hash)}</metadata>",
        f'<rect x="0" y="0" width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" fill="#ffffff"/>',
        f'<text x="{_fmt(_WIDTH / 2)}" y="20" font-size="14" text-anchor="middle" '
        f'fill="#111">{_escape(title)}</text>',
        *_axes(xs, ys, table.columns[0], ylabel),
        *body,
        "</svg>",
    ]
    atomic_write_text(path, "\n".join(parts) + "\n")
