"""Minimal self-contained SVG line plots for the report command.

No plotting dependency: each figure is a single SVG document with inline
styling, a fixed 960x600 viewBox, and 1-2-5 decade tick placement on both
axes.  Output is deterministic for identical inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

WIDTH, HEIGHT = 960, 600
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 48, 56

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2",
)


@dataclass
class Series:
    x: np.ndarray | list
    y: np.ndarray | list
    label: str = ""
    color: str = ""


def _nice_step(span: float, target: int = 8) -> float:
    """Tick spacing of the form {1, 2, 5} * 10^k giving <= target intervals."""
    if span <= 0.0 or not math.isfinite(span):
        return 1.0
    raw = span / target
    k = math.floor(math.log10(raw))
    base = raw / 10**k
    for mult in (1.0, 2.0, 5.0):
        if base <= mult:
            return mult * 10**k
    return 10.0 ** (k + 1)


def _half_span(lo: float, hi: float) -> float:
    """Half of hi - lo, taken from the halves so that it stays finite for any
    finite lo and hi (hi - lo itself overflows past about 1.8e308).  Halving
    a normal float is exact, so this is exactly half the rounded difference;
    ratios of half spans are the ratios of the spans, bit for bit."""
    return 0.5 * hi - 0.5 * lo


def _widen(lo: float, hi: float) -> float:
    """Upper end of the axis range [lo, hi]: hi itself, or, when the range
    holds fewer than 1024 floats, lo plus 1 or plus 1e-9 of |lo|, whichever is
    larger (lo + 1 == lo from |lo| = 2**53 on)."""
    if hi - lo >= 1024 * math.ulp(max(abs(lo), abs(hi))):
        return hi
    return lo + max(1.0, 1e-9 * abs(lo))


def _ticks(lo: float, hi: float) -> list[float]:
    hi = _widen(lo, hi)
    step = _nice_step(_half_span(lo, hi), target=4)  # 8 intervals per span
    first = math.ceil(lo / step) * step
    limit = min(hi + 1e-12 * max(1.0, abs(hi)), sys.float_info.max)
    out = []
    v = first
    # At most the ticks that fit in [first, hi] plus one that rounding may
    # leave just past hi: v += step stands still once step is below half an
    # ulp of v, and limit lies many steps past hi on a range narrower than
    # about 1e-11 (times |hi| above 1).
    for _ in range(int(_half_span(first, hi) / (0.5 * step)) + 2):
        if v > limit:
            break
        out.append(0.0 if abs(v) < step * 1e-9 else v)
        v += step
    return out


def _fmt(v: float) -> str:
    if v == 0.0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:.6g}"


def line_plot(series: list[Series], title: str, xlabel: str, ylabel: str) -> str:
    """Render series as an SVG document string.

    Points where x or y is not finite are dropped from both the extents and
    the polylines.
    """
    finite = []
    for s in series:
        x = np.asarray(s.x, dtype=float)
        y = np.asarray(s.y, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        finite.append((x[keep], y[keep]))
    xs = np.concatenate([np.empty(0), *(x for x, _ in finite)])
    ys = np.concatenate([np.empty(0), *(y for _, y in finite)])
    if xs.size:
        xlo, xhi = float(xs.min()), float(xs.max())
        ylo, yhi = float(ys.min()), float(ys.max())
    else:
        xlo, xhi, ylo, yhi = 0.0, 1.0, 0.0, 1.0
    xhi = _widen(xlo, xhi)
    yhi = _widen(ylo, yhi)
    pad = 0.08 * _half_span(ylo, yhi)
    ylo = max(ylo - pad, -sys.float_info.max)
    yhi = min(yhi + pad, sys.float_info.max)
    xhalf, yhalf = _half_span(xlo, xhi), _half_span(ylo, yhi)

    iw = WIDTH - MARGIN_L - MARGIN_R
    ih = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + _half_span(xlo, x) / xhalf * iw

    def sy(y):
        return MARGIN_T + _half_span(y, yhi) / yhalf * ih

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="28" text-anchor="middle" '
        f'style="font:bold 18px sans-serif">{title}</text>',
    ]
    # axes frame
    out.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{iw}" height="{ih}" '
        f'fill="none" stroke="#333" stroke-width="1"/>'
    )
    for tx in _ticks(xlo, xhi):
        px = sx(tx)
        out.append(f'<line x1="{px:.1f}" y1="{MARGIN_T}" x2="{px:.1f}" '
                   f'y2="{MARGIN_T + ih}" stroke="#ddd" stroke-width="1"/>')
        out.append(f'<text x="{px:.1f}" y="{MARGIN_T + ih + 18}" text-anchor="middle" '
                   f'style="font:12px sans-serif">{_fmt(tx)}</text>')
    for ty in _ticks(ylo, yhi):
        py = sy(ty)
        out.append(f'<line x1="{MARGIN_L}" y1="{py:.1f}" x2="{MARGIN_L + iw}" '
                   f'y2="{py:.1f}" stroke="#ddd" stroke-width="1"/>')
        out.append(f'<text x="{MARGIN_L - 6}" y="{py + 4:.1f}" text-anchor="end" '
                   f'style="font:12px sans-serif">{_fmt(ty)}</text>')
    out.append(f'<text x="{MARGIN_L + iw / 2}" y="{HEIGHT - 12}" text-anchor="middle" '
               f'style="font:14px sans-serif">{xlabel}</text>')
    out.append(f'<text x="18" y="{MARGIN_T + ih / 2}" text-anchor="middle" '
               f'style="font:14px sans-serif" '
               f'transform="rotate(-90 18 {MARGIN_T + ih / 2})">{ylabel}</text>')

    for idx, (s, (x, y)) in enumerate(zip(series, finite)):
        color = s.color or PALETTE[idx % len(PALETTE)]
        coords = ("%.2f,%.2f " * x.size % tuple(np.c_[sx(x), sy(y)].ravel().tolist()))[:-1]
        if coords:
            out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                       f'stroke-width="1.5"/>')
        if s.label:
            ly = MARGIN_T + 16 + 18 * idx
            out.append(f'<line x1="{MARGIN_L + iw - 150}" y1="{ly - 4}" '
                       f'x2="{MARGIN_L + iw - 120}" y2="{ly - 4}" stroke="{color}" '
                       f'stroke-width="2"/>')
            out.append(f'<text x="{MARGIN_L + iw - 114}" y="{ly}" '
                       f'style="font:12px sans-serif">{s.label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_plot(path, series: list[Series], title: str, xlabel: str, ylabel: str) -> None:
    with open(path, "w") as fh:
        fh.write(line_plot(series, title, xlabel, ylabel))
