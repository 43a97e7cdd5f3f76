import math
import re

import numpy as np
import pytest

from saddlesim import svgplot
from saddlesim.svgplot import (
    HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, PALETTE, WIDTH, Series, _fmt, _ticks,
)


def line_plot_reference(series, title, xlabel, ylabel):
    """The point-by-point renderer that the array version replaced; the
    oracle for byte-identical output."""
    pts = [(float(x), float(y)) for s in series for x, y in zip(s.x, s.y)
           if math.isfinite(float(x)) and math.isfinite(float(y))]
    if pts:
        xlo = min(p[0] for p in pts)
        xhi = max(p[0] for p in pts)
        ylo = min(p[1] for p in pts)
        yhi = max(p[1] for p in pts)
    else:
        xlo, xhi, ylo, yhi = 0.0, 1.0, 0.0, 1.0
    if xhi - xlo <= 0:
        xhi = xlo + 1.0
    if yhi - ylo <= 0:
        yhi = ylo + 1.0
    pad = 0.04 * (yhi - ylo)
    ylo -= pad
    yhi += pad

    iw = WIDTH - MARGIN_L - MARGIN_R
    ih = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - xlo) / (xhi - xlo) * iw

    def sy(y):
        return MARGIN_T + (yhi - y) / (yhi - ylo) * ih

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="28" text-anchor="middle" '
        f'style="font:bold 18px sans-serif">{title}</text>',
    ]
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

    for idx, s in enumerate(series):
        color = s.color or PALETTE[idx % len(PALETTE)]
        coords = " ".join(
            f"{sx(float(x)):.2f},{sy(float(y)):.2f}"
            for x, y in zip(s.x, s.y)
            if math.isfinite(float(x)) and math.isfinite(float(y))
        )
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


_inf, _nan = float("inf"), float("nan")
_t = np.linspace(0.0, 1.0, 101)
# On [0, 3], x = k/2304 puts 72 + x/3*864 within a rounding error of k/8, a
# tie of the 2-decimal format, so an arithmetic order other than the
# reference's changes some of the printed coordinates.
_ties = np.concatenate([[0.0], np.arange(1, 6912) / 2304, [3.0]])

CASES = {
    "nan": [([0.0, 0.5, _nan, 1.0], [1.0, _nan, 2.0, 3.0])],
    "inf": [([0.0, _inf, 0.5, 1.0], [-_inf, 1.0, 2.0, _inf]), ([-_inf, 0.2], [0.3, 0.4])],
    "negative_zero": [([-0.0, 0.0, 1.0], [0.0, -0.0, -1.0]), ([-0.0, -0.0], [-0.0, 0.0])],
    "all_negative_zero": [([-0.0, -0.0], [-0.0, -0.0])],
    "single_point": [([0.25], [-3.5])],
    "constant": [(_t, np.full_like(_t, 0.7)), (_t, np.full_like(_t, 0.7))],
    "empty": [([], [])],
    "empty_and_finite": [([], []), (_t, np.sin(7 * _t) * 1e-4)],
    "all_non_finite": [([_nan, _inf], [0.0, 1.0])],
    "rounding_ties": [(_ties, _ties)],
    "wide_range": [(_t * 1e5, np.exp(12 * _t)), (_t * 1e5, -np.exp(10 * _t))],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_line_plot_matches_point_by_point_renderer(name):
    arrays = [Series(x=np.asarray(x, dtype=float), y=np.asarray(y, dtype=float),
                     label=f"s{i}" if i else "") for i, (x, y) in enumerate(CASES[name])]
    lists = [Series(x=list(s.x), y=list(s.y), label=s.label) for s in arrays]
    expected = line_plot_reference(lists, "title", "t", "y")
    assert svgplot.line_plot(arrays, "title", "t", "y") == expected
    assert svgplot.line_plot(lists, "title", "t", "y") == expected


def ticks_before(lo, hi):
    """The tick loop before it was bounded, verbatim: the oracle for every
    range it finishes on."""
    if hi <= lo:
        hi = lo + 1.0
    step = svgplot._nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * max(1.0, abs(hi)):
        out.append(0.0 if abs(v) < step * 1e-9 else v)
        v += step
    return out


def test_ticks_match_the_unbounded_loop_on_ordinary_ranges():
    rng = np.random.default_rng(8)
    cases = [(v, v) for v in (0.0, -0.0, 0.25, -3.5, 123456.0, 1e9, -1e9)]
    cases += [(1.0, 0.5), (-2.0, -7.0)]
    # Magnitudes 1e-12 to 1e15 and widths of at least 1e-10, absolute and
    # relative to the magnitude.  Narrower ranges are not ordinary: the old
    # loop's tolerance of 1e-12 (times the magnitude, if above 1) spans many
    # steps there and draws ticks far past hi, or never ends.
    for e in range(-12, 16):
        for w in range(max(-10, e - 9), e + 5):
            for sign in (-1.0, 1.0):
                lo = sign * rng.uniform(1.0, 10.0) * 10.0**e
                cases.append((lo, lo + rng.uniform(1.0, 10.0) * 10.0**w))
    for lo, hi in cases:
        assert _ticks(lo, hi) == ticks_before(lo, hi), (lo, hi)


@pytest.mark.parametrize("lo, hi", [(1e20, 1e20), (1e20, np.nextafter(1e20, 2e20)),
                                    (-3e300, -3e300), (2.0**53, 2.0**53), (0.0, 1e-14)])
def test_ticks_end_below_float_resolution(lo, hi):
    # The old loop never ends here (step is below half an ulp of lo), and
    # on [0, 1e-14] it drew some 500 ticks past hi.
    ticks = _ticks(lo, hi)
    assert 2 <= len(ticks) <= 10
    assert ticks == sorted(set(ticks)) and ticks[0] >= lo


def test_constant_series_at_1e20_gives_a_finite_svg():
    svg = svgplot.line_plot([Series(x=[0.0, 1.0], y=[1e20, 1e20], label="c")], "t", "x", "y")
    assert "nan" not in svg and "inf" not in svg
    numbers = [float(v) for v in re.findall(r'[-+]?\d+\.\d+', svg)]
    assert numbers and all(math.isfinite(v) for v in numbers)
    assert svg.count("<polyline") == 1


@pytest.mark.parametrize("x, y, y_ticks", [([0.0, 1.0], [-1e308, 1e308], 5),
                                           ([-1.7e308, 1.79e308], [-1.79e308, 1.79e308], 7)])
def test_spans_past_the_largest_float_give_a_finite_svg(x, y, y_ticks):
    # hi - lo overflows to inf on these axes; ticks and pixel coordinates
    # come from half spans instead.
    svg = svgplot.line_plot([Series(x=x, y=y)], "t", "x", "y")
    assert "nan" not in svg and "inf" not in svg
    numbers = [float(v) for v in re.findall(r'[-+]?\d+\.\d+', svg)]
    assert numbers and all(math.isfinite(v) for v in numbers)
    # One grid line per y tick: -1e308 to 1e308 by 5e307 on the padded range
    # of +-1.08e308, and up to +-1.5e308 where the padding is clamped.
    assert svg.count('x2="936"') == y_ticks


def test_regret_chain_figures_match_point_by_point_renderer():
    # The benchmark's regret-chain run (seed 1, T = 0.25, black-sheep saddle,
    # every one of its 2,501 nodes stored): its fit and multiplier figures
    # are byte-identical to the point-by-point renderer's.
    from saddlesim import shepherd
    from saddlesim.dynamics import ControllerConfig, simulate

    sc = shepherd.generate_sheep_paths(seed=1, T=0.25)
    log = simulate(shepherd.shepherd_env(sc, "black_sheep"),
                   ControllerConfig(epsilon=50.0, h=1e-4, mode="saddle"),
                   T=sc.T, X=sc.action_set(), sample_stride=1)
    assert log.t.shape == (2501,)
    for name, values in (("fit", log.fit_accum), ("lambda", log.lam)):
        series = [Series(x=log.t, y=values[:, i], label=f"{name}_{i}") for i in range(sc.m)]
        expected = line_plot_reference(series, name, "t", name)
        assert svgplot.line_plot(series, name, "t", name) == expected
