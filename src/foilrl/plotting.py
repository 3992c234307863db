"""Minimal deterministic SVG emitters for reward curves and scatters.

No plotting dependency: the CSV outputs are the primary artifact and
these are convenience views of them.
"""
from __future__ import annotations

from pathlib import Path
from typing import Callable

import numpy as np

_W, _H = 640, 420
_MARGIN = 50
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]


def _scale(values, lo, hi, out_lo, out_hi):
    if hi == lo:
        hi = lo + 1.0
    return out_lo + (values - lo) / (hi - lo) * (out_hi - out_lo)


def _write_svg(path: str | Path, groups: dict[str, tuple[np.ndarray, np.ndarray]],
               title: str, xlabel: str, ylabel: str,
               draw: Callable[[np.ndarray, np.ndarray, str], list[str]]) -> None:
    """Axes, shared bounds and legend; `draw(px, py, color)` returns one group's marks.

    Points whose y is not finite are left out; the x range still covers them.
    """
    data = [(name, np.asarray(x, float), np.asarray(y, float)) for name, (x, y) in groups.items()]
    xs_all = np.concatenate([x for _, x, _ in data])
    ys_all = np.concatenate([y for _, _, y in data])
    ys_all = ys_all[np.isfinite(ys_all)]
    xlo, xhi = float(xs_all.min()), float(xs_all.max())
    ylo, yhi = float(ys_all.min()), float(ys_all.max())
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W/2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{_MARGIN}" y1="{_H-_MARGIN}" x2="{_W-_MARGIN}" y2="{_H-_MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{_H-_MARGIN}" stroke="black"/>',
        f'<text x="{_W/2}" y="{_H-12}" text-anchor="middle">{xlabel}</text>',
        f'<text x="14" y="{_H/2}" text-anchor="middle" transform="rotate(-90 14 {_H/2})">{ylabel}</text>',
        f'<text x="{_MARGIN}" y="{_H-_MARGIN+16}" text-anchor="middle">{xlo:.3g}</text>',
        f'<text x="{_W-_MARGIN}" y="{_H-_MARGIN+16}" text-anchor="middle">{xhi:.3g}</text>',
        f'<text x="{_MARGIN-6}" y="{_H-_MARGIN}" text-anchor="end">{ylo:.3g}</text>',
        f'<text x="{_MARGIN-6}" y="{_MARGIN+4}" text-anchor="end">{yhi:.3g}</text>',
    ]
    for k, (name, x, y) in enumerate(data):
        keep = np.isfinite(y)
        color = _COLORS[k % len(_COLORS)]
        parts += draw(_scale(x[keep], xlo, xhi, _MARGIN, _W - _MARGIN),
                      _scale(y[keep], ylo, yhi, _H - _MARGIN, _MARGIN), color)
        parts.append(
            f'<text x="{_W-_MARGIN}" y="{_MARGIN + 16*k}" text-anchor="end" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def write_svg_lines(
    path: str | Path,
    series: dict[str, tuple[np.ndarray, np.ndarray]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    def polyline(px, py, color):
        pts = " ".join(f"{a:.1f},{b:.1f}" for a, b in zip(px, py))
        return [f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>']

    _write_svg(path, series, title, xlabel, ylabel, polyline)


def write_svg_scatter(
    path: str | Path,
    groups: dict[str, tuple[np.ndarray, np.ndarray]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    def circles(px, py, color):
        return [f'<circle cx="{a:.1f}" cy="{b:.1f}" r="3" fill="{color}" fill-opacity="0.6"/>'
                for a, b in zip(px, py)]

    _write_svg(path, groups, title, xlabel, ylabel, circles)
