"""Deterministic SVG emission of level lines, boundaries and critical points."""

from __future__ import annotations

import numpy as np

from .geometry import TWO_PI
from .solver import SolutionField
from .topology import trace_level_lines

# Width and height of the SVG document, in pixels.
_SIZE = 640
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _path(points: np.ndarray) -> str:
    return "M " + " L ".join(["%.6f %.6f" % (x, y) for x, y in points.tolist()])


def render_svg(field: SolutionField, thresholds, points) -> str:
    """SVG document with boundary curves, one polyline group per threshold
    and one circle marker per critical point (radius scaled by multiplicity)."""
    theta = np.linspace(0.0, TWO_PI, 720, endpoint=False)
    radii = [curve.radius(theta) for _, curve, _ in field.spec.rims()]
    radius = float(np.max(radii[0]))
    pad = 0.06 * radius
    lo, span = -(radius + pad), 2.0 * (radius + pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="{_fmt(lo)} {_fmt(lo)} {_fmt(span)} {_fmt(span)}">',
        f'<g id="boundaries" fill="none" stroke="#000000" stroke-width="{_fmt(0.004 * span)}">',
    ]
    for r in radii:
        pts = np.stack([r * np.cos(theta), -r * np.sin(theta)], axis=1)
        parts.append(f'<path d="{_path(np.vstack([pts, pts[:1]]))}" />')
    parts.append("</g>")

    warnings = []
    for k, t in enumerate(thresholds):
        color = _PALETTE[k % len(_PALETTE)]
        parts.append(f'<g id="level-{k}" data-threshold="{t:.9g}" fill="none" '
                     f'stroke="{color}" stroke-width="{_fmt(0.0025 * span)}">')
        polys, warns = trace_level_lines(field, t)
        warnings.extend(f"t={t:.9g}: {w}" for w in warns)
        for poly in polys:
            flipped = np.stack([poly[:, 0], -poly[:, 1]], axis=1)
            parts.append(f'<path d="{_path(flipped)}" />')
        parts.append("</g>")

    parts.append('<g id="critical-points" fill="#d62728" stroke="#000000" '
                 f'stroke-width="{_fmt(0.001 * span)}">')
    for p in points:
        rr = 0.008 * span * p.multiplicity
        parts.append(f'<circle cx="{_fmt(p.x)}" cy="{_fmt(-p.y)}" r="{_fmt(rr)}">'
                     f'<title>u={p.value:.6g} m={p.multiplicity}</title></circle>')
    parts.append("</g>")

    legend_y = lo + 0.03 * span
    parts.append(f'<g id="legend" font-family="monospace" font-size="{_fmt(0.025 * span)}">')
    for k, t in enumerate(thresholds):
        color = _PALETTE[k % len(_PALETTE)]
        y = legend_y + k * 0.03 * span
        parts.append(f'<text x="{_fmt(lo + 0.02 * span)}" y="{_fmt(y)}" fill="{color}">t = {t:.6g}</text>')
    parts.append("</g>")

    for w in warnings:
        parts.append(f"<!-- ResolutionWarning: {w} -->")
    parts.append("</svg>")
    return "\n".join(parts)
