"""Deterministic SVG drawings of solved trees.

Terminals (sources and the sink) are filled circles, Steiner points are open
circles, edges are lines annotated with their flow.  The viewport is fitted
to the bounding box of all nodes with a 10% margin, and all numbers are
formatted with a fixed precision, so identical trees yield byte-identical
files.
"""

from __future__ import annotations

import sys

from .trees import SolvedTree

WIDTH = 640.0
MARGIN_FRACTION = 0.10
NODE_RADIUS = 5.0
# the viewport's numbers reach 1.2 times the span of the coordinates, which
# is at most twice their largest magnitude: past a quarter of the largest
# float, the drawing is made from the coordinates divided by 4, which moves
# no bit of it (every viewport number scales with them) and keeps it finite
_QUARTER = sys.float_info.max / 4.0

# One %-format per edge (its line and flow label) and per node circle; the
# node coordinates come in already formatted, once per node.
_EDGE = (
    '  <line class="edge" x1="%s" y1="%s" x2="%s" y2="%s" '
    'stroke="#444444" stroke-width="1.5"/>\n'
    '  <text class="flow" x="%.4f" y="%.4f" font-size="11" fill="#666666">%.6g</text>'
)
_TERMINAL = f'  <circle class="terminal" cx="%s" cy="%s" r="{NODE_RADIUS:.4f}" fill="#222222"/>'
_STEINER = (
    f'  <circle class="steiner" cx="%s" cy="%s" r="{NODE_RADIUS:.4f}" '
    'fill="#ffffff" stroke="#222222" stroke-width="1.5"/>'
)


def render_svg(tree: SolvedTree) -> str:
    xs, ys = tree.xs, tree.ys
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
    if max(x_hi, y_hi, -x_lo, -y_lo) > _QUARTER:
        xs = [x / 4.0 for x in xs]
        ys = [y / 4.0 for y in ys]
        x_lo, x_hi, y_lo, y_hi = x_lo / 4.0, x_hi / 4.0, y_lo / 4.0, y_hi / 4.0
    span_x = x_hi - x_lo
    span_y = y_hi - y_lo
    span = max(span_x, span_y, 1e-9)
    margin = MARGIN_FRACTION * span
    scale = WIDTH / (span + 2.0 * margin)
    height = (span_y + 2.0 * margin) * scale
    x0 = x_lo - margin
    y1 = y_hi + margin
    # screen coordinates of every node; y grows downward on screen
    sx = [(x - x0) * scale for x in xs]
    sy = [(y1 - y) * scale for y in ys]

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH:.4f}" height="{height:.4f}" '
        f'viewBox="0 0 {WIDTH:.4f} {height:.4f}">',
    ]
    topo = tree.topology
    parents = topo.parents
    flows = tree.flows
    fx = list(map("%.4f".__mod__, sx))
    fy = list(map("%.4f".__mod__, sy))
    for child in topo.edge_children():
        parent = parents[child]
        mx, my = (sx[child] + sx[parent]) / 2.0, (sy[child] + sy[parent]) / 2.0
        lines.append(_EDGE % (fx[child], fy[child], fx[parent], fy[parent], mx + 4.0, my - 4.0, flows[child]))
    first = topo.sink + 1
    lines.extend(map(_TERMINAL.__mod__, zip(fx[:first], fy[:first])))
    lines.extend(map(_STEINER.__mod__, zip(fx[first:], fy[first:])))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
