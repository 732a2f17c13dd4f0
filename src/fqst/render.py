"""Deterministic SVG drawings of solved trees.

Terminals (sources and the sink) are filled circles, Steiner points are open
circles, edges are lines annotated with their flow.  The viewport is fitted
to the bounding box of all nodes with a 10% margin, and all numbers are
formatted with a fixed precision, so identical trees yield byte-identical
files.
"""

from __future__ import annotations

from .trees import SolvedTree

WIDTH = 640.0
MARGIN_FRACTION = 0.10
NODE_RADIUS = 5.0

# One %-format per edge (its line and flow label) and per node circle.
_EDGE = (
    '  <line class="edge" x1="%.4f" y1="%.4f" x2="%.4f" y2="%.4f" '
    'stroke="#444444" stroke-width="1.5"/>\n'
    '  <text class="flow" x="%.4f" y="%.4f" font-size="11" fill="#666666">%.6g</text>'
)
_TERMINAL = f'  <circle class="terminal" cx="%.4f" cy="%.4f" r="{NODE_RADIUS:.4f}" fill="#222222"/>'
_STEINER = (
    f'  <circle class="steiner" cx="%.4f" cy="%.4f" r="{NODE_RADIUS:.4f}" '
    'fill="#ffffff" stroke="#222222" stroke-width="1.5"/>'
)


def render_svg(tree: SolvedTree) -> str:
    xs, ys = tree.xs, tree.ys
    span_x = max(xs) - min(xs)
    span_y = max(ys) - min(ys)
    span = max(span_x, span_y, 1e-9)
    margin = MARGIN_FRACTION * span
    scale = WIDTH / (span + 2.0 * margin)
    height = (span_y + 2.0 * margin) * scale
    x0 = min(xs) - margin
    y1 = max(ys) + margin
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
    for child in topo.edge_children():
        parent = parents[child]
        ax, ay, bx, by = sx[child], sy[child], sx[parent], sy[parent]
        mx, my = (ax + bx) / 2.0, (ay + by) / 2.0
        lines.append(_EDGE % (ax, ay, bx, by, mx + 4.0, my - 4.0, flows[child]))
    first = topo.sink + 1
    lines.extend(map(_TERMINAL.__mod__, zip(sx[:first], sy[:first])))
    lines.extend(map(_STEINER.__mod__, zip(sx[first:], sy[first:])))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
