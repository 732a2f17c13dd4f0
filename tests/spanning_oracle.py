"""Two-pass oracle for the node weight's beaded spanning tree and its bounds.

Prim's algorithm here keeps an in-tree mask and scans every point for the
nearest one left; the tree is then walked twice, once for its edges'
squared lengths and once for their bead counts, before the cost is summed,
and the Steiner count bound recomputes that cost.  fqst.analysis keeps a
list of the points left and takes the lengths, the bead counts and the cost
in one walk, with the bound taken from a cost the caller already has; the
tests check that both give the same parents and the same bits.
"""

from __future__ import annotations

import math
import operator
from itertools import compress
from typing import Sequence

from fqst import Instance, Topology, compute_flows
from fqst.analysis import optimal_bead_count
from fqst.geometry import mass_scale

NO_PARENT = -1


def sq_dist_at(xs: Sequence[float], ys: Sequence[float], i: int, j: int) -> float:
    """Squared distance between points i and j of a coordinate table."""
    dx = xs[i] - xs[j]
    dy = ys[i] - ys[j]
    return dx * dx + dy * dy


def prim_spanning_tree(xs: Sequence[float], ys: Sequence[float]) -> list[int]:
    """Minimum spanning tree as the parent array directed toward the last
    point; of equally near points the first joins, also when every distance
    is infinite."""
    m = len(xs)
    in_tree = [False] * m
    in_tree[0] = True
    best_dist = [sq_dist_at(xs, ys, 0, i) for i in range(m)]
    best_link = [NO_PARENT] + [0] * (m - 1)
    for _ in range(m - 1):
        pick = min(compress(range(m), map(operator.not_, in_tree)), key=best_dist.__getitem__)
        in_tree[pick] = True
        for i in range(m):
            if not in_tree[i]:
                d = sq_dist_at(xs, ys, pick, i)
                if d < best_dist[i]:
                    best_dist[i] = d
                    best_link[i] = pick
    node, previous = m - 1, NO_PARENT
    while node != NO_PARENT:
        best_link[node], previous, node = previous, node, best_link[node]
    return best_link


def spanning_tree(instance: Instance) -> tuple[list[float], Topology, tuple[float, ...]]:
    """The spanning tree on the sources and then the sink: its edges'
    squared lengths in edge_children order, the tree and its flows."""
    xs = (*instance.xs, instance.sink.x)
    ys = (*instance.ys, instance.sink.y)
    base = Topology(instance.n_sources, 0, tuple(prim_spanning_tree(xs, ys)))
    parents = base.parents
    squares = [sq_dist_at(xs, ys, child, parents[child]) for child in base.edge_children()]
    return squares, base, compute_flows(base, instance.supplies)


def spanning_bead_counts(
    squares: Sequence[float], base: Topology, flows: Sequence[float], c: float
) -> list[int]:
    """The optimal bead count of each spanning edge, in edge_children order."""
    if not c > 0.0:
        raise ValueError(f"node weight must be positive, got {c}")
    bead_counts = []
    for child, d2 in zip(base.edge_children(), squares):
        length = math.sqrt(d2)
        bead_counts.append(0 if length == 0.0 else optimal_bead_count(flows[child], length, c))
    return bead_counts


def beaded_spanning_cost(instance: Instance, c: float) -> float:
    squares, base, flows = spanning_tree(instance)
    bead_counts = spanning_bead_counts(squares, base, flows, c)
    total = 0.0
    for child, d2, p in zip(base.edge_children(), squares, bead_counts):
        total += flows[child] * d2 / (p + 1) + c * p
    return total


def weighted_sink_distances(instance: Instance) -> float:
    xs = (*instance.xs, instance.sink.x)
    ys = (*instance.ys, instance.sink.y)
    sink = instance.n_sources
    return sum(w * sq_dist_at(xs, ys, i, sink) for i, w in enumerate(instance.supplies))


def steiner_count_bound(instance: Instance, c: float) -> int:
    """The floor of the larger root of c k^2 + (c (n+1) - U) k + (Q - (n+1) U),
    its coefficients scaled by mass_scale."""
    n = instance.n_sources
    upper = beaded_spanning_cost(instance, c)
    q_total = weighted_sink_distances(instance)
    scale = mass_scale(max(upper, q_total, c))
    c *= scale
    upper *= scale
    b_lin = c * (n + 1) - upper
    b_const = q_total * scale - (n + 1) * upper
    disc = b_lin * b_lin - 4.0 * c * b_const
    root = (-b_lin + math.sqrt(max(disc, 0.0))) / (2.0 * c)
    return max(0, math.floor(root + 1e-9))
