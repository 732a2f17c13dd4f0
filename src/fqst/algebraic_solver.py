"""Locally minimal embeddings for arbitrary topologies by tree elimination.

Setting the gradient of the cost to zero at every Steiner point says each
Steiner point is the weighted mean of its neighbours, with each neighbour
weighted by the weight of the connecting edge (its flow, or a bead-reduced
flow in exact search).  On a tree these conditions solve in two passes with
no matrix.  Going from the leaves toward the sink, every Steiner slot s with
out-edge weight w_s ends up as

    x_s = a_s + b_s * x_parent,

because each child c already has that form (a terminal child has a_c = its
position, b_c = 0).  Substituting the children into the weighted-mean
condition gives the pivot d_s = w_s + sum_c w_c (1 - b_c), then
a_s = sum_c w_c a_c / d_s and b_s = w_s / d_s.  Since every b_c lies in
[0, 1], d_s >= w_s > 0, so b_s lies in (0, 1] and no pivot can vanish.  The
pass down from the sink then places every slot after its parent.

This is the quasi-source merge of the paper's linear-time algorithm (a_s is
the quasi-source's position) generalised to any Steiner degree >= 2, any
positive supplies and any positive edge weights.

The same merge also gives the optimal cost without placing anything.  A
subtree whose out-edge ends at p costs K + W * |p - q|^2 at its best, for a
summary (qx, qy, W, K): a terminal root is q itself, with W its out-edge
weight and K its children's cost at q; a Steiner root merges its children
into their weighted mean q and V = sum_c W_c, and seen through its out-edge
of weight w acts as W = w * V / (w + V).  Exact search costs skeletons from
these summaries.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import InternalConsistencyError
from .geometry import Point
from .topology import Instance, Topology, compute_flows
from .trees import SolvedTree, build_solved_tree

RESIDUAL_TOLERANCE = 1e-9


class TreeElimination:
    """The weight-independent part of the two passes for one topology.

    Flows, the leaves-first Steiner order, the child lists and the terminal
    coordinates are built once; solve then takes any positive per-edge
    weights (indexed like flows: weights[i] is node i's out-edge).
    """

    def __init__(self, instance: Instance, topology: Topology) -> None:
        self.topology = topology
        self.flows = compute_flows(topology, instance.supplies)  # also rejects non-trees
        sink = topology.sink
        self.children = topology.children_lists()
        self.upward = [s for s in reversed(topology.order_from_sink()) if s > sink]
        padding = [0.0] * topology.n_steiner
        self.terminal_x = [p.x for p in instance.sources] + [instance.sink.x] + padding
        self.terminal_y = [p.y for p in instance.sources] + [instance.sink.y] + padding

    def solve(self, weights: Sequence[float]) -> tuple[list[float], list[float], list[float]]:
        """Coordinates of every node and the elimination factors b.

        b[s] is the weight x_s puts on its parent's position; it is 0 at
        terminals and in (0, 1] at Steiner slots.
        """
        xs = self.terminal_x.copy()
        ys = self.terminal_y.copy()
        b = [0.0] * len(xs)
        children = self.children
        for s in self.upward:
            w = weights[s]
            d = w
            ax = ay = 0.0
            for c in children[s]:
                wc = weights[c]
                d += wc * (1.0 - b[c])
                ax += wc * xs[c]
                ay += wc * ys[c]
            if not (math.inf > d >= w > 0.0):
                raise InternalConsistencyError(
                    f"elimination pivot {d!r} at Steiner slot {s} (edge weight {w!r}) "
                    "is not finite and at least the positive edge weight"
                )
            xs[s] = ax / d
            ys[s] = ay / d
            b[s] = w / d
        parents = self.topology.parents
        for s in reversed(self.upward):
            p = parents[s]
            xs[s] += b[s] * xs[p]
            ys[s] += b[s] * ys[p]
        return xs, ys, b

    def check_residual(
        self, xs: Sequence[float], ys: Sequence[float], weights: Sequence[float]
    ) -> None:
        """Every weighted-mean condition holds to RESIDUAL_TOLERANCE relative
        to the largest terminal contribution to any condition."""
        parents = self.topology.parents
        sink = self.topology.sink
        residuals: list[float] = []
        largest_rhs = 0.0
        for s in self.upward:
            incident = [(c, weights[c]) for c in self.children[s]]
            incident.append((parents[s], weights[s]))
            rx = ry = tx = ty = 0.0
            for node, w in incident:
                rx += w * (xs[s] - xs[node])
                ry += w * (ys[s] - ys[node])
                if node <= sink:
                    tx += w * xs[node]
                    ty += w * ys[node]
            residuals += (abs(rx), abs(ry))
            largest_rhs = max(largest_rhs, abs(tx), abs(ty))
        bound = RESIDUAL_TOLERANCE * (1.0 + largest_rhs)
        failing = [r for r in residuals if not (r <= bound)]
        if failing:
            raise InternalConsistencyError(
                f"elimination residual {max(failing):.3e} exceeds {bound:.3e}"
            )


def merge_summaries(parts: Sequence[Sequence[float]]) -> tuple[float, float, float, float]:
    """(qx, qy, V, K) with sum_i K_i + W_i |p - q_i|^2 = K + V |p - q|^2 for
    every p, over the subtree summaries parts = [(qx_i, qy_i, W_i, K_i), ...].

    q is the W-weighted mean; K adds the spread about q in a second pass
    rather than by subtracting squares.
    """
    v = sx = sy = k = 0.0
    for qx, qy, w, kc in parts:
        v += w
        sx += w * qx
        sy += w * qy
        k += kc
    qx0 = sx / v
    qy0 = sy / v
    for qx, qy, w, _ in parts:
        dx = qx - qx0
        dy = qy - qy0
        k += w * (dx * dx + dy * dy)
    return qx0, qy0, v, k


def steiner_weight(v: float, w: float) -> float:
    """W of a Steiner root whose children merge to weight v and whose
    out-edge has weight w: minimising V |y - q|^2 + w |p - y|^2 over the
    Steiner position y leaves w * V / (w + V) * |p - q|^2."""
    d = w + v
    if not (math.inf > d >= w > 0.0):
        raise InternalConsistencyError(
            f"quasi-source pivot {d!r} (edge weight {w!r}) is not finite "
            "and at least the positive edge weight"
        )
    return w * v / d


def pinned_cost(x: float, y: float, parts: Sequence[Sequence[float]]) -> float:
    """sum_i K_i + W_i |(x, y) - q_i|^2: the cost of the subtrees summarised
    by parts when their out-edges all end at the fixed point (x, y)."""
    total = 0.0
    for qx, qy, w, k in parts:
        dx = x - qx
        dy = y - qy
        total += k + w * (dx * dx + dy * dy)
    return total


def solve_topology(instance: Instance, topology: Topology) -> SolvedTree:
    """Locally minimal embedding for any valid topology and positive supplies.

    Works for any Steiner degrees >= 2; the output satisfies the
    centre-of-mass condition at every Steiner point, checked by residual.
    """
    elimination = TreeElimination(instance, topology)
    flows = elimination.flows
    xs, ys, _ = elimination.solve(flows)
    elimination.check_residual(xs, ys, flows)
    positions = tuple(Point(xs[s], ys[s]) for s in topology.steiner_slots())
    return build_solved_tree(instance, topology, positions, flows)
