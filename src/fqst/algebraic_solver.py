"""Locally minimal embeddings for arbitrary topologies by tree elimination.

Setting the gradient of the cost to zero at every Steiner point says each
Steiner point is the weighted mean of its neighbours, with each neighbour
weighted by the flow w of the connecting edge.  On a tree these conditions
solve in two passes with no matrix.  Going from the leaves toward the sink,
every Steiner slot s with out-edge flow w_s ends up as

    x_s = a_s + b_s * x_parent,

because each child c already has that form (a terminal child has a_c = its
position, b_c = 0).  Substituting the children into the weighted-mean
condition gives the pivot d_s = w_s + sum_c w_c (1 - b_c), then
a_s = sum_c w_c a_c / d_s and b_s = w_s / d_s.  Since every b_c lies in
[0, 1], d_s >= w_s > 0, so b_s lies in (0, 1] and no pivot can vanish.  The
pass down from the sink then places every slot after its parent, and a
residual check over every condition closes solve_topology.

This is the paper's linear-time algorithm generalised to any Steiner
degree >= 2 and any positive supplies.  Slot s's merge stands its subtree in
for a quasi-source at sum_c w_c a_c / (d_s - w_s) with formal mass
d_s - w_s, and the pass down is the paper's back-tracking: x_s is the centre
of mass of that quasi-source and the parent, the parent weighted by w_s.
eliminate hands these merges to geo_solver, which reads the paper's merge
trace off them.

The same merge also gives the optimal cost without placing anything, under
any positive edge weights (exact search weights an edge carrying p beads by
f / (p + 1)).  A subtree whose out-edge ends at p costs K + W * |p - q|^2 at
its best, for a summary (qx, qy, W, K): a terminal root is q itself, with W
its out-edge weight and K its children's cost at q; a Steiner root merges
its children into their weighted mean q and V = sum_c W_c, and seen through
its out-edge of weight w acts as W = w * V / (w + V).  Its pivot w + V is
checked like d_s above.  Exact search costs every subtree by its summary.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import InternalConsistencyError
from .topology import Instance, Topology, compute_flows
from .trees import SolvedTree, build_solved_tree

RESIDUAL_TOLERANCE = 1e-9


def _pivot(d: float, w: float) -> float:
    """d, once it is finite and at least the positive edge weight w (so NaN
    and infinity fail too): the one pivot check of both merges."""
    if not (math.inf > d >= w > 0.0):
        raise InternalConsistencyError(
            f"pivot {d!r} (edge weight {w!r}) is not finite "
            "and at least the positive edge weight"
        )
    return d


def _check_residual(
    topology: Topology, xs: Sequence[float], ys: Sequence[float], flows: Sequence[float]
) -> None:
    """Every weighted-mean condition holds to RESIDUAL_TOLERANCE relative
    to the largest terminal contribution to any condition."""
    parents = topology.parents
    children = topology.children_lists()
    sink = topology.sink
    worst = largest_rhs = 0.0
    for s in topology.steiner_slots():
        x, y = xs[s], ys[s]
        rx = ry = tx = ty = 0.0
        for c in children[s]:
            w = flows[c]
            rx += w * (x - xs[c])
            ry += w * (y - ys[c])
            if c <= sink:
                tx += w * xs[c]
                ty += w * ys[c]
        p = parents[s]
        w = flows[s]
        rx += w * (x - xs[p])
        ry += w * (y - ys[p])
        if p <= sink:
            tx += w * xs[p]
            ty += w * ys[p]
        if rx != rx or ry != ry:  # NaN: the comparisons below would drop it
            worst = math.nan
            break
        rx = abs(rx)
        ry = abs(ry)
        if rx > worst:
            worst = rx
        if ry > worst:
            worst = ry
        tx = abs(tx)
        ty = abs(ty)
        if tx > largest_rhs:
            largest_rhs = tx
        if ty > largest_rhs:
            largest_rhs = ty
    bound = RESIDUAL_TOLERANCE * (1.0 + largest_rhs)
    if not (worst <= bound):
        raise InternalConsistencyError(f"elimination residual {worst:.3e} exceeds {bound:.3e}")


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
    return w * v / _pivot(w + v, w)


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
    return eliminate(instance, topology)[0]


class UpwardMerges(NamedTuple):
    """The upward pass's merges: the Steiner slots in merge order and, per
    node (0.0 at terminals), the pivot d_s and the children's weighted sums
    sum_c w_c a_c before the division by it."""

    order: list[int]
    pivots: list[float]
    sums_x: list[float]
    sums_y: list[float]

    def quasi_source(self, slot: int, w: float) -> tuple[float, float, float]:
        """(qx, qy, formal mass) of the paper's quasi-source for slot's merge,
        w its out-edge flow: the sums over d_s - w."""
        mass = self.pivots[slot] - w
        return self.sums_x[slot] / mass, self.sums_y[slot] / mass, mass


def eliminate(instance: Instance, topology: Topology) -> tuple[SolvedTree, UpwardMerges]:
    """solve_topology's tree and the upward merges that placed it."""
    flows = compute_flows(topology, instance.supplies)  # also rejects non-trees
    sink = topology.sink
    children = topology.children_lists()
    upward = [s for s in reversed(topology.order_from_sink()) if s > sink]
    padding = [0.0] * topology.n_steiner
    xs = [p.x for p in instance.sources] + [instance.sink.x] + padding
    ys = [p.y for p in instance.sources] + [instance.sink.y] + padding
    # b[s] is the weight x_s puts on its parent's position: 0 at terminals
    b = [0.0] * len(xs)
    pivots = b.copy()
    sums_x = b.copy()
    sums_y = b.copy()
    for s in upward:
        w = flows[s]
        d = w
        ax = ay = 0.0
        for c in children[s]:
            wc = flows[c]
            d += wc * (1.0 - b[c])
            ax += wc * xs[c]
            ay += wc * ys[c]
        pivots[s] = d = _pivot(d, w)
        sums_x[s] = ax
        sums_y[s] = ay
        xs[s] = ax / d
        ys[s] = ay / d
        b[s] = w / d
    parents = topology.parents
    for s in reversed(upward):
        p = parents[s]
        xs[s] += b[s] * xs[p]
        ys[s] += b[s] * ys[p]
    _check_residual(topology, xs, ys, flows)
    tree = build_solved_tree(instance, topology, xs, ys, flows)
    return tree, UpwardMerges(upward, pivots, sums_x, sums_y)
