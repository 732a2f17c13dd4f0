"""Locally minimal embeddings for arbitrary topologies by tree elimination.

Setting the gradient of the cost to zero at every Steiner point says each
Steiner point is the weighted mean of its neighbours, with each neighbour
weighted by the flow w of the connecting edge.  On a tree these conditions
solve in two passes with no matrix, by subtree summaries.  Under positive
edge weights (the flows here; exact search weights an edge carrying p beads
by f / (p + 1)), a subtree whose out-edge ends at p costs at its best

    K + W * |p - q|^2

for a summary (qx, qy, W, K).  A terminal root is q itself, with W its
out-edge weight and K its children's cost at q.  A Steiner root s merges its
children into their W-weighted mean q_s and V_s = sum_c W_c, with K the sum
of theirs plus their spread about q_s (merge_summaries): that is the paper's
quasi-source, at q_s with formal mass V_s.  Minimising
V_s |x_s - q_s|^2 + w_s |p - x_s|^2 over the Steiner position x_s, w_s the
out-edge weight, places it at the centre of mass of the quasi-source and
the parent,

    x_s = (V_s q_s + w_s p) / (V_s + w_s),

and leaves the subtree seen through its out-edge with W_s = w_s V_s /
(w_s + V_s) (steiner_weight).  The pivot w_s + V_s is checked in
steiner_weight, finite with both terms positive, and nowhere else.

eliminate's pass up from the leaves builds (q, V) and W for every Steiner
slot, and its pass down from the sink, the paper's back-tracking, places
every slot after its parent.  Both passes run on the flows scaled by
geometry.mass_scale, which moves no bit while the weights stay in the normal
range and keeps tiny or huge supplies from leaving it.  The centroid
certificate that fqst check applies (trees.centroid_deviations) closes
every solve.  This is the paper's linear-time algorithm generalised to
any Steiner degree >= 2 and any positive supplies, and geo_solver reads the
paper's merge trace off the upward pass.  Exact search costs every subtree
by its summary without placing anything.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Sequence

from .errors import GeometryError, InternalConsistencyError
from .geometry import mass_scale
from .topology import Instance, Topology, compute_flows
from .trees import (
    CERTIFICATE_TOLERANCE,
    SolvedTree,
    off_centroid_slots,
    require_finite_cost,
)

_SMALLEST_NORMAL = sys.float_info.min


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
    Steiner position y leaves w * V / (w + V) * |p - q|^2.

    The pivot w + V must be finite with both terms positive (so NaN and
    infinity fail too): the one pivot check of both the solver's merges and
    the search's.  Where the product w * V leaves the normal range (two
    tiny weights, or two huge ones), w * (V / (w + V)) keeps W in range;
    elsewhere the product form stays, whose last bit exact search's
    tie-breaks and counts depend on."""
    d = w + v
    if not (w > 0.0 < v and d < math.inf):
        raise InternalConsistencyError(
            f"pivot {d!r} (edge weight {w!r}, merged weight {v!r}) is not finite "
            "with both terms positive"
        )
    product = w * v
    return product / d if _SMALLEST_NORMAL <= product < math.inf else w * (v / d)


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

    Works for any Steiner degrees >= 2; the output passes the centroid
    certificate at every Steiner point, or InternalConsistencyError is raised.
    """
    return eliminate(instance, topology)[0]


class UpwardMerges(NamedTuple):
    """The upward pass's merges: the Steiner slots in merge order, per node
    the summary position q (a terminal's own) and the merged weight V (0.0
    at terminals), and the scale the flows were multiplied by.  A slot's
    (q, V / scale) is the paper's quasi-source: its position and formal
    mass."""

    order: list[int]
    qx: list[float]
    qy: list[float]
    v: list[float]
    scale: float


def eliminate(instance: Instance, topology: Topology) -> tuple[SolvedTree, UpwardMerges]:
    """solve_topology's tree and the upward merges that placed it."""
    flows = compute_flows(topology, instance.supplies)  # also rejects a slot with no inflow
    scale = mass_scale(max(flows))
    scaled = [f * scale for f in flows]
    sink = topology.sink
    children = topology.children
    upward = [s for s in reversed(topology.order) if s > sink]
    padding = [0.0] * topology.n_steiner
    qx = [*instance.xs, instance.sink.x, *padding]
    qy = [*instance.ys, instance.sink.y, *padding]
    v = [0.0] * len(qx)
    weights = scaled.copy()  # W of each node's summary: a terminal's out-edge weight
    for s in upward:
        vs = sx = sy = 0.0
        for c in children[s]:
            wc = weights[c]
            vs += wc
            sx += wc * qx[c]
            sy += wc * qy[c]
        weights[s] = steiner_weight(vs, scaled[s])
        qx[s] = sx / vs
        qy[s] = sy / vs
        v[s] = vs
    xs = qx.copy()
    ys = qy.copy()
    parents = topology.parents
    for s in reversed(upward):
        p = parents[s]
        w = scaled[s]
        vs = v[s]
        d = vs + w
        xs[s] = (vs * qx[s] + w * xs[p]) / d
        ys[s] = (vs * qy[s] + w * ys[p]) / d
    tree = SolvedTree(instance, topology, xs, ys, flows)
    try:
        off = off_centroid_slots(tree, CERTIFICATE_TOLERANCE)
    except GeometryError as exc:  # a placement that is not finite
        # an infinite coordinate is the weighted means overflowing, far out
        # where the cost's squares overflow too; a NaN one is a fault
        if any(map(math.isinf, tree.xs + tree.ys)):
            require_finite_cost(tree)
        raise InternalConsistencyError(f"elimination left a non-finite placement: {exc}") from None
    if off:
        # far out, a rounding-size offset squares to inf as the cost does
        require_finite_cost(tree)
        raise InternalConsistencyError(f"elimination left Steiner slots {off} off their centroids")
    return tree, UpwardMerges(upward, qx, qy, v, scale)
