"""Cost functions, structural optimality certificates, and bounds."""

from __future__ import annotations

import math
from itertools import combinations, compress
from typing import NamedTuple, Sequence

from .errors import GeometryError, TopologyError
from .geometry import mass_scale
from .strategies import BoundStrategy, DegreeBound
from .topology import NO_PARENT, Instance, Topology, compute_flows
from .trees import (
    CERTIFICATE_TOLERANCE,
    SolvedTree,
    centroid_deviations,
    off_centroid_slots,
    weighted_mean,
)

OVERLAP_ANGLE_TOLERANCE = 1e-7


def check_centroid_certificate(tree: SolvedTree, tol: float = CERTIFICATE_TOLERANCE) -> dict[int, bool]:
    """Local-minimality decision: a tree is locally minimal exactly when every
    Steiner point sits at the centre of mass of its neighbours, each judged
    to scale by off_centroid_slots."""
    off = set(off_centroid_slots(tree, tol))
    return {slot: slot not in off for slot in tree.deviations}


class DegreeViolation(NamedTuple):
    kind: str  # "steiner-degree" | "source-degree" | "source-midpoint"
    node: int
    detail: str


def check_degree_window(
    tree: SolvedTree, phi: int, tol: float = CERTIFICATE_TOLERANCE
) -> list[DegreeViolation]:
    """Degree-bounded optimality screens.

    Steiner degrees must lie in [phi, 2*phi - 3] and source degrees must stay
    below phi.  A source of degree exactly phi - 1 must additionally sit at
    the midpoint of its out-neighbour and the centre of mass of itself and
    its in-neighbours (the no-beneficial-split condition at that source).
    """
    if phi < 3:
        raise ValueError(f"phi must be at least 3, got {phi}")
    topo = tree.topology
    deg = topo.degrees
    children = topo.children
    supplies = tree.instance.supplies
    scale = mass_scale(max(tree.flows))
    xs, ys = tree.xs, tree.ys
    violations = []
    high = 2 * phi - 3
    for slot in topo.steiner_slots():
        if not (phi <= deg[slot] <= high):
            violations.append(
                DegreeViolation(
                    "steiner-degree",
                    slot,
                    f"degree {deg[slot]} outside [{phi}, {high}]",
                )
            )
    for source in range(topo.n_sources):
        if deg[source] > phi - 1:
            violations.append(
                DegreeViolation(
                    "source-degree",
                    source,
                    f"degree {deg[source]} exceeds {phi - 1}",
                )
            )
        elif deg[source] == phi - 1 and children[source]:
            # the centroid of the source (weighing its supply) and its
            # in-neighbours
            cx, cy = weighted_mean(tree, children[source], source, supplies[source], scale)
            parent = topo.parents[source]
            dx = xs[source] - (cx + 0.5 * (xs[parent] - cx))
            dy = ys[source] - (cy + 0.5 * (ys[parent] - cy))
            offset = math.sqrt(dx * dx + dy * dy)
            if offset > tol:
                violations.append(
                    DegreeViolation(
                        "source-midpoint",
                        source,
                        f"offset {offset:.3e} from the midpoint position",
                    )
                )
    return violations


class AngleViolation(NamedTuple):
    node: int
    in_neighbour: int
    angle: float
    saving: float  # hanging in_neighbour a from node's parent p saves 2 f_a (a - node).(p - node)


class EdgeOverlap(NamedTuple):
    node: int
    first_neighbour: int
    second_neighbour: int
    angle: float
    degree_phi_caveat: bool


def check_edge_pairs(
    tree: SolvedTree,
    tol_radians: float = CERTIFICATE_TOLERANCE,
    overlap_tol: float = OVERLAP_ANGLE_TOLERANCE,
    strategy: BoundStrategy | None = None,
) -> tuple[list[AngleViolation], list[EdgeOverlap]]:
    """The global-optimality screens on the pairs of edges at each node:
    in-edge/out-edge pairs meeting at less than a right angle (to within
    tol_radians), and incident pairs where one edge lies inside the other.

    One pass computes both: the angle of a pair is atan2(|cross|, dot) of
    its two edge vectors from the coordinate table, and an in-edge/out-edge
    angle is that of the pair (child, parent).  Zero-length edges carry no
    direction and are skipped.  Edges sharing a node overlap exactly when
    their angle vanishes (at most overlap_tol).  A pair is exempt from the
    overlap screen where the reroute saves nothing: when one of its edges
    has zero length, or both go to children ending at one point (rerouting
    the child edge vb through the nearer child a saves 2 f |va| |ab|).  A
    child a on the parent b is not exempt: hanging a from b saves
    2 f_a |va| |vb|.  Any hit rules out global optimality, except that
    under a degree bound the overlap argument does not apply when the
    common node is a Steiner point of degree exactly phi, which the
    overlap's degree_phi_caveat flag reports.
    """
    topo = tree.topology
    children = topo.children
    deg = topo.degrees
    parents = topo.parents
    sink = topo.sink
    phi = strategy.phi if isinstance(strategy, DegreeBound) else None
    xs, ys, flows = tree.xs, tree.ys, tree.flows
    threshold = math.pi / 2.0 - tol_radians
    # a pair with a negative dot product meets at more than a right angle,
    # which neither screen can hit under these tolerances; a dot product of
    # 0 may have underflowed, so that pair takes the full test
    skip_obtuse = threshold <= math.pi / 2.0 and overlap_tol < math.pi / 2.0
    atan2 = math.atan2
    violations = []
    overlaps = []
    # a node of degree below 2 has no pair of edges
    for node in compress(range(topo.n_nodes), map((2).__le__, deg)):
        parent = parents[node]
        hx = xs[node]
        hy = ys[node]
        offsets = []  # a zero-length edge has no direction and is skipped
        for v in children[node] if parent == NO_PARENT else (*children[node], parent):
            dx = xs[v] - hx
            dy = ys[v] - hy
            if dx * dx + dy * dy != 0.0:
                offsets.append((v, dx, dy))
        for (a, ux, uy), (b, vx, vy) in combinations(offsets, 2):
            dot = ux * vx + uy * vy
            if dot < 0.0 and skip_obtuse:
                continue
            angle = atan2(abs(ux * vy - uy * vx), dot)
            if angle <= overlap_tol and (b == parent or xs[a] != xs[b] or ys[a] != ys[b]):
                overlaps.append(EdgeOverlap(node, a, b, angle, node > sink and deg[node] == phi))
            if b == parent and angle < threshold:
                violations.append(AngleViolation(node, a, angle, 2.0 * flows[a] * dot))
    return violations, overlaps


def optimal_bead_count(f: float, length: float, c: float) -> int:
    """The integer bead count minimising f*length^2/(p+1) + c*p, ties toward
    smaller p.

    The real minimiser is p + 1 = sqrt(f*length^2/c); the integer one lies
    next to it (p(p+1) <= f*length^2/c <= (p+1)(p+2)), so the floor of the
    real one and its two neighbours are compared.  Raises ValueError when
    f*length^2/c overflows a float.
    """
    if not (f > 0.0 and length > 0.0 and c > 0.0):
        raise ValueError("flow, length, and bead cost must all be positive")
    base = f * length * length
    ratio = base / c
    if not ratio < math.inf:
        raise ValueError(f"f*length^2/c overflows a float (f={f!r}, length={length!r}, c={c!r})")
    p = max(0, int(math.sqrt(ratio)) - 2)
    best = base / (p + 1) + c * p
    for q in (p + 1, p + 2):
        total = base / (q + 1) + c * q
        if total < best:
            p, best = q, total
    return p


def lower_bound_path(instance: Instance, k: int) -> float:
    """Cost lower bound for any tree on the instance with at most k Steiner
    points.

    The cost is sum_i w_i * sum_{e in P_i} |e|^2 over the path P_i from
    source i to the sink, and P_i has at most n + k edges, so by
    Cauchy-Schwarz the cost is at least Q/(n + k + 1) with Q the
    supply-weighted squared source-sink distances.  A count past float
    range bounds nothing: the bound is then 0.
    """
    if k < 0:
        raise ValueError(f"Steiner budget must be nonnegative, got {k}")
    q_total = _weighted_sink_distances(instance)
    try:
        return q_total / (instance.n_sources + k + 1)
    except OverflowError:  # the int n + k + 1 has no float value
        return 0.0


def bounding_diagonal(instance: Instance) -> float:
    """The diagonal of the bounding box of the sources and the sink.

    Raises GeometryError when a tree's cost on these points may overflow a
    float: a tree's edges (at most 2n, beads only dividing their cost) each
    cost at most the total supply times the squared diagonal, which must
    itself be finite, since exact search squares distances unweighted and
    the bounds square the spanning tree's edges and the sink distances.
    """
    n = instance.n_sources
    sink = instance.sink
    dx = max(*instance.xs, sink.x) - min(*instance.xs, sink.x)
    dy = max(*instance.ys, sink.y) - min(*instance.ys, sink.y)
    diagonal = math.hypot(dx, dy)
    supply = instance.total_supply()
    if not math.isfinite(2 * n * supply * (diagonal * diagonal)):
        raise GeometryError(
            f"a tree's cost may overflow: {2 * n} edges x total supply {supply:.6g} "
            f"x squared bounding-box diagonal {diagonal:.6g}^2 overflows a float"
        )
    return diagonal


def _weighted_sink_distances(instance: Instance) -> float:
    sx, sy = instance.sink.x, instance.sink.y
    return sum(
        w * ((x - sx) * (x - sx) + (y - sy) * (y - sy))
        for x, y, w in zip(instance.xs, instance.ys, instance.supplies)
    )


def _prim_spanning_tree(xs: Sequence[float], ys: Sequence[float]) -> list[int]:
    """Minimum spanning tree over the points of a coordinate table (greedy,
    quadratic), as the parent array directed toward the last point.  Of
    equally near points the first joins; so does the first left when every
    distance overflows to infinity."""
    m = len(xs)
    x0, y0 = xs[0], ys[0]
    best_dist = [(x0 - x) * (x0 - x) + (y0 - y) * (y0 - y) for x, y in zip(xs, ys)]
    # each point's tree neighbour on its way to point 0
    best_link = [NO_PARENT] + [0] * (m - 1)
    left = list(range(1, m))  # the points not yet in the tree, in index order
    while left:
        pick = min(left, key=best_dist.__getitem__)
        left.remove(pick)
        px, py = xs[pick], ys[pick]
        for i in left:
            dx = px - xs[i]
            dy = py - ys[i]
            d = dx * dx + dy * dy
            if d < best_dist[i]:
                best_dist[i] = d
                best_link[i] = pick
    # the links lead to point 0; reversing those on the last point's way
    # there leads every point to the last one instead
    node, previous = m - 1, NO_PARENT
    while node != NO_PARENT:
        best_link[node], previous, node = previous, node, best_link[node]
    return best_link


def expand_beads(topology: Topology, bead_counts: Sequence[int]) -> Topology:
    """Subdivide each edge with the given number of degree-2 Steiner slots.

    bead_counts aligns with topology.edge_children(); new slots are appended
    after the existing Steiner slots.
    """
    edge_children = topology.edge_children()
    if len(bead_counts) != len(edge_children):
        raise TopologyError(
            f"{len(bead_counts)} bead counts for {len(edge_children)} edges"
        )
    parents = list(topology.parents)
    next_slot = topology.n_nodes
    added = 0
    for child, p in zip(edge_children, bead_counts):
        if p < 0:
            raise TopologyError("bead counts must be nonnegative")
        if p == 0:
            continue
        tail = parents[child]
        for _ in range(p):
            parents.append(tail)
            tail = next_slot
            next_slot += 1
            added += 1
        parents[child] = tail
    return Topology(topology.n_sources, topology.n_steiner + added, parents)


def beaded_spanning_cost(instance: Instance, c: float) -> float:
    """The node-weighted cost of the minimum spanning tree on the sources
    and the sink with the cost-minimising bead count p on each edge, an
    upper bound on the node-weighted optimum.  p equally spaced beads split
    an edge of flow f and length d into p + 1 segments, so the sum over the
    spanning edges, in edge_children order, is of f d^2/(p+1) + c p; no
    bead is placed.  Raises ValueError when an edge's f d^2 / c overflows
    a float."""
    if not c > 0.0:
        raise ValueError(f"node weight must be positive, got {c}")
    xs = (*instance.xs, instance.sink.x)
    ys = (*instance.ys, instance.sink.y)
    base = Topology(instance.n_sources, 0, _prim_spanning_tree(xs, ys))
    parents = base.parents
    flows = compute_flows(base, instance.supplies)
    total = 0.0
    for child in base.edge_children():
        dx = xs[child] - xs[parents[child]]
        dy = ys[child] - ys[parents[child]]
        d2 = dx * dx + dy * dy
        length = math.sqrt(d2)
        p = 0 if length == 0.0 else optimal_bead_count(flows[child], length, c)
        total += flows[child] * d2 / (p + 1) + c * p
    return total


def steiner_count_bound(instance: Instance, c: float, upper: float | None = None) -> int:
    """Upper bound B on the Steiner count of a node-weighted optimum, from
    upper = beaded_spanning_cost(instance, c), computed when not given.

    The optimum satisfies c*k <= U - Q/(n+k+1) with U the beaded spanning
    tree's node-weighted cost and Q the supply-weighted squared source-sink
    distances (see lower_bound_path); clearing the denominator gives
    c*k^2 + (c*(n+1) - U)*k + (Q - (n+1)*U) <= 0 and B is the floor of the
    larger root (the optimum's own k satisfies the inequality, so the root
    is real and at least that k).

    U, Q and c are first scaled by geometry.mass_scale of the largest of
    them, so that no square overflows; that changes no bit of the root
    wherever the unscaled formula neither overflows nor underflows.  The
    root is at most U / c: a sum of f L^2 / ((p+1) c) + p over the spanning
    edges, each finite once its bead count p is computed.
    """
    if upper is None:
        upper = beaded_spanning_cost(instance, c)
    n = instance.n_sources
    q_total = _weighted_sink_distances(instance)
    scale = mass_scale(max(upper, q_total, c))
    c *= scale
    upper *= scale
    b_lin = c * (n + 1) - upper
    b_const = q_total * scale - (n + 1) * upper
    disc = b_lin * b_lin - 4.0 * c * b_const
    root = (-b_lin + math.sqrt(max(disc, 0.0))) / (2.0 * c)
    return max(0, math.floor(root + 1e-9))


__all__ = [
    "AngleViolation",
    "DegreeViolation",
    "EdgeOverlap",
    "beaded_spanning_cost",
    "bounding_diagonal",
    "centroid_deviations",
    "check_centroid_certificate",
    "check_degree_window",
    "check_edge_pairs",
    "expand_beads",
    "lower_bound_path",
    "off_centroid_slots",
    "optimal_bead_count",
    "steiner_count_bound",
]
