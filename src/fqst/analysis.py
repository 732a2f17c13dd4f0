"""Cost functions, structural optimality certificates, splits, and bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import algebraic_solver
from .errors import TopologyError
from .geometry import MassPoint, Point, lerp, sq_dist
from .strategies import BoundStrategy, DegreeBound
from .topology import NO_PARENT, Instance, Topology, _orient_toward_sink, compute_flows
from .trees import SolvedTree, build_solved_tree, embedded_cost

OVERLAP_ANGLE_TOLERANCE = 1e-7
CERTIFICATE_TOLERANCE = 1e-9

_INF = math.inf
_isfinite = math.isfinite


def cost(tree: SolvedTree) -> float:
    """Sum over edges of flow * squared length, recomputed from the fields."""
    return embedded_cost(tree.instance, tree.topology, tree.steiner_positions, tree.flows)


def cost_node_weighted(tree: SolvedTree, c: float) -> float:
    """cost(tree) plus c per Steiner point."""
    if not c > 0.0:
        raise ValueError(f"node weight must be positive, got {c}")
    return cost(tree) + c * tree.topology.n_steiner


def centroid_deviations(tree: SolvedTree) -> dict[int, float]:
    """Distance of each Steiner point from the centre of mass of its
    neighbours, where in-neighbours weigh their in-edge flows and the
    out-neighbour weighs the out-edge flow.

    The centre of mass is geometry.centroid's arithmetic over the tree's
    coordinate table, in-neighbours first, without building mass points.
    """
    topo = tree.topology
    children = topo.children_lists()
    parents = topo.parents
    flows = tree.flows
    xs, ys = tree.coordinates
    deviations: dict[int, float] = {}
    for slot in topo.steiner_slots():
        parent = parents[slot]
        sx = sy = sm = 0.0
        masses_ok = True
        for c in children[slot]:
            m = flows[c]
            masses_ok = masses_ok and 0.0 < m < _INF
            sx += m * xs[c]
            sy += m * ys[c]
            sm += m
        m = flows[slot]
        masses_ok = masses_ok and 0.0 < m < _INF
        sx += m * xs[parent]
        sy += m * ys[parent]
        sm += m
        if not (masses_ok and _isfinite(sx) and _isfinite(sy)):
            _require_mass_points(
                tree, (*children[slot], parent), [*(flows[c] for c in children[slot]), m]
            )
        dx = xs[slot] - sx / sm
        dy = ys[slot] - sy / sm
        deviations[slot] = math.sqrt(dx * dx + dy * dy)
    return deviations


def _require_mass_points(tree: SolvedTree, nodes: Sequence[int], masses: Sequence[float]) -> None:
    """Raise the GeometryError that MassPoint raises for the first node with
    a non-finite position or a non-positive or non-finite mass, as the
    centroid over these mass points would; return when there is none."""
    for node, mass in zip(nodes, masses):
        MassPoint(tree.position(node), mass)


def check_centroid_certificate(tree: SolvedTree, tol: float = CERTIFICATE_TOLERANCE) -> dict[int, bool]:
    """Local-minimality decision: a tree is locally minimal exactly when every
    Steiner point sits at the centre of mass of its neighbours."""
    return {slot: dev <= tol for slot, dev in centroid_deviations(tree).items()}


@dataclass(frozen=True, slots=True)
class AngleViolation:
    node: int
    in_neighbour: int
    angle: float


def check_angles(tree: SolvedTree, tol_radians: float = CERTIFICATE_TOLERANCE) -> list[AngleViolation]:
    """In-edge/out-edge pairs meeting at less than a right angle.

    Screens node-weighted and explicitly bounded candidates for global
    optimality; zero-length edges carry no direction and are skipped.  The
    angle is geometry.angle_at's atan2(|cross|, dot), from the coordinate
    table.
    """
    children = tree.topology.children_lists()
    xs, ys = tree.coordinates
    violations = []
    threshold = math.pi / 2.0 - tol_radians
    for node, parent in enumerate(tree.topology.parents):
        if parent == NO_PARENT or not children[node]:
            continue
        hx = xs[node]
        hy = ys[node]
        vx = xs[parent] - hx
        vy = ys[parent] - hy
        if vx * vx + vy * vy == 0.0:
            continue
        for child in children[node]:
            ux = xs[child] - hx
            uy = ys[child] - hy
            if ux * ux + uy * uy == 0.0:
                continue
            angle = math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)
            if angle < threshold:
                violations.append(AngleViolation(node, child, angle))
    return violations


@dataclass(frozen=True, slots=True)
class DegreeViolation:
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
    deg = topo.degrees()
    children = topo.children_lists()
    flows = tree.flows
    xs, ys = tree.coordinates
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
            # in-neighbours, as geometry.centroid computes it
            kids = children[source]
            w = tree.instance.supplies[source]
            sx = sy = sm = 0.0
            sx += w * xs[source]
            sy += w * ys[source]
            sm += w
            masses_ok = 0.0 < w < _INF
            for c in kids:
                m = flows[c]
                masses_ok = masses_ok and 0.0 < m < _INF
                sx += m * xs[c]
                sy += m * ys[c]
                sm += m
            if not (masses_ok and _isfinite(sx) and _isfinite(sy)):
                _require_mass_points(tree, (source, *kids), [w, *(flows[c] for c in kids)])
            cx = sx / sm
            cy = sy / sm
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


@dataclass(frozen=True, slots=True)
class EdgeOverlap:
    node: int
    first_neighbour: int
    second_neighbour: int
    angle: float
    degenerate: bool
    degree_phi_caveat: bool


def check_overlapping_edges(
    tree: SolvedTree,
    tol: float = OVERLAP_ANGLE_TOLERANCE,
    strategy: BoundStrategy | None = None,
) -> list[EdgeOverlap]:
    """Incident edge pairs where one lies inside the other.

    Edges sharing a node overlap exactly when the angle between them vanishes
    (the shorter then lies in the longer); zero-length edges overlap
    degenerately with everything at their node.  Any hit rules out global
    optimality, except that under a degree bound the argument does not apply
    when the common node is a Steiner point of degree exactly phi, which the
    caveat flag reports.
    """
    topo = tree.topology
    children = topo.children_lists()
    deg = topo.degrees()
    sink = topo.sink
    phi = strategy.phi if isinstance(strategy, DegreeBound) else None
    xs, ys = tree.coordinates
    overlaps = []
    for node, parent in enumerate(topo.parents):
        neighbours = children[node] if parent == NO_PARENT else (*children[node], parent)
        if len(neighbours) < 2:
            continue
        hx = xs[node]
        hy = ys[node]
        caveat = node > sink and deg[node] == phi
        offsets = [(v, xs[v] - hx, ys[v] - hy) for v in neighbours]
        for i, (a, ux, uy) in enumerate(offsets):
            a_zero = ux * ux + uy * uy == 0.0
            for b, vx, vy in offsets[i + 1:]:
                if a_zero or vx * vx + vy * vy == 0.0:
                    overlaps.append(EdgeOverlap(node, a, b, 0.0, True, caveat))
                    continue
                angle = math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)
                if angle <= tol:
                    overlaps.append(EdgeOverlap(node, a, b, angle, False, caveat))
    return overlaps


@dataclass(frozen=True, slots=True)
class SplitSpec:
    """Reroute the in-neighbours in `members` through a new Steiner point that
    feeds `target`."""

    target: int
    members: tuple[int, ...]


def split_topology(topology: Topology, spec: SplitSpec) -> Topology:
    """The topology after rerouting spec.members through a new Steiner slot."""
    children = set(topology.children_lists()[spec.target])
    if not spec.members:
        raise ValueError("a split needs at least one in-neighbour")
    if not set(spec.members) <= children:
        raise ValueError(
            f"{sorted(set(spec.members) - children)} are not in-neighbours of node {spec.target}"
        )
    new_slot = topology.n_nodes
    parents = list(topology.parents) + [spec.target]
    for member in spec.members:
        parents[member] = new_slot
    return Topology(topology.n_sources, topology.n_steiner + 1, tuple(parents))


def apply_split(tree: SolvedTree, spec: SplitSpec) -> SolvedTree:
    """The re-solved tree after splitting; beneficial when its cost is lower.

    All Steiner points (old and new) are re-placed by the algebraic solver.
    """
    return algebraic_solver.solve_topology(
        tree.instance, split_topology(tree.topology, spec)
    )


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
    supply-weighted squared source-sink distances.
    """
    if k < 0:
        raise ValueError(f"Steiner budget must be nonnegative, got {k}")
    return _weighted_sink_distances(instance) / (instance.n_sources + k + 1)


def _weighted_sink_distances(instance: Instance) -> float:
    return sum(
        w * sq_dist(z, instance.sink) for z, w in zip(instance.sources, instance.supplies)
    )


def _prim_spanning_tree(points: Sequence[Point]) -> list[tuple[int, int]]:
    """Minimum spanning tree edges over the points (greedy, quadratic)."""
    m = len(points)
    in_tree = [False] * m
    in_tree[0] = True
    best_dist = [sq_dist(points[0], p) for p in points]
    best_link = [0] * m
    edges = []
    for _ in range(m - 1):
        pick = -1
        pick_dist = math.inf
        for i in range(m):
            if not in_tree[i] and best_dist[i] < pick_dist:
                pick = i
                pick_dist = best_dist[i]
        in_tree[pick] = True
        edges.append((pick, best_link[pick]))
        for i in range(m):
            if not in_tree[i]:
                d = sq_dist(points[pick], points[i])
                if d < best_dist[i]:
                    best_dist[i] = d
                    best_link[i] = pick
    return edges


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
    return Topology(topology.n_sources, topology.n_steiner + added, tuple(parents))


def beaded_spanning_tree(instance: Instance, c: float) -> SolvedTree:
    """Minimum spanning tree on sources plus sink, directed toward the sink,
    with the cost-minimising bead count inserted on every edge.

    Its node-weighted cost (beaded_spanning_cost, without building it)
    upper-bounds the node-weighted optimum.
    """
    terminals, base, flows = _spanning_tree(instance)
    bead_counts = _spanning_bead_counts(terminals, base, flows, c)
    expanded = expand_beads(base, bead_counts)
    # expand_beads creates each edge's chain slots from the parent side
    # toward the child, so positions go farthest-first
    positions: list[Point] = []
    for child, p in zip(base.edge_children(), bead_counts):
        start = terminals[child]
        end = terminals[base.parents[child]]
        for i in range(p):
            positions.append(lerp(start, end, (p - i) / (p + 1)))
    expanded_flows = compute_flows(expanded, instance.supplies)
    return build_solved_tree(instance, expanded, positions, expanded_flows)


def beaded_spanning_cost(instance: Instance, c: float) -> float:
    """cost_node_weighted(beaded_spanning_tree(instance, c), c), summed per
    spanning edge without placing a bead: p equally spaced beads split an
    edge of flow f and length d into p + 1 segments, f d^2/(p+1) + c p."""
    terminals, base, flows = _spanning_tree(instance)
    bead_counts = _spanning_bead_counts(terminals, base, flows, c)
    total = 0.0
    for child, p in zip(base.edge_children(), bead_counts):
        d2 = sq_dist(terminals[child], terminals[base.parents[child]])
        total += flows[child] * d2 / (p + 1) + c * p
    return total


def _spanning_tree(instance: Instance) -> tuple[list[Point], Topology, tuple[float, ...]]:
    """The terminals (sources, then the sink), their minimum spanning tree
    directed toward the sink, and its flows."""
    terminals = [*instance.sources, instance.sink]
    base = _orient_toward_sink(instance.n_sources, 0, _prim_spanning_tree(terminals))
    return terminals, base, compute_flows(base, instance.supplies)


def _spanning_bead_counts(
    terminals: Sequence[Point], base: Topology, flows: Sequence[float], c: float
) -> list[int]:
    """The optimal bead count of each spanning edge, in edge_children order."""
    if not c > 0.0:
        raise ValueError(f"node weight must be positive, got {c}")
    bead_counts = []
    for child in base.edge_children():
        length = math.sqrt(sq_dist(terminals[child], terminals[base.parents[child]]))
        bead_counts.append(0 if length == 0.0 else optimal_bead_count(flows[child], length, c))
    return bead_counts


def spanning_bead_floor(instance: Instance, c: float) -> float:
    """A lower bound on steiner_count_bound(instance, c) that places no bead.

    The beaded spanning tree is itself a tree with one Steiner point per
    bead, so the budget B is at least its bead count, and an edge's optimal
    count p satisfies (p + 2)^2 > (p + 1)(p + 2) >= f |e|^2 / c (see
    optimal_bead_count).  The sum is a float, infinite when f |e|^2 / c
    overflows.
    """
    if not c > 0.0:
        raise ValueError(f"node weight must be positive, got {c}")
    terminals, base, flows = _spanning_tree(instance)
    total = 0.0
    for child in base.edge_children():
        ratio = flows[child] * sq_dist(terminals[child], terminals[base.parents[child]]) / c
        total += max(0.0, math.sqrt(ratio) - 2.0)
    return total


def steiner_count_bound(instance: Instance, c: float) -> int:
    """Upper bound B on the Steiner count of a node-weighted optimum.

    The optimum satisfies c*k <= U - Q/(n+k+1) with U the beaded spanning
    tree's node-weighted cost and Q the supply-weighted squared source-sink
    distances (see lower_bound_path); clearing the denominator gives
    c*k^2 + (c*(n+1) - U)*k + (Q - (n+1)*U) <= 0 and B is the floor of the
    larger root (the optimum's own k satisfies the inequality, so the root
    is real and at least that k).
    """
    n = instance.n_sources
    upper = beaded_spanning_cost(instance, c)
    q_total = _weighted_sink_distances(instance)
    b_lin = c * (n + 1) - upper
    b_const = q_total - (n + 1) * upper
    disc = b_lin * b_lin - 4.0 * c * b_const
    root = (-b_lin + math.sqrt(max(disc, 0.0))) / (2.0 * c)
    return max(0, math.floor(root + 1e-9))


__all__ = [
    "AngleViolation",
    "DegreeViolation",
    "EdgeOverlap",
    "SplitSpec",
    "apply_split",
    "beaded_spanning_cost",
    "beaded_spanning_tree",
    "centroid_deviations",
    "check_angles",
    "check_centroid_certificate",
    "check_degree_window",
    "check_overlapping_edges",
    "cost",
    "cost_node_weighted",
    "expand_beads",
    "lower_bound_path",
    "optimal_bead_count",
    "spanning_bead_floor",
    "split_topology",
    "steiner_count_bound",
]
