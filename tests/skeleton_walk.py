"""The skeleton walk: the independent oracle for the subset DP of
fqst.exact_search, kept out of the package.

skeletons() builds every branching skeleton (every Steiner degree >= 3)
from source partitions, and enumerate_bounded_topologies() places each as a
Topology.  search() visits the skeletons one by one, each under every bead
vector, and walk() runs it under a strategy.  The generator builds each
subtree once per (source set, Steiner count) with its zero-bead summary,
and bead vectors are walked depth-first over the skeleton, children before
parents: each node merges its children once per assignment of the beads
below it and then branches on the bead count of its own out-edge.

The walk is a branch and bound.  The incumbent may start at a known tree's
cost, and fixing the bead count on a node's out-edge is cut when every tree
completing the prefix must cost more, by a relative margin that lets ties
through.  That floor is the cost already fixed, one share for each finished
subtree whose parent is still to come, plus the larger of two floors on the
rest: c times the least Steiner count allowed, and the charge so far (c per
Steiner point and bead) plus, for each source still to come whose parent is
a terminal, the least its out-edge can cost with its beads charged.  A
finished subtree's share is the floor of fqst.exact_search towards its
first terminal ancestor z, over the h Steiner edges up to z and at most
min(h * cap, beads left) beads on them (h = 0 when the parent is z, and the
share is then K + W |z - q|^2).  Its chain of Steiner edges stops at z, so
it shares no edge with the source-to-terminal edges still to come, and
finished subtrees hold different sources, so their shares add.  A Topology
is built only for a candidate that can become the incumbent, and objective
ties break on the sink-rooted topology encoding, then the bead vector.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Iterator

from fqst import analysis
from fqst.algebraic_solver import merge_summaries, pinned_cost, steiner_weight
from fqst.errors import InternalConsistencyError, TopologyError
from fqst.exact_search import (
    _CUT_SLACK,
    _OBJECTIVE_TIE,
    SearchReport,
    _report,
)
from certificate_oracle import sq_dist
from fqst.strategies import BoundStrategy, DegreeBound, ExplicitBound, NodeWeighted, max_steiner_count
from fqst.topology import NO_PARENT, Instance, Topology
from canonical_oracle import rooted_encoding

STEINER = -1  # root of a generated subtree that is a Steiner slot


def enumerate_bounded_topologies(
    n_sources: int, max_steiner: int, min_steiner_degree: int = 3
) -> Iterator[Topology]:
    """Every topology on n sources + sink + j Steiner slots for 0 <= j <=
    max_steiner, with each Steiner slot of degree >= min_steiner_degree and
    terminals of any degree, each exactly once up to Steiner relabelling.

    Built by skeletons() from source partitions, so no topology repeats and
    nothing is deduplicated.  Steiner slots are numbered in placement order
    (see skeleton_placement), and topologies come in nondecreasing Steiner
    count.
    """
    for j, roots in skeletons(n_sources, max_steiner, min_steiner_degree, _bare_subtree):
        yield placed_topology(n_sources, j, skeleton_placement(n_sources, roots))


def skeleton_placement(n_sources: int, roots: tuple) -> list[tuple[tuple, int, int]]:
    """(subtree, node, parent node) for every subtree under the sink's
    children roots, in depth-first preorder: each subtree is a contiguous
    run that starts at its root.

    A source root keeps its index; Steiner roots get slots n_sources + 1,
    n_sources + 2, ... in this order.
    """
    placed = []
    next_slot = n_sources + 1
    stack = [(tree, n_sources) for tree in roots]
    while stack:
        tree, parent = stack.pop()
        node = tree[0]
        if node == STEINER:
            node = next_slot
            next_slot += 1
        placed.append((tree, node, parent))
        stack.extend((child, node) for child in tree[1])
    return placed


def placed_topology(n_sources: int, n_steiner: int, placed: list[tuple[tuple, int, int]]) -> Topology:
    """The topology of a skeleton from its skeleton_placement."""
    parents = [NO_PARENT] * (n_sources + 1 + n_steiner)
    for _, node, parent in placed:
        parents[node] = parent
    return Topology(n_sources, n_steiner, tuple(parents))


def _bare_subtree(root: int, children: tuple) -> tuple:
    return (root, children)


def skeletons(
    n_sources: int,
    max_steiner: int,
    min_steiner_degree: int,
    subtree: Callable[[int, tuple], tuple],
) -> Iterator[tuple[int, tuple]]:
    """(j, the sink's child subtrees) for every topology that
    enumerate_bounded_topologies yields, in the same order.

    A subtree over a set of sources is rooted at one of them, whose children
    split the rest of the set, or at a Steiner slot, whose children split the
    whole set into at least min_steiner_degree - 1 parts; the sink's children
    split all sources.  Parts never share a source.  subtree(root, children)
    builds each subtree, root being a source index or STEINER; it must
    return a tuple starting with root and children, and may append a summary
    of the subtree.  Subtrees are built once per source bitmask and Steiner
    count, except those over all sources, which are streamed.
    """
    if n_sources < 1:
        raise TopologyError("need at least one source")
    if max_steiner < 0:
        raise TopologyError("max Steiner count must be nonnegative")
    if min_steiner_degree < 2:
        raise ValueError(
            "Steiner slots of degree < 2 carry no flow; the minimum supported degree is 2"
        )
    # The nested functions form a reference cycle, so the memo is cleared
    # when the generator ends.
    full = (1 << n_sources) - 1
    min_children = min_steiner_degree - 1
    memo: dict[tuple[int, int], list[tuple]] = {}

    def subtrees(mask: int, k: int) -> Iterator[tuple]:
        for s in range(n_sources):
            if mask >> s & 1:
                for children in forests(mask ^ (1 << s), k, 0):
                    yield subtree(s, children)
        if k:
            for children in forests(mask, k - 1, min_children):
                yield subtree(STEINER, children)

    def child_subtrees(mask: int, k: int):
        if mask == full:
            return subtrees(mask, k)
        if (mask, k) not in memo:
            memo[mask, k] = list(subtrees(mask, k))
        return memo[mask, k]

    def forests(mask: int, k: int, min_parts: int) -> Iterator[tuple]:
        """Tuples of >= min_parts subtrees that partition mask and hold k Steiner slots."""
        if not mask:
            if k == 0 and min_parts <= 0:
                yield ()
            return
        m = mask.bit_count()
        # each Steiner slot has >= min_children children, so a forest over
        # m sources holds at most (m - 1) // (min_children - 1) of them
        if min_parts > m or (min_children > 1 and k > (m - 1) // (min_children - 1)):
            return
        low = mask & -mask  # the lowest source opens the first part
        sub = rest = mask ^ low
        while True:
            part = low | sub
            for k_part in range(k + 1):
                trees = child_subtrees(part, k_part)
                if not trees:
                    continue
                # a streamed part covers all sources, so it meets one tail
                for tail in forests(mask ^ part, k - k_part, min_parts - 1):
                    for tree in trees:
                        yield (tree, *tail)
            if not sub:
                return
            sub = (sub - 1) & rest

    try:
        for j in range(max_steiner + 1):
            for roots in forests(full, j, 1):
                yield j, roots
    finally:
        memo.clear()


class Incumbent:
    """Best candidate so far, tie-broken on (rooted encoding, bead vector).

    May start from a pruning bound (objective without a candidate); a
    candidate matching the bound is still accepted.
    """

    def __init__(self, objective: float) -> None:
        self.objective = objective
        self.topology: Topology | None = None
        self.beads: tuple[int, ...] = ()
        self._tie_key: tuple | None = None

    def offer(self, objective: float, topology: Topology, beads: tuple[int, ...]) -> None:
        if objective > self.objective + _OBJECTIVE_TIE:
            return
        if self.topology is not None and objective >= self.objective - _OBJECTIVE_TIE:
            if self._tie_key is None:
                self._tie_key = (rooted_encoding(self.topology), self.beads)
            key = (rooted_encoding(topology), beads)
            if key >= self._tie_key:
                return
            self._tie_key = key
        else:
            self._tie_key = None
        self.objective = min(objective, self.objective)
        self.topology = topology
        self.beads = beads


def walk(instance: Instance, strategy: BoundStrategy) -> SearchReport:
    """The winner under the strategy, by the skeleton walk.

    The degree bound walks every branching Steiner count with no beads, and
    the explicit bound every bead vector within k.  The node weight walks
    up to B Steiner points (see analysis.steiner_count_bound), each edge
    with at most the bead count that suits the total supply over the
    bounding box's diagonal, from the beaded spanning tree's cost.
    """
    n = instance.n_sources
    if isinstance(strategy, DegreeBound):
        phi = min(strategy.phi, n + 2)
        return search(instance, strategy, phi, max_steiner_count(n, phi), 0, 0.0, None)
    if isinstance(strategy, ExplicitBound):
        return search(instance, strategy, 3, strategy.k, strategy.k, 0.0, None)
    c = strategy.c
    cap = analysis.optimal_bead_count(instance.total_supply(), analysis.bounding_diagonal(instance), c)
    budget = analysis.steiner_count_bound(instance, c)
    return search(instance, strategy, 3, budget, cap, c, analysis.beaded_spanning_cost(instance, c))


def search(
    instance: Instance,
    strategy: BoundStrategy,
    phi: int,
    steiner_budget: int,
    max_beads: int,
    bead_charge: float,
    upper_bound: float | None,
) -> SearchReport:
    """Search skeletons with Steiner degree >= phi, each with every bead vector.

    steiner_budget caps the total Steiner count (branching plus beads),
    max_beads caps the beads on one edge, bead_charge is c for the
    node-weighted objective and 0 otherwise, and upper_bound (the cost of a
    known tree) starts the incumbent.
    """
    started = time.perf_counter()
    n = instance.n_sources
    sink = instance.sink
    # the objective of any tree with k Steiner points is at least floors[k]
    floors = [
        bead_charge * k + analysis.lower_bound_path(instance, k)
        for k in range(steiner_budget + 1)
    ]
    # the known tree is costed again here in another summation order, so
    # its bound carries a relative slack as well as the absolute tie
    incumbent = Incumbent(
        math.inf if upper_bound is None else upper_bound * _CUT_SLACK + _OBJECTIVE_TIE
    )
    examined = pruned = costed = 0
    j_cap = min(steiner_budget, max_steiner_count(n, phi))
    for j, roots in skeletons(n, j_cap, phi, summarise(instance)):
        per_edge_cap = min(max_beads, steiner_budget - j)
        bead_budget = min(steiner_budget - j, per_edge_cap * (n + j))
        allowed = {t for t in range(bead_budget + 1) if floors[j + t] < incumbent.objective}
        if not allowed:
            pruned += 1
            continue
        examined += 1
        if bead_budget == 0:
            costed += 1
            value = bead_charge * j + pinned_cost(sink.x, sink.y, [tree[3] for tree in roots])
            if value <= incumbent.objective + _OBJECTIVE_TIE:
                topology = placed_topology(n, j, skeleton_placement(n, roots))
                incumbent.offer(value, topology, (0,) * (n + j))
        else:
            walked, cut = walk_bead_vectors(
                instance, j, roots, per_edge_cap, allowed, bead_charge, incumbent
            )
            costed += walked
            pruned += cut
    if incumbent.topology is None:
        raise InternalConsistencyError("search space was empty; the spanning trees alone should appear")
    return _report(
        instance,
        strategy,
        incumbent.topology,
        incumbent.beads,
        incumbent.objective,
        started,
        topologies_examined=examined,
        topologies_pruned=pruned,
        bead_vectors=costed,
        upper_bound=upper_bound,
        steiner_bound=steiner_budget if isinstance(strategy, NodeWeighted) else None,
    )


def summarise(instance: Instance):
    """Subtree factory for skeletons(): (root, children, flow, summary, v)
    with the summary (qx, qy, W, K) taken with no beads in the subtree and,
    at a Steiner root, v the merged children's weight (None at a source)."""
    sources = instance.sources
    supplies = instance.supplies

    def subtree(root: int, children: tuple) -> tuple:
        parts = [child[3] for child in children]
        flow = sum([child[2] for child in children])
        if root == STEINER:
            qx, qy, v, k = merge_summaries(parts)
            return (root, children, flow, (qx, qy, steiner_weight(v, flow), k), v)
        z = sources[root]
        flow += supplies[root]
        return (root, children, flow, (z.x, z.y, flow, pinned_cost(z.x, z.y, parts)), None)

    return subtree


def walk_bead_vectors(
    instance: Instance,
    n_steiner: int,
    roots: tuple,
    per_edge_cap: int,
    allowed: set[int],
    bead_charge: float,
    incumbent: "Incumbent",
) -> tuple[int, int]:
    """Offer the skeleton under every bead vector with per-edge counts <=
    per_edge_cap and a total in allowed that can match the incumbent; return
    how many vectors were costed and how many bead prefixes were cut.

    Nodes are visited children first (the reverse of skeleton_placement, so
    each subtree is a run of positions ending at its root).  When a node is
    reached the beads below it are fixed: its children are merged once (or
    the memoised summary is reused when they hold no beads), then each bead
    count p of its out-edge gives weight flow/(p+1).  The last node is a
    sink child, and its loop completes the sink's sum.

    A prefix (the beads up to a node's out-edge) is cut when the floor of
    the module docstring exceeds the incumbent (see walk_floors).  A
    subtree's share falls with its own beads and rises as they leave fewer
    for the chain above it, so each p is tested.
    """
    n = instance.n_sources
    sink = instance.sink
    placed = skeleton_placement(n, roots)
    order = placed[::-1]
    m = len(order)
    position = {node: i for i, (_, node, _) in enumerate(order)}
    below: list[list[int]] = [[] for _ in range(m)]
    first = list(range(m))  # first position of each node's subtree
    sink_children = []
    up = [m] * m  # the position of each node's parent (m for the sink)
    for i, (_, _, parent) in enumerate(order):
        if parent == n:
            sink_children.append(i)
        else:
            up[i] = position[parent]
            below[up[i]].append(i)
            first[up[i]] = min(first[up[i]], first[i])
    sink_children.pop()  # m - 1, the first placed
    anchors, others, ahead = walk_floors(instance, order, up, per_edge_cap, bead_charge)
    lowest = min(allowed)
    highest = max(allowed)
    charge_floor = bead_charge * (n_steiner + lowest)
    summaries: list = [None] * m
    fixed = [0.0] * m  # per position, its subtree's least share of the cost
    beads = [0] * m
    entered = [0] * m  # beads before each position on the current path
    costed = cut = 0

    def offer(value: float) -> None:
        by_node = [0] * (n + 1 + n_steiner)
        for (_, node, _), p in zip(order, beads):
            by_node[node] = p
        del by_node[n]
        incumbent.offer(value, placed_topology(n, n_steiner, placed), tuple(by_node))

    def visit(i: int, used: int) -> None:
        nonlocal costed, cut
        # beads after position i can add at most per_edge_cap each
        low = lowest - used - per_edge_cap * (m - 1 - i)
        high = highest - used
        if high > per_edge_cap:
            high = per_edge_cap
        if low > high:
            return
        if low < 0:
            low = 0
        entered[i] = used
        tree, node, _ = order[i]
        flow = tree[2]
        v = tree[4]
        if used == entered[first[i]]:  # no beads below: the memoised merge holds
            qx, qy, _, k = tree[3]
        elif v is None:
            qx, qy = tree[3][0], tree[3][1]
            k = pinned_cost(qx, qy, [summaries[c] for c in below[i]])
        else:
            qx, qy, v, k = merge_summaries([summaries[c] for c in below[i]])
        if i < m - 1:
            done = 0.0
            for c in others[i]:
                done += fixed[c]
            # the charge so far and the least the source-to-terminal edges
            # ahead can add; all of the charge is at least charge_floor too
            rest = bead_charge * (n_steiner + used) + ahead[i]
            # the subtree's share: its cost with its out-edge into the
            # parent, and the flow's share of the chain of h Steiner edges
            # and their beads from the parent on to the first terminal at z
            # (h = 0: the parent is z); by Cauchy-Schwarz the chain costs the
            # flow at least flow |x - z|^2 / L over L edges and beads
            zx, zy, h = anchors[i]
            dx = zx - qx
            dy = zy - qy
            d2 = dx * dx + dy * dy
            chain = h * per_edge_cap
            for p in range(low, high + 1):
                w = flow / (p + 1)
                if v is not None:
                    w = steiner_weight(v, w)
                if h:
                    left = highest - used - p
                    g = flow / (h + (left if left < chain else chain))
                    share = k + w * g / (w + g) * d2
                else:
                    share = k + w * d2
                charge = rest + bead_charge * p
                if charge < charge_floor:
                    charge = charge_floor
                limit = (incumbent.objective + _OBJECTIVE_TIE) * _CUT_SLACK + _OBJECTIVE_TIE
                if done + share + charge > limit:
                    cut += 1
                    continue
                fixed[i] = share
                summaries[i] = (qx, qy, w, k)
                beads[i] = p
                visit(i + 1, used + p)
            return
        base = pinned_cost(sink.x, sink.y, [summaries[c] for c in sink_children]) + k
        dx = sink.x - qx
        dy = sink.y - qy
        d2 = dx * dx + dy * dy
        for p in range(low, high + 1):
            total = used + p
            if total not in allowed:
                continue
            costed += 1
            w = flow / (p + 1)
            value = bead_charge * (n_steiner + total) + base + d2 * (w if v is None else steiner_weight(v, w))
            if value <= incumbent.objective + _OBJECTIVE_TIE:
                beads[i] = p
                offer(value)

    visit(0, 0)
    return costed, cut


def walk_floors(
    instance: Instance, order: list, up: list[int], per_edge_cap: int, bead_charge: float
) -> tuple[list, list[tuple[int, ...]], list[float]]:
    """Per position i of the walk's order, with up[i] its parent's position
    (len(order) for the sink):

    - (zx, zy, h): the first terminal at or above i's parent, and the
      number h of Steiner edges from the parent up to it (0 when the parent
      is that terminal);
    - the positions before i whose parent comes after i: with i, the roots
      of the subtrees finished when i's out-edge is fixed, each adding its
      share of the module docstring;
    - over the sources after i whose parent is a terminal, the least cost
      f d^2/(p+1) + c p of their out-edges over p <= per_edge_cap.
    """
    n = instance.n_sources
    points = [*instance.sources, instance.sink]
    m = len(order)
    anchors: list = [None] * m
    others: list[tuple[int, ...]] = []
    ahead = [0.0] * m
    frontier: list[int] = []
    for i in range(m):
        frontier = [c for c in frontier if up[c] != i]
        others.append(tuple(frontier))
        frontier.append(i)
    for i in range(m - 1, -1, -1):  # parents before children
        parent = order[i][2]
        if parent <= n:
            anchors[i] = (points[parent].x, points[parent].y, 0)
        else:
            zx, zy, h = anchors[up[i]]
            anchors[i] = (zx, zy, h + 1)
    for i in range(m - 1, 0, -1):
        tree, node, parent = order[i]
        least = 0.0
        if node < n and parent <= n:
            d2 = sq_dist(points[node], points[parent])
            if d2 > 0.0:
                p = per_edge_cap
                if bead_charge > 0.0:
                    p = min(p, analysis.optimal_bead_count(tree[2], math.sqrt(d2), bead_charge))
                least = tree[2] * d2 / (p + 1) + bead_charge * p
        ahead[i - 1] = ahead[i] + least
    return anchors, others, ahead
