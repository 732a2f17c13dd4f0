"""Globally minimum trees by exhaustive topology enumeration with pruning.

All three strategies run one search: enumerate branching skeletons (every
Steiner degree >= phi) and fold chains of degree-2 Steiner points in as
per-edge bead counts.  On a locally minimal tree the beads of an edge are
equally spaced on the straight segment, so an edge with flow f and p beads
contributes f*|e|^2/(p+1), which is the same stationarity problem with the
edge weight f replaced by f/(p+1).  A degree bound places no beads at all;
the explicit bound and the node weight spend the rest of their Steiner
budget on them.

Nothing is embedded while searching.  A subtree's share of the optimal cost
depends on the subtree alone: it is K + W*|p - q|^2 for its parent at p
(see algebraic_solver.merge_summaries).  The skeleton generator builds
each subtree once per (source set, Steiner count) with its zero-bead
summary, so a skeleton without beads costs one sum over the sink's
children.  Bead vectors are walked depth-first over the skeleton, children
before parents: each node merges its children once per assignment of the
beads below it and then branches on the bead count of its own out-edge.  A
Topology is built only for a candidate that can become the incumbent.  The
reported winner has its beads expanded back into explicit degree-2 Steiner
slots and is re-solved and re-checked.

Everything here is deterministic: skeletons stream in a fixed order and
objective ties break on the sink-rooted topology encoding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import algebraic_solver, analysis
from .algebraic_solver import merge_summaries, pinned_cost, steiner_weight
from .errors import GuardLimitError, InternalConsistencyError
from .strategies import (
    BoundStrategy,
    DegreeBound,
    ExplicitBound,
    NodeWeighted,
    max_steiner_count,
)
from .topology import (
    STEINER,
    Instance,
    Topology,
    placed_topology,
    rooted_encoding,
    skeleton_placement,
    skeletons,
    validate_topology,
)
from .trees import SolvedTree

DEFAULT_GUARD = 6
_OBJECTIVE_TIE = 1e-12


@dataclass(frozen=True)
class SearchReport:
    best: SolvedTree
    objective: float
    topologies_examined: int
    topologies_pruned: int
    bead_vectors: int  # (skeleton, bead vector) pairs costed
    strategy: BoundStrategy
    lower_bound: float
    upper_bound: float | None = None  # node-weighted: beaded spanning tree cost
    steiner_bound: int | None = None  # node-weighted: the Steiner budget B


class _Incumbent:
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


def solve_exact(
    instance: Instance, strategy: BoundStrategy, guard_n: int = DEFAULT_GUARD
) -> SearchReport:
    """Globally minimum tree under the strategy, by exhaustive enumeration.

    Refuses instances with more than guard_n sources; the space grows
    factorially and this is a desk-scale exact method.
    """
    n = instance.n_sources
    if n > guard_n:
        raise GuardLimitError(
            f"exact search is limited to {guard_n} sources (got {n}); "
            f"raise guard_n explicitly to go further"
        )
    if isinstance(strategy, DegreeBound):
        budget = max_steiner_count(n, strategy.phi)
        return _search(instance, strategy, strategy.phi, budget, 0, 0.0, None)
    if isinstance(strategy, ExplicitBound):
        return _search(instance, strategy, 3, strategy.k, strategy.k, 0.0, None)
    if isinstance(strategy, NodeWeighted):
        c = strategy.c
        budget = analysis.steiner_count_bound(instance, c)
        # an edge carries at most the total supply over at most the diagonal
        cap = analysis.optimal_bead_count(instance.total_supply(), _bounding_box_diagonal(instance), c)
        upper = analysis.cost_node_weighted(analysis.beaded_spanning_tree(instance, c), c)
        return _search(instance, strategy, 3, budget, cap, c, upper)
    raise TypeError(f"unknown strategy {strategy!r}")


def _search(
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
    n = instance.n_sources
    sink = instance.sink
    # the objective of any tree with k Steiner points is at least floors[k]
    floors = [
        bead_charge * k + analysis.lower_bound_path(instance, k)
        for k in range(steiner_budget + 1)
    ]
    incumbent = _Incumbent(math.inf if upper_bound is None else upper_bound + _OBJECTIVE_TIE)
    examined = pruned = costed = 0
    j_cap = min(steiner_budget, max_steiner_count(n, phi))
    for j, roots in skeletons(n, j_cap, phi, _summarise(instance)):
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
            costed += _walk_bead_vectors(
                instance, j, roots, per_edge_cap, allowed, bead_charge, incumbent
            )
    if incumbent.topology is None:
        raise InternalConsistencyError("search space was empty; the spanning trees alone should appear")
    topology = incumbent.topology
    if any(incumbent.beads):
        topology = analysis.expand_beads(topology, incumbent.beads)
    best = algebraic_solver.solve_topology(instance, topology)
    total_steiner = best.topology.n_steiner
    final_objective = best.cost + bead_charge * total_steiner
    if not math.isclose(final_objective, incumbent.objective, rel_tol=1e-9, abs_tol=1e-9):
        raise InternalConsistencyError(
            f"expanded winner objective {final_objective} drifted from searched {incumbent.objective}"
        )
    return SearchReport(
        best=best,
        objective=final_objective,
        topologies_examined=examined,
        topologies_pruned=pruned,
        bead_vectors=costed,
        strategy=strategy,
        lower_bound=analysis.lower_bound_path(instance, total_steiner),
        upper_bound=upper_bound,
        steiner_bound=steiner_budget if isinstance(strategy, NodeWeighted) else None,
    )


def _summarise(instance: Instance):
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


def _walk_bead_vectors(
    instance: Instance,
    n_steiner: int,
    roots: tuple,
    per_edge_cap: int,
    allowed: set[int],
    bead_charge: float,
    incumbent: "_Incumbent",
) -> int:
    """Offer the skeleton under every bead vector with per-edge counts <=
    per_edge_cap and a total in allowed; return how many were costed.

    Nodes are visited children first (the reverse of skeleton_placement, so
    each subtree is a run of positions ending at its root).  When a node is
    reached the beads below it are fixed: its children are merged once (or
    the memoised summary is reused when they hold no beads), then each bead
    count p of its out-edge gives weight flow/(p+1).  The last node is a
    sink child, and its loop completes the sink's sum.
    """
    n = instance.n_sources
    sink = instance.sink
    placed = skeleton_placement(n, roots)
    order = placed[::-1]
    m = len(order)
    position = {node: i for i, (_, node, _) in enumerate(order)}
    below: list[list[int]] = [[] for _ in range(m)]
    first = list(range(m))  # first position of each node's subtree
    at_sink = []
    for i, (_, _, parent) in enumerate(order):
        if parent == n:
            at_sink.append(i)
        else:
            up = position[parent]
            below[up].append(i)
            first[up] = min(first[up], first[i])
    at_sink.pop()  # m - 1, the first placed
    lowest = min(allowed)
    highest = max(allowed)
    summaries: list = [None] * m
    beads = [0] * m
    entered = [0] * m  # beads before each position on the current path
    costed = 0

    def offer(value: float) -> None:
        by_node = [0] * (n + 1 + n_steiner)
        for (_, node, _), p in zip(order, beads):
            by_node[node] = p
        del by_node[n]
        incumbent.offer(value, placed_topology(n, n_steiner, placed), tuple(by_node))

    def visit(i: int, used: int) -> None:
        nonlocal costed
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
            for p in range(low, high + 1):
                w = flow / (p + 1)
                summaries[i] = (qx, qy, w if v is None else steiner_weight(v, w), k)
                beads[i] = p
                visit(i + 1, used + p)
            return
        base = pinned_cost(sink.x, sink.y, [summaries[c] for c in at_sink]) + k
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
    return costed


def _bounding_box_diagonal(instance: Instance) -> float:
    xs = [p.x for p in instance.sources] + [instance.sink.x]
    ys = [p.y for p in instance.sources] + [instance.sink.y]
    dx = max(xs) - min(xs)
    dy = max(ys) - min(ys)
    return math.hypot(dx, dy)


def _objective(tree: SolvedTree, strategy: BoundStrategy) -> float:
    if isinstance(strategy, NodeWeighted):
        return analysis.cost_node_weighted(tree, strategy.c)
    return analysis.cost(tree)


def local_improve_by_splits(tree: SolvedTree, strategy: BoundStrategy) -> SolvedTree:
    """Apply the best admissible beneficial split until none remains.

    Admissibility is whatever validate_topology accepts for the strategy;
    the objective strictly decreases on every application, so no topology
    repeats and the loop terminates.
    """
    current = tree
    current_objective = _objective(tree, strategy)
    while True:
        best_tree: SolvedTree | None = None
        best_objective = current_objective
        children = current.topology.children_lists()
        for target in range(current.topology.n_nodes):
            in_neighbours = children[target]
            if not in_neighbours:
                continue
            for size in range(1, len(in_neighbours) + 1):
                for members in itertools.combinations(in_neighbours, size):
                    spec = analysis.SplitSpec(target, members)
                    new_topology = analysis.split_topology(current.topology, spec)
                    if validate_topology(new_topology, strategy):
                        continue
                    candidate = algebraic_solver.solve_topology(current.instance, new_topology)
                    objective = _objective(candidate, strategy)
                    if objective < best_objective - _improvement_margin(current_objective):
                        best_tree = candidate
                        best_objective = objective
        if best_tree is None:
            return current
        current = best_tree
        current_objective = best_objective


def _improvement_margin(objective: float) -> float:
    return 1e-12 * (1.0 + abs(objective))
