"""Globally minimum trees by exhaustive search over subtree summaries.

Nothing is embedded while searching.  A subtree's share of the optimal cost
depends on the subtree alone: it is K + W*|p - q|^2 for its parent at p
(see algebraic_solver.merge_summaries).  A reported winner is re-solved
from its topology and checked against the searched objective.

Chains of degree-2 Steiner points are folded in as per-edge bead counts.
On a locally minimal tree the beads of an edge are equally spaced on the
straight segment, so an edge with flow f and p beads contributes
f*|e|^2/(p+1): the same stationarity problem with the edge weight f
replaced by f/(p+1).  The winner has its beads expanded back into explicit
degree-2 Steiner slots before it is re-solved.

Both searches cut with one floor, from the paper's additive flows: an
edge's cost f_e |e|^2 splits into one share sigma_t |e|^2 for each source t
whose path to the sink crosses it.  Take a subtree whose sources hold flow
f, with cost K + W |x - q|^2 when its parent is at x, and a terminal z
(the sink s, or a fixed source) that the flow reaches over at most L more
edges and beads past x.  By Cauchy-Schwarz on their lengths, the
subtree's sources cost at least min over x of K + W |x - q|^2 +
g |x - z|^2 with g = f / L, that is K + (W g / (W + g)) |q - z|^2.

The degree bound and the explicit bound are searched by one dynamic
programme over source bitmasks, the Dreyfus-Wagner subset recursion split
at terminals.  Its state is (mask, count k, part-count class c).  Under the
explicit bound the count holds the branching Steiner points and the beads
of a subtree, those on its own out-edge included, and runs up to the
bound; the degree bound counts nothing and places no beads, so it has the
one count 0.  Per mask and count it keeps forests of child subtrees by
part count c = 1 .. phi-1 (phi = 3 under the explicit bound), the last
class meaning at least phi-1 parts: class 1 holds the single subtrees (a
source root, or a Steiner root over a top-class forest, each under every
bead count its out-edge can take), and a class c >= 2 forest is the part
holding the mask's lowest source merged with a class c-1 forest over the
rest (the top class also takes a top-class rest), their counts adding up.
A terminal has a fixed position, so the best subtree rooted at a source
and the best tree at the sink are scalars per count: the best forest at a
fixed anchor with at most k counted, a set-partition recursion over the
best single subtree at that anchor.

Each list is cut and then pruned.  The cut drops a summary (q, W, K) over
mask M at count k that no tree cheaper than a known one can complete (with
a relative slack, so that ties pass).  Its floor is the one above towards
z = s: from the parent of a subtree (the Steiner root of a forest) to the
sink, every node is a source outside M or a Steiner point with another
child over one, so L = n - |M| + 1 + (budget - k); each source t outside
M reaches the sink over at most n + budget edges and beads, so it adds at
least sigma_t |z_t - s|^2 / (n + budget).  The known tree is the best one
found so far over some mask, with the other sources wired straight to the
sink.  Masks are taken with the sources ordered from the dearest to wire
straight to the sink to the cheapest, so once the last source joins the
known tree is at least as good as "drop nearest": the best tree without
the source cheapest to wire, plus that wire.  The prune then drops a
summary when one of no higher count has a cost function nowhere above its
own.  This is exact because merging, the Steiner transform (see
steiner_weight) and evaluation at a fixed anchor are each monotone in
every part's cost function, and a part of lower count leaves more of the
budget to the rest, so a dominated summary never completes a better tree;
a forest of more parts serves wherever one of fewer parts does, so a class
is pruned against every higher class too, but single subtrees never
against forests.  A dominator's floor is no higher than the summary's it
dominates, so the kept lists are those of the uncut DP less the cut
summaries, and the winner is the same.  No skeleton is visited.

The node weight walks every branching skeleton (every Steiner degree >= 3)
instead: the skeleton generator builds each subtree once per (source set,
Steiner count) with its zero-bead summary, and bead vectors are walked
depth-first over the skeleton, children before parents: each node merges
its children once per assignment of the beads below it and then branches
on the bead count of its own out-edge.  The walk is a branch and bound:
the incumbent starts at the beaded spanning tree's cost, and fixing the
bead count on a node's out-edge is cut when every tree completing the
prefix must cost more, by a relative margin that lets ties through.  That
floor is the cost already fixed, one share for each finished subtree whose
parent is still to come, plus the larger of two floors on the rest: c
times the least Steiner count allowed, and the charge so far (c per
Steiner point and bead) plus, for each source still to come whose parent
is a terminal, the least its out-edge can cost with its beads charged.  A
finished subtree's share is the floor above towards its first terminal
ancestor z, over the h Steiner edges up to z and at most min(h * cap,
beads left) beads on them (h = 0 when the parent is z, and the share is
then K + W |z - q|^2).  Its chain of Steiner edges stops at z, so it shares
no edge with the source-to-terminal edges still to come, and finished
subtrees hold different sources, so their shares add.
A Topology is built only for a candidate that can become the incumbent.
The DP with the count running up to the node weight's budget B is exact
too, but slower than the walk at the budgets it meets: summaries of one
subtree under different bead counts share q and trade W against K, so
none dominates another.

Everything here is deterministic.  The skeleton walk breaks objective ties
on the sink-rooted topology encoding; the subset DP keeps, among equal
summaries and equal scalars, the first in generation order.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Sequence

from . import algebraic_solver, analysis
from .algebraic_solver import merge_summaries, pinned_cost, steiner_weight
from .errors import GuardLimitError, InternalConsistencyError
from .geometry import sq_dist
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
)
from .trees import SolvedTree

DEFAULT_GUARD = 6
# the largest Steiner budget searched: an explicit bound's k or the node
# weight's B (what the search allocates grows with it)
STEINER_BUDGET_GUARD = 20
_OBJECTIVE_TIE = 1e-12
# a bound summed in another order than the costs it is compared with (the
# known tree's cost, the bead walk's floors) cuts only beyond this relative
# slack, on top of the absolute tie
_CUT_SLACK = 1.0 + 1e-9


@dataclass(frozen=True)
class SearchReport:
    best: SolvedTree
    objective: float
    # the degree and explicit bounds count subtree and forest summaries
    # built, those dropped by the cut or as dominated, and single-subtree
    # summaries built with beads on their out-edge; the node weight counts
    # skeletons walked, the skeletons cut by the path bound plus the bead
    # prefixes (a bead count on one out-edge, with those before it fixed)
    # cut by the walk's bound, and (skeleton, bead vector) pairs costed
    topologies_examined: int
    topologies_pruned: int
    bead_vectors: int
    strategy: BoundStrategy
    lower_bound: float
    # the cost of a known tree the search cut with: under the node weight
    # the beaded spanning tree's, else the best tree found over some of the
    # sources with the others wired straight to the sink
    upper_bound: float | None = None
    steiner_bound: int | None = None  # node-weighted: the Steiner budget B
    # seconds spent finding the winner ("search") and expanding, re-solving
    # and checking it ("resolve")
    phase_s: dict[str, float] = field(default_factory=dict)


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
    """Globally minimum tree under the strategy, by exhaustive search.

    Refuses instances with more than guard_n sources, since the space grows
    factorially and this is a desk-scale exact method, and Steiner budgets
    above STEINER_BUDGET_GUARD.
    """
    n = instance.n_sources
    if n > guard_n:
        raise GuardLimitError(
            f"exact search is limited to {guard_n} sources (got {n}); "
            f"raise guard_n explicitly to go further"
        )
    if isinstance(strategy, DegreeBound):
        # a Steiner point has at least phi - 1 children, each over a source,
        # so every phi >= n + 2 admits the same trees: those with none
        return _subset_search(instance, strategy, min(strategy.phi, n + 2), 0, 0)
    if isinstance(strategy, ExplicitBound):
        _guard_budget(strategy.k, "the explicit bound is")
        return _subset_search(instance, strategy, 3, strategy.k, 1)
    if isinstance(strategy, NodeWeighted):
        c = strategy.c
        try:
            budget = analysis.steiner_count_bound(instance, c)
        except ValueError:  # a spanning edge's f L^2 / c overflows a float
            budget = math.inf
        _guard_budget(budget, "the node weight's budget is")
        # an edge carries at most the total supply over at most the diagonal
        cap = analysis.optimal_bead_count(instance.total_supply(), _bounding_box_diagonal(instance), c)
        upper = analysis.beaded_spanning_cost(instance, c)
        return _search(instance, strategy, 3, budget, cap, c, upper)
    raise TypeError(f"unknown strategy {strategy!r}")


def _guard_budget(budget: float, what: str) -> None:
    if budget > STEINER_BUDGET_GUARD:
        raise GuardLimitError(
            f"exact search is limited to a Steiner budget of {STEINER_BUDGET_GUARD}; "
            f"{what} {budget:.6g}"
        )


def _subset_search(
    instance: Instance, strategy: BoundStrategy, phi: int, budget: int, step: int
) -> SearchReport:
    """The subset DP of the module docstring, over counts 0 .. budget.

    A branching Steiner point adds step to the count (1 under the explicit
    bound; 0 under the degree bound, which runs with budget 0 and so places
    no beads).  Every mask is taken after its proper submasks, with the
    sources ordered from the dearest to wire straight to the sink to the
    cheapest: each prefix of that order is done before the next source
    joins.  A list entry is (qx, qy, W, K, link): a forest's W is its merged
    weight V, and link is a chain (part node, rest link) ending in None.  A
    node is (source, mask of its children's sources, their count, beads on
    the out-edge) or (STEINER, link of its children, beads on the
    out-edge).  Anchors 0 .. n-1 are the sources and n the sink.
    """
    started = time.perf_counter()
    inf = math.inf
    n = instance.n_sources
    top = phi - 1
    full = (1 << n) - 1
    counts = range(budget + 1)
    # forests only feed Steiner roots, which add step to the count
    forest_counts = range(budget + 1 - step)
    forest_splits = [(k1, k2) for k1 in forest_counts for k2 in range(len(forest_counts) - k1)]
    # per forest count, (count, beads) of the Steiner roots over the forest
    steiner_roots = [
        [(kc + step + p, p) for p in range(len(forest_counts) - kc)] for kc in forest_counts
    ]
    xs = [p.x for p in instance.sources] + [instance.sink.x]
    ys = [p.y for p in instance.sources] + [instance.sink.y]
    sink_x = xs[n]
    sink_y = ys[n]
    supplies = instance.supplies
    flow = [0.0] * (full + 1)
    # per mask M, the cost of wiring the sources outside M straight to the
    # sink; a known tree is the best one over M plus those wires
    wires = [s * ((x - sink_x) ** 2 + (y - sink_y) ** 2) for x, y, s in zip(xs, ys, supplies)]
    wired = [0.0] * (full + 1)
    upper = wired[0] = sum(wires)
    # the known tree is costed in another summation order than the floors
    limit = upper * _CUT_SLACK + _OBJECTIVE_TIE
    order = sorted(range(n), key=wires.__getitem__, reverse=True)
    # masks[m] holds source order[i] for each bit i of m, so taking m in
    # increasing order takes each prefix of the order whole, and every mask
    # after its submasks
    masks = [0] * (full + 1)
    for m in range(1, full + 1):
        low = m & -m
        masks[m] = masks[m ^ low] | 1 << order[low.bit_length() - 1]
    lists: list = [None] * (full + 1)  # lists[mask][k][c]: kept class c at count k
    # per anchor, count k and mask, each meaning "at most k": the best forest
    # hanging from the anchor and its part holding the mask's lowest source
    # (with that part's count); the best single subtree and its root
    best, cut, single, pick = (
        [[[value] * (full + 1) for _ in counts] for _ in range(n + 1)]
        for value in (0.0, None, 0.0, None)
    )
    built = dropped = beaded = 0
    for mask in masks[1:]:
        low = mask & -mask
        rest = mask ^ low
        f = flow[mask] = flow[rest] + supplies[low.bit_length() - 1]
        wired[mask] = wired[rest] - wires[low.bit_length() - 1]
        # the floor of the module docstring: from a summary's parent to the
        # sink M's flow crosses at most path - k edges and beads, and a
        # source outside M at most n + budget
        path = n + 1 + budget - mask.bit_count()
        room = limit - wired[mask] / (n + budget)
        raw: list = [[[] for _ in range(top + 1)] for _ in counts]  # raw, then kept
        singles = [classes[1] for classes in raw]
        weights = [f / (p + 1) for p in counts]  # of the out-edge under p beads
        sub = rest
        while sub:
            heads = lists[mask ^ sub]
            tails_by_count = lists[sub]
            for k1, k2 in forest_splits:
                parts = heads[k1][1]
                if not parts:
                    continue
                tails_by_class = tails_by_count[k2]
                into = raw[k1 + k2]
                g = f / (path - k1 - k2)
                for c in range(1, top + 1):
                    tails = tails_by_class[c]
                    if not tails:
                        continue
                    out = into[c + 1 if c < top else top]
                    before = len(out)
                    # the pairwise case of merge_summaries, in closed form,
                    # each forest cut on the floor of _under_floor before
                    # it is built
                    for ax, ay, aw, ak, (anode, _) in parts:
                        for bx, by, bw, bk, blink in tails:
                            v = aw + bw
                            dx = ax - bx
                            dy = ay - by
                            qx = (aw * ax + bw * bx) / v
                            qy = (aw * ay + bw * by) / v
                            kk = ak + bk + aw * bw / v * (dx * dx + dy * dy)
                            dx = qx - sink_x
                            dy = qy - sink_y
                            if kk + v * g / (v + g) * (dx * dx + dy * dy) <= room:
                                out.append((qx, qy, v, kk, (anode, blink)))
                    merged = len(parts) * len(tails)
                    built += merged
                    dropped += merged - (len(out) - before)
            sub = (sub - 1) & rest
        # per class c, the kept forests of class >= c at lower counts, by W
        lower: list = [[]] * (top + 1)
        for k in forest_counts:
            classes = raw[k]
            same: list = []  # kept forests of higher classes at count k
            for c in range(top, 1, -1):
                candidates = classes[c]
                above = sorted(lower[c] + same, key=_WEIGHT) if same else lower[c]
                kept = classes[c] = _prune_dominated(candidates, above)
                dropped += len(candidates) - len(kept)
                same += kept
                if k < forest_counts[-1]:
                    lower[c] = sorted(above + kept, key=_WEIGHT) if kept else above
        for r in range(n):
            if mask >> r & 1:
                others = mask ^ (1 << r)
                previous = inf
                for kc, below in enumerate(best[r]):
                    k = below[others]
                    if not k < previous:  # the same forest at a higher count
                        continue
                    previous = k
                    for p in range(budget + 1 - kc):
                        singles[kc + p].append((xs[r], ys[r], weights[p], k, ((r, others, kc, p), None)))
                    beaded += budget - kc
        for kc, roots in zip(forest_counts, steiner_roots):
            forests = raw[kc][top]
            # a list takes one bead count per forest count, so it keeps the
            # forests' order
            for t, p in roots:
                w = weights[p]
                singles[t] += [
                    (qx, qy, steiner_weight(v, w), k, ((STEINER, link, p), None))
                    for qx, qy, v, k, link in forests
                ]
                if p:
                    beaded += len(forests)
        earlier: list = []  # kept singles at lower counts, by W
        for k in counts:
            candidates = singles[k]
            built += len(candidates)
            below = _under_floor(candidates, f / (path - k), sink_x, sink_y, room)
            kept = singles[k] = raw[k][1] = _prune_dominated(below, earlier)
            dropped += len(candidates) - len(kept)
            if kept and k < budget:
                earlier = sorted(earlier + kept, key=_WEIGHT)
        lists[mask] = raw
        for a in range(n + 1):
            if a < n and mask >> a & 1:
                continue
            px = xs[a]
            py = ys[a]
            single_a = single[a]
            best_a = best[a]
            value = inf
            node = None
            for k in counts:
                for qx, qy, w, kk, (candidate_node, _) in singles[k]:
                    dx = px - qx
                    dy = py - qy
                    candidate = kk + w * (dx * dx + dy * dy)
                    if candidate < value:
                        value = candidate
                        node = candidate_node
                single_a[k][mask] = value
                pick[a][k][mask] = node
                total = value
                choice = mask
                choice_k = k
                for k1 in range(k + 1):
                    head = single_a[k1]
                    tail = best_a[k - k1]
                    before = total
                    sub = rest
                    while sub:
                        candidate = head[mask ^ sub] + tail[sub]
                        if candidate < total:
                            total = candidate
                            choice = mask ^ sub
                        sub = (sub - 1) & rest
                    if total < before:
                        choice_k = k1
                best_a[k][mask] = total
                cut[a][k][mask] = (choice, choice_k)
        known = best[n][budget][mask] + wired[mask]
        if known < upper and mask != full:
            upper = known
            limit = upper * _CUT_SLACK + _OBJECTIVE_TIE

    def anchored(a: int, mask: int, k: int) -> tuple:
        children = []
        while mask:
            part, k_part = cut[a][k][mask]
            children.append(subtree(pick[a][k_part][part]))
            mask ^= part
            k -= k_part
        return tuple(children)

    def subtree(node: tuple) -> tuple:
        if node[0] != STEINER:
            root, below, k, p = node
            return (root, anchored(root, below, k), p)
        root, below, p = node
        children = []
        while below is not None:
            children.append(subtree(below[0]))
            below = below[1]
        return (root, tuple(children), p)

    placed = skeleton_placement(n, anchored(n, full, budget))
    n_steiner = sum(1 for tree, _, _ in placed if tree[0] == STEINER)
    beads = [0] * (n + 1 + n_steiner)
    for tree, node, _ in placed:
        beads[node] = tree[2]
    del beads[n]
    return _report(
        instance,
        strategy,
        placed_topology(n, n_steiner, placed),
        tuple(beads),
        best[n][budget][full],
        0.0,
        started,
        topologies_examined=built,
        topologies_pruned=dropped,
        bead_vectors=beaded,
        upper_bound=upper,
    )


def _under_floor(summaries: list, g: float, sx: float, sy: float, room: float) -> list:
    """The summaries (qx, qy, W, K, link) with K + (W g / (W + g)) |q - s|^2
    at most room, in their order: the least their sources' shares can cost
    when their flow f goes on from the parent to s over at most L edges
    and beads, g = f / L (see the module docstring)."""
    kept = []
    for summary in summaries:
        qx, qy, w, k, _ = summary
        dx = qx - sx
        dy = qy - sy
        if k + w * g / (w + g) * (dx * dx + dy * dy) <= room:
            kept.append(summary)
    return kept


_WEIGHT = itemgetter(2)
_WEIGHT_AND_K = itemgetter(2, 3)


def _prune_dominated(summaries: list, above: Sequence = ()) -> list:
    """The summaries (qx, qy, W, K, link) that neither an earlier kept one
    nor one of above dominates, sorted by (W, K) and then input order (the
    list is sorted in place).

    a dominates b when K_a + W_a |x - q_a|^2 <= K_b + W_b |x - q_b|^2 for
    every x: when W_a < W_b and (K_b - K_a)(W_b - W_a) >= W_a W_b |q_a - q_b|^2
    (the difference is a convex quadratic; this says its minimum is >= 0),
    or when W_a == W_b, q_a == q_b and K_a <= K_b.  Only a summary of no
    larger W and no larger K can dominate, so after the sort one pass
    suffices, and the pass keeps its dominators sorted by K to scan only
    those of K at most the candidate's.  above must be sorted by W; its
    summaries dominate but are not pruned.
    """
    summaries.sort(key=_WEIGHT_AND_K)
    kept: list = []
    pool: list = []  # above and kept summaries with W <= the current one's, by K
    pool_k: list = []  # their K, in the same order
    i = 0
    m = len(above)
    for b in summaries:
        bx, by, bw, bk, _ = b
        while i < m and above[i][2] <= bw:
            a = above[i]
            j = bisect_right(pool_k, a[3])
            pool_k.insert(j, a[3])
            pool.insert(j, a)
            i += 1
        for ax, ay, aw, ak, _ in pool:
            if ak > bk:  # so is every later one: a is above b at q_b
                break
            if aw < bw:
                dx = ax - bx
                dy = ay - by
                if (bk - ak) * (bw - aw) >= aw * bw * (dx * dx + dy * dy):
                    break
            elif ax == bx and ay == by:
                break
        else:
            ak = math.inf
        if ak > bk:
            kept.append(b)
            j = bisect_right(pool_k, bk)
            pool_k.insert(j, bk)
            pool.insert(j, b)
    return kept


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
    incumbent = _Incumbent(
        math.inf if upper_bound is None else upper_bound * _CUT_SLACK + _OBJECTIVE_TIE
    )
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
            walked, cut = _walk_bead_vectors(
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
        bead_charge,
        started,
        topologies_examined=examined,
        topologies_pruned=pruned,
        bead_vectors=costed,
        upper_bound=upper_bound,
        steiner_bound=steiner_budget if isinstance(strategy, NodeWeighted) else None,
    )


def _report(
    instance: Instance,
    strategy: BoundStrategy,
    topology: Topology,
    beads: tuple[int, ...],
    searched: float,
    bead_charge: float,
    started: float,
    **counters,
) -> SearchReport:
    """Expand the winner's beads, re-solve it (with the solver's residual
    check) and check its objective against the searched one."""
    resolving = time.perf_counter()
    if any(beads):
        topology = analysis.expand_beads(topology, beads)
    best = algebraic_solver.solve_topology(instance, topology)
    total_steiner = best.topology.n_steiner
    final_objective = best.cost + bead_charge * total_steiner
    if not math.isclose(final_objective, searched, rel_tol=1e-9, abs_tol=1e-9):
        raise InternalConsistencyError(
            f"expanded winner objective {final_objective} drifted from searched {searched}"
        )
    return SearchReport(
        best=best,
        objective=final_objective,
        strategy=strategy,
        lower_bound=analysis.lower_bound_path(instance, total_steiner),
        phase_s={"search": resolving - started, "resolve": time.perf_counter() - resolving},
        **counters,
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
    the module docstring exceeds the incumbent (see _walk_floors).  A
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
    anchors, others, ahead = _walk_floors(instance, order, up, per_edge_cap, bead_charge)
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


def _walk_floors(
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


def _bounding_box_diagonal(instance: Instance) -> float:
    xs = [p.x for p in instance.sources] + [instance.sink.x]
    ys = [p.y for p in instance.sources] + [instance.sink.y]
    dx = max(xs) - min(xs)
    dy = max(ys) - min(ys)
    return math.hypot(dx, dy)
