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

The search cuts with one floor, from the paper's additive flows: an edge's
cost f_e |e|^2 splits into one share sigma_t |e|^2 for each source t whose
path to the sink crosses it.  Take a subtree whose sources hold flow f,
with cost K + W |x - q|^2 when its parent is at x, and a terminal z (the
sink s, or a fixed source) that the flow reaches over at most L more edges
and beads past x.  By Cauchy-Schwarz on their lengths, the subtree's
sources cost at least min over x of K + W |x - q|^2 + g |x - z|^2 with
g = f / L, that is K + (W g / (W + g)) |q - z|^2.

Every strategy is searched by one dynamic programme over source bitmasks,
the Dreyfus-Wagner subset recursion split at terminals.  Its state is
(mask, count k, part-count class c).  Under the explicit bound the count
holds the branching Steiner points and the beads of a subtree, those on
its own out-edge included, and runs up to the bound; the degree bound and
the node weight count nothing, so they have the one count 0.  The node
weight folds its charge into the summaries instead: a single subtree's K
holds c for its root when that is a Steiner point and c for each bead on
its out-edge.  Flows are additive, so K + W |x - q|^2 is then the cost of
the subtree, its charge included, whatever the rest of the tree is.  Per
mask and count the programme keeps forests of child subtrees by part count
c = 1 .. phi-1 (phi = 3 under the explicit bound and the node weight), the
last class meaning at least phi-1 parts: class 1 holds the single subtrees
(a source root, or a Steiner root over a top-class forest, each under
every bead count its out-edge can take), and a class c >= 2 forest is the
part holding the mask's lowest source merged with a class c-1 forest over
the rest (the top class also takes a top-class rest), their counts adding
up.  A terminal has a fixed position, so the best subtree rooted at a
source and the best tree at the sink are scalars per count: the best
forest at a fixed anchor with at most k counted, a set-partition recursion
over the best single subtree at that anchor.  Per anchor, layer 0 holds the
best single subtree and layer 1 the best forest: its part holding the
mask's lowest source from layer 0, its rest from layer 1 itself.

Under the degree bound the programme builds only the paper's degree window.
A Steiner point with more than 2 phi - 4 children, or a source with more
than phi - 2, splits at no cost into two nodes the bound admits (phi - 1 of
the children move to a new Steiner point at the same place), so some
optimum has every Steiner degree in [phi, 2 phi - 3] and every source
degree at most phi - 1 (analysis.check_degree_window screens for both).
A source with exactly phi - 2 children turns at no cost into a new Steiner
point at its place, whose children are the source's and the source itself,
a leaf on a zero-length edge: that point has phi - 1 children, inside the
window, and the bound caps no Steiner count, so the tree stays feasible,
and moving the point to its centroid cannot raise the cost.  So some
optimum also has every source with at most phi - 3 children (at phi = 3,
every source a leaf); only ties lose a tree.  The classes are then exact
part counts c = 1 .. 2 phi - 4 (and at most n): a top-class forest is not
merged further, and a Steiner root is built over every class phi - 1 ..
2 phi - 4.  A source anchors at most phi - 3 parts: its forests take
layers 1 .. phi - 4, layer j holding those of at most j + 1 parts, their
rest from layer j - 1, and at phi = 3 it has no layers at all, its single
subtree being the bare source over itself alone.  The sink takes any
number.

Under the node weight an out-edge over mask M takes 0 .. cap(M) beads,
cap(M) the largest p minimising f D^2/(p+1) + c p at M's flow f and the
bounding box's diagonal D.  At an optimum, re-spacing one edge's beads for
another count with every other node fixed gives a feasible tree, so the
edge's count minimises f L^2/(p+1) + c p at its own length L.  The largest
minimiser does not decrease as L grows, and every node lies in the hull of
the terminals, so L <= D.  An optimum holds at most B Steiner points (see
analysis.steiner_count_bound), so no cap exceeds B either.

Each list is cut and then pruned.  The cut drops a summary (q, W, K) over
mask M at count k that no tree cheaper than a known one can complete (with
a relative slack, so that ties pass).  Its floor is the one above towards
z = s: from the parent of a subtree (the Steiner root of a forest) to the
sink, every node is a source outside M or a Steiner point with another
child over one, or one of the beads, so L = n - |M| + 1 + (budget - k), the
budget being the explicit bound, 0 under the degree bound, and B under the
node weight; each source t outside M reaches the sink over at most
n + budget edges and beads, so it adds at least sigma_t |z_t - s|^2 /
(n + budget).  Under the node weight a summary must pass a second floor
that charges the way on: with b beads on it, M's sources pay the share
above at L = n - |M| + 1 + b and the beads c b, and a forest's Steiner root
adds c; the least over real b in [0, B] has a closed form (see
_charged_share).  The known tree is the best one found so far over some
mask, with the other sources wired straight to the sink; under the node
weight it starts as the beaded spanning tree.  Masks are taken with the
sources ordered from the dearest to wire straight to the sink to the
cheapest, so once the last source joins the known tree is at least as good
as "drop nearest": the best tree without the source cheapest to wire, plus
that wire.  Under the degree bound the known tree starts as a greedy tree
(see _greedy_tree), costed by re-solving it: that is the cost of a real
tree, so the cut stays exact however far the greedy moves are from an
optimum.  The prune then drops a summary when one of no higher count has a
cost function nowhere above its own.  This is exact because merging, the
Steiner transform (see steiner_weight) and evaluation at a fixed anchor are
each monotone in every part's cost function, and a part of lower count
leaves more of the budget to the rest, so a dominated summary never
completes a better tree; a forest of more parts serves wherever one of
fewer parts does, so a class is pruned against every higher class too, but
single subtrees never against forests.  Under the window, which caps the
parts, a capped forest of more parts no longer serves wherever one of fewer
does, so each class is pruned only within itself.  Under the node weight
the charge is in K, so one bead count of a subtree can dominate another.  A
dominator's floor is no higher than the summary's it dominates, so the kept
lists are those of the uncut programme less the cut summaries, and the
winner is the same.  No topology is visited.

Under the node weight the cut reaches back to the parts of a forest: a
pair whose parts' own floors already fail it is never merged.  A kept
summary (q, W, K) over a proper mask X has the floor F = K + (W g / (W +
g)) |q - s|^2 at g = f_X / (n + B - |X|).  Merge parts over X_a and X_b
into a forest over M, with a Steiner root at x and b beads, real b in
[0, B], on its way on.  Its sources pay sum_i K_i + W_i |x - q_i|^2 +
f |x - s|^2 / (bare + b) + c b with bare = n + 1 - |M|, and that is at
least F_a + F_b: f = f_a + f_b, each share falls as b grows, c b >= 0,
and bare + B = n + 1 + B - |M| <= n + B - |X_i|, the other part holding a
source.  So the forest's plain floor is at least F_a + F_b and its
charged floor, with c for its Steiner root, at least c + F_a + F_b: a
pair with c + F_a + F_b above the room the cut leaves is one the cut
drops once it is built, and skipping it changes no list.  The floors are
taken once per kept list, with each list's least, and skip a whole class
of tails (the least part with the least tail), a part (with the least
tail) or a pair, always with a relative slack on the room and in the
tails' own order.  A skipped pair is not built, so it counts as neither
built nor dropped.  The bounds merge every pair: at n = 4-6 their lists
mostly hold one or two summaries, and taking the floors measured dearer
than the pairs they would skip.

Everything here is deterministic.  Ties have one rule: among equal
summaries and equal scalars, the first in generation order is kept.
"""

from __future__ import annotations

import math
import sys
import time
from bisect import bisect_right
from itertools import combinations
from operator import itemgetter
from typing import Callable, Sequence

from . import algebraic_solver, analysis
from .algebraic_solver import merge_summaries, pinned_cost, steiner_weight
from .errors import GeometryError, GuardLimitError, InternalConsistencyError
from .geometry import Record, mass_scale
from .strategies import DEFAULT_GUARD, BoundStrategy, DegreeBound, ExplicitBound, NodeWeighted, objective
from .topology import NO_PARENT, Instance, Topology, validate_topology
from .trees import SolvedTree

# the largest Steiner budget searched: an explicit bound's k, which the
# count dimension of every list grows with, or the node weight's B, which
# caps the beads on an out-edge and lengthens the cut's paths
STEINER_BUDGET_GUARD = 20
_OBJECTIVE_TIE = 1e-12
# a bound summed in another order than the costs it is compared with (the
# known tree's cost) cuts only beyond this relative slack, on top of the
# absolute tie
_CUT_SLACK = 1.0 + 1e-9
# under the node weight a pair is skipped on its parts' own floors only
# beyond this relative slack on the room the cut leaves, so that rounding
# never skips a pair whose merged floors pass
_SKIP_SLACK = 1.0 + 1e-9


class SearchReport(Record):
    """What solve_exact found and did.  topologies_examined, topologies_pruned
    and bead_vectors count the subtree and forest summaries built, those
    dropped by the cut or as dominated, and the single-subtree summaries
    built with beads on their out-edge; under the node weight a pair of
    parts skipped on their own floors is never built, so it counts in
    neither of the first two.  upper_bound is the cost of the best
    known tree the search cut with: the best tree found over some of the
    sources with the others wired straight to the sink, or the starting tree
    if cheaper (under the degree bound the greedy tree, under the node
    weight the beaded spanning tree).  steiner_bound is the node weight's
    Steiner budget B.  phase_s holds the seconds spent finding the winner
    ("search") and expanding, re-solving and checking it ("resolve"), by
    default in a new empty dict."""

    def __init__(
        self, best: SolvedTree, objective: float, topologies_examined: int, topologies_pruned: int,
        bead_vectors: int, strategy: BoundStrategy, lower_bound: float, upper_bound: float,
        steiner_bound: int | None = None, phase_s: dict[str, float] | None = None,
    ) -> None:
        self._store(
            best, objective, topologies_examined, topologies_pruned, bead_vectors, strategy,
            lower_bound, upper_bound, steiner_bound, {} if phase_s is None else phase_s,
        )


def solve_exact(
    instance: Instance, strategy: BoundStrategy, guard_n: int = DEFAULT_GUARD
) -> SearchReport:
    """Globally minimum tree under the strategy, by exhaustive search.

    Refuses instances with more than guard_n sources, since the space grows
    factorially and this is a desk-scale exact method, and Steiner budgets
    above STEINER_BUDGET_GUARD.  Raises GeometryError when the points lie so
    far apart that a tree's cost could overflow a float.
    """
    n = instance.n_sources
    if n > guard_n:
        raise GuardLimitError(
            f"exact search is limited to {guard_n} sources (got {n}); "
            f"raise guard_n explicitly to go further"
        )
    diagonal = analysis.bounding_diagonal(instance)
    if isinstance(strategy, DegreeBound):
        # a Steiner point has at least phi - 1 children, each over a source,
        # so every phi >= n + 2 admits the same trees: those with none
        phi = min(strategy.phi, n + 2)
        seed = _greedy_tree(instance, phi)
        # the seed's solved cost is that of a real tree, so the cut stays
        # exact whatever the greedy moves were
        known = math.inf
        if not validate_topology(seed, strategy):
            known = algebraic_solver.solve_topology(instance, seed).cost
        return _subset_search(instance, strategy, diagonal, phi, 0, 0, known=known)
    if isinstance(strategy, ExplicitBound):
        _guard_budget(strategy.k, "the explicit bound is")
        return _subset_search(instance, strategy, diagonal, 3, strategy.k, 1)
    if isinstance(strategy, NodeWeighted):
        c = strategy.c
        try:
            upper = analysis.beaded_spanning_cost(instance, c)
            budget = analysis.steiner_count_bound(instance, c, upper)
        except ValueError:  # a spanning edge's f L^2 / c overflows a float
            budget = math.inf
        _guard_budget(budget, "the node weight's budget is")
        return _subset_search(instance, strategy, diagonal, 3, 0, 0, c, budget, upper)
    raise TypeError(f"unknown strategy {strategy!r}")


def _guard_budget(budget: float, what: str) -> None:
    if budget > STEINER_BUDGET_GUARD:
        raise GuardLimitError(
            f"exact search is limited to a Steiner budget of {STEINER_BUDGET_GUARD}; "
            f"{what} {budget}"
        )


def _greedy_tree(instance: Instance, phi: int) -> Topology:
    """A tree inside the degree bound phi's window, built greedily.

    Every source starts as a root.  The best strictly improving move is
    taken until none is left: join phi - 1 roots under a new Steiner point,
    or hang a root under a source root with fewer than phi - 2 children.
    Each move is costed in closed form on the roots' summaries (qx, qy, W,
    K), a root costing its summary pinned at the sink; the roots left hang
    from the sink.  Ties keep the first move found.  Children are ordered
    by their lowest source, and _parent_array numbers the tree as it
    numbers the subset DP's winner, so the same tree re-solves to the same
    cost.

    A source may so take phi - 2 children, which the subset DP never
    builds: the greedy tree may lie outside the DP's family.  It is still a
    tree inside the bound, so its cost is at least the optimum's, and the
    cut it seeds stays exact.
    """
    n = instance.n_sources
    sx = instance.sink.x
    sy = instance.sink.y
    wires = [(x - sx) * (x - sx) + (y - sy) * (y - sy) for x, y in zip(instance.xs, instance.ys)]
    # per root: its summary, flow and cost at the sink
    roots = {
        r: ((x, y, f, 0.0), f, f * wires[r])
        for r, (x, y, f) in enumerate(zip(instance.xs, instance.ys, instance.supplies))
    }
    below: dict = {}  # per node, its children
    lowest = list(range(n + 1))  # per node, its subtree's lowest source
    free = [phi - 2] * n  # the children each source may still take
    while True:
        gain = 0.0
        move = None
        items = list(roots.items())
        for group in combinations(items, phi - 1):
            qx, qy, v, k = merge_summaries([member[0] for _, member in group])
            f = saved = 0.0
            for _, (_, flow, at_sink) in group:
                f += flow
                saved += at_sink
            joined = (qx, qy, steiner_weight(v, f), k)
            cost = pinned_cost(sx, sy, [joined])
            if saved - cost > gain:
                gain = saved - cost
                move = (None, [r for r, _ in group], (joined, f, cost))
        for r, ((x, y, w, k), _, at_sink) in items:
            if r < n and free[r]:
                wire = wires[r]
                for child, (summary, flow, child_at_sink) in items:
                    if child != r:
                        # the root takes the child's cost pinned at it and
                        # carries its flow on to the sink
                        pinned = pinned_cost(x, y, [summary])
                        saved = child_at_sink - pinned - flow * wire
                        if saved > gain:
                            gain = saved
                            grown = (x, y, w + flow, k + pinned)
                            move = (r, [child], (grown, w + flow, at_sink - saved + child_at_sink))
        if move is None:
            break
        root, children, entry = move
        if root is None:  # a new Steiner point, numbered past every node so far
            root = len(lowest)
            lowest.append(n)  # above every source, until its children join
        else:
            free[root] -= 1
        below.setdefault(root, []).extend(children)
        for child in children:
            del roots[child]
            lowest[root] = min(lowest[root], lowest[child])
        roots[root] = entry

    return _parent_array(
        n,
        sorted(roots, key=lowest.__getitem__),
        lambda node: (node if node < n else None, 0, sorted(below.get(node, ()), key=lowest.__getitem__)),
    )[0]


def _parent_array(n: int, roots: Sequence, expand: Callable) -> tuple[Topology, tuple[int, ...]]:
    """The tree of n sources whose sink takes the given roots, and the
    beads on each out-edge in edge_children order.

    expand(node) gives the node's source index (None at a Steiner point),
    the beads on its out-edge and its children.  Nodes are visited depth
    first, the last root and the last child first, and Steiner points take
    slots n + 1, n + 2, ... in visit order.
    """
    parents = [NO_PARENT] * (n + 1)
    beads = [0] * (n + 1)
    stack = [(root, n) for root in roots]
    while stack:
        node, parent = stack.pop()
        slot, p, children = expand(node)
        if slot is None:
            slot = len(parents)
            parents.append(parent)
            beads.append(p)
        else:
            parents[slot] = parent
            beads[slot] = p
        stack += [(child, slot) for child in children]
    del beads[n]
    return Topology(n, len(parents) - n - 1, parents), tuple(beads)


def _subset_search(
    instance: Instance,
    strategy: BoundStrategy,
    diagonal: float,
    phi: int,
    budget: int,
    step: int,
    charge: float = 0.0,
    steiner_bound: int | None = None,
    known: float = math.inf,
) -> SearchReport:
    """The subset DP of the module docstring, over counts 0 .. budget, in
    the bounding box of the given diagonal.

    A branching Steiner point adds step to the count (1 under the explicit
    bound; 0 under the degree bound, which runs with budget 0 and so places
    no beads).  A positive charge is the node weight c: budget and step are
    then 0, each out-edge takes the bead counts up to its cap, and each
    single subtree's K holds the charge of its root and its beads.
    steiner_bound is the node weight's B, which takes the budget's place in
    the floor's path lengths and caps the beads on an out-edge; known is
    the cost of a known tree.  Every mask is taken after its proper
    submasks, with the sources ordered from the dearest to wire straight to
    the sink to the cheapest: each prefix of that order is done before the
    next source joins.  A list entry is (qx, qy, W, K, link): a forest's W
    is its merged weight V, and link is a chain (part node, rest link)
    ending in None.  A node is (root, link of its children, beads on the
    out-edge), root being the source index or None at a Steiner point.
    Anchors 0 .. n-1 are the sources and n the sink; their tables keep the
    same links.
    """
    started = time.perf_counter()
    inf = math.inf
    n = instance.n_sources
    # under the degree bound's window class c holds the forests of exactly c
    # parts, and Steiner roots take top .. phi - 1 parts (the most first, so
    # that of equal Steiner roots the one of more parts is kept): no more
    # than the sources, and no forests at all when no Steiner root can take
    # phi - 1; otherwise the top class means at least phi - 1 parts
    window = isinstance(strategy, DegreeBound)
    if window:
        top = min(2 * phi - 4, n) if phi <= n + 1 else 1
        merging = range(1, top)
        steiner_classes = range(top, phi - 2, -1)
    else:
        top = phi - 1
        merging = range(1, top + 1)
        steiner_classes = range(top, top + 1)
    full = (1 << n) - 1
    counts = range(budget + 1)
    # the most Steiner points and beads on an optimum's way to the sink
    reach = budget if steiner_bound is None else steiner_bound
    # forests only feed Steiner roots, which add step to the count
    forest_counts = range(budget + 1 - step)
    forest_splits = [(k1, k2) for k1 in forest_counts for k2 in range(len(forest_counts) - k1)]
    # per count of the children, (count, beads, charge) of each out-edge a
    # source root over them takes, and of each a Steiner root over a forest
    # of them takes; under the node weight these are set per mask
    source_edges = [[(kc + p, p, 0.0) for p in range(budget + 1 - kc)] for kc in counts]
    steiner_edges = [
        [(kc + step + p, p, 0.0) for p in range(len(forest_counts) - kc)] for kc in forest_counts
    ]
    bead_counts = counts
    xs = [*instance.xs, instance.sink.x]
    ys = [*instance.ys, instance.sink.y]
    sink_x = xs[n]
    sink_y = ys[n]
    # supplies scaled by geometry.mass_scale, the charge and known cost
    # alike: no product of two weights underflows or overflows.  A charge
    # scaled past every float, held finite, outweighs any tree all the same.
    scale = mass_scale(max(instance.supplies))
    supplies = [w * scale for w in instance.supplies]
    # every weight the search divides by is at least the least supply over
    # a path's n + 1 + reach edges and beads, less a subnormal rounding per
    # edge: refuse supplies spread so far that this bound reaches 0
    if min(supplies) / (n + 1 + reach) ** 2 == 0.0:
        lo, hi = min(instance.supplies), max(instance.supplies)
        raise GeometryError(f"supplies spread from {lo:.6g} to {hi:.6g}: the least would weigh 0 in the search")
    charge = min(charge * scale, sys.float_info.max)
    known *= scale
    flow = [0.0] * (full + 1)
    # per mask M, the cost of wiring the sources outside M straight to the
    # sink; a known tree is the best one over M plus those wires
    wires = [s * ((x - sink_x) ** 2 + (y - sink_y) ** 2) for x, y, s in zip(xs, ys, supplies)]
    wired = [0.0] * (full + 1)
    wired[0] = sum(wires)
    upper = min(wired[0], known)
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
    # per anchor, layers of tables by count k and mask, each meaning "at
    # most k" (see the module docstring): layer 0 the best single subtree
    # hanging from the anchor, layer j >= 1 the best forest, its rest from
    # layer j - shift.  The window's cap of phi - 3 parts at a source binds
    # when phi - 3 is below the n - 1 other sources (phi < n + 2), with
    # shift 1 there, and at phi = 3 leaves a source no layer at all;
    # elsewhere shift is 0.  links holds each entry's link: the single's at
    # layer 0, and at a forest layer (single node, rest link), or the
    # single's own link where no split beats it.
    capped = window and phi < n + 2
    depths = [phi - 3 if capped else 2] * n + [2]
    shifts = [int(capped)] * n + [0]
    layers = [[[[0.0] * (full + 1) for _ in counts] for _ in range(depth)] for depth in depths]
    links = [[[[None] * (full + 1) for _ in counts] for _ in range(depth)] for depth in depths]
    anchors = [a for a in range(n + 1) if layers[a]]
    # per source, its children's best forest by count and mask: a leaf has
    # one, over no sources
    leaf = [[0.0] + [inf] * full for _ in counts]
    below_sources = [t[-1] if t else leaf for t in layers[:n]]
    # per anchor and forest layer: the layer and its links, and those of
    # its rests
    stacks = [
        [(values[j], chains[j], values[j - s], chains[j - s]) for j in range(1, len(values))]
        for values, chains, s in zip(layers, links, shifts)
    ]
    # under the node weight, per proper mask and class, the kept summaries'
    # own floors and the least of them (see the module docstring)
    floors: list = [None] * (full + 1)
    built = dropped = beaded = 0
    for mask in masks[1:]:
        low = mask & -mask
        rest = mask ^ low
        f = flow[mask] = flow[rest] + supplies[low.bit_length() - 1]
        wired[mask] = wired[rest] - wires[low.bit_length() - 1]
        # the floor of the module docstring: from a summary's parent to the
        # sink M's flow crosses at most path - k edges and beads, and a
        # source outside M at most n + reach
        path = n + 1 + reach - mask.bit_count()
        bare = path - reach  # the path's edges other than beads
        room = limit - wired[mask] / (n + reach)
        raw: list = [[[] for _ in range(top + 1)] for _ in counts]  # raw, then kept
        singles = [classes[1] for classes in raw]
        if charge:
            bead_counts = range(_bead_cap(f, diagonal, charge, reach) + 1)
            source_edges = [[(0, p, charge * p) for p in bead_counts]]
            steiner_edges = [[(0, p, charge * (p + 1)) for p in bead_counts]]
            g = f / path
            # a pair is merged only when its parts' own floors leave room
            # for it and its Steiner root's charge (see the module docstring)
            spare = room * _SKIP_SLACK - charge
        weights = [f / (p + 1) for p in bead_counts]  # of the out-edge under p beads
        sub = rest
        while sub:
            heads = lists[mask ^ sub]
            tails_by_count = lists[sub]
            if charge:
                parts = heads[0][1]
                part_floors, least_part = floors[mask ^ sub][1]
                into = raw[0]
                for c in merging:
                    tails = tails_by_count[0][c]
                    tail_floors, least_tail = floors[sub][c]
                    if least_part + least_tail > spare:
                        continue
                    out = into[c + 1 if c < top else top]
                    before = len(out)
                    merged = 0
                    for (ax, ay, aw, ak, (anode, _)), fa in zip(parts, part_floors):
                        room_b = spare - fa
                        if least_tail > room_b:
                            continue
                        # the pairwise case of merge_summaries, in closed
                        # form, each forest cut on the floor of _under_floor
                        # and then on the higher floor that charges its
                        # Steiner root and the beads above it
                        for (bx, by, bw, bk, blink), fb in zip(tails, tail_floors):
                            if fb > room_b:
                                continue
                            merged += 1
                            v = aw + bw
                            dx = ax - bx
                            dy = ay - by
                            qx = (aw * ax + bw * bx) / v
                            qy = (aw * ay + bw * by) / v
                            kk = ak + bk + aw * bw / v * (dx * dx + dy * dy)
                            dx = qx - sink_x
                            dy = qy - sink_y
                            d2 = dx * dx + dy * dy
                            if (
                                kk + v * g / (v + g) * d2 <= room
                                and charge + kk + _charged_share(v, f, d2, bare, reach, charge) <= room
                            ):
                                out.append((qx, qy, v, kk, (anode, blink)))
                    built += merged
                    dropped += merged - (len(out) - before)
            else:
                for k1, k2 in forest_splits:
                    parts = heads[k1][1]
                    if not parts:
                        continue
                    tails_by_class = tails_by_count[k2]
                    into = raw[k1 + k2]
                    g = f / (path - k1 - k2)
                    for c in merging:
                        tails = tails_by_class[c]
                        if not tails:
                            continue
                        out = into[c + 1 if c < top else top]
                        before = len(out)
                        # the pairwise case of merge_summaries, in closed
                        # form, each forest cut on the floor of _under_floor
                        # before it is built
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
        # (of class c alone under the window, where a forest of more parts
        # can no longer serve wherever one of fewer parts does)
        lower: list = [[]] * (top + 1)
        for k in forest_counts:
            classes = raw[k]
            same: list = []  # kept forests of higher classes at count k
            for c in range(top, 1, -1):
                candidates = classes[c]
                above = sorted(lower[c] + same, key=_WEIGHT) if same else lower[c]
                kept = classes[c] = _prune_dominated(candidates, above)
                dropped += len(candidates) - len(kept)
                if not window:
                    same += kept
                if k < forest_counts[-1]:
                    lower[c] = sorted(above + kept, key=_WEIGHT) if kept else above
        for r in range(n):
            if mask >> r & 1:
                others = mask ^ (1 << r)
                previous = inf
                for kc, below in enumerate(below_sources[r]):
                    k = below[others]
                    if not k < previous:  # the same forest at a higher count
                        continue
                    previous = k
                    edges = source_edges[kc]
                    # children over no sources have no link, and a source
                    # without layers has no others
                    link = links[r][-1][kc][others] if others else None
                    for t, p, extra in edges:
                        singles[t].append((xs[r], ys[r], weights[p], k + extra, ((r, link, p), None)))
                    beaded += len(edges) - 1
        for kc, edges in zip(forest_counts, steiner_edges):
            for c in steiner_classes:
                forests = raw[kc][c]
                for t, p, extra in edges:
                    w = weights[p]
                    singles[t] += [
                        (qx, qy, steiner_weight(v, w), k + extra, ((None, link, p), None))
                        for qx, qy, v, k, link in forests
                    ]
                    if p:
                        beaded += len(forests)
        earlier: list = []  # kept singles at lower counts, by W
        for k in counts:
            candidates = singles[k]
            built += len(candidates)
            if charge:
                below = _under_charged_floor(candidates, f, bare, reach, charge, sink_x, sink_y, room)
            else:
                below = _under_floor(candidates, f / (path - k), sink_x, sink_y, room)
            kept = singles[k] = raw[k][1] = _prune_dominated(below, earlier)
            dropped += len(candidates) - len(kept)
            if kept and k < budget:
                earlier = sorted(earlier + kept, key=_WEIGHT)
        lists[mask] = raw
        if charge and mask != full:
            # a part over this mask reaches the sink over at most path - 1
            # edges and beads: the other part holds a source
            floors[mask] = [None] + [_floors(raw[0][c], f / (path - 1), sink_x, sink_y) for c in merging]
        for a in anchors:
            if a < n and mask >> a & 1:
                continue
            px = xs[a]
            py = ys[a]
            single_a = layers[a][0]
            single_links = links[a][0]
            stack = stacks[a]
            value = inf
            link = None
            for k in counts:
                for qx, qy, w, kk, candidate_link in singles[k]:
                    dx = px - qx
                    dy = py - qy
                    candidate = kk + w * (dx * dx + dy * dy)
                    if candidate < value:
                        value = candidate
                        link = candidate_link
                single_a[k][mask] = value
                single_links[k][mask] = link
                for forests, forest_links, rests, rest_links in stack:
                    total = value
                    choice = mask
                    choice_k = k
                    for k1 in range(k + 1):
                        head = single_a[k1]
                        tail = rests[k - k1]
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
                    forests[k][mask] = total
                    forest_links[k][mask] = (
                        link
                        if choice == mask
                        else (single_links[choice_k][choice][0], rest_links[k - choice_k][mask ^ choice])
                    )
        known = layers[n][-1][budget][mask] + wired[mask]
        if known < upper and mask != full:
            upper = known
            limit = upper * _CUT_SLACK + _OBJECTIVE_TIE

    topology, beads = _parent_array(n, _chain(links[n][-1][budget][full]), _expand)
    return _report(
        instance,
        strategy,
        topology,
        beads,
        layers[n][-1][budget][full] / scale,
        started,
        topologies_examined=built,
        topologies_pruned=dropped,
        bead_vectors=beaded,
        upper_bound=upper / scale,
        steiner_bound=steiner_bound,
    )


def _chain(link: tuple | None) -> list:
    """The nodes of a link chain (node, rest link) ending in None, in order."""
    nodes = []
    while link is not None:
        node, link = link
        nodes.append(node)
    return nodes


def _expand(node: tuple) -> tuple:
    """A winning node's source index (None at a Steiner point), the beads
    on its out-edge and its children's nodes, for _parent_array."""
    root, link, p = node
    return root, p, _chain(link)


def _floors(summaries: list, g: float, sx: float, sy: float) -> tuple[list, float]:
    """Each summary's (qx, qy, W, K, link) floor of _under_floor, in their
    order, and the least of them (infinity for none)."""
    floors = []
    for qx, qy, w, k, _ in summaries:
        dx = qx - sx
        dy = qy - sy
        floors.append(k + w * g / (w + g) * (dx * dx + dy * dy))
    return floors, min(floors, default=math.inf)


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


def _charged_share(w: float, f: float, d2: float, bare: int, most: int, c: float) -> float:
    """The least of W |x - q|^2 + f |x - s|^2 / (bare + b) + c b over the
    parent x and real b in [0, most], with d2 = |q - s|^2: a subtree's share
    of the way on to the sink over bare edges and b beads, with the beads'
    charge (see the module docstring).

    With u = W (bare + b) + f the sum is W f d2 / u + c (u - u0) / W, u0
    the value at b = 0, which is convex in u and least at u = W d sqrt(f/c)
    or at the nearer end of the range.
    """
    u0 = w * bare + f
    u = w * math.sqrt(d2 * f / c)
    if u < u0:
        u = u0
    elif u > u0 + w * most:
        u = u0 + w * most
    return w * f * d2 / u + c * (u - u0) / w


def _under_charged_floor(
    summaries: list, f: float, bare: int, most: int, c: float, sx: float, sy: float, room: float
) -> list:
    """The summaries (qx, qy, W, K, link) with K plus their _charged_share
    at most room, in their order."""
    kept = []
    for summary in summaries:
        qx, qy, w, k, _ = summary
        dx = qx - sx
        dy = qy - sy
        if k + _charged_share(w, f, dx * dx + dy * dy, bare, most, c) <= room:
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


def _report(
    instance: Instance,
    strategy: BoundStrategy,
    topology: Topology,
    beads: tuple[int, ...],
    searched: float,
    started: float,
    **counters,
) -> SearchReport:
    """Expand the winner's beads, re-solve it (the solver closes with the
    centroid certificate) and check its objective against the searched one."""
    resolving = time.perf_counter()
    if any(beads):
        topology = analysis.expand_beads(topology, beads)
    best = algebraic_solver.solve_topology(instance, topology)
    total_steiner = best.topology.n_steiner
    final_objective = objective(strategy, best.cost, total_steiner)
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


def _bead_cap(f: float, length: float, c: float, most: int) -> int:
    """The largest bead count p <= most minimising f length^2/(p+1) + c p.

    Adding the p-th bead changes the cost by c - f length^2 / (p (p+1)), and
    these steps increase with p, so the minimisers are the p with
    p (p+1) <= f length^2 / c <= (p+1)(p+2); on a tie both ends are
    minimisers and the larger is returned.  The ratio carries the cut's
    relative slack, so that a count tied within rounding is kept too.
    """
    ratio = f * length * length / c * _CUT_SLACK
    p = 0
    while p < most and (p + 1) * (p + 2) <= ratio:
        p += 1
    return p
