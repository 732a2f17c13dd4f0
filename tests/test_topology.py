import gc
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqst import (
    DegreeBound,
    ExplicitBound,
    Instance,
    NodeWeighted,
    Point,
    Topology,
    TopologyError,
    compute_flows,
    validate_topology,
)
from skeleton_walk import enumerate_bounded_topologies
from canonical_oracle import canonical_form, rooted_encoding
from reference_search import enumerate_full_topologies
from conftest import NO_PARENT, orient_edges, random_full_topology


class TestInstance:
    def test_sink_must_differ_from_sources(self):
        with pytest.raises(ValueError):
            Instance.with_unit_supplies([Point(1, 1)], Point(1, 1))

    def test_supplies_must_be_positive(self):
        with pytest.raises(ValueError):
            Instance((Point(0, 0),), (0.0,), Point(1, 1))

    @staticmethod
    def _first_fault(sources, supplies, sink):
        """The message of the first fault, checked one item at a time in
        the order Instance names them; None when there is none."""
        if len(sources) < 1:
            return "an instance needs at least one source"
        if len(supplies) != len(sources):
            return f"{len(supplies)} supplies for {len(sources)} sources"
        if not sink.is_finite():
            return "sink has non-finite coordinates"
        for i, p in enumerate(sources):
            if not p.is_finite():
                return f"source {i} has non-finite coordinates"
            if p == sink:
                return f"source {i} coincides with the sink"
        for i, w in enumerate(supplies):
            if not w > 0.0:
                return f"supply of source {i} must be positive, got {w}"
        if not math.isfinite(sum(supplies)):
            return "the total supply must be finite; flows would overflow"
        return None

    @given(
        st.lists(
            st.tuples(st.sampled_from([0.0, -0.0, 1.0, 2.5, math.nan, math.inf, -math.inf]),
                      st.sampled_from([0.0, 1.0, math.nan])),
            max_size=6,
        ),
        st.lists(st.sampled_from([1.0, 2.5, 0.0, -0.0, -1.0, math.nan, math.inf, 1e308]), max_size=7),
        st.tuples(st.sampled_from([0.0, 1.0, math.inf]), st.sampled_from([0.0, 1.0, math.nan])),
        st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_faults_are_named_in_order(self, points, supplies, sink, matched):
        sources = tuple(Point(x, y) for x, y in points)
        if matched:  # one supply per source, so the later checks are reached
            supplies = (supplies + [1.0] * len(points))[: len(points)]
        expected = self._first_fault(sources, tuple(supplies), Point(*sink))
        try:
            Instance(sources, tuple(supplies), Point(*sink))
        except ValueError as exc:
            assert str(exc) == expected
        else:
            assert expected is None

    @pytest.mark.parametrize(
        "sources, supplies, sink, message",
        [
            # a whole-list check refuses; the ordered walk names the first fault
            ([(1.0, 0.0), (math.nan, 0.0), (2.0, 3.0)], [1.0] * 3, (2.0, 3.0),
             "source 1 has non-finite coordinates"),
            ([(1.0, 0.0), (2.0, 3.0), (math.inf, 0.0)], [1.0] * 3, (2.0, 3.0),
             "source 1 coincides with the sink"),
            ([(1.0, 0.0), (-0.0, 4.0)], [1.0] * 2, (0.0, 4.0), "source 1 coincides with the sink"),
            ([(1.0, 0.0), (1.0, -math.inf)], [math.nan, 1.0], (0.0, 4.0),
             "source 1 has non-finite coordinates"),
            ([(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)], [1.0, math.nan, 0.0], (0.0, 4.0),
             "supply of source 1 must be positive, got nan"),
            ([(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)], [1.0, 2.0, 0.0], (0.0, 4.0),
             "supply of source 2 must be positive, got 0.0"),
            ([(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)], [-0.0, -1.0, 1.0], (0.0, 4.0),
             "supply of source 0 must be positive, got -0.0"),
            ([(1.0, 0.0), (2.0, 0.0)], [-1.0, 1.0], (0.0, 4.0),
             "supply of source 0 must be positive, got -1.0"),
        ],
    )
    def test_first_fault_past_the_whole_list_checks(self, sources, supplies, sink, message):
        with pytest.raises(ValueError) as raised:
            Instance(tuple(Point(x, y) for x, y in sources), tuple(supplies), Point(*sink))
        assert str(raised.value) == message

    def test_coincident_sources_allowed(self):
        inst = Instance.with_unit_supplies([Point(0, 0), Point(0, 0)], Point(1, 0))
        assert inst.n_sources == 2


class TestTopologyConstruction:
    def test_wrong_parent_array_length(self):
        with pytest.raises(TopologyError):
            Topology(2, 0, (2, NO_PARENT))

    def test_sink_must_have_no_parent(self):
        with pytest.raises(TopologyError):
            Topology(1, 0, (1, 0))

    def test_self_parent_rejected(self):
        with pytest.raises(TopologyError):
            Topology(1, 1, (0, NO_PARENT, 2))

    def test_out_of_range_parent_rejected(self):
        with pytest.raises(TopologyError):
            Topology(1, 0, (7, NO_PARENT))

    @pytest.mark.parametrize(
        "n_sources, n_steiner, parents, message",
        [
            # a whole-list check refuses; the ordered walk names the first fault
            (2, 1, (3, 3, 0, 2), "the sink must not have an out-edge"),
            (2, 1, (3, 9, 3, NO_PARENT), "node 1 has invalid parent 9"),
            (1, 0, (1, 1), "the sink must not have an out-edge"),
            (3, 2, (4, 1, 5, NO_PARENT, 5, 3), "node 1 has invalid parent 1"),
            (3, 2, (4, 4, 5, NO_PARENT, 4, -1), "node 4 has invalid parent 4"),
            (3, 2, (4, 4, 5, NO_PARENT, 5, -1), "node 5 has invalid parent -1"),
            (3, 2, (4, 4, 5, NO_PARENT, 5, 6), "node 5 has invalid parent 6"),
            (3, 2, (-2, 4, 5, 3, 5, 3), "node 0 has invalid parent -2"),
            (3, 2, (4, 4, 5, 7, 5, 5), "the sink must not have an out-edge"),
        ],
    )
    def test_first_fault_past_the_whole_list_checks(self, n_sources, n_steiner, parents, message):
        with pytest.raises(TopologyError) as raised:
            Topology(n_sources, n_steiner, parents)
        assert str(raised.value) == message


class TestCachedStructure:
    def test_children_and_degrees_are_built_once(self, worked_topology):
        children = worked_topology.children_lists()
        degrees = worked_topology.degrees()
        assert worked_topology.children_lists() is children
        assert worked_topology.degrees() is degrees
        assert worked_topology.order_from_sink() is worked_topology.order_from_sink()
        assert children == ((), (), (), (5,), (0, 1), (2, 4))
        assert degrees == (1, 1, 1, 1, 3, 3)
        assert worked_topology.order_from_sink() == (3, 5, 2, 4, 0, 1)

    def test_cached_structure_is_immutable(self, worked_topology):
        children = worked_topology.children_lists()
        assert isinstance(children, tuple)
        assert all(isinstance(kids, tuple) for kids in children)
        assert isinstance(worked_topology.degrees(), tuple)
        assert isinstance(worked_topology.order_from_sink(), tuple)

    def test_cache_leaves_equality_and_hash_alone(self, worked_topology):
        fresh = Topology(3, 2, worked_topology.parents)
        worked_topology.order_from_sink()
        assert fresh == worked_topology
        assert hash(fresh) == hash(worked_topology)

    @pytest.mark.parametrize(
        "parents",
        [
            (2, 3, NO_PARENT, 1),  # source 1 and slot 3 form a cycle
            (3, 2, NO_PARENT, 4, 3),  # slots 3 and 4 form a cycle
        ],
    )
    def test_non_tree_raises_on_every_call(self, parents):
        topo = Topology(2, len(parents) - 3, parents)
        for _ in range(2):
            with pytest.raises(TopologyError, match="cannot reach the sink"):
                topo.order_from_sink()
        assert validate_topology(topo, DegreeBound(3))
        with pytest.raises(TopologyError):
            compute_flows(topo, (1.0, 1.0))


class TestComputeFlows:
    def test_worked_example(self, worked_topology):
        flows = compute_flows(worked_topology, (1.0, 1.0, 1.0))
        by_edge = {
            (child, worked_topology.parents[child]): flows[child]
            for child in worked_topology.edge_children()
        }
        assert by_edge == {(0, 4): 1.0, (1, 4): 1.0, (2, 5): 1.0, (4, 5): 2.0, (5, 3): 3.0}

    def test_single_edge(self):
        topo = Topology(1, 0, (1, NO_PARENT))
        assert compute_flows(topo, (1.0,)) == (1.0, 0.0)

    def test_star_of_four(self):
        topo = Topology(4, 0, (4, 4, 4, 4, NO_PARENT))
        flows = compute_flows(topo, (1.0,) * 4)
        assert flows == (1.0, 1.0, 1.0, 1.0, 0.0)

    def test_cycle_detected(self):
        # two Steiner slots pointing at each other never reach the sink
        topo = Topology(1, 2, (1, NO_PARENT, 3, 2))
        with pytest.raises(TopologyError):
            compute_flows(topo, (1.0,))

    def test_steiner_without_inflow_rejected(self):
        topo = Topology(1, 1, (1, NO_PARENT, 1))
        with pytest.raises(TopologyError):
            compute_flows(topo, (1.0,))

    def test_sink_inflow_equals_total_supply(self):
        rng = random.Random(3)
        for n in (2, 3, 4, 5):
            topo = random_full_topology(rng, n)
            supplies = [rng.uniform(0.5, 2.0) for _ in range(n)]
            flows = compute_flows(topo, supplies)
            children_of_sink = [
                i for i in topo.edge_children() if topo.parents[i] == topo.sink
            ]
            assert sum(flows[c] for c in children_of_sink) == pytest.approx(
                sum(supplies), rel=1e-12
            )

    def test_flows_accumulate_along_paths(self):
        rng = random.Random(4)
        topo = random_full_topology(rng, 6)
        flows = compute_flows(topo, (1.0,) * 6)
        for source in range(6):
            node = source
            while topo.parents[node] != NO_PARENT:
                assert flows[node] >= 1.0 - 1e-12
                node = topo.parents[node]


class TestValidateTopology:
    def test_worked_example_degree_bound_ok(self, worked_topology):
        assert validate_topology(worked_topology, DegreeBound(3)) == []

    def test_degree_two_steiner_fails_degree_bound(self):
        topo = Topology(1, 1, (2, NO_PARENT, 1))
        violations = validate_topology(topo, DegreeBound(3))
        assert any("phi" in v for v in violations)

    def test_steiner_count_fails_explicit_bound(self):
        # chain of three beads on a single source-sink edge
        topo = Topology(1, 3, (2, NO_PARENT, 3, 4, 1))
        violations = validate_topology(topo, ExplicitBound(2))
        assert any("exceeds" in v for v in violations)
        assert validate_topology(topo, ExplicitBound(3)) == []

    def test_node_weighted_needs_degree_two(self):
        topo = Topology(1, 1, (1, NO_PARENT, 1))
        assert validate_topology(topo, NodeWeighted(1.0)) != []


def brute_force_full_topologies(n_sources: int) -> set:
    """Independent oracle: constrained label sequences decoded to trees.

    In a full topology the terminals have degree 1 and the n-1 Steiner slots
    degree 3, so the tree's Pruefer-style sequence consists of each Steiner
    label exactly twice; enumerate all arrangements and dedup canonically.
    """
    import heapq

    n_nodes = 2 * n_sources
    steiner = list(range(n_sources + 1, n_nodes))
    pool = sorted(steiner * 2)
    seen = set()
    for seq in set(itertools.permutations(pool)):
        degree = [1] * n_nodes
        for x in seq:
            degree[x] += 1
        leaves = [i for i in range(n_nodes) if degree[i] == 1]
        heapq.heapify(leaves)
        edges = []
        for x in seq:
            leaf = heapq.heappop(leaves)
            edges.append((leaf, x))
            degree[x] -= 1
            if degree[x] == 1:
                heapq.heappush(leaves, x)
        edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
        topo = orient_edges(n_sources, n_sources - 1, edges)
        seen.add(canonical_form(topo))
    return seen


def brute_force_bounded(n_sources: int, max_steiner: int, min_degree: int) -> set:
    """Independent oracle: every parent array that forms a valid tree."""
    found = set()
    for j in range(max_steiner + 1):
        n_nodes = n_sources + 1 + j
        sink = n_sources
        choices = [
            [p for p in range(n_nodes) if p != node]
            for node in range(n_nodes)
            if node != sink
        ]
        non_sink = [node for node in range(n_nodes) if node != sink]
        for combo in itertools.product(*choices):
            parents = [NO_PARENT] * n_nodes
            for node, parent in zip(non_sink, combo):
                parents[node] = parent
            try:
                topo = Topology(n_sources, j, tuple(parents))
                topo.order_from_sink()
            except TopologyError:
                continue
            deg = topo.degrees()
            if all(deg[s] >= min_degree for s in topo.steiner_slots()):
                found.add(canonical_form(topo))
    return found


class TestEnumerateFull:
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 15), (5, 105)])
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_full_topologies(n)) == count

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_brute_force(self, n):
        ours = {canonical_form(t) for t in enumerate_full_topologies(n)}
        assert ours == brute_force_full_topologies(n)

    def test_no_duplicates_up_to_relabelling(self):
        forms = [canonical_form(t) for t in enumerate_full_topologies(5)]
        assert len(forms) == len(set(forms))

    def test_single_source_rejected(self):
        with pytest.raises(TopologyError):
            next(enumerate_full_topologies(1))

    def test_all_yielded_are_full_degree_three(self):
        for topo in enumerate_full_topologies(4):
            deg = topo.degrees()
            assert all(deg[t] == 1 for t in range(topo.sink + 1))
            assert all(deg[s] == 3 for s in topo.steiner_slots())
            assert validate_topology(topo, DegreeBound(3)) == []


# (n, max Steiner, min Steiner degree) -> count, pinned from the labelled-tree
# enumerator this generator replaced
PINNED_BOUNDED_COUNTS = [
    (3, 1, 2, 77),
    (2, 2, 2, 22),
    (3, 2, 3, 32),
    (4, 3, 3, 396),
    (4, 3, 2, 8576),
    (5, 3, 3, 6587),
    (5, 4, 3, 6692),
    (5, 2, 5, 1327),
    (6, 2, 4, 24970),
]


class TestEnumerateBounded:
    @pytest.mark.parametrize(
        "n,k,min_deg,count",
        [(1, 0, 3, 1), (2, 0, 3, 3), (2, 1, 3, 4), *PINNED_BOUNDED_COUNTS],
    )
    def test_counts(self, n, k, min_deg, count):
        assert sum(1 for _ in enumerate_bounded_topologies(n, k, min_deg)) == count

    @pytest.mark.parametrize("n,k,min_deg", [case[:3] for case in PINNED_BOUNDED_COUNTS])
    def test_distinct_valid_and_ordered_by_steiner_count(self, n, k, min_deg):
        # with the pinned count, distinct valid yields are exactly the old set
        encodings = set()
        previous_steiner = 0
        for count, topo in enumerate(enumerate_bounded_topologies(n, k, min_deg), 1):
            encodings.add(rooted_encoding(topo))
            assert len(encodings) == count
            assert validate_topology(topo, ExplicitBound(k)) == []
            deg = topo.degrees()
            assert all(deg[s] >= min_deg for s in topo.steiner_slots())
            assert topo.n_steiner >= previous_steiner
            previous_steiner = topo.n_steiner

    @pytest.mark.parametrize(
        "n,k,min_deg",
        [(2, 1, 3), (3, 2, 3), (2, 2, 2), (3, 1, 2)],
    )
    def test_matches_brute_force(self, n, k, min_deg):
        ours = Counter(
            canonical_form(t) for t in enumerate_bounded_topologies(n, k, min_deg)
        )
        assert set(ours) == brute_force_bounded(n, k, min_deg)
        assert all(c == 1 for c in ours.values())

    def test_exhausted_generator_leaves_no_cyclic_garbage(self):
        # a memo held only by a reference cycle lives until the cyclic
        # collector runs, which raises the peak memory of a long process
        gc.collect()
        gc.disable()
        try:
            for _ in enumerate_bounded_topologies(5, 4, 3):
                pass
            leftover = gc.collect()
        finally:
            gc.enable()
        assert leftover < 100

    def test_min_degree_below_two_rejected(self):
        with pytest.raises(ValueError):
            next(enumerate_bounded_topologies(2, 1, 1))

    def test_yielded_pass_validation_and_flows(self):
        supplies_cache = {}
        for topo in enumerate_bounded_topologies(3, 2, 3):
            assert validate_topology(topo, ExplicitBound(2)) == []
            assert validate_topology(topo, DegreeBound(3)) == []
            supplies = supplies_cache.setdefault(topo.n_sources, (1.0,) * topo.n_sources)
            flows = compute_flows(topo, supplies)
            assert all(flows[c] > 0 for c in topo.edge_children())


class TestCanonicalForm:
    def test_invariant_under_steiner_relabelling(self, worked_topology):
        # swap the two Steiner slots 4 and 5
        swapped = Topology(3, 2, (5, 5, 4, NO_PARENT, 3, 4))
        assert canonical_form(worked_topology) == canonical_form(swapped)

    def test_distinguishes_different_topologies(self):
        a = Topology(3, 2, (4, 4, 5, NO_PARENT, 5, 3))
        b = Topology(3, 2, (4, 5, 4, NO_PARENT, 5, 3))
        assert canonical_form(a) != canonical_form(b)
