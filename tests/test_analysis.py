import math
import random

import mpmath
import pytest

from fqst import (
    DegreeBound,
    ExplicitBound,
    Instance,
    NodeWeighted,
    Point,
    Topology,
    check_centroid_certificate,
    compute_flows,
    solve_exact,
    solve_topology,
)
from fqst.analysis import (
    check_degree_window,
    check_edge_pairs,
    cost,
    expand_beads,
    lower_bound_path,
    optimal_bead_count,
    steiner_count_bound,
)
from certificate_oracle import sq_dist
from fqst.strategies import objective
from fqst.trees import build_solved_tree
from fqst.analysis import _prim_spanning_tree, _weighted_sink_distances, beaded_spanning_cost
from fqst.documents import certificate_summary
from reference_search import SplitSpec, split_topology
import spanning_oracle
from conftest import (
    NO_PARENT,
    beaded_spanning_tree,
    node_table,
    node_weighted_objective,
    random_instance,
    random_supplied_instance,
    with_steiner_positions,
)


@pytest.fixture
def worked_tree(worked_instance, worked_topology):
    return solve_topology(worked_instance, worked_topology)


@pytest.fixture
def balanced_cross_tree():
    """Three unit sources into one Steiner slot at the origin, sink below.

    Arranged so the in-pair centroid and the out-side centroid both equal
    the Steiner position, making the {0,1}-split exactly cost-neutral.
    """
    inst = Instance.with_unit_supplies(
        [Point(-1, 0), Point(1, 0), Point(0, 3)], Point(0, -1)
    )
    topo = Topology(3, 1, (4, 4, 4, NO_PARENT, 3))
    return solve_topology(inst, topo)


class TestCost:
    def test_worked_example(self, worked_tree):
        assert cost(worked_tree) == pytest.approx(102.0, abs=1e-12)
        assert worked_tree.cost == pytest.approx(cost(worked_tree), rel=1e-12)

    def test_all_coincident_is_zero(self):
        inst = Instance.with_unit_supplies([Point(5, 5), Point(5, 5)], Point(0, 0))
        topo = Topology(2, 0, (1, 2, NO_PARENT))
        flows = compute_flows(topo, inst.supplies)
        tree = build_solved_tree(inst, topo, *node_table(inst), flows)
        assert cost(tree) == 5.0 * 5.0 * 2.0 * 2.0 + 0.0  # z0->z1 zero, z1->sink carries 2
        # a genuinely zero tree: both sources on the sink... not allowed; use
        # the zero-length edge instead
        assert tree.degenerate

    def test_single_edge(self):
        inst = Instance((Point(0, 0),), (3.0,), Point(2, 0))
        topo = Topology(1, 0, (1, NO_PARENT))
        tree = solve_topology(inst, topo)
        assert cost(tree) == 12.0


class TestObjective:
    def test_worked_example_with_charge(self, worked_tree):
        value = objective(NodeWeighted(10.0), cost(worked_tree), worked_tree.topology.n_steiner)
        assert value == pytest.approx(122.0, abs=1e-12)

    def test_no_steiner_equals_cost(self):
        inst = Instance.with_unit_supplies([Point(0, 0)], Point(1, 0))
        tree = solve_topology(inst, Topology(1, 0, (1, NO_PARENT)))
        assert objective(NodeWeighted(7.0), cost(tree), tree.topology.n_steiner) == cost(tree)

    def test_beaded_path(self):
        inst = Instance.with_unit_supplies([Point(0, 0)], Point(3, 0))
        topo = Topology(1, 2, (2, NO_PARENT, 3, 1))
        tree = solve_topology(inst, topo)
        assert objective(NodeWeighted(1.0), cost(tree), tree.topology.n_steiner) == pytest.approx(5.0, abs=1e-12)

    @pytest.mark.parametrize("strategy", [DegreeBound(3), ExplicitBound(2)])
    def test_other_strategies_charge_nothing(self, worked_tree, strategy):
        assert objective(strategy, worked_tree.cost, 2) == worked_tree.cost


class TestCentroidCertificate:
    def test_solved_tree_passes(self, worked_tree):
        assert all(check_centroid_certificate(worked_tree).values())

    def test_perturbed_steiner_fails(self, worked_tree):
        moved = with_steiner_positions(
            worked_tree, [Point(5.1, 2.0), worked_tree.steiner_positions[1]]
        )
        result = check_centroid_certificate(moved)
        assert not result[4]
        assert result[5] is False or result[5] is True  # slot 5 shifts only via slot 4
        assert not all(result.values())

    def test_balanced_cross_passes(self, balanced_cross_tree):
        assert all(check_centroid_certificate(balanced_cross_tree).values())

    @pytest.mark.parametrize("seed", range(40))
    def test_optimum_at_large_coordinates_passes(self, seed):
        # float rounding alone moves these optima's Steiner points off their
        # centroids by more than the absolute tolerance; each deviation is
        # judged to scale, as check and the written certificates judge it
        inst = random_supplied_instance(random.Random(seed), 6)
        s = 1e6
        scaled = Instance(
            tuple(Point(p.x * s, p.y * s) for p in inst.sources),
            inst.supplies,
            Point(inst.sink.x * s, inst.sink.y * s),
        )
        tree = solve_exact(scaled, DegreeBound(3)).best
        assert all(check_centroid_certificate(tree).values())
        assert certificate_summary(tree, 1e-9)["locally_minimal"] is True


class TestCertificateResidualEquivalence:
    def test_certificate_agrees_with_stationarity_residual(self):
        # the residual row for a Steiner point is its total incident weight
        # times its offset from the neighbour centroid, so the two checks
        # agree once the tolerance is scaled by that weight
        import numpy as np

        from dense_oracle import assemble_system
        from conftest import random_full_topology

        rng = random.Random(46)
        for _ in range(10):
            n = rng.randint(2, 5)
            inst = random_instance(rng, n)
            topo = random_full_topology(rng, n)
            tree = solve_topology(inst, topo)
            if rng.random() < 0.7 and tree.steiner_positions:
                moved = list(tree.steiner_positions)
                idx = rng.randrange(len(moved))
                moved[idx] = Point(
                    moved[idx].x + rng.uniform(-0.3, 0.3),
                    moved[idx].y + rng.uniform(-0.3, 0.3),
                )
                tree = with_steiner_positions(tree, moved)
            system = assemble_system(inst, topo, tree.flows)
            xs = np.array([p.x for p in tree.steiner_positions])
            ys = np.array([p.y for p in tree.steiner_positions])
            rx = system.matrix @ xs - system.rhs_x
            ry = system.matrix @ ys - system.rhs_y
            tol = 1e-7
            verdict = check_centroid_certificate(tree, tol)
            for row, slot in enumerate(system.steiner_slots):
                residual = math.hypot(rx[row], ry[row])
                scaled = residual / system.matrix[row, row]
                if abs(scaled - tol) > 1e-12:  # away from the knife edge
                    assert verdict[slot] == (scaled <= tol)


class TestCheckAngles:
    def test_straight_path_has_none(self):
        inst = Instance.with_unit_supplies([Point(0, 0)], Point(3, 0))
        topo = Topology(1, 2, (2, NO_PARENT, 3, 1))
        assert check_edge_pairs(solve_topology(inst, topo))[0] == []

    def test_sixty_degree_bend_flagged(self):
        # source relays through another source with a 60 degree turn
        inst = Instance.with_unit_supplies(
            [Point(1, 0), Point(0, 0)], Point(0.5, math.sqrt(3) / 2)
        )
        topo = Topology(2, 0, (1, 2, NO_PARENT))
        tree = solve_topology(inst, topo)
        violations = check_edge_pairs(tree)[0]
        assert len(violations) == 1
        assert violations[0].node == 1
        assert violations[0].angle == pytest.approx(math.pi / 3, abs=1e-12)

    @pytest.mark.parametrize("supplies", [(1.0, 1.0), (0.3, 2.5)])
    def test_saving_is_what_the_reroute_saves(self, supplies):
        # the sixty degree bend: hanging source 0 from the sink instead of
        # from source 1, at the same points, lowers the cost by the saving
        inst = Instance(
            (Point(1, 0), Point(0, 0)), supplies, Point(0.5, math.sqrt(3) / 2)
        )
        before = solve_topology(inst, Topology(2, 0, (1, 2, NO_PARENT)))
        (hit,) = check_edge_pairs(before)[0]
        assert (hit.node, hit.in_neighbour) == (1, 0)
        rerouted = Topology(2, 0, (2, 2, NO_PARENT))
        after = build_solved_tree(
            inst, rerouted, before.xs, before.ys, compute_flows(rerouted, supplies)
        )
        assert cost(before) - cost(after) == pytest.approx(hit.saving, rel=1e-12)
        assert hit.saving > 0.0

    def test_exact_explicit_optimum_has_none(self):
        rng = random.Random(41)
        for _ in range(5):
            inst = random_instance(rng, 3)
            report = solve_exact(inst, ExplicitBound(1))
            assert check_edge_pairs(report.best, 1e-7)[0] == []


class TestDegreeWindow:
    def test_degree_four_violates_phi_three(self):
        inst = Instance.with_unit_supplies(
            [Point(0, 2), Point(2, 0), Point(-2, 0)], Point(0, -2)
        )
        topo = Topology(3, 1, (4, 4, 4, NO_PARENT, 3))
        tree = solve_topology(inst, topo)
        violations = check_degree_window(tree, 3)
        assert any(v.kind == "steiner-degree" for v in violations)
        # the window for phi = 4 is [4, 5], so the same tree passes
        assert check_degree_window(tree, 4) == []

    def test_degree_two_source_midpoint_condition(self):
        # relay source placed exactly at the balance point stays quiet
        inst = Instance.with_unit_supplies([Point(1, 0), Point(3, 0)], Point(0, 0))
        topo = Topology(2, 0, (2, 0, NO_PARENT))
        tree = solve_topology(inst, topo)
        assert check_degree_window(tree, 3) == []
        # moving the relay off the balance point trips the midpoint check
        bad = Instance.with_unit_supplies([Point(1.2, 0.1), Point(3, 0)], Point(0, 0))
        bad_tree = solve_topology(bad, topo)
        kinds = {v.kind for v in check_degree_window(bad_tree, 3)}
        assert "source-midpoint" in kinds

    def test_source_degree_cap(self):
        inst = Instance.with_unit_supplies(
            [Point(0, 0), Point(-1, 1), Point(1, 1)], Point(0, -2)
        )
        topo = Topology(3, 0, (3, 0, 0, NO_PARENT))
        tree = solve_topology(inst, topo)
        assert any(v.kind == "source-degree" for v in check_degree_window(tree, 3))


class TestOverlappingEdges:
    def test_folded_collinear_edges_report_overlap(self):
        # the relay node sits beyond both neighbours, so the shorter edge
        # lies inside the longer one
        inst = Instance.with_unit_supplies([Point(0, 0), Point(1, 0)], Point(2, 0))
        topo = Topology(2, 0, (2, 0, NO_PARENT))  # z1 -> z0 -> sink, z0 past z1
        flows = compute_flows(topo, inst.supplies)
        tree = build_solved_tree(inst, topo, *node_table(inst), flows)
        overlaps = check_edge_pairs(tree)[1]
        assert len(overlaps) == 1
        assert overlaps[0].node == 0
        assert not overlaps[0].degree_phi_caveat

    def test_midpoint_bead_is_not_an_overlap(self):
        # opposite-direction collinear edges share only the bead itself
        inst = Instance.with_unit_supplies([Point(0, 0)], Point(2, 0))
        topo = Topology(1, 1, (2, NO_PARENT, 1))
        tree = solve_topology(inst, topo)
        assert check_edge_pairs(tree)[1] == []

    def test_degree_phi_caveat_under_degree_bound(self):
        # force a degree-3 Steiner slot with two collinear incident edges
        inst = Instance.with_unit_supplies([Point(-1, 0), Point(-2, 0)], Point(1, 0))
        topo = Topology(2, 1, (3, 3, NO_PARENT, 2))
        tree = solve_topology(inst, topo)
        overlaps = check_edge_pairs(tree, strategy=DegreeBound(3))[1]
        assert overlaps
        assert all(o.degree_phi_caveat for o in overlaps if o.node == 3)

    def test_generic_tree_has_none(self, worked_tree):
        assert check_edge_pairs(worked_tree)[1] == []

    def test_zero_length_edge_is_exempt(self):
        # rerouting over the zero-length edge 0 -> 1 saves nothing
        inst = Instance.with_unit_supplies([Point(0, 0), Point(0, 0)], Point(2, 0))
        topo = Topology(2, 0, (1, 2, NO_PARENT))
        flows = compute_flows(topo, inst.supplies)
        tree = build_solved_tree(inst, topo, *node_table(inst), flows)
        assert tree.degenerate
        assert check_edge_pairs(tree)[1] == []

    def test_edges_ending_at_one_point_are_exempt(self):
        # sources 0 and 1 coincide and both feed the sink: the edges overlap
        # whole, and rerouting one through the other's end saves nothing
        inst = Instance.with_unit_supplies([Point(0, 0), Point(0, 0)], Point(2, 0))
        topo = Topology(2, 0, (2, 2, NO_PARENT))
        flows = compute_flows(topo, inst.supplies)
        tree = build_solved_tree(inst, topo, *node_table(inst), flows)
        assert check_edge_pairs(tree)[1] == []

    def test_child_ending_on_the_parent_is_not_exempt(self):
        # source 0 sits on source 2, source 1's parent: hanging source 0
        # from source 2 saves 2 f |va| |vb| > 0
        inst = Instance.with_unit_supplies(
            [Point(1, 0), Point(0, 0), Point(1, 0)], Point(5, 5)
        )
        topo = Topology(3, 0, (1, 2, 3, NO_PARENT))
        flows = compute_flows(topo, inst.supplies)
        tree = build_solved_tree(inst, topo, *node_table(inst), flows)
        assert [(o.node, o.first_neighbour, o.second_neighbour) for o in check_edge_pairs(tree)[1]] == [(1, 0, 2)]


class TestApplySplit:
    def test_balanced_cross_split_is_not_beneficial(self, balanced_cross_tree):
        split = solve_topology(
            balanced_cross_tree.instance, split_topology(balanced_cross_tree.topology, SplitSpec(4, (0, 1)))
        )
        assert split.cost == pytest.approx(balanced_cross_tree.cost, abs=1e-9)
        # the new slot lands exactly on the old one
        assert split.steiner_positions[0].x == pytest.approx(0.0, abs=1e-9)
        assert split.steiner_positions[1].x == pytest.approx(0.0, abs=1e-9)
        assert split.degenerate

    def test_spread_star_has_beneficial_pair_split(self):
        inst = Instance.with_unit_supplies(
            [Point(-10, 10), Point(10, 10), Point(-10, 14), Point(10, 14)], Point(0, 0)
        )
        topo = Topology(4, 1, (5, 5, 5, 5, NO_PARENT, 4))
        tree = solve_topology(inst, topo)
        import itertools

        best = min(
            solve_topology(tree.instance, split_topology(tree.topology, SplitSpec(5, pair))).cost
            for pair in itertools.combinations(range(4), 2)
        )
        assert best < tree.cost - 1e-9

    def test_full_split_strictly_improves(self, worked_tree):
        split = solve_topology(worked_tree.instance, split_topology(worked_tree.topology, SplitSpec(4, (0, 1))))
        assert split.cost < worked_tree.cost - 1e-12

    def test_invalid_member_rejected(self, worked_tree):
        with pytest.raises(ValueError):
            split_topology(worked_tree.topology, SplitSpec(4, (2,)))


class TestOptimalBeadCount:
    def test_unit_example(self):
        assert optimal_bead_count(1.0, 3.0, 1.0) == 2

    def test_short_edge_needs_no_beads(self):
        # exactly at the boundary f*len^2 == 2c the tie goes to zero beads
        assert optimal_bead_count(1.0, 1.0, 0.5) == 0
        assert optimal_bead_count(2.0, 1.0, 2.0) == 0
        assert optimal_bead_count(1.0, 0.3, 5.0) == 0

    def test_long_edge(self):
        assert optimal_bead_count(4.0, 10.0, 1.0) == 19

    def test_matches_enumeration(self):
        rng = random.Random(42)
        for _ in range(300):
            f = rng.uniform(0.1, 10.0)
            length = rng.uniform(0.1, 10.0)
            c = rng.uniform(0.05, 10.0)
            ratio = f * length * length / c
            cap = int(math.sqrt(ratio)) + 2
            best = min(
                range(cap + 1), key=lambda p: (f * length * length / (p + 1) + c * p, p)
            )
            got = optimal_bead_count(f, length, c)
            assert got == best
            assert got * (got + 1) <= ratio + 1e-9
            assert ratio <= (got + 1) * (got + 2) + 1e-9

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            optimal_bead_count(0.0, 1.0, 1.0)

    @pytest.mark.parametrize("c", [1e-34, 1e-60, 1e-300])
    def test_huge_counts_come_from_the_closed_form(self, c):
        # f L^2 / c = 100 / c; the count is the floor of sqrt(100 / c) - 1 or
        # next to it, and is found without stepping from one bead to the next
        got = optimal_bead_count(1.0, 10.0, c)
        assert abs(got + 1 - math.sqrt(100.0 / c)) <= 2e-15 * math.sqrt(100.0 / c) + 2

    def test_overflowing_ratio_is_a_value_error(self):
        with pytest.raises(ValueError, match="overflows"):
            optimal_bead_count(1.0, 10.0, 5e-324)


class TestLowerBoundPath:
    def test_single_source(self):
        inst = Instance.with_unit_supplies([Point(0, 0)], Point(2, 0))
        assert lower_bound_path(inst, 0) == pytest.approx(2.0)
        # the true optimum (the direct edge, cost 4) respects it
        assert lower_bound_path(inst, 0) <= 4.0

    def test_worked_instance_budget_two(self, worked_instance):
        # squared distances to the sink: 122 + 90 + 16 = 228
        assert lower_bound_path(worked_instance, 2) == pytest.approx(228.0 / 6.0)
        assert lower_bound_path(worked_instance, 2) <= 102.0

    def test_sources_at_sink_distance_zero(self):
        inst = Instance.with_unit_supplies(
            [Point(1e-12, 0), Point(0, 1e-12)], Point(0, 0)
        )
        assert lower_bound_path(inst, 3) == pytest.approx(0.0, abs=1e-20)

    def test_weighted_by_supplies(self):
        # supply-weighted squared distances: 0.01*100 + 0.01*101 = 2.01
        inst = Instance((Point(0, 0), Point(0, 1)), (0.01, 0.01), Point(10, 0))
        assert lower_bound_path(inst, 1) == pytest.approx(2.01 / 4.0)
        # below the one-Steiner tree's cost 1.0075
        assert lower_bound_path(inst, 1) <= 1.0075


class TestBeadedSpanningTree:
    def test_boundary_distance_needs_no_beads(self):
        # distance exactly sqrt(2c/f) with f = 1, c = 0.5
        inst = Instance.with_unit_supplies([Point(0, 0)], Point(1, 0))
        tree = beaded_spanning_tree(inst, 0.5)
        assert tree.topology.n_steiner == 0

    def test_collinear_sources_become_beaded_path(self):
        inst = Instance.with_unit_supplies([Point(0, 0), Point(1, 0)], Point(4, 0))
        c = 0.5
        tree = beaded_spanning_tree(inst, c)
        # spanning tree is the path; the long edge carries flow 2 over length 3
        expected_beads = optimal_bead_count(2.0, 3.0, c)
        assert tree.topology.n_steiner == expected_beads
        assert all(abs(p.y) < 1e-12 for p in tree.steiner_positions)
        assert all(check_centroid_certificate(tree).values())

    def test_upper_bounds_node_weighted_optimum(self):
        rng = random.Random(43)
        for _ in range(5):
            inst = random_instance(rng, 3, span=4.0)
            q = sum(sq_dist(z, inst.sink) for z in inst.sources)
            c = rng.uniform(q / 16.0, q / 4.0)
            report = solve_exact(inst, NodeWeighted(c))
            bst = beaded_spanning_tree(inst, c)
            assert report.objective <= node_weighted_objective(bst, c) + 1e-9

    def test_edge_length_bound_holds(self):
        rng = random.Random(44)
        for _ in range(10):
            inst = random_instance(rng, 4)
            c = rng.uniform(0.5, 20.0)
            tree = beaded_spanning_tree(inst, c)
            for child in tree.topology.edge_children():
                flow = tree.flows[child]
                length2 = sq_dist(
                    tree.position(child), tree.position(tree.topology.parents[child])
                )
                assert length2 <= 2.0 * c / flow + 1e-9


    def test_closed_form_cost_matches_the_built_tree(self):
        rng = random.Random(47)
        for _ in range(20):
            inst = random_supplied_instance(rng, rng.randint(1, 5), span=4.0)
            c = rng.choice([1e-3, 1e-2, 0.1, 1.0]) * _weighted_sink_distances(inst)
            built = node_weighted_objective(beaded_spanning_tree(inst, c), c)
            assert beaded_spanning_cost(inst, c) == pytest.approx(built, rel=1e-12, abs=0.0)


    @pytest.mark.parametrize(
        "sources,spanning,pinned",
        [
            (
                [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)],
                (1, 5, 1, 0, 2, NO_PARENT),
                [
                    (0.3, 6.283333333333333, 20, (7, 10, 12, 13, 14, NO_PARENT, 1, 6, 5, 8, 9, 1, 11, 0, 2)),
                    (2.0, 10.5, 4, (1, 6, 1, 0, 2, NO_PARENT, 5)),
                    (9.0, 11.0, 1, (1, 5, 1, 0, 2, NO_PARENT)),
                ],
            ),
            (
                [(0, 0), (2, 0), (0, 2), (2, 2), (1, 0)],
                (4, 4, 5, 5, 5, NO_PARENT),
                [
                    (0.3, 5.7333333333333325, 17, (6, 7, 9, 11, 13, NO_PARENT, 4, 4, 5, 8, 5, 10, 5, 12)),
                    (2.0, 9.0, 4, (4, 4, 5, 5, 5, NO_PARENT)),
                    (9.0, 9.0, 0, (4, 4, 5, 5, 5, NO_PARENT)),
                ],
            ),
            (
                [(1, 0), (0, 1), (2, 1), (1, 2), (3, 2)],
                (5, 5, 5, 5, 2, NO_PARENT),
                [
                    (0.3, 4.933333333333334, 15, (6, 7, 9, 10, 12, NO_PARENT, 5, 5, 5, 8, 5, 2, 11)),
                    (2.0, 7.0, 3, (5, 5, 5, 5, 2, NO_PARENT)),
                    (9.0, 7.0, 0, (5, 5, 5, 5, 2, NO_PARENT)),
                ],
            ),
        ],
    )
    def test_pinned_on_tied_lattices(self, sources, spanning, pinned):
        # unit lattices around the sink (1, 1), where Prim's algorithm
        # meets equal distances: the tree, its costs and its beads' slots
        inst = Instance.with_unit_supplies([Point(*z) for z in sources], Point(1, 1))
        assert tuple(_prim_spanning_tree(*node_table(inst))) == spanning
        for c, cost, bound, parents in pinned:
            assert beaded_spanning_cost(inst, c) == cost
            assert steiner_count_bound(inst, c) == bound
            assert beaded_spanning_tree(inst, c).topology.parents == parents


    def test_prim_links_every_point_when_every_distance_overflows(self):
        # every squared distance from point 0 is infinite: the first point
        # left joins, where once none did, the last point stood in for it
        # and the points near that one were linked to -1
        links = _prim_spanning_tree((1e308, -1e308, -1e308, -1e308), (0.0, 0.0, 1.0, 2.0))
        assert links == [1, 2, 3, NO_PARENT]
        Topology(3, 0, tuple(links)).order_from_sink()


def _spanning_tables():
    """Coordinate tables, the last point standing for the sink: random ones
    of 2-61 points spanning 1e-3 to 1e300, unit lattices where Prim meets
    ties, points drawn with repeats from a few, and points so far apart
    that every distance between them overflows to infinity."""
    rng = random.Random(62)
    for _ in range(80):
        span = 10.0 ** rng.choice([rng.uniform(-3, 3), rng.uniform(3, 300)])
        m = rng.randint(2, 61)
        yield [rng.uniform(-span, span) for _ in range(m)], [rng.uniform(-span, span) for _ in range(m)]
    lattice = [(float(x), float(y)) for x in range(5) for y in range(5)]
    for _ in range(60):
        points = rng.sample(lattice, rng.randint(2, len(lattice)))
        yield [x for x, _ in points], [y for _, y in points]
    for _ in range(40):
        pool = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(rng.randint(1, 4))]
        points = [rng.choice(pool) for _ in range(rng.randint(2, 30))]
        yield [x for x, _ in points], [y for _, y in points]
    for _ in range(20):
        places = rng.sample(range(-100, 100), rng.randint(2, 30))
        yield [i * 1e160 for i in places], [rng.uniform(-1e160, 1e160) for _ in places]
    yield [1e308, -1e308, -1e308, -1e308], [0.0, 0.0, 1.0, 2.0]


def _outcome(function, *args) -> str:
    """repr of the result, or of the ValueError raised."""
    try:
        return repr(function(*args))
    except ValueError as exc:
        return repr(exc)


class TestSpanningOracle:
    """The one-walk spanning tree against the two-pass oracle of
    spanning_oracle: the same parents and the same bits."""

    def test_prim_parents_match_the_oracle(self):
        for xs, ys in _spanning_tables():
            assert _prim_spanning_tree(xs, ys) == spanning_oracle.prim_spanning_tree(xs, ys), (xs, ys)

    def test_cost_and_bound_match_the_oracle(self):
        rng = random.Random(63)
        checked = 0
        for xs, ys in _spanning_tables():
            n = len(xs) - 1
            supplies = [1.0] * n if rng.random() < 0.5 else [rng.uniform(0.5, 3.0) for _ in range(n)]
            try:
                inst = Instance.from_columns(tuple(xs[:-1]), tuple(ys[:-1]), tuple(supplies), Point(xs[-1], ys[-1]))
            except ValueError:  # a source on the sink
                continue
            q_total = _weighted_sink_distances(inst)
            assert repr(q_total) == repr(spanning_oracle.weighted_sink_distances(inst))
            for c in (10.0 ** rng.uniform(-3, 3), rng.uniform(1e-3, 1.0) * q_total):
                for ours, theirs in (
                    (beaded_spanning_cost, spanning_oracle.beaded_spanning_cost),
                    (steiner_count_bound, spanning_oracle.steiner_count_bound),
                ):
                    assert _outcome(ours, inst, c) == _outcome(theirs, inst, c), (inst, c)
                checked += 1
        assert checked > 300


class TestSteinerCountBound:
    def test_expensive_steiner_gives_zero(self, worked_instance):
        bst = beaded_spanning_tree(worked_instance, 1000.0)
        assert node_weighted_objective(bst, 1000.0) < 1000.0 * 2
        assert steiner_count_bound(worked_instance, 1000.0) == 0

    def test_monotone_nonincreasing_in_charge(self, worked_instance):
        grid = [0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 60.0, 150.0, 400.0]
        values = [steiner_count_bound(worked_instance, c) for c in grid]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[0] > values[-1]

    def test_spanning_bead_count_is_within_the_budget(self):
        rng = random.Random(46)
        for _ in range(20):
            inst = random_supplied_instance(rng, rng.randint(1, 5), span=4.0)
            c = rng.choice([1e-3, 1e-2, 0.1, 1.0]) * _weighted_sink_distances(inst)
            assert beaded_spanning_tree(inst, c).topology.n_steiner <= steiner_count_bound(inst, c)

    def test_bounds_exact_optimum_count(self):
        rng = random.Random(45)
        for _ in range(5):
            inst = random_instance(rng, 3, span=4.0)
            q = sum(sq_dist(z, inst.sink) for z in inst.sources)
            c = rng.uniform(q / 16.0, q / 4.0)
            report = solve_exact(inst, NodeWeighted(c))
            assert report.best.topology.n_steiner <= steiner_count_bound(inst, c)

    @staticmethod
    def larger_root(instance, c):
        """The bound's larger root in 60-digit arithmetic, from the same U
        and Q as steiner_count_bound."""
        n = instance.n_sources
        with mpmath.workdps(60):
            u = mpmath.mpf(beaded_spanning_cost(instance, c))
            q = mpmath.mpf(_weighted_sink_distances(instance))
            c = mpmath.mpf(c)
            b_lin = c * (n + 1) - u
            disc = b_lin * b_lin - 4 * c * (q - (n + 1) * u)
            return (-b_lin + mpmath.sqrt(max(disc, 0))) / (2 * c)

    @staticmethod
    def unscaled_bound(instance, c):
        """The bound as computed before its coefficients were scaled: None
        where a square overflows."""
        n = instance.n_sources
        upper = beaded_spanning_cost(instance, c)
        b_lin = c * (n + 1) - upper
        b_const = _weighted_sink_distances(instance) - (n + 1) * upper
        disc = b_lin * b_lin - 4.0 * c * b_const
        if not math.isfinite(disc):
            return None
        return max(0, math.floor((-b_lin + math.sqrt(max(disc, 0.0))) / (2.0 * c) + 1e-9))

    @pytest.mark.parametrize("c", [1e10, 1e100])
    def test_huge_coordinates_and_node_weight_give_a_finite_bound(self, c):
        # U is finite (4e200 at c = 1e100), but U^2 overflows a float
        inst = Instance.with_unit_supplies([Point(0, 0), Point(1e150, 1e150)], Point(1e150, 0))
        assert self.unscaled_bound(inst, c) is None
        bound = steiner_count_bound(inst, c)
        assert bound == pytest.approx(float(self.larger_root(inst, c)), rel=1e-12)

    def test_matches_the_root_to_the_floor(self):
        rng = random.Random(47)
        for _ in range(40):
            inst = random_supplied_instance(rng, rng.randint(1, 6), span=4.0)
            c = rng.choice([1e-2, 0.1, 1.0]) * _weighted_sink_distances(inst)
            expected = int(mpmath.floor(self.larger_root(inst, c) + mpmath.mpf(1e-9)))
            assert steiner_count_bound(inst, c) == max(0, expected)

    def test_unchanged_where_the_unscaled_bound_is_finite(self):
        rng = random.Random(48)
        checked = 0
        for _ in range(200):
            span = 10.0 ** rng.uniform(-60, 60)
            inst = random_supplied_instance(rng, rng.randint(1, 6), span=span)
            c = 10.0 ** rng.uniform(-3, 1) * _weighted_sink_distances(inst)
            unscaled = self.unscaled_bound(inst, c)
            if unscaled is not None:
                assert steiner_count_bound(inst, c) == unscaled
                checked += 1
        assert checked > 150


class TestExpandBeads:
    def test_single_edge_chain(self):
        from canonical_oracle import canonical_form

        topo = Topology(1, 0, (1, NO_PARENT))
        expanded = expand_beads(topo, [2])
        assert expanded.n_steiner == 2
        assert canonical_form(expanded) == canonical_form(
            Topology(1, 2, (2, NO_PARENT, 3, 1))
        )

    def test_zero_vector_is_identity(self, worked_topology):
        expanded = expand_beads(worked_topology, [0] * 5)
        assert expanded.parents == worked_topology.parents
