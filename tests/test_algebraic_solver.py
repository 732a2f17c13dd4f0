import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqst import (
    Instance,
    InternalConsistencyError,
    Point,
    Topology,
    compute_flows,
    solve_topology,
)
from certificate_oracle import sq_dist
from certificate_oracle import MassPoint, centroid, position
from skeleton_walk import enumerate_bounded_topologies
from fqst.trees import CERTIFICATE_TOLERANCE, centroid_deviations, off_centroid_slots
from fqst import algebraic_solver
from fqst.algebraic_solver import (
    merge_summaries,
    pinned_cost,
    steiner_weight,
)
from dense_oracle import SteinerSystem, assemble_system, solve_positions
from conftest import (
    NO_PARENT,
    embedded_cost,
    node_table,
    random_full_topology,
    random_general_tree,
    random_instance,
    random_supplied_instance,
)


class TestAssembleSystem:
    def test_worked_example_entries(self, worked_instance, worked_topology):
        flows = compute_flows(worked_topology, worked_instance.supplies)
        system = assemble_system(worked_instance, worked_topology, flows)
        assert system.steiner_slots == (4, 5)
        assert np.allclose(system.matrix, [[4.0, -2.0], [-2.0, 6.0]])
        assert np.allclose(system.rhs_x, [2.0, 44.0])
        assert np.allclose(system.rhs_y, [4.0, 8.0])

    def test_single_steiner_solution_is_neighbour_centroid(self):
        inst = Instance.with_unit_supplies([Point(0, 0), Point(4, 0)], Point(2, 6))
        topo = Topology(2, 1, (3, 3, NO_PARENT, 2))
        tree = solve_topology(inst, topo)
        expected = centroid(
            [
                MassPoint(Point(0, 0), 1.0),
                MassPoint(Point(4, 0), 1.0),
                MassPoint(Point(2, 6), 2.0),
            ]
        )
        assert tree.steiner_positions[0].x == pytest.approx(expected.x, abs=1e-12)
        assert tree.steiner_positions[0].y == pytest.approx(expected.y, abs=1e-12)

    def test_zero_steiner_gives_empty_system(self):
        inst = Instance.with_unit_supplies([Point(0, 0)], Point(1, 1))
        topo = Topology(1, 0, (1, NO_PARENT))
        system = assemble_system(inst, topo, compute_flows(topo, inst.supplies))
        assert system.size == 0
        assert solve_positions(system) == ()


def jacobi_solve(matrix, rhs, iterations=400):
    diag = np.diag(matrix)
    rest = matrix - np.diag(diag)
    x = np.zeros_like(rhs)
    for _ in range(iterations):
        x = (rhs - rest @ x) / diag
    return x


class TestSolvePositions:
    def test_worked_example_solution(self):
        system = SteinerSystem(
            np.array([[4.0, -2.0], [-2.0, 6.0]]),
            np.array([2.0, 44.0]),
            np.array([4.0, 8.0]),
            (4, 5),
        )
        positions = solve_positions(system)
        assert positions[0] == Point(5.0, 2.0)
        assert positions[1] == Point(9.0, 2.0)

    def test_one_by_one_midpoint(self):
        system = SteinerSystem(
            np.array([[4.0]]), np.array([2.0 * (1.0 + 3.0)]), np.array([2.0 * (2.0 + 6.0)]), (2,)
        )
        (p,) = solve_positions(system)
        assert p == Point(2.0, 4.0)

    def test_random_dominant_systems_match_jacobi(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            raw = rng.uniform(-1.0, 1.0, size=(6, 6))
            matrix = raw + np.diag(np.abs(raw).sum(axis=1) + rng.uniform(0.5, 2.0, 6))
            rhs_x = rng.uniform(-10, 10, 6)
            rhs_y = rng.uniform(-10, 10, 6)
            system = SteinerSystem(matrix, rhs_x, rhs_y, tuple(range(6)))
            positions = solve_positions(system)
            expected_x = jacobi_solve(matrix, rhs_x)
            expected_y = jacobi_solve(matrix, rhs_y)
            for p, ex, ey in zip(positions, expected_x, expected_y):
                assert p.x == pytest.approx(ex, abs=1e-9)
                assert p.y == pytest.approx(ey, abs=1e-9)

    def test_dominance_violation_raises(self):
        system = SteinerSystem(
            np.array([[1.0, -2.0], [-2.0, 1.0]]),
            np.zeros(2),
            np.zeros(2),
            (0, 1),
        )
        with pytest.raises(InternalConsistencyError):
            solve_positions(system)


class TestSolveTopology:
    def test_worked_example_cost(self, worked_instance, worked_topology):
        assert solve_topology(worked_instance, worked_topology).cost == pytest.approx(
            102.0, abs=1e-12
        )

    def test_bead_path_equal_spacing(self):
        inst = Instance.with_unit_supplies([Point(0, 0)], Point(3, 0))
        topo = Topology(1, 2, (2, NO_PARENT, 3, 1))
        tree = solve_topology(inst, topo)
        assert tree.steiner_positions[0] == Point(1.0, 0.0)
        assert tree.steiner_positions[1] == Point(2.0, 0.0)
        assert tree.cost == pytest.approx(3.0, abs=1e-12)

    def test_four_source_ratio_certificates(self):
        # three sources into one Steiner slot, which chains through another
        # to the sink together with the fourth source
        inst = Instance.with_unit_supplies(
            [Point(0, 6), Point(-2, 3), Point(1, 2.5), Point(4, 5)], Point(5, 0)
        )
        topo = Topology(4, 2, (6, 6, 6, 5, NO_PARENT, 4, 5))
        tree = solve_topology(inst, topo)
        s1, s2 = tree.steiner_positions
        gather = centroid([MassPoint(inst.sources[3], 1.0), MassPoint(s2, 3.0)])
        assert s1.x == pytest.approx((gather.x + inst.sink.x) / 2, abs=1e-9)
        assert s1.y == pytest.approx((gather.y + inst.sink.y) / 2, abs=1e-9)

    def test_centroid_and_midpoint_conditions_on_random_trees(self):
        rng = random.Random(31)
        for topo in enumerate_bounded_topologies(3, 2, 3):
            inst = random_supplied_instance(rng, 3)
            tree = solve_topology(inst, topo)
            children = topo.children
            for slot in topo.steiner_slots():
                neighbours = [
                    MassPoint(position(tree, c), tree.flows[c]) for c in children[slot]
                ]
                neighbours.append(
                    MassPoint(position(tree, topo.parents[slot]), tree.flows[slot])
                )
                c_all = centroid(neighbours)
                s = position(tree, slot)
                assert math.hypot(s.x - c_all.x, s.y - c_all.y) <= 1e-9
                # midpoint of the out-neighbour and the in-neighbour centroid
                c_in = centroid(neighbours[:-1])
                out = position(tree, topo.parents[slot])
                assert abs(s.x - (c_in.x + out.x) / 2) <= 1e-9
                assert abs(s.y - (c_in.y + out.y) / 2) <= 1e-9

    def test_adjacent_steiner_collinearity_lemma(self, worked_instance, worked_topology):
        tree = solve_topology(worked_instance, worked_topology)
        s0, s1 = tree.steiner_positions  # slots 4 and 5, adjacent
        c_in = centroid(
            [MassPoint(worked_instance.sources[0], 1.0), MassPoint(worked_instance.sources[1], 1.0)]
        )
        c_far = centroid(
            [MassPoint(worked_instance.sources[2], 1.0), MassPoint(worked_instance.sink, 3.0)]
        )
        cross = (s0.x - c_in.x) * (c_far.y - c_in.y) - (s0.y - c_in.y) * (c_far.x - c_in.x)
        assert abs(cross) <= 1e-9
        cross = (s1.x - c_in.x) * (c_far.y - c_in.y) - (s1.y - c_in.y) * (c_far.x - c_in.x)
        assert abs(cross) <= 1e-9
        # segments split in ratio F_far : F_far : F_in = 4 : 4 : 2
        seg = [
            math.sqrt(sq_dist(c_in, s0)),
            math.sqrt(sq_dist(s0, s1)),
            math.sqrt(sq_dist(s1, c_far)),
        ]
        assert seg[0] == pytest.approx(seg[1], rel=1e-9)
        assert seg[2] == pytest.approx(seg[0] / 2.0, rel=1e-9)

    def test_collinearity_lemma_random(self):
        rng = random.Random(32)
        for _ in range(10):
            n = rng.randint(3, 6)
            inst = random_instance(rng, n)
            topo = random_full_topology(rng, n)
            tree = solve_topology(inst, topo)
            children = topo.children
            for s0 in topo.steiner_slots():
                s1 = topo.parents[s0]
                if s1 <= topo.sink:
                    continue
                near = centroid(
                    [MassPoint(position(tree, c), tree.flows[c]) for c in children[s0]]
                )
                far_members = [
                    MassPoint(position(tree, c), tree.flows[c])
                    for c in children[s1]
                    if c != s0
                ]
                far_members.append(
                    MassPoint(position(tree, topo.parents[s1]), tree.flows[s1])
                )
                far = centroid(far_members)
                f_near = sum(tree.flows[c] for c in children[s0])
                f_far = sum(mp.mass for mp in far_members)
                p0, p1 = position(tree, s0), position(tree, s1)
                length = math.sqrt(sq_dist(near, far))
                if length < 1e-9:
                    continue
                for p in (p0, p1):
                    cross = (p.x - near.x) * (far.y - near.y) - (p.y - near.y) * (
                        far.x - near.x
                    )
                    assert abs(cross) <= 1e-9 * (1.0 + length * length)
                seg = [
                    math.sqrt(sq_dist(near, p0)),
                    math.sqrt(sq_dist(p0, p1)),
                    math.sqrt(sq_dist(p1, far)),
                ]
                total = f_far + f_far + f_near
                assert seg[0] == pytest.approx(length * f_far / total, abs=1e-9)
                assert seg[1] == pytest.approx(length * f_far / total, abs=1e-9)
                assert seg[2] == pytest.approx(length * f_near / total, abs=1e-9)

    def test_gradient_vanishes_by_finite_differences(self):
        rng = random.Random(33)
        for _ in range(5):
            n = rng.randint(2, 6)
            inst = random_supplied_instance(rng, n)
            topo = random_full_topology(rng, n)
            tree = solve_topology(inst, topo)
            step = 1e-6
            for idx in range(len(tree.steiner_positions)):
                for axis in range(2):
                    plus = list(tree.steiner_positions)
                    minus = list(tree.steiner_positions)
                    p = plus[idx]
                    if axis == 0:
                        plus[idx] = Point(p.x + step, p.y)
                        minus[idx] = Point(p.x - step, p.y)
                    else:
                        plus[idx] = Point(p.x, p.y + step)
                        minus[idx] = Point(p.x, p.y - step)
                    fd = (
                        embedded_cost(topo, *node_table(inst, plus), tree.flows)
                        - embedded_cost(topo, *node_table(inst, minus), tree.flows)
                    ) / (2 * step)
                    assert abs(fd) <= 1e-5

    def test_uniqueness_under_slot_permutation(self, worked_instance):
        original = Topology(3, 2, (4, 4, 5, NO_PARENT, 5, 3))
        swapped = Topology(3, 2, (5, 5, 4, NO_PARENT, 3, 4))
        a = solve_topology(worked_instance, original)
        b = solve_topology(worked_instance, swapped)
        for got, expected in [
            (a.steiner_positions[0], b.steiner_positions[1]),
            (a.steiner_positions[1], b.steiner_positions[0]),
        ]:
            assert got.x == pytest.approx(expected.x, abs=1e-12)
            assert got.y == pytest.approx(expected.y, abs=1e-12)
        assert a.cost == pytest.approx(b.cost, rel=1e-12)

    def test_general_supplies(self):
        inst = Instance(
            (0, 2, 11), (0, 4, 5), (2.0, 0.5, 1.25), Point(11, 1)
        )
        topo = Topology(3, 2, (4, 4, 5, NO_PARENT, 5, 3))
        tree = solve_topology(inst, topo)
        flows = tree.flows
        assert flows[4] == pytest.approx(2.5)
        assert flows[5] == pytest.approx(3.75)
        children = topo.children
        for slot in topo.steiner_slots():
            neighbours = [
                MassPoint(position(tree, c), tree.flows[c]) for c in children[slot]
            ]
            neighbours.append(
                MassPoint(position(tree, topo.parents[slot]), tree.flows[slot])
            )
            c = centroid(neighbours)
            s = position(tree, slot)
            assert math.hypot(s.x - c.x, s.y - c.y) <= 1e-9

    def test_degenerate_coincident_terminals_still_solve(self):
        inst = Instance.with_unit_supplies([Point(0, 0), Point(0, 0)], Point(2, 0))
        topo = Topology(2, 1, (3, 3, NO_PARENT, 2))
        tree = solve_topology(inst, topo)
        assert tree.steiner_positions[0] == Point(1.0, 0.0)

    def test_cyclic_topology_rejected(self):
        from fqst import TopologyError

        # the constructor refuses the cycle, so no solver meets it
        with pytest.raises(TopologyError) as raised:
            Topology(1, 2, (1, NO_PARENT, 3, 2))
        assert str(raised.value) == "nodes [2, 3] cannot reach the sink (cycle or disconnection)"


def summary_cost(instance, topology, weights):
    """Optimal cost from subtree summaries merged leaves first; no positions."""
    children = topology.children
    terminals = [*instance.sources, instance.sink]
    summaries = {}
    for node in reversed(topology.order):
        parts = [summaries[c] for c in children[node]]
        if node == topology.sink:
            return pinned_cost(instance.sink.x, instance.sink.y, parts)
        if node < topology.n_sources:
            z = terminals[node]
            summaries[node] = (z.x, z.y, weights[node], pinned_cost(z.x, z.y, parts))
        else:
            qx, qy, v, k = merge_summaries(parts)
            summaries[node] = (qx, qy, steiner_weight(v, weights[node]), k)


class TestEliminationMatchesDenseOracle:
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_positions_and_pivots(self, n_sources, n_steiner, seed):
        rng = random.Random(seed)
        topo = random_general_tree(rng, n_sources, n_steiner)
        inst = random_supplied_instance(rng, n_sources, span=100.0)
        flows = compute_flows(topo, inst.supplies)
        beads = [rng.randint(0, 3) for _ in flows]
        weights = [f / (p + 1) for f, p in zip(flows, beads)]
        scale = max(
            1.0, *(max(abs(p.x), abs(p.y)) for p in (*inst.sources, inst.sink))
        )

        expected = solve_positions(assemble_system(inst, topo, flows, weights))
        assert summary_cost(inst, topo, weights) == pytest.approx(
            embedded_cost(topo, *node_table(inst, expected), weights), rel=1e-12, abs=1e-12
        )

        tree = solve_topology(inst, topo)
        expected = solve_positions(assemble_system(inst, topo, flows))
        for got, want in zip(tree.steiner_positions, expected):
            assert abs(got.x - want.x) <= 1e-12 * scale
            assert abs(got.y - want.y) <= 1e-12 * scale

    def test_positions_with_supplies_spread_over_170_orders(self):
        # below one Steiner slot of this tree every supply is 1e-170, where
        # the product w * V underflows to 0; w * (V / (w + V)) does not
        rng = random.Random(133)
        topo = random_general_tree(rng, 6, 5)
        inst = random_supplied_instance(rng, 6)
        supplies = tuple(w * (1e-170 if i % 2 else 1.0) for i, w in enumerate(inst.supplies))
        inst = Instance(inst.xs, inst.ys, supplies, inst.sink)
        scale = max(1.0, *(max(abs(p.x), abs(p.y)) for p in (*inst.sources, inst.sink)))
        tree = solve_topology(inst, topo)
        expected = solve_positions(assemble_system(inst, topo, compute_flows(topo, inst.supplies)))
        for got, want in zip(tree.steiner_positions, expected):
            assert abs(got.x - want.x) <= 1e-12 * scale
            assert abs(got.y - want.y) <= 1e-12 * scale

    @pytest.mark.parametrize("factor", [2.0**-700, 2.0**600], ids=["tiny", "huge"])
    def test_positions_ignore_the_supply_scale(self, factor):
        # w * V underflows or overflows at these supplies unscaled; the
        # passes run on flows scaled by a power of two, so the positions
        # are those of the unscaled supplies bit for bit
        rng = random.Random(int(math.log2(factor)))
        topo = random_general_tree(rng, 6, 5)
        inst = random_supplied_instance(rng, 6)
        scaled = Instance(inst.xs, inst.ys, tuple(w * factor for w in inst.supplies), inst.sink)
        expected = solve_topology(inst, topo)
        got = solve_topology(scaled, topo)
        assert (got.xs, got.ys) == (expected.xs, expected.ys)

    @given(
        seed=st.integers(0, 2**32),
        multiples=st.lists(st.integers(1, 8), min_size=2, max_size=7),
        power=st.integers(-1070, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_power_of_two_supplies_keep_every_bit(self, seed, multiples, power):
        # integer supplies times 2^power, from subnormal to near overflow:
        # the positions are those at power 0 bit for bit, and every tree
        # passes the certificate that check applies
        rng = random.Random(seed)
        n = len(multiples)
        topo = random_general_tree(rng, n, rng.randint(1, n))
        inst = random_instance(rng, n)
        unit = Instance(inst.xs, inst.ys, tuple(float(m) for m in multiples), inst.sink)
        scaled = Instance(inst.xs, inst.ys, tuple(math.ldexp(m, power) for m in multiples), inst.sink)
        expected = solve_topology(unit, topo)
        got = solve_topology(scaled, topo)
        assert (got.xs, got.ys) == (expected.xs, expected.ys)
        assert off_centroid_slots(got, CERTIFICATE_TOLERANCE) == []

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_pivot_raises(self, worked_instance, worked_topology, monkeypatch, bad):
        flows = list(compute_flows(worked_topology, worked_instance.supplies))
        flows[4] = bad
        monkeypatch.setattr(algebraic_solver, "compute_flows", lambda topology, supplies: flows)
        with pytest.raises(InternalConsistencyError):
            solve_topology(worked_instance, worked_topology)


class TestClosingCertificate:
    """solve_topology closes with the centroid certificate: a placement that
    fails it raises instead of returning."""

    @staticmethod
    def inject(monkeypatch, slot, axis, change):
        # the fault enters between the downward pass and the certificate
        build = algebraic_solver.SolvedTree

        def faulty(instance, topology, xs, ys, flows):
            table = [list(xs), list(ys)]
            table[axis][slot] = change(table[axis][slot])
            return build(instance, topology, *table, flows)

        monkeypatch.setattr(algebraic_solver, "SolvedTree", faulty)

    def test_solved_tree_passes(self, worked_instance, worked_topology):
        tree = solve_topology(worked_instance, worked_topology)
        assert tree.deviations == centroid_deviations(tree)
        assert off_centroid_slots(tree, CERTIFICATE_TOLERANCE) == []

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("slot", [4, 5])
    def test_moved_placement_raises(self, worked_instance, worked_topology, monkeypatch, axis, slot):
        self.inject(monkeypatch, slot, axis, lambda value: value + 1e-6)
        with pytest.raises(InternalConsistencyError, match="off their centroids"):
            solve_topology(worked_instance, worked_topology)

    @pytest.mark.parametrize("slot", [4, 5])
    def test_nan_placement_raises(self, worked_instance, worked_topology, monkeypatch, slot):
        self.inject(monkeypatch, slot, 1, lambda value: math.nan)
        with pytest.raises(InternalConsistencyError):
            solve_topology(worked_instance, worked_topology)


class TestSubtreeSummaries:
    def test_merge_keeps_the_cost_at_every_point(self):
        rng = random.Random(34)
        for _ in range(20):
            parts = [
                (rng.uniform(-9, 9), rng.uniform(-9, 9), rng.uniform(0.1, 3), rng.uniform(0, 5))
                for _ in range(rng.randint(1, 5))
            ]
            qx, qy, v, k = merge_summaries(parts)
            assert v == pytest.approx(sum(p[2] for p in parts), rel=1e-15)
            x, y = rng.uniform(-9, 9), rng.uniform(-9, 9)
            direct = pinned_cost(x, y, parts)
            merged = k + v * ((x - qx) ** 2 + (y - qy) ** 2)
            assert merged == pytest.approx(direct, rel=1e-12)

    def test_steiner_weight_is_the_series_weight(self):
        assert steiner_weight(3.0, 1.0) == pytest.approx(0.75, rel=1e-15)
        # where w * V underflows or overflows
        assert steiner_weight(3e-170, 1e-170) == pytest.approx(0.75e-170, rel=1e-15)
        assert steiner_weight(3e200, 1e200) == pytest.approx(0.75e200, rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_pivot_raises(self, bad):
        _, _, v, _ = merge_summaries([(0.0, 0.0, 1.0, 0.0), (4.0, 0.0, 2.0, 0.0)])
        with pytest.raises(InternalConsistencyError):
            steiner_weight(v, bad)
