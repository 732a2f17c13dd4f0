"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import gc
import math
import random
import statistics
import time

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
    run_geo_algorithm,
    solve_exact,
    solve_topology,
)
from fqst.analysis import (
    expand_beads,
    lower_bound_path,
    optimal_bead_count,
    steiner_count_bound,
)
from certificate_oracle import sq_dist
from skeleton_walk import enumerate_bounded_topologies
from dense_oracle import assemble_system, solve_positions
from conftest import (
    NO_PARENT,
    beaded_spanning_tree,
    embedded_cost,
    node_table,
    node_weighted_objective,
    random_full_topology,
    random_instance,
)
from merge_replay import replay_tree


def report(number: int, label: str, passed: bool) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {label}")
    assert passed, f"criterion {number}: {label}"


@pytest.fixture(scope="module")
def oracle_pairs():
    """200 random instances with random full degree-3 topologies, solved by
    the paper's merges replayed from merge_* and by the elimination (shared
    by criteria 2 and 3); returns (pairs, solve time)."""
    rng = random.Random(20240)
    cases = []
    for _ in range(200):
        n = rng.randint(2, 8)
        cases.append((random_instance(rng, n), random_full_topology(rng, n)))
    start = time.perf_counter()
    pairs = [
        (inst, topo, replay_tree(inst, topo), solve_topology(inst, topo))
        for inst, topo in cases
    ]
    return pairs, time.perf_counter() - start


def test_criterion_1_worked_example_golden():
    instance = Instance.with_unit_supplies(
        [Point(0.0, 0.0), Point(2.0, 4.0), Point(11.0, 5.0)], Point(11.0, 1.0)
    )
    topology = Topology(3, 2, (4, 4, 5, NO_PARENT, 5, 3))
    run = run_geo_algorithm(instance, topology)

    first, second = run.steps
    ok = (
        abs(first.result.position.x - 1.0) <= 1e-9
        and abs(first.result.position.y - 2.0) <= 1e-9
        and first.result.mass == pytest.approx(2.0, abs=1e-9)
        and abs(second.result.position.x - 6.0) <= 1e-9
        and abs(second.result.position.y - 3.5) <= 1e-9
        and second.result.mass == pytest.approx(2.0, abs=1e-9)
    )
    s1, s2 = run.tree.steiner_positions
    ok = ok and abs(s1.x - 5.0) <= 1e-9 and abs(s1.y - 2.0) <= 1e-9
    ok = ok and abs(s2.x - 9.0) <= 1e-9 and abs(s2.y - 2.0) <= 1e-9
    ok = ok and abs(run.tree.cost - 102.0) <= 1e-9

    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        run_geo_algorithm(instance, topology)
        best = min(best, time.perf_counter() - start)
    ok = ok and best < 1e-3
    report(1, f"worked example exact to 1e-9, solve takes {best * 1e6:.0f} us", ok)


def test_criterion_2_oracle_equivalence(oracle_pairs):
    pairs, solve_time = oracle_pairs
    worst_coord = worst_cost = 0.0
    for _, _, replay, alg in pairs:
        for p, q in zip(replay.steiner_positions, alg.steiner_positions):
            worst_coord = max(worst_coord, abs(p.x - q.x), abs(p.y - q.y))
        worst_cost = max(worst_cost, abs(replay.cost - alg.cost) / max(1.0, alg.cost))
    ok = worst_coord <= 1e-9 and worst_cost <= 1e-9 and solve_time < 5.0
    report(
        2,
        f"200 merge-replay-vs-elimination solves agree (coord {worst_coord:.2e}, "
        f"cost {worst_cost:.2e}, {solve_time:.2f}s)",
        ok,
    )


def test_criterion_3_local_minimality(oracle_pairs):
    directions = [
        (1e-3 * math.cos(2 * math.pi * k / 16), 1e-3 * math.sin(2 * math.pi * k / 16))
        for k in range(16)
    ]
    certificates_ok = True
    perturbations_ok = True
    for inst, topo, _, tree in oracle_pairs[0]:
        certificates_ok = certificates_ok and all(
            check_centroid_certificate(tree, 1e-9).values()
        )
        base = tree.cost
        positions = list(tree.steiner_positions)
        for idx, point in enumerate(positions):
            for dx, dy in directions:
                moved = positions.copy()
                moved[idx] = Point(point.x + dx, point.y + dy)
                perturbed = embedded_cost(topo, *node_table(inst, moved), tree.flows)
                if perturbed < base - 1e-15:
                    perturbations_ok = False
    ok = certificates_ok and perturbations_ok
    report(3, "centroid certificates hold and 16-direction perturbations never improve", ok)


def test_criterion_4_gradient_check():
    rng = random.Random(20242)
    step = 1e-6
    worst = 0.0
    for _ in range(50):
        n = rng.randint(2, 7)
        inst = random_instance(rng, n)
        topo = random_full_topology(rng, n)
        tree = solve_topology(inst, topo)
        flows = tree.flows
        system = assemble_system(inst, topo, flows)
        positions = list(tree.steiner_positions)
        base_x = [p.x for p in positions]
        base_y = [p.y for p in positions]
        residual_x = system.matrix @ base_x - system.rhs_x
        residual_y = system.matrix @ base_y - system.rhs_y
        for idx in range(len(positions)):
            for axis, residual in ((0, residual_x[idx]), (1, residual_y[idx])):
                plus = positions.copy()
                minus = positions.copy()
                p = positions[idx]
                if axis == 0:
                    plus[idx] = Point(p.x + step, p.y)
                    minus[idx] = Point(p.x - step, p.y)
                else:
                    plus[idx] = Point(p.x, p.y + step)
                    minus[idx] = Point(p.x, p.y - step)
                fd = (
                    embedded_cost(topo, *node_table(inst, plus), flows)
                    - embedded_cost(topo, *node_table(inst, minus), flows)
                ) / (2 * step)
                # the stationarity residual is half the cost gradient
                worst = max(worst, abs(fd / 2.0 - residual))
    ok = worst <= 1e-5
    report(4, f"finite differences match the stationarity residual ({worst:.2e})", ok)


def test_criterion_5_bead_bracketing():
    rng = random.Random(20243)
    ok = True
    for _ in range(1000):
        f = rng.uniform(0.05, 10.0)
        length = rng.uniform(0.05, 12.0)
        c = rng.uniform(0.01, 10.0)
        p = optimal_bead_count(f, length, c)
        ratio = f * length * length / c
        if not (p * (p + 1) <= ratio + 1e-9 and ratio <= (p + 1) * (p + 2) + 1e-9):
            ok = False
        cap = int(math.sqrt(ratio)) + 2
        enumerated = min(
            range(cap + 1), key=lambda q: (f * length * length / (q + 1) + c * q, q)
        )
        if p != enumerated:
            ok = False
    report(5, "1000 random bead counts satisfy the bracket and match enumeration", ok)


def test_criterion_6_bound_sandwich():
    rng = random.Random(20244)
    ok = True
    for trial in range(50):
        n = rng.randint(1, 4)
        inst = random_instance(rng, n, span=5.0)
        q_total = sum(sq_dist(z, inst.sink) for z in inst.sources)
        kind = trial % 3
        if kind == 0:
            strategy = DegreeBound(3)
        elif kind == 1:
            strategy = ExplicitBound(rng.randint(0, 2))
        else:
            strategy = NodeWeighted(rng.uniform(q_total / (10 * (n + 1)), q_total / (n + 1)))
        result = solve_exact(inst, strategy)
        k = result.best.topology.n_steiner
        if result.objective < lower_bound_path(inst, k) - 1e-9:
            ok = False
        if isinstance(strategy, NodeWeighted):
            bst = beaded_spanning_tree(inst, strategy.c)
            if result.objective > node_weighted_objective(bst, strategy.c) + 1e-9:
                ok = False
            if k > steiner_count_bound(inst, strategy.c):
                ok = False
    report(6, "50 exact optima sit between the path lower bound and the beaded tree", ok)


def test_criterion_7_structural_certificates():
    rng = random.Random(20245)
    ok = True
    for trial in range(30):
        n = rng.randint(2, 4)
        inst = random_instance(rng, n, span=5.0)
        degree_tree = solve_exact(inst, DegreeBound(3)).best
        degrees = degree_tree.topology.degrees()
        for slot in degree_tree.topology.steiner_slots():
            if degrees[slot] != 3:
                ok = False
        for source in range(n):
            if degrees[source] > 2:
                ok = False
            elif degrees[source] == 2:
                children = degree_tree.topology.children_lists()[source]
                here = degree_tree.position(source)
                from certificate_oracle import angle_at

                angle = angle_at(
                    here,
                    degree_tree.position(children[0]),
                    degree_tree.position(degree_tree.topology.parents[source]),
                )
                if abs(angle - math.pi) > 1e-7:
                    ok = False
        from fqst.analysis import check_edge_pairs

        q_total = sum(sq_dist(z, inst.sink) for z in inst.sources)
        if trial % 2 == 0:
            strategy = ExplicitBound(rng.randint(1, 2))
        else:
            strategy = NodeWeighted(rng.uniform(q_total / (10 * (n + 1)), q_total / (n + 1)))
        free_tree = solve_exact(inst, strategy).best
        if check_edge_pairs(free_tree, 1e-7)[0]:
            ok = False
    report(7, "exact optima satisfy the degree window and right-angle screens", ok)


def test_criterion_8_large_degree_hub():
    offsets = [-15.0, -12.0, -6.0, 6.0, 12.0, 15.0]
    sources = [
        Point(math.cos(math.radians(180 + o)), math.sin(math.radians(180 + o)))
        for o in offsets
    ]
    inst = Instance.with_unit_supplies(sources, Point(1.05, 0.0))
    result = solve_exact(inst, ExplicitBound(1))
    topo = result.best.topology
    degrees = topo.degrees()
    hub_degree = degrees[topo.steiner_slots()[0]] if topo.n_steiner == 1 else -1
    ok = topo.n_steiner == 1 and hub_degree == 7
    report(8, f"circle instance's single Steiner point has degree {hub_degree}", ok)


def test_criterion_9_bead_expansion_equivalence():
    rng = random.Random(20246)
    ok = True
    for _ in range(20):
        n = rng.randint(2, 4)
        topos = list(enumerate_bounded_topologies(n, max(0, n - 2), 3))
        topo = topos[rng.randrange(len(topos))]
        inst = random_instance(rng, n)
        edges = topo.edge_children()
        beads = [0] * len(edges)
        budget = 6
        for i in range(len(edges)):
            beads[i] = rng.randint(0, min(3, budget))
            budget -= beads[i]
        flows = compute_flows(topo, inst.supplies)
        weights = list(flows)
        for child, p in zip(edges, beads):
            weights[child] = flows[child] / (p + 1)
        system = assemble_system(inst, topo, flows, weights)
        positions = solve_positions(system)
        reduced = embedded_cost(topo, *node_table(inst, positions), weights)
        expanded = solve_topology(inst, expand_beads(topo, beads))
        if abs(expanded.cost - reduced) > 1e-9 * (1.0 + reduced):
            ok = False
    report(9, "coefficient-reduced and expanded bead solves agree to 1e-9", ok)


def _caterpillar(n: int) -> Topology:
    parents = [0] * (2 * n)
    parents[0] = n + 1
    parents[1] = n + 1
    for i in range(2, n):
        parents[i] = n + i
    parents[n] = NO_PARENT
    for s in range(n + 1, 2 * n - 1):
        parents[s] = s + 1
    parents[2 * n - 1] = n
    return Topology(n, n - 1, tuple(parents))


def _scaling_instance(n: int) -> Instance:
    points = [
        Point(10.0 * math.sin(i * 0.7) + i * 1e-3, 10.0 * math.cos(i * 1.3))
        for i in range(n)
    ]
    return Instance.with_unit_supplies(points, Point(1000.0, 0.0))


def test_criterion_10_geo_solver_linearity():
    suite_start = time.perf_counter()
    counts_ok = True
    for n in (2, 10, 100, 1000):
        run = run_geo_algorithm(_scaling_instance(n), _caterpillar(n))
        if run.merge_count + run.placement_count != 2 * (n - 1):
            counts_ok = False

    sizes = (12500, 25000, 50000, 100000)
    cases = {n: (_scaling_instance(n), _caterpillar(n)) for n in sizes}
    runs = {n: [] for n in sizes}
    # each round times every size once, so a phase of host speed that lasts
    # a round hits all sizes alike, and each size keeps its median of seven:
    # a best-of-rounds rewards one lucky fast run of a single size, and a
    # median of four still moved when a slow phase hit two of a size's
    # rounds.  Every timed run checks its operation count too (n = 10^5
    # included).
    gc.collect()
    gc.disable()  # measure the algorithm, not collector pauses (as timeit does)
    try:
        for _ in range(7):
            for n, (inst, topo) in cases.items():
                start = time.perf_counter()
                run = run_geo_algorithm(inst, topo)
                runs[n].append(time.perf_counter() - start)
                if run.merge_count + run.placement_count != 2 * (n - 1):
                    counts_ok = False
    finally:
        gc.enable()
    timings = {n: statistics.median(seconds) for n, seconds in runs.items()}

    growth = [timings[2 * n] / (2.0 * timings[n]) for n in (12500, 25000, 50000)]
    elapsed = time.perf_counter() - suite_start
    ok = counts_ok and all(g <= 1.3 for g in growth) and elapsed < 10.0
    report(
        10,
        "op count 2(n-1) exactly; per-op growth per doubling "
        + ", ".join(f"{g:.2f}" for g in growth)
        + f"; total {elapsed:.1f}s",
        ok,
    )
