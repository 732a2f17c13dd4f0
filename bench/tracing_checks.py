"""Span-coverage and count-stability tests for the benchmark's tracing.

Each workload is run traced on a tiny instance of its own kind.  Every layer
must record work where the benchmark's layer table says it does the work, so
a rename in fqst fails here instead of silently zeroing a per-layer metric;
the search counts must repeat exactly between two traced runs.

    PYTHONPATH=src python3 -m pytest bench/tracing_checks.py -q

The file name keeps these checks out of pytest's default discovery, and so
out of the repository's default test run, whose timing-based acceptance test
of the geometric solver is sensitive to what runs ahead of it on a noisy host.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest

import run
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent

# Layer metrics that must be nonzero on each workload's tiny instance.
WORKING_LAYERS = {
    "exact-degree": (
        "topology.enumerate_s", "topology.rooted_encoding_s", "topology.yielded",
        "topology.encodings", "topology.kept_ratio", "topology.compute_flows_s",
        "exact_search.total_s", "exact_search.self_s", "exact_search.self_us_per_examined",
        "exact_search.examined", "geo_solver.solve_full_topology_s", "geo_solver.calls",
        "algebraic_solver.solve_topology_s", "algebraic_solver.calls",
        "algebraic_solver.assemble_s", "algebraic_solver.solve_positions_s",
        "algebraic_solver.max_p", "algebraic_solver.matrix_bytes",
        "trees.build_solved_tree_s", "analysis.certificates_s",
        "analysis.lower_bound_path_s", "analysis.lower_bound_path_calls",
        "documents.result_document_s", "documents.dumps_s", "documents.loads_s",
        "documents.parse_instance_s", "documents.bytes_out", "cli.self_s", "trace.spans",
    ),
    "exact-beads": (
        "topology.enumerate_s", "topology.rooted_encoding_s", "topology.yielded",
        "topology.encodings", "exact_search.total_s", "exact_search.self_s",
        "exact_search.examined", "algebraic_solver.solve_topology_s",
        "analysis.lower_bound_path_s", "analysis.lower_bound_path_calls",
        "analysis.spanning_bound_s", "analysis.expand_beads_s",
        "documents.result_document_s", "documents.dumps_s", "cli.self_s",
    ),
    "fixed-topology": (
        "topology.compute_flows_s", "geo_solver.solve_full_topology_s", "geo_solver.calls",
        "algebraic_solver.solve_topology_s", "algebraic_solver.calls",
        "algebraic_solver.assemble_s", "algebraic_solver.solve_positions_s",
        "algebraic_solver.max_p", "trees.build_solved_tree_s", "analysis.certificates_s",
        "documents.result_document_s", "documents.dumps_s", "documents.loads_s",
        "documents.parse_instance_s", "documents.parse_result_s", "documents.bytes_out",
        "render.render_svg_s", "render.svg_bytes", "cli.self_s",
    ),
}

# Layers the table says idle on the workload.
IDLE_LAYERS = {
    "fixed-topology": ("topology.enumerate_s", "topology.yielded", "topology.encodings",
                       "exact_search.total_s", "exact_search.examined",
                       "analysis.lower_bound_path_calls"),
}

STABLE_COUNTS = ("exact_search.examined", "topology.yielded", "topology.encodings",
                 "analysis.lower_bound_path_calls")


def tiny_commands(workload: str, seed: int, workdir: Path) -> list[workloads.Command]:
    """A few small instances of the workload's kind, generated like the real ones."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"tiny/{workload}/{seed}")
    doc = workloads.instance_document
    if workload == "exact-degree":
        docs = [doc(rng, 4, True, {"degree_bound": 3}), doc(rng, 4, False, {"degree_bound": 3})]
    elif workload == "exact-beads":
        spread = {"schema": 1, "sources": [[0.0, 0.0], [0.0, 5.0], [5.0, 5.0]],
                  "supplies": [1.0, 2.0, 1.5], "sink": [5.0, 0.0],
                  "strategy": {"node_weighted": 6.0}}
        docs = [doc(rng, 4, False, {"explicit_bound": 2}), spread]
    else:
        return workloads.fixed_commands(rng, workdir, (
            ("caterpillar-unit", 12, None, True),
            ("caterpillar-mixed", 12, None, False),
            ("random-tree-mixed", 12, 6, False),
        ))
    return [workloads.exact_command(workdir, i, d, f"tiny#{i}", 0.0) for i, d in enumerate(docs)]


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def traced_pass(cli, commands) -> tuple[dict, Tracer]:
    tracer = Tracer()
    tracer.install()
    try:
        executions = [run.run_command(cli, c.argv, tracer) for c in commands]
    finally:
        tracer.uninstall()
    for command, execution in zip(commands, executions):
        assert execution.code == 0, (command.argv, execution.stderr)
    return run.layer_metrics(tracer), tracer


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_layer_fires_where_it_works(cli, tmp_path, workload):
    layers, tracer = traced_pass(cli, tiny_commands(workload, 1, tmp_path))
    assert tracer.missing == []
    silent = [name for name in WORKING_LAYERS[workload] if not layers[name] > 0]
    assert silent == [], f"layers recorded no work on {workload}: {silent}"
    busy = [name for name in IDLE_LAYERS.get(workload, ()) if layers[name] != 0]
    assert busy == [], f"layers the table calls idle did work on {workload}: {busy}"


@pytest.mark.parametrize("workload", ("exact-degree", "exact-beads"))
def test_search_counts_repeat_exactly(cli, tmp_path, workload):
    first, _ = traced_pass(cli, tiny_commands(workload, 7, tmp_path / "a"))
    second, _ = traced_pass(cli, tiny_commands(workload, 7, tmp_path / "b"))
    assert {k: first[k] for k in STABLE_COUNTS} == {k: second[k] for k in STABLE_COUNTS}


def test_uninstall_restores_every_alias(cli):
    from fqst import algebraic_solver, exact_search

    originals = (cli.algebraic_solve, cli.render_svg, exact_search.enumerate_bounded_topologies,
                 algebraic_solver.solve_positions)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.algebraic_solve is not originals[0]
        assert exact_search.enumerate_bounded_topologies is not originals[2]
    finally:
        tracer.uninstall()
    assert (cli.algebraic_solve, cli.render_svg, exact_search.enumerate_bounded_topologies,
            algebraic_solver.solve_positions) == originals


def test_seeded_move_keeps_distances_and_box_shape():
    """The exact-* workloads rely on it: their reference objectives and their
    work must not depend on the seed."""
    doc = workloads.load_pool()["d4-mixed"]["instance"]
    points = [*doc["sources"], doc["sink"]]
    for seed in range(8):
        moved = workloads.moved(doc, random.Random(seed))
        assert moved["supplies"] == doc["supplies"] and moved["strategy"] == doc["strategy"]
        new = [*moved["sources"], moved["sink"]]
        assert new != points
        for (a, b), (c, d) in zip(zip(points, points[1:]), zip(new, new[1:])):
            assert math.dist(c, d) == pytest.approx(math.dist(a, b), rel=1e-12)
        spans = sorted(max(q[i] for q in points) - min(q[i] for q in points) for i in (0, 1))
        assert sorted(max(q[i] for q in new) - min(q[i] for q in new) for i in (0, 1)) == pytest.approx(spans)


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
