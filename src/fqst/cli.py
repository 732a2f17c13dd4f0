"""Command-line front end.

Commands:
  solve-topology FILE   locally minimal tree for the document's topology
  exact FILE            globally minimum tree by exhaustive search
  check FILE            re-run certificates on a previously emitted result
  render FILE -o OUT    draw a result document as SVG
  bounds FILE           lower/upper bounds for the document's strategy

Exit codes: 0 success, 1 certificate failure, 2 input error, 3 guard refusal.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import sys

from . import analysis, documents, strategies
from .algebraic_solver import solve_topology as algebraic_solve
from .errors import DocumentError, FqstError, GuardLimitError
from .render import render_svg
from .strategies import DEFAULT_GUARD, DegreeBound, ExplicitBound, NodeWeighted, max_steiner_count
from .topology import compute_flows, validate_topology
from .trees import require_finite_cost

EXIT_OK = 0
EXIT_CERTIFICATE = 1
EXIT_INPUT = 2
EXIT_GUARD = 3


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fqst",
        description="Flow-dependent quadratic Steiner trees: solve, search, check, draw.",
    )
    parser.add_argument("--tolerance", type=float, default=analysis.CERTIFICATE_TOLERANCE,
                        help="certificate tolerance (default %(default)g)")
    parser.add_argument("--guard-n", type=int, default=DEFAULT_GUARD,
                        help="largest source count exact search accepts")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve-topology", help="solve the document's fixed topology")
    solve.add_argument("file")
    solve.add_argument("-o", "--output", default=None, help="write the result here instead of stdout")

    exact = sub.add_parser("exact", help="exhaustive search for the global optimum")
    exact.add_argument("file")
    exact.add_argument("-o", "--output", default=None)

    check = sub.add_parser("check", help="re-run certificates on a result document")
    check.add_argument("file")

    render = sub.add_parser("render", help="draw a result document as SVG")
    render.add_argument("file")
    render.add_argument("-o", "--output", required=True)

    bounds = sub.add_parser("bounds", help="report bounds for the document's strategy")
    bounds.add_argument("file")
    bounds.add_argument("-o", "--output", default=None)
    return parser


def _read_document(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    return documents.loads(text)


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise DocumentError(f"cannot write {output}: {exc}") from exc


def _cmd_solve_topology(args) -> int:
    parsed = documents.parse_instance_document(_read_document(args.file))
    if parsed.topology is None:
        raise DocumentError("solve-topology needs a document with a 'topology'")
    tree = algebraic_solve(parsed.instance, parsed.topology)
    require_finite_cost(tree)
    doc = documents.result_document(
        tree, parsed.strategy, tolerance=args.tolerance, extra={"solver": "elimination"}
    )
    _write_output(documents.dumps(doc), args.output)
    return EXIT_OK


def _cmd_exact(args) -> int:
    from . import exact_search  # the one command that searches loads the search

    parsed = documents.parse_instance_document(_read_document(args.file))
    report = exact_search.solve_exact(parsed.instance, parsed.strategy, guard_n=args.guard_n)
    extra = {
        "search": {
            "topologies_examined": report.topologies_examined,
            "topologies_pruned": report.topologies_pruned,
            "bead_vectors": report.bead_vectors,
            "lower_bound": report.lower_bound,
            "phase_s": report.phase_s,
            "upper_bound": report.upper_bound,
        }
    }
    if report.steiner_bound is not None:
        extra["search"]["steiner_bound"] = report.steiner_bound
    doc = documents.result_document(
        report.best, parsed.strategy, tolerance=args.tolerance, claims_global_optimum=True, extra=extra
    )
    _write_output(documents.dumps(doc), args.output)
    return EXIT_OK


def _agrees(recomputed: float, stored: float, tol: float, unit: float) -> bool:
    """Whether a stored value matches its recomputed one: within tol
    relative to the recomputed magnitude plus an absolute floor of tol
    times unit, the largest flow capped at 1.  Below unit flows the floor
    also takes the value's float spacing, so that at subnormal flows, where
    tol * unit underflows, an exact match still passes and nothing else
    does; at unit flows and above this is tol * (1 + |recomputed|)."""
    return abs(recomputed - stored) <= _slack(recomputed, tol, unit)


def _slack(recomputed: float, tol: float, unit: float) -> float:
    """How far a value may sit from its recomputed one (see _agrees): no
    distance at all from a non-finite one, which nothing matches."""
    if not math.isfinite(recomputed):
        return -math.inf
    bound = tol * (unit + abs(recomputed))
    if unit < 1.0:
        bound += math.ulp(recomputed)
    return bound


def _cmd_check(args) -> int:
    parsed = documents.parse_result_document(_read_document(args.file))
    tree, strategy = parsed.tree, parsed.strategy
    tol = args.tolerance
    failures: list[str] = []
    notes: list[str] = []

    # stored numbers carry 12 significant digits, so the cost, the
    # objective and the flows are each compared relative to the magnitude
    # they are recomputed at, above an absolute floor at the tree's flow
    # scale (see _agrees)
    expected_flows = compute_flows(tree.topology, tree.instance.supplies)
    unit = min(max(expected_flows), 1.0)
    recomputed = analysis.cost(tree)
    objective = strategies.objective(strategy, recomputed, tree.topology.n_steiner)
    stored = parsed.objective
    if not math.isfinite(recomputed):
        failures.append(f"cost overflows a float: the flow * squared edge lengths sum to {recomputed}")
    elif not math.isfinite(objective):
        failures.append(f"objective overflows a float: the cost {recomputed} plus the Steiner charge is {objective}")
    else:
        if not _agrees(recomputed, tree.cost, tol, unit):
            failures.append(f"cost mismatch: stored {tree.cost}, recomputed {recomputed}")
        if stored is not None and not _agrees(objective, stored, tol, unit):
            failures.append(f"objective mismatch: stored {stored}, recomputed {objective}")

    # a bit-equal flow agrees at any positive tolerance
    flow_errors = [
        abs(a - b) for a, b in zip(expected_flows, tree.flows) if a != b and not _agrees(a, b, tol, unit)
    ]
    if flow_errors:
        worst_flow = max(flow_errors, key=lambda e: (math.isnan(e), e))
        failures.append(f"flow conservation violated by {worst_flow:.3e}")

    structural = validate_topology(tree.topology, strategy)
    failures.extend(f"structure: {v}" for v in structural)

    bad = analysis.off_centroid_slots(tree, tol)
    if bad:
        failures.append(f"centroid certificate fails at Steiner slots {bad}")

    angles, overlaps = analysis.check_edge_pairs(tree, tol, strategy=strategy)
    if isinstance(strategy, DegreeBound):
        optimality = [
            f"{v.kind} at node {v.node}: {v.detail}"
            for v in analysis.check_degree_window(tree, strategy.phi, tol)
        ]
    else:
        optimality = []
        # under a global claim a hit whose saving the cost's tolerance absorbs is a note
        for node, a, angle, saving in angles:
            line = f"angle {angle:.6f} rad between in-edge from {a} and out-edge at node {node}"
            if parsed.claims_global_optimum and saving <= _slack(recomputed, tol, unit):
                notes.append(f"{line} (its reroute saves {saving:.3e}, within the cost's tolerance)")
            else:
                optimality.append(line)
    optimality += [
        f"overlapping edges at node {v.node} (neighbours {v.first_neighbour}, {v.second_neighbour})"
        for v in overlaps
        if not v.degree_phi_caveat
    ]
    notes.extend(
        f"overlapping edges at degree-phi Steiner node {v.node} (not disqualifying)"
        for v in overlaps
        if v.degree_phi_caveat
    )
    if parsed.claims_global_optimum:
        failures.extend(f"optimality: {line}" for line in optimality)
    else:
        notes.extend(optimality)

    for line in failures:
        print(f"FAIL {line}")
    for line in notes:
        print(f"note {line}")
    if not failures:
        print("all checks passed")
        return EXIT_OK
    return EXIT_CERTIFICATE


def _cmd_render(args) -> int:
    parsed = documents.parse_result_document(_read_document(args.file))
    _write_output(render_svg(parsed.tree), args.output)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    parsed = documents.parse_instance_document(_read_document(args.file))
    instance, strategy = parsed.instance, parsed.strategy
    analysis.bounding_diagonal(instance)  # refuses, as exact does, points whose squares overflow
    if isinstance(strategy, DegreeBound):
        k = max_steiner_count(instance.n_sources, strategy.phi)
    elif isinstance(strategy, ExplicitBound):
        k = strategy.k
    else:
        try:
            upper = analysis.beaded_spanning_cost(instance, strategy.c)
            k = analysis.steiner_count_bound_from(instance, strategy.c, upper)
        except ValueError as exc:
            raise DocumentError(
                f"node weight {strategy.c!r} is too small: a spanning edge's "
                "flow * length^2 / c overflows a float, so no bead count can be computed"
            ) from exc
    doc = {
        "schema": documents.SCHEMA_VERSION,
        "strategy": documents.strategy_document(strategy),
        "steiner_budget": k,
        "lower_bound_path": analysis.lower_bound_path(instance, k),
    }
    if isinstance(strategy, NodeWeighted):
        doc["beaded_spanning_tree_cost"] = upper
    _write_output(documents.dumps(doc), args.output)
    return EXIT_OK


_COMMANDS = {
    "solve-topology": _cmd_solve_topology,
    "exact": _cmd_exact,
    "check": _cmd_check,
    "render": _cmd_render,
    "bounds": _cmd_bounds,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not (args.tolerance > 0.0 and math.isfinite(args.tolerance)):
        print("error: --tolerance must be positive and finite", file=sys.stderr)
        return EXIT_INPUT
    # a command's tables (documents, coordinate tables, search lists) hold
    # no reference cycles, so refcounting frees them and the cyclic
    # collector's scans, triggered by their many allocations, find nothing
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _COMMANDS[args.command](args)
    except GuardLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (DocumentError, FqstError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if collecting:
            gc.enable()


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
