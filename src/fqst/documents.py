"""JSON instance and result documents.

An instance document carries sources, optional supplies (default all 1), the
sink, a strategy tag, and optionally a topology as a parent array with node
kind tags.  Node order in documents matches the in-memory convention:
sources, then the sink, then Steiner slots; the sink's parent is null.

Result documents add Steiner positions, per-edge flows, costs, and a
certificate summary.  Computed numbers are rounded to 12 significant digits;
instance echoes keep exact float round-trip.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

from . import analysis
from .errors import DocumentError, FqstError
from .geometry import Point
from .strategies import BoundStrategy, DegreeBound, ExplicitBound, NodeWeighted
from .topology import NO_PARENT, Instance, Topology
from .trees import SolvedTree

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ParsedInstanceDocument:
    instance: Instance
    strategy: BoundStrategy
    topology: Topology | None


def _round12(value: float) -> float:
    return float(f"{value:.12g}")


def _is_int(value: Any) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return _is_int(value) or isinstance(value, float)


def _parse_point(value: Any, what: str) -> Point:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(_is_number(v) for v in value)
    ):
        raise DocumentError(f"{what} must be a pair of numbers, got {value!r}")
    point = Point(float(value[0]), float(value[1]))
    if not point.is_finite():
        raise DocumentError(f"{what} must be finite, got {value!r}")
    return point


def parse_strategy(value: Any) -> BoundStrategy:
    if not isinstance(value, dict) or len(value) != 1:
        raise DocumentError(
            "strategy must be one of {'degree_bound': phi}, {'explicit_bound': k}, "
            f"{{'node_weighted': c}}, got {value!r}"
        )
    (tag, parameter), = value.items()
    if tag not in ("degree_bound", "explicit_bound", "node_weighted"):
        raise DocumentError(f"unknown strategy tag {tag!r}")
    accepts = _is_number if tag == "node_weighted" else _is_int
    if not accepts(parameter):
        raise DocumentError(f"bad strategy parameter for {tag}: {parameter!r}")
    try:
        if tag == "degree_bound":
            return DegreeBound(parameter)
        if tag == "explicit_bound":
            return ExplicitBound(parameter)
        return NodeWeighted(float(parameter))
    except (OverflowError, ValueError) as exc:
        raise DocumentError(f"bad strategy parameter: {exc}") from exc


def strategy_document(strategy: BoundStrategy) -> dict:
    if isinstance(strategy, DegreeBound):
        return {"degree_bound": strategy.phi}
    if isinstance(strategy, ExplicitBound):
        return {"explicit_bound": strategy.k}
    if isinstance(strategy, NodeWeighted):
        return {"node_weighted": strategy.c}
    raise TypeError(f"unknown strategy {strategy!r}")


def _expected_kinds(n_sources: int, n_steiner: int) -> list[str]:
    return ["source"] * n_sources + ["sink"] + ["steiner"] * n_steiner


def parse_topology(value: Any, n_sources: int) -> Topology:
    if not isinstance(value, dict):
        raise DocumentError("topology must be an object with 'nodes' and 'parents'")
    kinds = value.get("nodes")
    parents = value.get("parents")
    if not isinstance(kinds, list) or not isinstance(parents, list):
        raise DocumentError("topology needs 'nodes' (kind tags) and 'parents' lists")
    if len(kinds) != len(parents):
        raise DocumentError("topology 'nodes' and 'parents' lengths differ")
    n_steiner = len(kinds) - n_sources - 1
    if n_steiner < 0 or kinds != _expected_kinds(n_sources, n_steiner):
        raise DocumentError(
            "topology node kinds must be the instance's sources, then 'sink', "
            "then 'steiner' entries"
        )
    converted = []
    for i, parent in enumerate(parents):
        if parent is None:
            converted.append(NO_PARENT)
        elif _is_int(parent):
            converted.append(parent)
        else:
            raise DocumentError(f"parent of node {i} must be an integer or null")
    try:
        topology = Topology(n_sources, n_steiner, tuple(converted))
        topology.order_from_sink()
    except FqstError as exc:
        raise DocumentError(f"invalid topology: {exc}") from exc
    return topology


def topology_document(topology: Topology) -> dict:
    return {
        "nodes": _expected_kinds(topology.n_sources, topology.n_steiner),
        "parents": [None if p == NO_PARENT else p for p in topology.parents],
    }


def parse_instance_document(doc: Any) -> ParsedInstanceDocument:
    if not isinstance(doc, dict):
        raise DocumentError("instance document must be a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema {doc.get('schema')!r}; expected {SCHEMA_VERSION}")
    raw_sources = doc.get("sources")
    if not isinstance(raw_sources, list) or not raw_sources:
        raise DocumentError("'sources' must be a nonempty list of [x, y] pairs")
    sources = tuple(_parse_point(p, f"source {i}") for i, p in enumerate(raw_sources))
    sink = _parse_point(doc.get("sink"), "sink")
    raw_supplies = doc.get("supplies")
    if raw_supplies is None:
        supplies = (1.0,) * len(sources)
    else:
        if not isinstance(raw_supplies, list) or not all(_is_number(w) for w in raw_supplies):
            raise DocumentError("'supplies' must be a list of numbers")
        supplies = tuple(float(w) for w in raw_supplies)
    try:
        instance = Instance(sources, supplies, sink)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    strategy = parse_strategy(doc.get("strategy"))
    topology = None
    if doc.get("topology") is not None:
        topology = parse_topology(doc["topology"], instance.n_sources)
    return ParsedInstanceDocument(instance, strategy, topology)


def instance_document(
    instance: Instance, strategy: BoundStrategy, topology: Topology | None = None
) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "sources": [[p.x, p.y] for p in instance.sources],
        "supplies": list(instance.supplies),
        "sink": [instance.sink.x, instance.sink.y],
        "strategy": strategy_document(strategy),
    }
    if topology is not None:
        doc["topology"] = topology_document(topology)
    return doc


def certificate_summary(tree: SolvedTree, tolerance: float) -> dict:
    deviations = analysis.centroid_deviations(tree)
    max_deviation = max(deviations.values(), default=0.0)
    angle_violations = analysis.check_angles(tree, tolerance)
    overlaps = analysis.check_overlapping_edges(tree)
    return {
        "centroid_max_deviation": _round12(max_deviation),
        "locally_minimal": max_deviation <= tolerance,
        "angle_violations": len(angle_violations),
        "edge_overlaps": len(overlaps),
        "degenerate": tree.degenerate,
    }


def result_document(
    tree: SolvedTree,
    strategy: BoundStrategy,
    *,
    tolerance: float = 1e-9,
    objective: float | None = None,
    claims_global_optimum: bool = False,
    extra: dict | None = None,
) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "instance": {
            "sources": [[p.x, p.y] for p in tree.instance.sources],
            "supplies": list(tree.instance.supplies),
            "sink": [tree.instance.sink.x, tree.instance.sink.y],
        },
        "strategy": strategy_document(strategy),
        "topology": topology_document(tree.topology),
        "steiner_positions": [
            [_round12(p.x), _round12(p.y)] for p in tree.steiner_positions
        ],
        "flows": [
            {"from": child, "to": tree.topology.parents[child], "flow": _round12(tree.flows[child])}
            for child in tree.topology.edge_children()
        ],
        "cost": _round12(tree.cost),
        "objective": _round12(tree.cost if objective is None else objective),
        "claims": {"locally_minimal": True, "global_optimum": claims_global_optimum},
        "certificates": certificate_summary(tree, tolerance),
    }
    if extra:
        doc.update(extra)
    return doc


@dataclass(frozen=True)
class ParsedResultDocument:
    instance: Instance
    strategy: BoundStrategy
    tree: SolvedTree
    claims_global_optimum: bool
    objective: float


def parse_result_document(doc: Any) -> ParsedResultDocument:
    if not isinstance(doc, dict):
        raise DocumentError("result document must be a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema {doc.get('schema')!r}; expected {SCHEMA_VERSION}")
    raw_instance = doc.get("instance")
    if not isinstance(raw_instance, dict):
        raise DocumentError("result document needs an 'instance' object")
    inner = dict(raw_instance)
    inner["schema"] = SCHEMA_VERSION
    inner["strategy"] = doc.get("strategy")
    inner["topology"] = doc.get("topology")
    parsed = parse_instance_document(inner)
    if parsed.topology is None:
        raise DocumentError("result document needs a 'topology'")
    topology = parsed.topology

    raw_positions = doc.get("steiner_positions")
    if not isinstance(raw_positions, list) or len(raw_positions) != topology.n_steiner:
        raise DocumentError(
            f"'steiner_positions' must list {topology.n_steiner} [x, y] pairs"
        )
    positions = tuple(
        _parse_point(p, f"steiner position {i}") for i, p in enumerate(raw_positions)
    )

    raw_flows = doc.get("flows")
    edge_children = topology.edge_children()
    if not isinstance(raw_flows, list) or len(raw_flows) != len(edge_children):
        raise DocumentError(f"'flows' must list {len(edge_children)} edges")
    edge_set = set(edge_children)
    flows = [0.0] * topology.n_nodes
    for entry in raw_flows:
        if (
            not isinstance(entry, dict)
            or not _is_int(entry.get("from"))
            or entry["from"] not in edge_set
            or not _is_int(entry.get("to"))
            or entry["to"] != topology.parents[entry["from"]]
            or not _is_number(entry.get("flow"))
        ):
            raise DocumentError(f"bad flow entry {entry!r}")
        if not math.isfinite(entry["flow"]):
            raise DocumentError(
                f"flow of edge {entry['from']} must be finite, got {entry['flow']!r}"
            )
        if not entry["flow"] > 0:
            raise DocumentError(
                f"flow of edge {entry['from']} must be positive, got {entry['flow']!r}"
            )
        flows[entry["from"]] = float(entry["flow"])

    raw_cost = doc.get("cost")
    if not _is_number(raw_cost) or not math.isfinite(raw_cost):
        raise DocumentError("'cost' must be a finite number")
    claims = doc.get("claims") or {}
    tree = SolvedTree(
        instance=parsed.instance,
        topology=topology,
        steiner_positions=positions,
        flows=tuple(flows),
        cost=float(raw_cost),
        degenerate=bool(doc.get("certificates", {}).get("degenerate", False)),
    )
    objective = doc.get("objective", raw_cost)
    if not _is_number(objective) or not math.isfinite(objective):
        raise DocumentError("'objective' must be a finite number")
    return ParsedResultDocument(
        instance=parsed.instance,
        strategy=parsed.strategy,
        tree=tree,
        claims_global_optimum=bool(claims.get("global_optimum", False)),
        objective=float(objective),
    )


def dumps(doc: dict) -> str:
    """Strict JSON on one line: a NaN or infinity anywhere in doc is a
    DocumentError.  No indent, so the stdlib's C encoder does the work."""
    try:
        return json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DocumentError(f"cannot emit a non-finite number as JSON: {exc}") from exc


def _reject_constant(token: str) -> Any:
    raise DocumentError(f"not valid JSON: {token} is not a finite number")


def loads(text: str) -> Any:
    """Strict JSON: the NaN, Infinity and -Infinity tokens are a DocumentError."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
