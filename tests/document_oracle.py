"""Per-item oracle for the document readers.

parse_instance_document and parse_result_document as they were when every
list item was checked by its own Python code (isinstance chains, one pair
at a time, one flow entry at a time).  fqst.documents checks each list
whole; the tests require both readers to return equal values or raise the
same DocumentError on the same document.
"""

from __future__ import annotations

import math
from typing import Any

from fqst.documents import (
    SCHEMA_VERSION,
    ParsedInstanceDocument,
    ParsedResultDocument,
    _expected_kinds,
    _flag,
    parse_strategy,
)
from fqst.errors import DocumentError, FqstError
from fqst.geometry import Point
from fqst.topology import NO_PARENT, Instance, Topology
from fqst.trees import SolvedTree


def _is_int(value: Any) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, float) or _is_int(value)


def _finite(value: int | float, what: str) -> float:
    """A JSON number as a finite float; an integer too large for a float,
    like a NaN or an infinity, is a DocumentError."""
    try:
        number = float(value)
    except OverflowError:
        raise DocumentError(f"{what} must be finite, got an integer too large for a float") from None
    if not math.isfinite(number):
        raise DocumentError(f"{what} must be finite, got {value!r}")
    return number


def _parse_pair(value: Any, what: str) -> tuple[float, float]:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(_is_number(v) for v in value)
    ):
        raise DocumentError(f"{what} must be a pair of numbers, got {value!r}")
    return _finite(value[0], what), _finite(value[1], what)


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


def parse_instance_document(doc: Any) -> ParsedInstanceDocument:
    if not isinstance(doc, dict):
        raise DocumentError("instance document must be a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema {doc.get('schema')!r}; expected {SCHEMA_VERSION}")
    raw_sources = doc.get("sources")
    if not isinstance(raw_sources, list) or not raw_sources:
        raise DocumentError("'sources' must be a nonempty list of [x, y] pairs")
    sources = tuple(Point(*_parse_pair(p, f"source {i}")) for i, p in enumerate(raw_sources))
    sink = Point(*_parse_pair(doc.get("sink"), "sink"))
    raw_supplies = doc.get("supplies")
    if raw_supplies is None:
        supplies = (1.0,) * len(sources)
    else:
        if not isinstance(raw_supplies, list) or not all(_is_number(w) for w in raw_supplies):
            raise DocumentError("'supplies' must be a list of numbers")
        supplies = tuple(_finite(w, f"supply {i}") for i, w in enumerate(raw_supplies))
    try:
        instance = Instance(sources, supplies, sink)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    strategy = parse_strategy(doc.get("strategy"))
    topology = None
    if doc.get("topology") is not None:
        topology = parse_topology(doc["topology"], instance.n_sources)
    return ParsedInstanceDocument(instance, strategy, topology)


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
    instance = parsed.instance
    xs = [p.x for p in instance.sources] + [instance.sink.x]
    ys = [p.y for p in instance.sources] + [instance.sink.y]
    for i, raw in enumerate(raw_positions):
        x, y = _parse_pair(raw, f"steiner position {i}")
        xs.append(x)
        ys.append(y)

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
        child = entry["from"]
        if flows[child]:  # a listed flow is positive
            raise DocumentError(f"flow of edge {child} is listed twice")
        flow = flows[child] = _finite(entry["flow"], f"flow of edge {child}")
        if not flow > 0:
            raise DocumentError(f"flow of edge {child} must be positive, got {entry['flow']!r}")

    raw_cost = doc.get("cost")
    if not _is_number(raw_cost):
        raise DocumentError("'cost' must be a finite number")
    tree = SolvedTree(
        instance=instance,
        topology=topology,
        xs=tuple(xs),
        ys=tuple(ys),
        flows=tuple(flows),
        cost=_finite(raw_cost, "'cost'"),
        degenerate=_flag(doc, "certificates", "degenerate"),
    )
    objective = doc.get("objective")
    if objective is not None and not _is_number(objective):
        raise DocumentError("'objective' must be a finite number")
    return ParsedResultDocument(
        instance=instance,
        strategy=parsed.strategy,
        tree=tree,
        claims_global_optimum=_flag(doc, "claims", "global_optimum"),
        objective=None if objective is None else _finite(objective, "'objective'"),
    )
