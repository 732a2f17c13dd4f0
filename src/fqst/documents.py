"""JSON instance and result documents.

An instance document carries sources, optional supplies (default all 1), the
sink, a strategy tag, and optionally a topology as a parent array with node
kind tags.  Node order in documents matches the in-memory convention:
sources, then the sink, then Steiner slots; the sink's parent is null.

Result documents add Steiner positions, per-edge flows, costs, and a
certificate summary.  Computed numbers are rounded to 12 significant digits;
instance echoes keep exact float round-trip.

Reading.  A document is JSON data: a number is an int or a float (not a
bool, nor a subclass of either) and a pair is a list or tuple of two
numbers.  Each list is checked whole, in passes that run in C: the set of
its items' types (and, for pairs, lengths), one float conversion and one
finiteness scan per column; the parents by one count of nulls; the flows by
one sorted comparison of their edge ids with the topology's edges and one
comparison of their heads with its parents.  The Instance, Topology and
SolvedTree tables are built from those columns.  Only when a whole-list
check refuses does that list's _bad_* helper walk it, in order, and raise
the DocumentError naming the first faulty item; every message comes from
there or from the single-value checks.
"""

from __future__ import annotations

import json
import math
import operator
from itertools import repeat
from typing import Any, NamedTuple, NoReturn, Sequence

from . import analysis
from .errors import DocumentError, FqstError, InternalConsistencyError
from .geometry import Point
from .strategies import BoundStrategy, DegreeBound, ExplicitBound, NodeWeighted, objective
from .topology import NO_PARENT, Instance, Topology
from .trees import SolvedTree

SCHEMA_VERSION = 1


class ParsedInstanceDocument(NamedTuple):
    instance: Instance
    strategy: BoundStrategy
    topology: Topology | None


def _round12(value: float) -> float:
    return float(f"{value:.12g}")


# Exact types: JSON true/false load as bool, which Python counts as an int.
_INT = {int}
_NUMBER = {float, int}
_PAIR = {list, tuple}
_PARENT = {int, type(None)}
_DICT = {dict}
_FLOW_KEYS = ("from", "to", "flow")
_X = operator.attrgetter("x")
_Y = operator.attrgetter("y")


def _is_int(value: Any) -> bool:
    return type(value) is int


def _is_number(value: Any) -> bool:
    return type(value) in _NUMBER


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


def _no_fault(what: str) -> NoReturn:
    """End of a _bad_* helper: its walk found no fault the whole-list check
    saw, which is a bug in one of the two."""
    raise InternalConsistencyError(f"{what} failed a whole-list check, but no item is at fault")


def _finite_column(values: Sequence[Any]) -> list[float] | None:
    """values as floats when every one is a finite JSON number, else None."""
    if set(map(type, values)) <= _NUMBER:
        try:
            column = list(map(float, values))
        except OverflowError:  # an integer too large for a float
            return None
        if all(map(math.isfinite, column)):
            return column
    return None


def _pair_columns(raw: list, what: str) -> tuple[list[float], list[float]]:
    """The x and y columns of a list of [x, y] pairs of finite numbers;
    what.format(i) names item i in an error."""
    if set(map(type, raw)) <= _PAIR and set(map(len, raw)) <= {2}:
        xs, ys = map(_finite_column, tuple(zip(*raw)) or ((), ()))
        if xs is not None and ys is not None:
            return xs, ys
    _bad_pairs(raw, what)


def _bad_pairs(raw: list, what: str) -> NoReturn:
    for i, value in enumerate(raw):
        name = what.format(i)
        if type(value) not in _PAIR or len(value) != 2 or not all(map(_is_number, value)):
            raise DocumentError(f"{name} must be a pair of numbers, got {value!r}")
        _finite(value[0], name)
        _finite(value[1], name)
    _no_fault(what.format("*"))


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
    sink = n_sources
    # a null may stand only at the sink (where the integer NO_PARENT may too)
    if not (
        set(map(type, parents)) <= _PARENT
        and parents.count(None) == (parents[sink] is None)
    ):
        _bad_parents(parents, n_sources, n_steiner)
    converted = list(parents)
    converted[sink] = NO_PARENT if parents[sink] is None else parents[sink]
    return _topology(n_sources, n_steiner, converted)


def _topology(n_sources: int, n_steiner: int, parents: list[int]) -> Topology:
    try:
        topology = Topology(n_sources, n_steiner, tuple(parents))
        topology.order_from_sink()
    except FqstError as exc:
        raise DocumentError(f"invalid topology: {exc}") from exc
    return topology


def _bad_parents(parents: list, n_sources: int, n_steiner: int) -> NoReturn:
    """Name the first parent that is neither an integer nor null; past that,
    a null off the sink or an integer on it is a topology the Topology
    checks refuse."""
    for i, parent in enumerate(parents):
        if parent is not None and not _is_int(parent):
            raise DocumentError(f"parent of node {i} must be an integer or null")
    _topology(n_sources, n_steiner, [NO_PARENT if p is None else p for p in parents])
    _no_fault("'parents'")


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
    sources = tuple(map(Point, *_pair_columns(raw_sources, "source {}")))
    (sink_x,), (sink_y,) = _pair_columns([doc.get("sink")], "sink")
    raw_supplies = doc.get("supplies")
    if raw_supplies is None:
        supplies = [1.0] * len(sources)
    else:
        supplies = _finite_column(raw_supplies) if type(raw_supplies) is list else None
        if supplies is None:
            _bad_supplies(raw_supplies)
    try:
        instance = Instance(sources, tuple(supplies), Point(sink_x, sink_y))
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    strategy = parse_strategy(doc.get("strategy"))
    topology = None
    if doc.get("topology") is not None:
        topology = parse_topology(doc["topology"], instance.n_sources)
    return ParsedInstanceDocument(instance, strategy, topology)


def _bad_supplies(raw: Any) -> NoReturn:
    if type(raw) is not list or not all(map(_is_number, raw)):
        raise DocumentError("'supplies' must be a list of numbers")
    for i, w in enumerate(raw):
        _finite(w, f"supply {i}")
    _no_fault("'supplies'")


def certificate_summary(tree: SolvedTree, tolerance: float) -> dict:
    max_deviation = max(tree.deviations.values(), default=0.0)
    angle_violations, overlaps = analysis.check_edge_pairs(tree, tolerance)
    return {
        "centroid_max_deviation": _round12(max_deviation),
        "locally_minimal": not analysis.off_centroid_slots(tree, tolerance),
        "angle_violations": len(angle_violations),
        "edge_overlaps": len(overlaps),
        "degenerate": tree.degenerate,
    }


def result_document(
    tree: SolvedTree,
    strategy: BoundStrategy,
    *,
    tolerance: float = analysis.CERTIFICATE_TOLERANCE,
    claims_global_optimum: bool = False,
    extra: dict | None = None,
) -> dict:
    first = tree.topology.sink + 1
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
            [_round12(x), _round12(y)] for x, y in zip(tree.xs[first:], tree.ys[first:])
        ],
        "flows": [
            {"from": child, "to": tree.topology.parents[child], "flow": _round12(tree.flows[child])}
            for child in tree.topology.edge_children()
        ],
        "cost": _round12(tree.cost),
        "objective": _round12(objective(strategy, tree.cost, tree.topology.n_steiner)),
        "claims": {"locally_minimal": True, "global_optimum": claims_global_optimum},
        "certificates": certificate_summary(tree, tolerance),
    }
    if extra:
        doc.update(extra)
    return doc


class ParsedResultDocument(NamedTuple):
    instance: Instance
    strategy: BoundStrategy
    tree: SolvedTree
    claims_global_optimum: bool
    objective: float | None  # None when the document stores none


def _flag(doc: dict, block: str, key: str) -> bool:
    """doc[block][key] as a JSON boolean; an absent block or key is false."""
    raw = doc.get(block, {})
    if not isinstance(raw, dict):
        raise DocumentError(f"'{block}' must be an object, got {raw!r}")
    value = raw.get(key, False)
    if not isinstance(value, bool):
        raise DocumentError(f"'{block}.{key}' must be true or false, got {value!r}")
    return value


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
    steiner_xs, steiner_ys = _pair_columns(raw_positions, "steiner position {}")
    instance = parsed.instance
    xs = (*map(_X, instance.sources), instance.sink.x, *steiner_xs)
    ys = (*map(_Y, instance.sources), instance.sink.y, *steiner_ys)

    raw_flows = doc.get("flows")
    n_edges = topology.n_nodes - 1
    if not isinstance(raw_flows, list) or len(raw_flows) != n_edges:
        raise DocumentError(f"'flows' must list {n_edges} edges")
    flows = _flow_table(raw_flows, topology)

    raw_cost = doc.get("cost")
    if not _is_number(raw_cost):
        raise DocumentError("'cost' must be a finite number")
    tree = SolvedTree(
        instance=instance,
        topology=topology,
        xs=xs,
        ys=ys,
        flows=tuple(flows),
        cost=_finite(raw_cost, "'cost'"),
        degenerate=_flag(doc, "certificates", "degenerate"),
    )
    raw_objective = doc.get("objective")
    if raw_objective is not None and not _is_number(raw_objective):
        raise DocumentError("'objective' must be a finite number")
    return ParsedResultDocument(
        instance=instance,
        strategy=parsed.strategy,
        tree=tree,
        claims_global_optimum=_flag(doc, "claims", "global_optimum"),
        objective=None if raw_objective is None else _finite(raw_objective, "'objective'"),
    )


def _flow_table(raw_flows: list, topology: Topology) -> list[float]:
    """The flow of each node's out-edge (0.0 at the sink) from a list of
    {"from", "to", "flow"} entries, one per edge in any order."""
    if set(map(type, raw_flows)) <= _DICT:
        # a missing key reads as None, which no type check below admits
        froms, tos, values = (list(map(dict.get, raw_flows, repeat(key))) for key in _FLOW_KEYS)
        column = _finite_column(values)
        if (
            set(map(type, froms)) | set(map(type, tos)) <= _INT
            # one entry per non-sink node: membership, repeats and order at once
            and sorted(froms) == topology.edge_children()
            and list(map(topology.parents.__getitem__, froms)) == tos
            and column is not None
            and min(column) > 0.0
        ):
            flows = [0.0] * topology.n_nodes
            for child, flow in zip(froms, column):
                flows[child] = flow
            return flows
    _bad_flows(raw_flows, topology)


def _bad_flows(raw_flows: list, topology: Topology) -> NoReturn:
    edge_set = set(topology.edge_children())
    listed = set()
    for entry in raw_flows:
        if (
            type(entry) is not dict
            or not _is_int(entry.get("from"))
            or entry["from"] not in edge_set
            or not _is_int(entry.get("to"))
            or entry["to"] != topology.parents[entry["from"]]
            or not _is_number(entry.get("flow"))
        ):
            raise DocumentError(f"bad flow entry {entry!r}")
        child = entry["from"]
        if child in listed:
            raise DocumentError(f"flow of edge {child} is listed twice")
        listed.add(child)
        flow = _finite(entry["flow"], f"flow of edge {child}")
        if not flow > 0:
            raise DocumentError(f"flow of edge {child} must be positive, got {entry['flow']!r}")
    _no_fault("'flows'")


def dumps(doc: dict) -> str:
    """Strict JSON on one line: a NaN or infinity anywhere in doc is a
    DocumentError.  No indent, so the stdlib's C encoder does the work.
    The documents written here are built fresh from the tables and hold no
    cycle, so the encoder skips its per-container cycle check; a cycle
    still ends in a DocumentError, by the encoder's recursion limit."""
    try:
        return json.dumps(doc, sort_keys=True, allow_nan=False, check_circular=False) + "\n"
    except ValueError as exc:
        raise DocumentError(f"cannot emit a non-finite number as JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError(f"cannot emit a self-referencing or too deeply nested document as JSON: {exc}") from exc


def _reject_constant(token: str) -> Any:
    raise DocumentError(f"not valid JSON: {token} is not a finite number")


def loads(text: str) -> Any:
    """Strict JSON: the NaN, Infinity and -Infinity tokens are a DocumentError."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except DocumentError:
        raise
    except ValueError as exc:  # also an integer literal past int's digit limit
        raise DocumentError(f"not valid JSON: {exc}") from exc
