"""The whole-list document readers in fqst.documents against the per-item
oracle in document_oracle.py: on valid documents and on documents with one
fault planted, both return equal values or raise the same DocumentError."""

from __future__ import annotations

import copy
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import document_oracle as oracle
from fqst import documents, solve_topology
from fqst.errors import DocumentError
from fqst.strategies import DegreeBound, NodeWeighted
from conftest import instance_document, random_general_tree, random_supplied_instance

# Values that are not a finite JSON number, or not one where a pair, a
# parent or a flow entry is expected.  NaN and the infinities cannot come
# from loads(), so documents carry them only when built directly.
BAD_VALUES = (
    True, False, None, "1", [], {}, 10**400, -(10**400),
    math.nan, math.inf, -math.inf, 0, 0.0, -1, -2.5, 1.5,
)
BAD_PAIRS = (
    [True, 0.0], [0.0, False], ["1", 2.0], [None, 0.0], [1.0, 2.0, 3.0], [1.0], [],
    [10**400, 0.0], [0.0, math.nan], [math.inf, 1.0], [1.0, -math.inf],
    "1,2", 3.0, None, {"x": 1.0, "y": 2.0}, (1.0, 2.0), (1, 2),
)
NOT_LISTS = (None, "x", 3, {}, {"0": [1.0, 2.0]})


def instance_doc(rng: random.Random) -> dict:
    n_sources = rng.randint(1, 5)
    instance = random_supplied_instance(rng, n_sources)
    topology = random_general_tree(rng, n_sources, rng.randint(0, 4))
    strategy = rng.choice((DegreeBound(3), NodeWeighted(2.0)))
    doc = documents.loads(documents.dumps(instance_document(instance, strategy, topology)))
    if rng.random() < 0.3:
        del doc["supplies"]
    return doc


def result_doc(rng: random.Random) -> dict:
    parsed = documents.parse_instance_document(instance_doc(rng))
    tree = solve_topology(parsed.instance, parsed.topology)
    return documents.loads(documents.dumps(documents.result_document(tree, parsed.strategy)))


def nonempty_list(container, key: str) -> list | None:
    value = container.get(key) if isinstance(container, dict) else None
    return value if isinstance(value, list) and value else None


def mutate(doc: dict, rng: random.Random, kind: str) -> None:
    """Plant one fault of the given kind where an earlier fault has left the
    target in place (the flow-order kind may leave doc valid)."""
    inner = doc.get("instance", doc)
    topology = doc.get("topology")
    pair_lists = [
        lst for lst in (nonempty_list(inner, "sources"), nonempty_list(doc, "steiner_positions"))
        if lst
    ]
    flows = nonempty_list(doc, "flows")
    parents = nonempty_list(topology, "parents")
    if kind == "pair" and pair_lists:
        lst = rng.choice(pair_lists)
        lst[rng.randrange(len(lst))] = copy.deepcopy(rng.choice(BAD_PAIRS))
    elif kind == "coordinate" and pair_lists:
        pair = rng.choice(rng.choice(pair_lists))
        if isinstance(pair, list) and len(pair) == 2:
            pair[rng.randrange(2)] = rng.choice(BAD_VALUES)
    elif kind == "sink" and isinstance(inner, dict):
        inner["sink"] = copy.deepcopy(rng.choice(BAD_PAIRS))
    elif kind == "supply" and nonempty_list(inner, "supplies"):
        inner["supplies"][rng.randrange(len(inner["supplies"]))] = rng.choice(BAD_VALUES)
    elif kind == "parent" and parents:
        n = len(parents)
        parents[rng.randrange(n)] = rng.choice((*BAD_VALUES, n, -1, rng.randrange(n)))
    elif kind == "flow" and flows:
        entry = rng.choice(flows)
        if isinstance(entry, dict) and entry:
            key = rng.choice(sorted(entry))
            if rng.random() < 0.2:
                del entry[key]
            else:
                entry[key] = rng.choice((*BAD_VALUES, rng.randrange(len(flows) + 1)))
    elif kind == "flow order" and flows:
        if rng.random() < 0.5:
            rng.shuffle(flows)  # still valid: entries may come in any order
        else:
            flows[rng.randrange(len(flows))] = copy.deepcopy(rng.choice(flows))
    elif kind == "flow entry" and flows:
        flows[rng.randrange(len(flows))] = copy.deepcopy(rng.choice(BAD_PAIRS))
    elif kind == "missing key":
        target = rng.choice([t for t in (doc, inner, topology) if isinstance(t, dict) and t])
        target.pop(rng.choice(sorted(target)))
    elif kind == "not a list":
        targets = [
            (container, key)
            for container, key in (
                (inner, "sources"), (inner, "supplies"), (topology, "parents"),
                (doc, "steiner_positions"), (doc, "flows"),
            )
            if isinstance(container, dict)
        ]
        container, key = rng.choice(targets)
        container[key] = copy.deepcopy(rng.choice(NOT_LISTS))


KINDS = (
    "none", "pair", "coordinate", "sink", "supply", "parent", "flow", "flow order",
    "flow entry", "missing key", "not a list",
)


def outcome(parse, doc) -> str:
    """repr of the parsed value or the DocumentError's text; any other
    exception propagates and fails the test."""
    try:
        return repr(parse(doc))
    except DocumentError as exc:
        return f"DocumentError({exc})"


def outcomes(result: bool, doc: dict) -> tuple[str, str]:
    """The outcomes of fqst's reader and of the oracle's on doc, a result
    document or an instance document."""
    if result:
        parse, parse_oracle = documents.parse_result_document, oracle.parse_result_document
    else:
        parse, parse_oracle = documents.parse_instance_document, oracle.parse_instance_document
    return outcome(parse, copy.deepcopy(doc)), outcome(parse_oracle, doc)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
    st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_readers_match_the_oracle(seed, kinds, result):
    rng = random.Random(seed)
    doc = result_doc(rng) if result else instance_doc(rng)
    for kind in kinds:
        if kind != "none":
            mutate(doc, rng, kind)
    new, old = outcomes(result, doc)
    assert new == old


def paths(value, path=()):
    """The path (keys and indices) of every value nested in value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield path + (key,)
        yield from paths(item, path + (key,))


DELETE = object()


def replaced(doc: dict, path: tuple, value) -> dict:
    """A copy of doc with the value at path replaced, or deleted when value
    is the DELETE marker."""
    doc = copy.deepcopy(doc)
    container = doc
    for key in path[:-1]:
        container = container[key]
    if value is DELETE:
        del container[path[-1]]
    else:
        container[path[-1]] = copy.deepcopy(value)  # the bad pairs are lists
    return doc


@pytest.mark.parametrize("result", [False, True])
@pytest.mark.parametrize("seed", range(2))
def test_every_fault_in_every_place_matches_the_oracle(seed, result):
    """Each bad value, and a deletion, in turn at every place of a small
    document: its lists, their items and every number in them."""
    rng = random.Random(seed)
    doc = result_doc(rng) if result else instance_doc(rng)
    for path in list(paths(doc)):
        for value in (*BAD_VALUES, *BAD_PAIRS, *NOT_LISTS, DELETE):
            if value is DELETE and isinstance(path[-1], int):
                continue
            new, old = outcomes(result, replaced(doc, path, value))
            assert new == old, (path, value)


@pytest.mark.parametrize("seed", range(3))
def test_bench_sized_documents_match_the_oracle(seed):
    rng = random.Random(seed)
    n_sources = 400
    instance = random_supplied_instance(rng, n_sources)
    topology = random_general_tree(rng, n_sources, 300)
    tree = solve_topology(instance, topology)
    doc = documents.loads(documents.dumps(documents.result_document(tree, NodeWeighted(0.5))))
    rng.shuffle(doc["flows"])
    new, old = outcomes(True, doc)
    assert new == old and new.startswith("ParsedResultDocument(")
    inner = {**doc["instance"], "schema": 1, "strategy": doc["strategy"], "topology": doc["topology"]}
    new, old = outcomes(False, inner)
    assert new == old and new.startswith("ParsedInstanceDocument(")


@pytest.mark.parametrize(
    "helper", ["_bad_pairs", "_bad_supplies", "_bad_parents", "_bad_flows", "_no_fault"]
)
def test_valid_documents_never_reach_the_per_item_helpers(monkeypatch, helper):
    def refuse(*args):
        raise AssertionError(f"{helper} reached on a valid document")

    monkeypatch.setattr(documents, helper, refuse)
    rng = random.Random(7)
    for _ in range(20):
        doc = result_doc(rng)
        rng.shuffle(doc["flows"])
        documents.parse_result_document(doc)
