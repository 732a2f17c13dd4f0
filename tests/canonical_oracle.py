"""Canonical forms of a topology under Steiner relabelling.

rooted_encoding is the sink-rooted encoding that the tests compare two
searches' winners by.  canonical_form is an independent brute-force key:
it tries every relabelling of the Steiner slots and keeps the smallest
parent array, so the enumeration tests can check deduplication against
something that shares no code with the encoding.  Its cost grows as
n_steiner factorial.
"""

from __future__ import annotations

import itertools

from fqst.topology import NO_PARENT, Topology


def rooted_encoding(topology: Topology) -> tuple:
    """Canonical sink-rooted encoding, invariant under Steiner relabelling.

    Terminals keep their identities, Steiner slots are anonymous, and child
    encodings are sorted, so two topologies get equal encodings exactly when
    one is a Steiner relabelling of the other, which is how two searches'
    winners are compared.
    """
    children = topology.children_lists()
    sink = topology.sink

    def encode(node: int) -> tuple:
        label = node if node <= sink else -2
        return (label, tuple(sorted(encode(c) for c in children[node])))

    return encode(sink)


def canonical_form(topology: Topology) -> tuple[int, ...]:
    """Minimum lexicographic parent array over all Steiner-slot relabellings.

    Sources and the sink keep their labels; Steiner slots are interchangeable.
    """
    slots = list(topology.steiner_slots())
    n_nodes = topology.n_nodes
    best: tuple[int, ...] | None = None
    for perm in itertools.permutations(slots):
        relabel = list(range(n_nodes))
        for old, new in zip(slots, perm):
            relabel[old] = new
        arr = [0] * n_nodes
        for node, parent in enumerate(topology.parents):
            arr[relabel[node]] = NO_PARENT if parent == NO_PARENT else relabel[parent]
        key = tuple(arr)
        if best is None or key < best:
            best = key
    assert best is not None
    return best
