"""The package's records keep what they had as frozen dataclasses: their
reprs, equality within one class, hashing as the field tuple, refusal of
assignment and deletion, and copying and pickling."""

import copy
import pickle

import pytest

from fqst import DegreeBound, ExplicitBound, Instance, NodeWeighted, Point, Topology, run_geo_algorithm
from fqst.exact_search import SearchReport
from fqst.geo_solver import GeoRun, MergeStep, QuasiSource


def worked_run() -> GeoRun:
    instance = Instance.with_unit_supplies([Point(0, 0), Point(2, 4), Point(11, 5)], sink=Point(11, 1))
    return run_geo_algorithm(instance, Topology(3, 2, (4, 4, 5, -1, 5, 3)))


# the reprs the frozen dataclasses printed
TREE_REPR = (
    "SolvedTree(instance=Instance(xs=(0, 2, 11), ys=(0, 4, 5), "
    "supplies=(1.0, 1.0, 1.0), sink=Point(x=11, y=1)), "
    "topology=Topology(n_sources=3, n_steiner=2, parents=(4, 4, 5, -1, 5, 3)), "
    "xs=(0, 2, 11, 11, 5.0, 9.0), ys=(0, 4, 5, 1, 2.0, 2.0), flows=(1.0, 1.0, 1.0, 0.0, 2.0, 3.0))"
)

# (build, its fields, its repr, other values with equal fields, whether it
# hashes, what fills its cached properties)
CASES = {
    "Point": (lambda: Point(1.0, 2.0), ("x", "y"), "Point(x=1.0, y=2.0)", [(1.0, 2.0)], True, None),
    "DegreeBound": (
        lambda: DegreeBound(3), ("phi",), "DegreeBound(phi=3)",
        [ExplicitBound(3), NodeWeighted(3), (3,)], True, None,
    ),
    "ExplicitBound": (
        lambda: ExplicitBound(3), ("k",), "ExplicitBound(k=3)", [DegreeBound(3), NodeWeighted(3)], True, None,
    ),
    "NodeWeighted": (lambda: NodeWeighted(10.0), ("c",), "NodeWeighted(c=10.0)", [ExplicitBound(10)], True, None),
    "Instance": (
        lambda: Instance((0, 2), (0, 4), (1.0, 2.5), Point(11, 1)),
        ("xs", "ys", "supplies", "sink"),
        "Instance(xs=(0, 2), ys=(0, 4), supplies=(1.0, 2.5), sink=Point(x=11, y=1))",
        [], True, lambda instance: instance.sources,
    ),
    "Topology": (
        lambda: Topology(3, 2, (4, 4, 5, -1, 5, 3)),
        ("n_sources", "n_steiner", "parents"),
        "Topology(n_sources=3, n_steiner=2, parents=(4, 4, 5, -1, 5, 3))",
        [], True, lambda topology: topology.degrees,
    ),
    "SolvedTree": (
        lambda: worked_run().tree,
        ("instance", "topology", "xs", "ys", "flows"),
        TREE_REPR, [], True, lambda tree: (tree.cost, tree.deviations, tree.steiner_positions),
    ),
    "SearchReport": (
        lambda: SearchReport(worked_run().tree, 102.0, 9, 2, 0, DegreeBound(3), 60.0, 102.0),
        (
            "best", "objective", "topologies_examined", "topologies_pruned", "bead_vectors",
            "strategy", "lower_bound", "upper_bound", "steiner_bound", "phase_s",
        ),
        f"SearchReport(best={TREE_REPR}, objective=102.0, topologies_examined=9, topologies_pruned=2, "
        "bead_vectors=0, strategy=DegreeBound(phi=3), lower_bound=60.0, upper_bound=102.0, "
        "steiner_bound=None, phase_s={})",
        [], False, None,  # phase_s is a dict
    ),
    "QuasiSource": (
        lambda: QuasiSource(Point(1, 2), 2.0, 2.0),
        ("position", "mass", "replaced_steiner_mass"),
        "QuasiSource(position=Point(x=1, y=2), mass=2.0, replaced_steiner_mass=2.0)",
        [], True, None,
    ),
    "MergeStep": (
        lambda: worked_run().steps[0],
        ("kind", "inputs", "steiner_slot", "result"),
        "MergeStep(kind='source-source', inputs=(0, 1), steiner_slot=4, "
        "result=QuasiSource(position=Point(x=1.0, y=2.0), mass=2.0, replaced_steiner_mass=2.0))",
        [], True, None,
    ),
    "GeoRun": (
        worked_run, ("tree", "merges"), f"GeoRun(tree={TREE_REPR})",  # the merges stay out
        [], False, lambda run: run.steps,  # the merges hold lists
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_records_keep_what_frozen_dataclasses_gave(name):
    build, fields, expected_repr, others, hashable, warm = CASES[name]
    record, twin = build(), build()
    if warm is not None:
        warm(record)  # cached values stay outside equality and hashing
    assert repr(record) == expected_repr
    values = tuple(getattr(record, field) for field in fields)
    assert record == twin and not record != twin
    for other in [values, *others]:
        assert record != other and other != record
    if hashable:
        assert hash(record) == hash(twin) == hash(values)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    for field in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
    # a new attribute is refused too, where a slotted frozen dataclass
    # raised TypeError from its super() call (seen on Python 3.11)
    with pytest.raises(AttributeError):
        record.no_such_field = 0
    assert tuple(getattr(record, field) for field in fields) == values
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
