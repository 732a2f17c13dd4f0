"""Flow-dependent quadratic Steiner trees in the Euclidean plane.

A directed tree carries each source's supply to a single sink; an edge with
flow f and length L costs f * L^2.  The package embeds given topologies
optimally by one linear-time tree elimination for any topology; on full
degree-3 unit-supply topologies it is the paper's quasi-source merging, whose
merge trace run_geo_algorithm reads off the elimination.  It certifies local
and global optimality, computes bounds, and finds global optima at desk
scale by exhaustive search under three ways of bounding the Steiner count.

The namespace holds what README's example and the CLI use, and the error
classes; the paper's closed-form merges and the other test oracles live
beside the tests.  solve_exact and run_geo_algorithm load their modules
(the search and the merge trace) on first use, so that importing the
package, or the CLI's commands other than exact, does not load them.
"""

from .analysis import check_centroid_certificate
from .algebraic_solver import solve_topology
from .errors import (
    DocumentError,
    FqstError,
    GeometryError,
    GuardLimitError,
    InternalConsistencyError,
    TopologyError,
    UnsupportedTopologyError,
    UnsupportedWeightsError,
)
from .geometry import Point
from .render import render_svg
from .strategies import DegreeBound, ExplicitBound, NodeWeighted, max_steiner_count
from .topology import Instance, Topology, compute_flows, validate_topology

__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "solve_exact":
        from .exact_search import solve_exact as value
    elif name == "run_geo_algorithm":
        from .geo_solver import run_geo_algorithm as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "DegreeBound",
    "DocumentError",
    "ExplicitBound",
    "FqstError",
    "GeometryError",
    "GuardLimitError",
    "Instance",
    "InternalConsistencyError",
    "NodeWeighted",
    "Point",
    "Topology",
    "TopologyError",
    "UnsupportedTopologyError",
    "UnsupportedWeightsError",
    "check_centroid_certificate",
    "compute_flows",
    "max_steiner_count",
    "render_svg",
    "run_geo_algorithm",
    "solve_exact",
    "solve_topology",
    "validate_topology",
]
