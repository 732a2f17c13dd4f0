"""Flow-dependent quadratic Steiner trees in the Euclidean plane.

A directed tree carries each source's supply to a single sink; an edge with
flow f and length L costs f * L^2.  The package embeds given topologies
optimally (a linear-time tree elimination for any topology, and the paper's
quasi-source merging for full degree-3 unit-supply topologies), certifies
local and global optimality, computes bounds, and finds global optima at
desk scale by exhaustive search under three ways of bounding the Steiner
count.
"""

from .analysis import (
    AngleViolation,
    DegreeViolation,
    EdgeOverlap,
    SplitSpec,
    apply_split,
    beaded_spanning_tree,
    centroid_deviations,
    check_angles,
    check_centroid_certificate,
    check_degree_window,
    check_overlapping_edges,
    cost,
    cost_node_weighted,
    expand_beads,
    lower_bound_path,
    optimal_bead_count,
    split_topology,
    steiner_count_bound,
)
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
from .exact_search import (
    SearchReport,
    solve_exact,
)
from .geo_solver import (
    GeoRun,
    MergeProvenance,
    MergeStep,
    QuasiSource,
    merge_quasi_quasi,
    merge_quasi_source,
    merge_sources,
    run_geo_algorithm,
    solve_full_topology,
)
from .geometry import MassPoint, Point, angle_at, centroid, lerp, sq_dist
from .render import render_svg
from .strategies import (
    BoundStrategy,
    DegreeBound,
    ExplicitBound,
    NodeWeighted,
    max_steiner_count,
)
from .topology import (
    Instance,
    Topology,
    compute_flows,
    enumerate_bounded_topologies,
    rooted_encoding,
    validate_topology,
)
from .trees import SolvedTree, build_solved_tree, embedded_cost

__version__ = "0.1.0"

__all__ = [
    "AngleViolation",
    "BoundStrategy",
    "DegreeBound",
    "DegreeViolation",
    "DocumentError",
    "EdgeOverlap",
    "ExplicitBound",
    "FqstError",
    "GeoRun",
    "GeometryError",
    "GuardLimitError",
    "Instance",
    "InternalConsistencyError",
    "MassPoint",
    "MergeProvenance",
    "MergeStep",
    "NodeWeighted",
    "Point",
    "QuasiSource",
    "SearchReport",
    "SolvedTree",
    "SplitSpec",
    "Topology",
    "TopologyError",
    "UnsupportedTopologyError",
    "UnsupportedWeightsError",
    "angle_at",
    "apply_split",
    "beaded_spanning_tree",
    "build_solved_tree",
    "centroid",
    "centroid_deviations",
    "check_angles",
    "check_centroid_certificate",
    "check_degree_window",
    "check_overlapping_edges",
    "compute_flows",
    "cost",
    "cost_node_weighted",
    "embedded_cost",
    "enumerate_bounded_topologies",
    "expand_beads",
    "lerp",
    "lower_bound_path",
    "max_steiner_count",
    "merge_quasi_quasi",
    "merge_quasi_source",
    "merge_sources",
    "optimal_bead_count",
    "render_svg",
    "rooted_encoding",
    "run_geo_algorithm",
    "solve_exact",
    "solve_full_topology",
    "solve_topology",
    "split_topology",
    "sq_dist",
    "steiner_count_bound",
    "validate_topology",
]
