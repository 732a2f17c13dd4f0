"""The package namespace and the README's library example."""

import contextlib
import io
import re
from pathlib import Path

import fqst

README = Path(__file__).resolve().parent.parent / "README.md"

README_NAMES = [
    "DegreeBound", "ExplicitBound", "NodeWeighted", "Instance", "Point", "Topology",
    "solve_topology", "run_geo_algorithm", "solve_exact", "check_centroid_certificate",
]

PUBLIC_NAMES = README_NAMES + [
    # imported by the CLI
    "render_svg", "compute_flows", "validate_topology", "max_steiner_count",
    # errors
    "FqstError", "GeometryError", "TopologyError", "UnsupportedTopologyError",
    "UnsupportedWeightsError", "GuardLimitError", "DocumentError", "InternalConsistencyError",
]


def test_namespace_is_the_documented_surface():
    assert sorted(fqst.__all__) == sorted(PUBLIC_NAMES)
    assert len(set(fqst.__all__)) == 22
    for name in fqst.__all__:
        assert getattr(fqst, name) is not None


def test_readme_names_its_names():
    text = README.read_text(encoding="utf-8")
    for name in README_NAMES:
        assert re.search(rf"\b{name}\b", text), name


def test_readme_library_example_prints_its_comments():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    expected = [
        line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == expected
