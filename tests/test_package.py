"""The package namespace and the README's library example."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import fqst

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

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


# run in a fresh interpreter, where nothing has loaded the search yet, with
# the public names as its arguments; no module of the package, the search
# included, loads dataclasses (and with it inspect, ast and dis)
LAZY_IMPORTS = """
import sys
import fqst.cli
assert "dataclasses" not in sys.modules, sorted(sys.modules)
import fqst
assert not {"fqst.exact_search", "fqst.geo_solver"} & set(sys.modules), sorted(sys.modules)
import fqst.exact_search
assert "dataclasses" not in sys.modules, sorted(sys.modules)
public = set(sys.argv[1:])
assert public <= set(dir(fqst)), sorted(public - set(dir(fqst)))
names = {}
exec("from fqst import *", names)
assert set(names) - {"__builtins__"} == public, sorted(names)
assert fqst.solve_exact is fqst.exact_search.solve_exact
assert fqst.run_geo_algorithm is fqst.geo_solver.run_geo_algorithm
try:
    fqst.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("fqst.no_such_name did not raise")
assert "dataclasses" not in sys.modules, sorted(sys.modules)
"""


def test_search_and_merge_trace_load_on_first_use():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-c", LAZY_IMPORTS, *PUBLIC_NAMES]
    done = subprocess.run(command, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


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
