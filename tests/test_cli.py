import contextlib
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqst import NodeWeighted, Point, render_svg, solve_topology
from fqst import analysis, cli, trees
from fqst.cli import _build_parser, main
from fqst.documents import dumps, loads
from fqst.exact_search import DEFAULT_GUARD, STEINER_BUDGET_GUARD
from fqst.topology import Instance
from conftest import instance_document, random_general_tree, random_supplied_instance


def write_document(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(dumps(doc), encoding="utf-8")
    return str(path)


def worked_document(strategy=None, topology=True):
    doc = {
        "schema": 1,
        "sources": [[0.0, 0.0], [2.0, 4.0], [11.0, 5.0]],
        "sink": [11.0, 1.0],
        "strategy": strategy or {"degree_bound": 3},
    }
    if topology:
        doc["topology"] = {
            "nodes": ["source", "source", "source", "sink", "steiner", "steiner"],
            "parents": [4, 4, 5, None, 5, 3],
        }
    return doc


class TestSolveTopologyCommand:
    def test_worked_example(self, tmp_path, capsys):
        path = write_document(tmp_path, worked_document())
        assert main(["solve-topology", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cost"] == pytest.approx(102.0, abs=1e-9)
        assert out["steiner_positions"] == [[5.0, 2.0], [9.0, 2.0]]
        assert out["solver"] == "elimination"
        assert out["certificates"]["locally_minimal"] is True

    def test_one_centroid_pass(self, tmp_path, capsys, monkeypatch):
        # the solver's closing certificate is the one the document reports
        calls = []
        deviations = trees.centroid_deviations
        monkeypatch.setattr(trees, "centroid_deviations", lambda tree: calls.append(1) or deviations(tree))
        assert main(["solve-topology", write_document(tmp_path, worked_document())]) == 0
        assert len(calls) == 1

    def test_missing_topology_is_usage_error(self, tmp_path, capsys):
        path = write_document(tmp_path, worked_document(topology=False))
        assert main(["solve-topology", path]) == 2
        assert "topology" in capsys.readouterr().err

    def test_non_unit_supplies_use_algebraic_path(self, tmp_path, capsys):
        doc = worked_document()
        doc["supplies"] = [2.0, 1.0, 1.0]
        path = write_document(tmp_path, doc)
        assert main(["solve-topology", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["solver"] == "elimination"
        assert out["certificates"]["locally_minimal"] is True

    def test_cyclic_parents_are_input_error(self, tmp_path, capsys):
        doc = worked_document()
        doc["topology"]["parents"] = [4, 4, 5, None, 5, 4]  # slots 4 and 5 feed each other
        path = write_document(tmp_path, doc)
        assert main(["solve-topology", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid topology" in captured.err

    @pytest.mark.parametrize("scale", [1e153, 2e153, 1e154, 1e160, 1e200, 9e306, 1e307, 1.5e307])
    def test_overflowing_cost_is_named(self, tmp_path, capsys, scale):
        # the worked instance scaled: at 1e153 the cost stays finite; above
        # it the squared lengths overflow, at 1e200 a rounding-size offset
        # from a centroid squares to inf as well, and from 9e306 the
        # downward pass's weighted means overflow too (a Steiner x of inf),
        # so the cost reads nan
        doc = worked_document()
        doc["sources"] = [[x * scale, y * scale] for x, y in doc["sources"]]
        doc["sink"] = [c * scale for c in doc["sink"]]
        path = write_document(tmp_path, doc)
        target = tmp_path / "result.json"
        status = main(["solve-topology", path, "-o", str(target)])
        captured = capsys.readouterr()
        if scale == 1e153:
            assert status == 0
            assert main(["check", str(target)]) == 0
            return
        assert status == 2
        assert not target.exists()
        cost = "nan" if scale >= 9e306 else "inf"
        assert captured.err.splitlines() == [
            f"error: the tree's cost is non-finite ({cost}): "
            "its flow * squared edge lengths overflow a float"
        ]

    def test_output_file(self, tmp_path):
        path = write_document(tmp_path, worked_document())
        target = tmp_path / "result.json"
        assert main(["solve-topology", path, "-o", str(target)]) == 0
        assert json.loads(target.read_text())["cost"] == pytest.approx(102.0, abs=1e-9)

    def test_unreadable_file(self, tmp_path, capsys):
        assert main(["solve-topology", str(tmp_path / "absent.json")]) == 2


class TestExactCommand:
    def test_single_source(self, tmp_path, capsys):
        doc = {
            "schema": 1,
            "sources": [[0.0, 0.0]],
            "sink": [3.0, 4.0],
            "strategy": {"degree_bound": 3},
        }
        path = write_document(tmp_path, doc)
        assert main(["exact", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["objective"] == pytest.approx(25.0)
        assert out["claims"]["global_optimum"] is True
        assert "search" in out and out["search"]["topologies_examined"] >= 1

    def test_search_block_counts_bead_vectors(self, tmp_path, capsys):
        # one edge under an explicit bound of 2: zero, one or two beads
        doc = {
            "schema": 1,
            "sources": [[0.0, 0.0]],
            "sink": [3.0, 4.0],
            "strategy": {"explicit_bound": 2},
        }
        path = write_document(tmp_path, doc)
        assert main(["exact", path]) == 0
        out = json.loads(capsys.readouterr().out)
        # the source's subtree is summarised once per bead count on its edge
        assert out["search"]["bead_vectors"] == 2
        assert out["objective"] == pytest.approx(25.0 / 3.0)

    @pytest.mark.parametrize("strategy", [{"degree_bound": 3}, {"explicit_bound": 1}])
    def test_search_block_times_each_phase(self, tmp_path, capsys, strategy):
        doc = worked_document(strategy, topology=False)
        path = write_document(tmp_path, doc)
        assert main(["exact", path]) == 0
        phases = json.loads(capsys.readouterr().out)["search"]["phase_s"]
        assert set(phases) == {"search", "resolve"}
        for seconds in phases.values():
            assert math.isfinite(seconds) and seconds >= 0.0

    def test_worked_instance_degree_bound(self, tmp_path, capsys):
        path = write_document(tmp_path, worked_document(topology=False) | {"topology": None})
        assert main(["exact", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["objective"] <= 102.0 + 1e-9
        assert out["search"]["lower_bound"] <= out["objective"]

    def test_guard_refusal(self, tmp_path, capsys):
        doc = {
            "schema": 1,
            "sources": [[float(i), float(i % 3)] for i in range(9)],
            "sink": [20.0, 20.0],
            "strategy": {"explicit_bound": 1},
        }
        path = write_document(tmp_path, doc)
        assert main(["exact", path]) == 3
        assert "limited" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", [{"degree_bound": 3}, {"explicit_bound": 2}])
    def test_overflowing_distances_are_input_error(self, tmp_path, capsys, strategy):
        # the squares of these coordinates overflow a float
        doc = {
            "schema": 1,
            "sources": [[0.0, 0.0], [2e160, 4e160], [11e160, 5e160]],
            "sink": [11e160, 1e160],
            "strategy": strategy,
        }
        assert main(["exact", write_document(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "overflows a float" in line
        assert "diagonal 1.2" in line

    def test_overflowing_supply_times_distances_is_input_error(self, tmp_path, capsys):
        # small distances, but the supplies times their squares overflow
        doc = {
            "schema": 1,
            "sources": [[0.0, 0.0], [100.0, 0.0]],
            "supplies": [1e307, 1e307],
            "sink": [0.0, 100.0],
            "strategy": {"explicit_bound": 1},
        }
        assert main(["exact", write_document(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "total supply 2e+307" in line

    @pytest.mark.parametrize(
        "supplies, strategy",
        [
            ([5e-324, 1, 2], {"degree_bound": 3}),
            ([5e-324, 1, 1], {"explicit_bound": 2}),
            ([1e-200, 1, 1e200], {"degree_bound": 3}),
            ([1e-200, 1, 1e200], {"explicit_bound": 2}),
            ([5e-324, 1, 2], {"node_weighted": 20}),
        ],
    )
    def test_supplies_spread_past_one_float_scale_are_input_error(
        self, tmp_path, capsys, supplies, strategy
    ):
        # with the largest supply scaled into [1, 2) the least weighs 0, and
        # the search divided by it (ZeroDivisionError); it now names the
        # spread before searching, while solve-topology and check accept
        # the same supplies
        doc = worked_document(strategy, topology=False)
        doc["supplies"] = supplies
        assert main(["exact", write_document(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: supplies spread from {min(supplies):.6g} to {max(supplies):.6g}")
        doc = worked_document(strategy)
        doc["supplies"] = supplies
        result = str(tmp_path / "result.json")
        assert main(["solve-topology", write_document(tmp_path, doc), "-o", result]) == 0
        assert main(["check", result]) == 0

    @pytest.mark.parametrize("supplies", [[1e-300, 1, 1e10], [5e-324, 5e-324, 1e-320]])
    @pytest.mark.parametrize("strategy", [{"degree_bound": 3}, {"explicit_bound": 2}])
    def test_supplies_spread_within_one_float_scale_are_searched(
        self, tmp_path, capsys, supplies, strategy
    ):
        doc = worked_document(strategy, topology=False)
        doc["supplies"] = supplies
        assert main(["exact", write_document(tmp_path, doc)]) == 0
        assert "objective" in json.loads(capsys.readouterr().out)

    def test_overflowing_squared_diagonal_is_input_error(self, tmp_path, capsys):
        # README's points times 3e153: the squared diagonal overflows, while
        # supplies of 1e-200 keep the product with it finite
        doc = worked_document(topology=False)
        doc["sources"] = [[x * 3e153, y * 3e153] for x, y in doc["sources"]]
        doc["sink"] = [c * 3e153 for c in doc["sink"]]
        doc["supplies"] = [1e-200, 1e-200, 1e-200]
        assert main(["exact", write_document(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "overflows a float" in line

    @pytest.mark.parametrize(
        "strategy",
        [
            {"explicit_bound": 10**9},
            {"explicit_bound": 2**1024},
            {"explicit_bound": 10**400},
            {"node_weighted": 1e-300},
            {"node_weighted": 1e-310},
            {"node_weighted": 5e-324},
        ],
    )
    def test_steiner_budget_guard(self, tmp_path, capsys, strategy):
        # refused before anything sized by the budget (or by the beaded
        # spanning tree it is computed from) is built
        path = write_document(tmp_path, worked_document(strategy, topology=False))
        assert main(["exact", path]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "Steiner budget" in line

    def test_steiner_budget_guard_admits_its_limit(self, tmp_path, capsys):
        limit = STEINER_BUDGET_GUARD
        doc = {
            "schema": 1,
            "sources": [[0.0, 0.0]],
            "sink": [3.0, 4.0],
            "strategy": {"explicit_bound": limit},
        }
        path = write_document(tmp_path, doc)
        assert main(["exact", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["objective"] == pytest.approx(25.0 / (limit + 1))
        doc["strategy"] = {"explicit_bound": limit + 1}
        path = write_document(tmp_path, doc)
        assert main(["exact", path]) == 3

    def test_guard_override(self, tmp_path, capsys):
        doc = {
            "schema": 1,
            "sources": [[0.0, 0.0], [1.0, 3.0], [4.0, 1.0]],
            "sink": [2.0, -2.0],
            "strategy": {"degree_bound": 3},
        }
        path = write_document(tmp_path, doc)
        assert main(["--guard-n", "2", "exact", path]) == 3
        capsys.readouterr()
        assert main(["--guard-n", "3", "exact", path]) == 0
        # the parser is built once, and an override does not stick to it
        assert _build_parser() is _build_parser()
        assert _build_parser().parse_args(["exact", path]).guard_n == DEFAULT_GUARD

    # the certificates block counts the raw screen hits; under a degree
    # bound check judges the degree window instead of the angle screen, so
    # README's optimum at phi = 3 counts one angle hit and passes
    @pytest.mark.parametrize(
        "strategy, angle_violations", [({"node_weighted": 20.0}, 0), ({"degree_bound": 3}, 1)], ids=json.dumps
    )
    def test_exact_results_pass_check(self, tmp_path, capsys, strategy, angle_violations):
        doc = {
            "schema": 1,
            "sources": [[0.0, 0.0], [2.0, 4.0], [11.0, 5.0]],
            "sink": [11.0, 1.0],
            "strategy": strategy,
        }
        path = write_document(tmp_path, doc)
        assert main(["exact", path]) == 0
        result = loads(capsys.readouterr().out)
        assert result["claims"]["global_optimum"] is True
        assert result["certificates"]["angle_violations"] == angle_violations
        result_path = write_document(tmp_path, result, "result.json")
        assert main(["check", result_path]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_tiny_common_supplies_find_the_optimum(self, tmp_path, capsys):
        # products of two supplies of 1e-200 underflow; the search scales
        # them by a power of two, and finds the optimum at supply 1
        # (26.7069096757) times 1e-200
        doc = {
            "schema": 1,
            "sources": [[3.444219, 2.579544], [-0.794284, -2.410832], [0.112747, -0.950659]],
            "sink": [2.837986, -1.966873],
            "supplies": [1e-200, 1e-200, 1e-200],
            "strategy": {"degree_bound": 3},
        }
        result = str(tmp_path / "result.json")
        assert main(["exact", write_document(tmp_path, doc), "-o", result]) == 0
        assert f"{loads(Path(result).read_text())['objective']:.12g}" == "2.67069096757e-199"
        assert main(["check", result]) == 0

    def test_subnormal_supplies_pass_check(self, tmp_path, capsys):
        # the re-solve and check weigh the subnormal flows scaled by a power
        # of two, as the search does
        doc = worked_document(topology=False)
        doc["supplies"] = [5e-324, 5e-324, 1e-320]
        result = str(tmp_path / "result.json")
        assert main(["exact", write_document(tmp_path, doc), "-o", result]) == 0
        assert main(["check", result]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_subnormal_tampering_fails_check(self, tmp_path, capsys):
        # below unit flows check judges the cost, the objective and the
        # flows at the tree's own flow scale: an absolute 1e-9 would pass
        # every subnormal value
        doc = worked_document(topology=False)
        doc["supplies"] = [5e-324, 5e-324, 1e-320]
        result = tmp_path / "result.json"
        assert main(["exact", write_document(tmp_path, doc), "-o", str(result)]) == 0
        assert main(["check", str(result)]) == 0
        tampered = loads(result.read_text())
        for edge in tampered["flows"]:
            edge["flow"] *= 3
        tampered["cost"] *= 5
        tampered["objective"] *= 5
        capsys.readouterr()
        assert main(["check", write_document(tmp_path, tampered, "tampered.json")]) == 1
        out = capsys.readouterr().out
        for failure in ("cost mismatch", "objective mismatch", "flow conservation violated"):
            assert failure in out

    def test_huge_common_supplies_are_searched(self, tmp_path, capsys):
        doc = worked_document(topology=False)
        doc["supplies"] = [1e200, 1e200, 1e200]
        result = str(tmp_path / "result.json")
        assert main(["exact", write_document(tmp_path, doc), "-o", result]) == 0
        assert main(["check", result]) == 0


DEGENERATE_FAMILIES = {
    "two coincident sources": ([[0, 0], [0, 0], [1, 1]], [5, 5]),
    "three coincident sources": ([[1, 1]] * 3, [4, 0]),
    "collinear sources": ([[0, 0], [1, 0], [2, 0]], [1, 3]),
    "symmetric square": ([[0, 0], [0, 2], [2, 0], [2, 2]], [1, 1]),
    "source on the sink": ([[0, 0], [1, 1]], [1, 1]),
}
DEGENERATE_STRATEGIES = (
    {"degree_bound": 3},
    {"degree_bound": 4},
    {"explicit_bound": 1},
    {"explicit_bound": 3},
    {"node_weighted": 1},
    {"node_weighted": 0.3},
)


@pytest.mark.parametrize("strategy", DEGENERATE_STRATEGIES, ids=json.dumps)
@pytest.mark.parametrize("family", sorted(DEGENERATE_FAMILIES))
def test_degenerate_optima_pass_check(tmp_path, capsys, family, strategy):
    """Every global optimum exact writes on a degenerate input passes check."""
    sources, sink = DEGENERATE_FAMILIES[family]
    doc = {"schema": 1, "sources": sources, "sink": sink, "strategy": strategy}
    result = str(tmp_path / "result.json")
    code = main(["exact", write_document(tmp_path, doc), "-o", result])
    if family == "source on the sink":
        assert code == 2  # an input error
        return
    if family == "two coincident sources" and strategy == {"node_weighted": 0.3}:
        assert code == 3  # its Steiner budget, 26, is above the guard
        return
    assert code == 0
    capsys.readouterr()
    assert main(["check", result]) == 0, capsys.readouterr().out


@st.composite
def degenerate_layouts(draw):
    """(sources, sink) of at most five sources, none on the sink: coincident
    sources, collinear sources, a regular polygon around the sink, or
    points of a small integer grid."""
    small = st.integers(-2, 2)
    family = draw(st.sampled_from(["coincident", "collinear", "polygon", "grid"]))
    if family == "coincident":
        point = [draw(small), draw(small)]
        others = draw(st.lists(st.tuples(small, small).map(list), max_size=3))
        sources = [point] * draw(st.integers(2, 5 - len(others))) + others
        sink = draw(st.tuples(small, small).map(list).filter(lambda s: s not in sources))
    elif family == "collinear":
        direction = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -1)]))
        steps = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=5))
        sources = [[t * direction[0], t * direction[1]] for t in steps]
        off_line = draw(st.sampled_from([0, 1, 2]))
        on = draw(st.integers(-3, 3).filter(lambda t: off_line or t not in steps))
        sink = [on * direction[0] - off_line * direction[1], on * direction[1] + off_line * direction[0]]
    elif family == "polygon":
        sink = [draw(small), draw(small)]
        turn = draw(st.sampled_from([0.0, math.pi / 4, 0.3]))
        m = draw(st.integers(2, 5))
        radius = draw(st.integers(1, 3))
        sources = [
            [sink[0] + radius * math.cos(turn + 2 * math.pi * i / m),
             sink[1] + radius * math.sin(turn + 2 * math.pi * i / m)]
            for i in range(m)
        ]
    else:
        cells = st.tuples(st.integers(0, 2), st.integers(0, 2)).map(list)
        sources = draw(st.lists(cells, min_size=1, max_size=5))
        sink = draw(cells.filter(lambda s: s not in sources))
    return sources, sink


@pytest.mark.parametrize(
    "strategy",
    [{"degree_bound": 3}, {"degree_bound": 4}, {"degree_bound": 5}, {"explicit_bound": 1},
     {"explicit_bound": 3}, {"node_weighted": 1}, {"node_weighted": 3}],
    ids=json.dumps,
)
@given(layout=degenerate_layouts(), power=st.integers(-1070, 1000))
@settings(max_examples=12, deadline=None)
def test_degenerate_layouts_pass_check(tmp_path_factory, strategy, layout, power):
    """Every global optimum exact writes on a degenerate layout, at a common
    supply of 2^power, passes check; the search may refuse a Steiner budget
    above its guard (exit 3)."""
    sources, sink = layout
    workdir = tmp_path_factory.getbasetemp()
    supplies = [math.ldexp(1.0, power)] * len(sources)
    doc = {"schema": 1, "sources": sources, "supplies": supplies, "sink": sink, "strategy": strategy}
    result = str(workdir / "layout-result.json")
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["exact", write_document(workdir, doc, "layout.json"), "-o", result])
        assert code in (0, 3), err.getvalue()
        if code == 0:
            assert main(["check", result]) == 0, out.getvalue()


class TestCheckCommand:
    def _solved_document(self, tmp_path, capsys):
        path = write_document(tmp_path, worked_document())
        assert main(["solve-topology", path]) == 0
        return loads(capsys.readouterr().out)

    def test_valid_result_passes(self, tmp_path, capsys):
        result = self._solved_document(tmp_path, capsys)
        result_path = write_document(tmp_path, result, "result.json")
        assert main(["check", result_path]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_corrupted_position_fails(self, tmp_path, capsys):
        result = self._solved_document(tmp_path, capsys)
        result["steiner_positions"][0] = [5.3, 2.0]
        result_path = write_document(tmp_path, result, "bad.json")
        assert main(["check", result_path]) == 1
        assert "centroid" in capsys.readouterr().out

    @staticmethod
    def _scaled_result(tmp_path, capsys, coordinates, supplies, seed=1):
        """A six-source node-weighted tree solved with its coordinates and
        supplies multiplied by the given factors."""
        rng = random.Random(seed)
        inst = random_supplied_instance(rng, 6)
        topology = random_general_tree(rng, 6, rng.randint(1, 5))
        scaled = Instance(
            tuple(x * coordinates for x in inst.xs),
            tuple(y * coordinates for y in inst.ys),
            tuple(w * supplies for w in inst.supplies),
            Point(inst.sink.x * coordinates, inst.sink.y * coordinates),
        )
        path = write_document(tmp_path, instance_document(scaled, NodeWeighted(2.0), topology))
        assert main(["solve-topology", path]) == 0
        return loads(capsys.readouterr().out)

    @pytest.mark.parametrize("coordinates, supplies", [(1e3, 1.0), (1e6, 1.0), (1.0, 1e6)])
    def test_large_scale_result_passes(self, tmp_path, capsys, coordinates, supplies):
        # positions and flows are stored to 12 significant digits, so an
        # absolute tolerance would fail the solver's own output here
        result = self._scaled_result(tmp_path, capsys, coordinates, supplies)
        assert main(["check", write_document(tmp_path, result, "result.json")]) == 0
        assert "all checks passed" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", [8, 52])
    def test_large_coordinates_are_stated_locally_minimal(self, tmp_path, capsys, seed):
        # the solver's own deviations exceed the absolute tolerance here;
        # the written certificate judges them to scale, as check does
        result = self._scaled_result(tmp_path, capsys, 1e6, 1.0, seed)
        assert result["certificates"]["centroid_max_deviation"] > 1e-9
        assert result["certificates"]["locally_minimal"] is True
        assert main(["check", write_document(tmp_path, result, "result.json")]) == 0
        assert "all checks passed" in capsys.readouterr().out

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
    def test_moved_steiner_point_fails_at_every_scale(self, tmp_path, capsys, scale):
        result = self._scaled_result(tmp_path, capsys, scale, 1.0)
        result["steiner_positions"][0][0] += 1e-6 * scale
        assert main(["check", write_document(tmp_path, result, "moved.json")]) == 1
        assert "FAIL centroid certificate fails at Steiner slots [7" in capsys.readouterr().out

    def test_wrong_flow_fails_at_large_supplies(self, tmp_path, capsys):
        result = self._scaled_result(tmp_path, capsys, 1.0, 1e6)
        result["flows"][0]["flow"] *= 1.0 + 1e-6
        assert main(["check", write_document(tmp_path, result, "flow.json")]) == 1
        assert "FAIL flow conservation violated" in capsys.readouterr().out

    def test_overlapping_edges_are_noted_or_fail_a_claim(self, tmp_path, capsys):
        # source 0 hangs from source 1 on its way to the sink: the two edges
        # at source 1 lie along one ray, and hanging source 0 from the sink
        # instead would be cheaper
        doc = worked_document(topology=False)
        doc |= {
            "sources": [[1.0, 0.0], [2.0, 0.0]],
            "sink": [0.0, 0.0],
            "topology": {"nodes": ["source", "source", "sink"], "parents": [1, 2, None]},
        }
        assert main(["solve-topology", write_document(tmp_path, doc)]) == 0
        result = loads(capsys.readouterr().out)
        assert result["certificates"]["edge_overlaps"] == 1
        assert main(["check", write_document(tmp_path, result, "local.json")]) == 0
        assert "note overlapping edges at node 1 (neighbours 0, 2)" in capsys.readouterr().out
        result["claims"]["global_optimum"] = True
        assert main(["check", write_document(tmp_path, result, "claimed.json")]) == 1
        assert "FAIL optimality: overlapping edges at node 1 (neighbours 0, 2)" in capsys.readouterr().out

    def test_acute_in_out_angle_is_noted_or_fails_a_claim(self, tmp_path, capsys):
        # source 0 hangs from source 1, meeting its out-edge to the sink at
        # 45 degrees: hanging source 0 from the sink saves 2 f (u . w) = 4
        doc = {
            "schema": 1,
            "sources": [[1.0, 1.0], [2.0, 0.0]],
            "sink": [0.0, 0.0],
            "strategy": {"explicit_bound": 0},
            "topology": {"nodes": ["source", "source", "sink"], "parents": [1, 2, None]},
        }
        assert main(["solve-topology", write_document(tmp_path, doc)]) == 0
        result = loads(capsys.readouterr().out)
        line = "angle 0.785398 rad between in-edge from 0 and out-edge at node 1"
        assert main(["check", write_document(tmp_path, result, "local.json")]) == 0
        assert capsys.readouterr().out == f"note {line}\nall checks passed\n"
        result["claims"]["global_optimum"] = True
        assert main(["check", write_document(tmp_path, result, "claimed.json")]) == 1
        assert capsys.readouterr().out == f"FAIL optimality: {line}\n"

    def test_exact_optimum_on_widely_spread_supplies_passes(self, tmp_path, capsys):
        # source 0 weighs 1e-300: hanging it from node 4's parent saves about
        # 1e-299 on a cost of 5.3e10, far inside the cost's own tolerance,
        # so its acute angle at node 4 is only noted
        doc = worked_document({"explicit_bound": 2}, topology=False) | {"supplies": [1e-300, 1.0, 1e10]}
        result_path = str(tmp_path / "result.json")
        assert main(["exact", write_document(tmp_path, doc), "-o", result_path]) == 0
        assert main(["check", result_path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("note angle 1.249046 rad between in-edge from 0 and out-edge at node 4 (its reroute saves ")
        assert out.endswith(", within the cost's tolerance)\nall checks passed\n")

    def test_child_on_the_parent_fails_a_claim(self, tmp_path, capsys):
        # source 0 sits on source 2, and its path runs out to source 1 and
        # back: hanging source 0 from source 2 saves 2 f |va| |vb| (cost 126
        # -> 124), so a child ending on the parent is no exempt pair
        doc = {
            "schema": 1,
            "sources": [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
            "sink": [5.0, 5.0],
            "strategy": {"degree_bound": 4},
            "topology": {"nodes": ["source"] * 3 + ["sink"], "parents": [1, 2, 3, None]},
        }
        assert main(["solve-topology", write_document(tmp_path, doc)]) == 0
        result = loads(capsys.readouterr().out)
        assert result["objective"] == 126.0
        result["claims"]["global_optimum"] = True
        assert main(["check", write_document(tmp_path, result, "claimed.json")]) == 1
        assert "FAIL optimality: overlapping edges at node 1 (neighbours 0, 2)" in capsys.readouterr().out

    def test_degree_window_enforced_for_claimed_optima(self, tmp_path, capsys):
        # a degree-4 Steiner hub claimed as a degree-bounded global optimum
        doc = {
            "schema": 1,
            "sources": [[0.0, 2.0], [2.0, 0.0], [-2.0, 0.0]],
            "sink": [0.0, -2.0],
            "strategy": {"degree_bound": 3},
            "topology": {
                "nodes": ["source", "source", "source", "sink", "steiner"],
                "parents": [4, 4, 4, None, 3],
            },
        }
        path = write_document(tmp_path, doc)
        assert main(["solve-topology", path]) == 0
        result = loads(capsys.readouterr().out)
        result["claims"]["global_optimum"] = True
        result_path = write_document(tmp_path, result, "claimed.json")
        assert main(["check", result_path]) == 1
        assert "steiner-degree" in capsys.readouterr().out

    def test_local_result_reports_windows_as_notes(self, tmp_path, capsys):
        doc = {
            "schema": 1,
            "sources": [[0.0, 2.0], [2.0, 0.0], [-2.0, 0.0]],
            "sink": [0.0, -2.0],
            "strategy": {"degree_bound": 3},
            "topology": {
                "nodes": ["source", "source", "source", "sink", "steiner"],
                "parents": [4, 4, 4, None, 3],
            },
        }
        path = write_document(tmp_path, doc)
        assert main(["solve-topology", path]) == 0
        result = loads(capsys.readouterr().out)
        result_path = write_document(tmp_path, result, "local.json")
        assert main(["check", result_path]) == 0
        out = capsys.readouterr().out
        assert "note" in out and "all checks passed" in out

    @pytest.mark.parametrize(
        "strategy, extra", [({"degree_bound": 3}, 0.0), ({"node_weighted": 2.5}, 5.0)]
    )
    def test_stored_objective_is_checked(self, tmp_path, capsys, strategy, extra):
        # the node weight's objective adds c per Steiner point to the cost
        path = write_document(tmp_path, worked_document(strategy))
        assert main(["solve-topology", path]) == 0
        result = loads(capsys.readouterr().out)
        assert result["objective"] == pytest.approx(102.0 + extra, abs=1e-9)
        assert main(["check", write_document(tmp_path, result, "result.json")]) == 0
        assert "all checks passed" in capsys.readouterr().out
        result["objective"] *= 3
        assert main(["check", write_document(tmp_path, result, "tripled.json")]) == 1
        assert "FAIL objective mismatch" in capsys.readouterr().out
        del result["objective"]
        assert main(["check", write_document(tmp_path, result, "unstated.json")]) == 0
        assert "all checks passed" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["check", "render"])
    @pytest.mark.parametrize(
        "block, value, message",
        [
            ("claims", [1], "'claims' must be an object"),
            ("certificates", [1], "'certificates' must be an object"),
            ("claims", {"global_optimum": "yes"}, "'claims.global_optimum' must be true or false"),
            ("certificates", {"degenerate": 1}, "'certificates.degenerate' must be true or false"),
        ],
    )
    def test_malformed_flags_are_input_errors(
        self, tmp_path, capsys, command, block, value, message
    ):
        result = self._solved_document(tmp_path, capsys)
        result[block] = value
        result_path = write_document(tmp_path, result, "malformed.json")
        argv = [command, result_path]
        if command == "render":
            argv += ["-o", str(tmp_path / "drawing.svg")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


    @pytest.mark.parametrize("edge", [0, 1])
    def test_nan_flow_is_input_error(self, tmp_path, capsys, edge):
        # two sources straight into the sink; a NaN flow used to slip past
        # every `x > tol` comparison and pass the check
        doc = {
            "schema": 1,
            "sources": [[0.0, 0.0], [4.0, 0.0]],
            "sink": [2.0, 3.0],
            "strategy": {"explicit_bound": 0},
            "topology": {"nodes": ["source", "source", "sink"], "parents": [2, 2, None]},
        }
        path = write_document(tmp_path, doc)
        assert main(["solve-topology", path]) == 0
        result = loads(capsys.readouterr().out)
        result["flows"][edge]["flow"] = float("nan")
        result_path = tmp_path / "nan.json"
        result_path.write_text(json.dumps(result), encoding="utf-8")
        assert main(["check", str(result_path)]) == 2
        captured = capsys.readouterr()
        assert "all checks passed" not in captured.out
        assert "finite" in captured.err

    @pytest.mark.parametrize("flow", [0.0, -1.0])
    @pytest.mark.parametrize("edge", [0, 1])
    def test_non_positive_flow_is_input_error(self, tmp_path, capsys, edge, flow):
        # refused while reading, before the flow-conservation check or a
        # centroid certificate sees it
        path = write_document(tmp_path, worked_document())
        assert main(["solve-topology", path]) == 0
        result = loads(capsys.readouterr().out)
        result["flows"][edge]["flow"] = flow
        result_path = write_document(tmp_path, result, "bad-flow.json")
        assert main(["check", result_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"flow of edge {result['flows'][edge]['from']} must be positive" in captured.err
        assert main(["render", result_path, "-o", str(tmp_path / "drawing.svg")]) == 2


    def test_repeated_flow_entry_is_input_error(self, tmp_path, capsys):
        # the repeat keeps the entry count, so without the refusal edge 1
        # would read as carrying no flow
        result = self._solved_document(tmp_path, capsys)
        result["flows"][1] = dict(result["flows"][0])
        repeated = result["flows"][0]["from"]
        result_path = write_document(tmp_path, result, "repeated.json")
        for argv in (["check", result_path], ["render", result_path, "-o", str(tmp_path / "d.svg")]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"flow of edge {repeated} is listed twice" in captured.err
        assert not (tmp_path / "d.svg").exists()


    @pytest.mark.parametrize("claim", [False, True])
    def test_overflowing_cost_fails(self, tmp_path, capsys, claim):
        # README's result with every coordinate times 1e160 and the cost
        # kept: the recomputed cost is infinite, which no stored number matches
        result = self._solved_document(tmp_path, capsys)
        result["instance"]["sources"] = [[x * 1e160, y * 1e160] for x, y in result["instance"]["sources"]]
        result["instance"]["sink"] = [v * 1e160 for v in result["instance"]["sink"]]
        result["steiner_positions"] = [[x * 1e160, y * 1e160] for x, y in result["steiner_positions"]]
        result["claims"]["global_optimum"] = claim
        assert result["cost"] == 102.0
        assert main(["check", write_document(tmp_path, result, "far.json")]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "FAIL cost overflows a float: the flow * squared edge lengths sum to inf"
        assert "all checks passed" not in out

    def test_overflowing_cost_keeps_angle_hits_under_a_global_claim(self, tmp_path, capsys):
        # supplies of 1e307 make the cost overflow while the angle's reroute
        # saving stays finite: an infinite slack once made that hit a note
        result = self._solved_document(tmp_path, capsys)
        result["instance"]["supplies"] = [1e307] * 3
        for edge in result["flows"]:
            edge["flow"] *= 1e307
        result["strategy"] = {"explicit_bound": 2}
        result["claims"]["global_optimum"] = True
        assert main(["check", write_document(tmp_path, result, "heavy.json")]) == 1
        assert capsys.readouterr().out == (
            "FAIL cost overflows a float: the flow * squared edge lengths sum to inf\n"
            "FAIL optimality: angle 1.446441 rad between in-edge from 2 and out-edge at node 5\n"
        )

    def test_overflowing_objective_fails(self, tmp_path, capsys):
        # a finite cost, but two Steiner points at 1e308 each overflow
        result = self._solved_document(tmp_path, capsys)
        result["strategy"] = {"node_weighted": 1e308}
        result["objective"] = 1e308
        assert main(["check", write_document(tmp_path, result, "charged.json")]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "FAIL objective overflows a float: the cost 102.0 plus the Steiner charge is inf"


class TestRenderCommand:
    def test_renders_svg(self, tmp_path, capsys):
        path = write_document(tmp_path, worked_document())
        assert main(["solve-topology", path]) == 0
        result = loads(capsys.readouterr().out)
        result_path = write_document(tmp_path, result, "result.json")
        target = tmp_path / "drawing.svg"
        assert main(["render", result_path, "-o", str(target)]) == 0
        svg = target.read_text()
        assert svg.count('class="terminal"') == 4
        assert svg.count('class="steiner"') == 2
        assert svg.count("<line") == 5


    def _far_result(self, tmp_path):
        # a star on points whose span overflows a float
        doc = {
            "schema": 1,
            "instance": {
                "sources": [[1e308, 0.0], [-1e308, 0.0], [0.0, 1e308]],
                "supplies": [1.0, 1.0, 1.0],
                "sink": [0.0, -1e308],
            },
            "strategy": {"degree_bound": 3},
            "topology": {"nodes": ["source"] * 3 + ["sink"], "parents": [3, 3, 3, None]},
            "steiner_positions": [],
            "flows": [{"from": i, "to": 3, "flow": 1.0} for i in range(3)],
            "cost": 1.0,
        }
        return write_document(tmp_path, doc, "far.json")

    def test_overflowing_span_renders_finite_numbers(self, tmp_path, capsys):
        target = tmp_path / "far.svg"
        assert main(["render", self._far_result(tmp_path), "-o", str(target)]) == 0
        svg = target.read_text()
        assert "nan" not in svg and "inf" not in svg
        assert 'width="640.0000" height="640.0000"' in svg
        assert svg.count('cx="320.0000"') == 2  # source 2 and the sink, on the vertical axis

    def test_large_coordinates_draw_as_small_ones(self, worked_instance, worked_topology):
        # past a quarter of the largest float the drawing is made from the
        # coordinates divided by 4: scaled by a power of two, it is the same
        tree = solve_topology(worked_instance, worked_topology)
        factor = math.ldexp(1.0, 1020)  # 11 * 2^1020 is past a quarter of the largest float
        scaled = trees.SolvedTree(
            tree.instance, tree.topology, tuple(x * factor for x in tree.xs), tuple(y * factor for y in tree.ys),
            tree.flows,
        )
        assert max(scaled.xs) > sys.float_info.max / 4
        assert render_svg(scaled) == render_svg(tree)


class TestStrictJson:
    def test_infinite_cost_is_input_error(self, tmp_path, capsys):
        doc = {
            "schema": 1,
            "sources": [[0.0, 0.0]],
            "supplies": [1e308],
            "sink": [3.0, 4.0],
            "strategy": {"degree_bound": 3},
            "topology": {"nodes": ["source", "sink"], "parents": [1, None]},
        }
        path = write_document(tmp_path, doc)
        assert main(["solve-topology", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err

    def test_overflowing_supplies_are_input_error(self, tmp_path, capsys):
        doc = worked_document()
        doc["supplies"] = [1e308, 1e308, 1e308]
        path = write_document(tmp_path, doc)
        assert main(["solve-topology", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "total supply" in captured.err

    @pytest.mark.parametrize(
        "command,field",
        [
            ("exact", "source"),
            ("exact", "sink"),
            ("exact", "supply"),
            ("check", "steiner position"),
            ("check", "flow"),
            ("check", "cost"),
            ("check", "objective"),
        ],
    )
    def test_integer_too_large_for_a_float_is_input_error(self, tmp_path, capsys, command, field):
        huge = 10**400
        doc = worked_document()
        if command == "check":
            assert main(["solve-topology", write_document(tmp_path, doc)]) == 0
            doc = loads(capsys.readouterr().out)
        if field == "source":
            doc["sources"][0] = [huge, 0]
        elif field == "sink":
            doc["sink"] = [huge, 1]
        elif field == "supply":
            doc["supplies"] = [huge, 1, 1]
        elif field == "steiner position":
            doc["steiner_positions"][0] = [huge, 2]
        elif field == "flow":
            doc["flows"][0]["flow"] = huge
        else:
            doc[field] = huge
        path = write_document(tmp_path, doc, "huge.json")
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "too large for a float" in captured.err

    def test_non_finite_token_is_input_error(self, tmp_path, capsys):
        # the token sits in a field no parser reads, so only loading can refuse it
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(worked_document())[:-1] + ', "note": NaN}', encoding="utf-8")
        assert main(["solve-topology", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "NaN" in captured.err


def test_cli_import_does_not_load_numpy():
    src = Path(__import__("fqst").__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, fqst.cli; assert 'numpy' not in sys.modules, 'numpy was imported'"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_module_runs_as_a_script(tmp_path):
    src = Path(__import__("fqst").__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    path = write_document(tmp_path, worked_document())
    target = tmp_path / "result.json"
    command = [sys.executable, "-m", "fqst.cli", "solve-topology", path, "-o", str(target)]
    assert subprocess.run(command, env=env).returncode == 0
    assert loads(target.read_text())["cost"] == pytest.approx(102.0, abs=1e-9)


@pytest.mark.parametrize("command", ["solve-topology", "exact", "render", "bounds"])
@pytest.mark.parametrize("target", ["missing/result.out", "."], ids=["missing-dir", "a-dir"])
def test_unwritable_output_is_input_error(tmp_path, capsys, command, target):
    path = write_document(tmp_path, worked_document(topology=command != "exact"))
    if command == "render":
        result = str(tmp_path / "result.json")
        assert main(["solve-topology", path, "-o", result]) == 0
        path = result
    output = str(tmp_path / target)
    assert main([command, path, "-o", output]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: cannot write {output}: ")


def test_deeply_nested_document_is_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: not valid JSON: ")


@pytest.mark.parametrize("command", ["solve-topology", "exact", "check", "render", "bounds"])
def test_document_that_is_not_utf8_is_input_error(tmp_path, capsys, command):
    # once the decode error escaped as a traceback with exit 1
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff\xfe{"schema": 1}')
    argv = [command, str(path)] + (["-o", str(tmp_path / "out.svg")] if command == "render" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: cannot read {path}: ") and "utf-8" in line
    assert not (tmp_path / "out.svg").exists()


class TestBoundsCommand:
    def test_degree_bound(self, tmp_path, capsys):
        path = write_document(tmp_path, worked_document(topology=False))
        assert main(["bounds", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["steiner_budget"] == 2
        assert out["lower_bound_path"] == pytest.approx(228.0 / 6.0)

    def test_explicit_bound(self, tmp_path, capsys):
        # a bound past float range states its integer budget and a path
        # bound of 0, no larger than at any smaller k
        previous = math.inf
        for k in (2, 2**53, 2**1024, 10**400):
            path = write_document(tmp_path, worked_document({"explicit_bound": k}, topology=False))
            assert main(["bounds", path]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["steiner_budget"] == k
            assert 0.0 <= out["lower_bound_path"] <= previous
            previous = out["lower_bound_path"]
            if k == 2:
                assert out["lower_bound_path"] == 38.0
        assert previous == 0.0

    def test_node_weighted_includes_upper_bound(self, tmp_path, capsys):
        path = write_document(
            tmp_path, worked_document(strategy={"node_weighted": 20.0}, topology=False)
        )
        assert main(["bounds", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "beaded_spanning_tree_cost" in out
        assert out["lower_bound_path"] <= out["beaded_spanning_tree_cost"]

    def test_node_weighted_builds_one_spanning_tree(self, tmp_path, capsys, monkeypatch):
        # the budget is taken from the beaded cost the document reports
        calls = []
        prim = analysis._prim_spanning_tree
        monkeypatch.setattr(analysis, "_prim_spanning_tree", lambda xs, ys: calls.append(1) or prim(xs, ys))
        path = write_document(tmp_path, worked_document(strategy={"node_weighted": 4.0}, topology=False))
        assert main(["bounds", path]) == 0
        assert json.loads(capsys.readouterr().out)["steiner_budget"] == 18
        assert len(calls) == 1

    def test_tiny_node_weight_is_costed_without_placing_beads(self, tmp_path, capsys):
        # the beaded spanning tree holds about 1e6 beads here; its cost is a
        # closed-form sum over the spanning edges
        path = write_document(
            tmp_path, worked_document(strategy={"node_weighted": 1e-10}, topology=False)
        )
        started = time.perf_counter()
        assert main(["bounds", path]) == 0
        assert time.perf_counter() - started < 1.0
        out = json.loads(capsys.readouterr().out)
        assert out["steiner_budget"] > 10**6
        assert 0.0 < out["lower_bound_path"] <= out["beaded_spanning_tree_cost"]

    @pytest.mark.parametrize("c", [1e-60, 1e-300])
    def test_vanishing_node_weight_ends_quickly(self, tmp_path, capsys, c):
        # bead counts near 1e31 and 1e151: neighbouring totals compare equal
        # in floats, which once sent the bead count down one bead per step
        path = write_document(tmp_path, worked_document(strategy={"node_weighted": c}, topology=False))
        started = time.perf_counter()
        assert main(["bounds", path]) == 0
        assert time.perf_counter() - started < 1.0
        out = json.loads(capsys.readouterr().out)
        assert out["steiner_budget"] > 10**30
        assert 0.0 < out["lower_bound_path"] <= out["beaded_spanning_tree_cost"]

    @pytest.mark.parametrize("c", [1e10, 1e100])
    def test_huge_node_weight_on_huge_coordinates_is_bounded(self, tmp_path, capsys, c):
        # every f L^2 / c and the beaded cost (4e200 at c = 1e100) are
        # finite; squaring that cost once made the bound NaN, refused as a
        # node weight too small
        doc = {
            "schema": 1,
            "sources": [[0.0, 0.0], [1e150, 1e150]],
            "sink": [1e150, 0.0],
            "strategy": {"node_weighted": c},
        }
        assert main(["bounds", write_document(tmp_path, doc)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert type(out["steiner_budget"]) is int and out["steiner_budget"] > 10**90
        assert 0.0 < out["lower_bound_path"] <= out["beaded_spanning_tree_cost"]

    def test_subnormal_costs_and_node_weight_are_bounded(self, tmp_path, capsys):
        # U, Q and c all lie below 2^-1050, so the power of two that would
        # bring them into [1, 2) is no float; the scale stops at 2^1023
        doc = {
            "schema": 1,
            "sources": [[0.0, 0.0], [0.5, 0.5]],
            "supplies": [5e-324, 5e-324],
            "sink": [1.0, 0.0],
            "strategy": {"node_weighted": 5e-324},
        }
        assert main(["bounds", write_document(tmp_path, doc)]) == 0
        assert type(json.loads(capsys.readouterr().out)["steiner_budget"]) is int

    @pytest.mark.parametrize("c", [5e-324, 1e-310])
    def test_overflowing_bead_ratio_is_input_error(self, tmp_path, capsys, c):
        path = write_document(tmp_path, worked_document(strategy={"node_weighted": c}, topology=False))
        assert main(["bounds", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflows" in captured.err


    @pytest.mark.parametrize("strategy", [{"degree_bound": 3}, {"explicit_bound": 2}, {"node_weighted": 1.0}])
    def test_overflowing_distances_are_refused_as_exact_refuses_them(self, tmp_path, capsys, strategy):
        # the squared distances of these points overflow a float: once the
        # bounds went to the JSON writer as infinities, and under a node
        # weight Prim linked a point to -1, which read as a node weight too
        # small
        doc = {
            "schema": 1,
            "sources": [[1e308, 0.0], [-1e308, 0.0], [-1e308, 1.0]],
            "sink": [-1e308, 2.0],
            "strategy": strategy,
        }
        path = write_document(tmp_path, doc)
        assert main(["bounds", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: a tree's cost may overflow") and "overflows a float" in line
        assert main(["exact", path]) == 2
        assert capsys.readouterr().err == captured.err


class TestCollectorPause:
    """A command runs with the cyclic collector paused, and main leaves it
    as it found it, however the command ends."""

    @staticmethod
    def _arguments(tmp_path, capsys, outcome):
        path = write_document(tmp_path, worked_document())
        if outcome == 0:
            return ["solve-topology", path]
        if outcome == 1:
            assert main(["solve-topology", path]) == 0
            result = loads(capsys.readouterr().out)
            result["steiner_positions"][0] = [5.3, 2.0]
            return ["check", write_document(tmp_path, result, "bad.json")]
        if outcome == 2:
            return ["solve-topology", write_document(tmp_path, worked_document(topology=False))]
        doc = worked_document(topology=False)
        doc["sources"] = [[float(i), float(i % 3)] for i in range(DEFAULT_GUARD + 1)]
        return ["exact", write_document(tmp_path, doc)]

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("outcome", [0, 1, 2, 3])
    def test_exit_restores_the_collector(self, tmp_path, capsys, enabled, outcome):
        argv = self._arguments(tmp_path, capsys, outcome)
        before = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            code = main(argv)
            after = gc.isenabled()
        finally:
            (gc.enable if before else gc.disable)()
        assert code == outcome
        assert after is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_raise_restores_the_collector(self, tmp_path, monkeypatch, enabled):
        seen = []

        def failing(args):
            seen.append(gc.isenabled())
            raise RuntimeError("a command failed")

        monkeypatch.setitem(cli._COMMANDS, "render", failing)
        argv = ["render", write_document(tmp_path, worked_document()), "-o", str(tmp_path / "t.svg")]
        before = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(RuntimeError, match="a command failed"):
                main(argv)
            after = gc.isenabled()
        finally:
            (gc.enable if before else gc.disable)()
        assert seen == [False]  # the body ran paused
        assert after is enabled


class TestGlobalFlags:
    def test_bad_tolerance(self, tmp_path, capsys):
        path = write_document(tmp_path, worked_document())
        assert main(["--tolerance", "-1", "solve-topology", path]) == 2

    @pytest.mark.parametrize("guard", ["0", "-1"])
    def test_bad_guard(self, tmp_path, capsys, guard):
        # a guard below one source admits no instance: an input error, not
        # a guard refusal
        path = write_document(tmp_path, worked_document(topology=False))
        assert main(["--guard-n", guard, "exact", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --guard-n must be at least 1\n"


def test_fixed_topology_commands_build_no_point_per_source(tmp_path, capsys, monkeypatch):
    # a 1,000-source caterpillar through solve-topology, check and render:
    # the instance and the tree are coordinate tables, so the one Point each
    # command builds is the sink's
    rng = random.Random(3)
    n = 1000
    spine = list(range(n + 1, 2 * n))
    doc = {
        "schema": 1,
        "sources": [[rng.uniform(0, 5), rng.uniform(0, 5)] for _ in range(n)],
        "supplies": [rng.choice([1, 2.5]) for _ in range(n)],
        "sink": [6.0, 6.0],
        "strategy": {"degree_bound": 3},
        "topology": {
            "nodes": ["source"] * n + ["sink"] + ["steiner"] * (n - 1),
            "parents": [spine[0], *spine, None, *spine[1:], n],
        },
    }
    built = []
    init = Point.__init__
    monkeypatch.setattr(Point, "__init__", lambda point, x, y: built.append(1) or init(point, x, y))
    result = str(tmp_path / "result.json")
    commands = [
        ["solve-topology", write_document(tmp_path, doc), "-o", result],
        ["check", result],
        ["render", result, "-o", str(tmp_path / "tree.svg")],
    ]
    for argv in commands:
        built.clear()
        assert main(argv) == 0, argv
        assert len(built) <= 1, (argv, len(built))
    assert "all checks passed" in capsys.readouterr().out
