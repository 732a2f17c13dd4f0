import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fqst.cli import main
from fqst.documents import dumps, loads
from fqst.exact_search import STEINER_BUDGET_GUARD


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

    @pytest.mark.parametrize(
        "strategy",
        [{"explicit_bound": 10**9}, {"node_weighted": 1e-300}, {"node_weighted": 5e-324}],
    )
    def test_steiner_budget_guard(self, tmp_path, capsys, strategy):
        # refused before anything sized by the budget (or by the beaded
        # spanning tree it is computed from) is built
        path = write_document(tmp_path, worked_document(strategy, topology=False))
        assert main(["exact", path]) == 3
        assert "Steiner budget" in capsys.readouterr().err

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

    def test_node_weighted_result_passes_check(self, tmp_path, capsys):
        doc = {
            "schema": 1,
            "sources": [[0.0, 0.0], [2.0, 4.0], [11.0, 5.0]],
            "sink": [11.0, 1.0],
            "strategy": {"node_weighted": 20.0},
        }
        path = write_document(tmp_path, doc)
        assert main(["exact", path]) == 0
        result = loads(capsys.readouterr().out)
        assert result["claims"]["global_optimum"] is True
        result_path = write_document(tmp_path, result, "nw.json")
        assert main(["check", result_path]) == 0


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


class TestBoundsCommand:
    def test_degree_bound(self, tmp_path, capsys):
        path = write_document(tmp_path, worked_document(topology=False))
        assert main(["bounds", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["steiner_budget"] == 2
        assert out["lower_bound_path"] == pytest.approx(228.0 / 6.0)

    def test_node_weighted_includes_upper_bound(self, tmp_path, capsys):
        path = write_document(
            tmp_path, worked_document(strategy={"node_weighted": 20.0}, topology=False)
        )
        assert main(["bounds", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "beaded_spanning_tree_cost" in out
        assert out["lower_bound_path"] <= out["beaded_spanning_tree_cost"]

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

    @pytest.mark.parametrize("c", [5e-324, 1e-310])
    def test_overflowing_bead_ratio_is_input_error(self, tmp_path, capsys, c):
        path = write_document(tmp_path, worked_document(strategy={"node_weighted": c}, topology=False))
        assert main(["bounds", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflows" in captured.err


class TestGlobalFlags:
    def test_bad_tolerance(self, tmp_path, capsys):
        path = write_document(tmp_path, worked_document())
        assert main(["--tolerance", "-1", "solve-topology", path]) == 2
