import pytest

from fqst import DegreeBound, DocumentError, ExplicitBound, NodeWeighted, solve_topology
from fqst.documents import (
    dumps,
    loads,
    parse_instance_document,
    parse_result_document,
    result_document,
)
from fqst.cli import main
from conftest import instance_document


def worked_document():
    return {
        "schema": 1,
        "sources": [[0.0, 0.0], [2.0, 4.0], [11.0, 5.0]],
        "sink": [11.0, 1.0],
        "strategy": {"degree_bound": 3},
        "topology": {
            "nodes": ["source", "source", "source", "sink", "steiner", "steiner"],
            "parents": [4, 4, 5, None, 5, 3],
        },
    }


class TestInstanceDocuments:
    def test_parse_worked_document(self):
        parsed = parse_instance_document(worked_document())
        assert parsed.instance.n_sources == 3
        assert parsed.instance.supplies == (1.0, 1.0, 1.0)
        assert parsed.strategy == DegreeBound(3)
        assert parsed.topology is not None
        assert parsed.topology.parents == (4, 4, 5, -1, 5, 3)

    def test_round_trip(self):
        parsed = parse_instance_document(worked_document())
        emitted = instance_document(parsed.instance, parsed.strategy, parsed.topology)
        reparsed = parse_instance_document(loads(dumps(emitted)))
        assert reparsed.instance == parsed.instance
        assert reparsed.strategy == parsed.strategy
        assert reparsed.topology == parsed.topology
        assert instance_document(reparsed.instance, reparsed.strategy, reparsed.topology) == emitted

    def test_round_trip_preserves_awkward_floats(self):
        doc = worked_document()
        doc["sources"][0] = [0.1, -0.30000000000000004]
        doc["supplies"] = [1.5, 0.7, 2.25]
        doc["strategy"] = {"node_weighted": 0.1}
        parsed = parse_instance_document(doc)
        emitted = instance_document(parsed.instance, parsed.strategy, parsed.topology)
        reparsed = parse_instance_document(loads(dumps(emitted)))
        assert reparsed.instance == parsed.instance
        assert reparsed.strategy == parsed.strategy

    def test_supplies_default_to_unit(self):
        parsed = parse_instance_document(worked_document())
        assert parsed.instance.has_unit_supplies()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("sources"),
            lambda d: d.pop("sink"),
            lambda d: d.pop("strategy"),
            lambda d: d.update(schema=99),
            lambda d: d.update(sources=[[0, 0], [float("nan"), 1]]),
            lambda d: d.update(strategy={"mystery": 1}),
            lambda d: d.update(strategy={"degree_bound": 2}),
            lambda d: d.update(supplies=[1.0]),
            lambda d: d.update(supplies=[1.0, -1.0, 1.0]),
            lambda d: d.update(supplies=[1.0, float("inf"), 1.0]),
            lambda d: d["topology"].update(parents=[4, 4, 5, None, 5, 4]),
            lambda d: d["topology"].update(nodes=["sink"] * 6),
            lambda d: d.update(strategy={"degree_bound": 3.7}),
            lambda d: d.update(strategy={"explicit_bound": "2"}),
            lambda d: d.update(strategy={"explicit_bound": True}),
            lambda d: d.update(strategy={"node_weighted": True}),
        ],
    )
    def test_bad_documents_rejected(self, mutate):
        doc = worked_document()
        mutate(doc)
        with pytest.raises(DocumentError):
            parse_instance_document(doc)

    @pytest.mark.parametrize(
        "strategy",
        [DegreeBound(4), ExplicitBound(0), NodeWeighted(2.5)],
    )
    def test_strategies_round_trip(self, strategy):
        parsed = parse_instance_document(worked_document())
        emitted = instance_document(parsed.instance, strategy)
        assert parse_instance_document(emitted).strategy == strategy


class TestResultDocuments:
    def test_result_round_trip(self, worked_instance, worked_topology):
        tree = solve_topology(worked_instance, worked_topology)
        doc = result_document(tree, DegreeBound(3))
        parsed = parse_result_document(loads(dumps(doc)))
        assert parsed.instance == worked_instance
        assert parsed.strategy == DegreeBound(3)
        assert parsed.tree.topology == worked_topology
        assert parsed.tree.cost == pytest.approx(102.0, abs=1e-9)
        for a, b in zip(parsed.tree.steiner_positions, tree.steiner_positions):
            assert a.x == pytest.approx(b.x, abs=1e-9)
            assert a.y == pytest.approx(b.y, abs=1e-9)
        assert not parsed.claims_global_optimum

    def test_node_weighted_result_stores_the_charged_objective(
        self, worked_instance, worked_topology, tmp_path, capsys
    ):
        # the writer charges c per Steiner point itself, so a document
        # written with no objective of its own passes check
        tree = solve_topology(worked_instance, worked_topology)
        doc = result_document(tree, NodeWeighted(10.0))
        assert doc["cost"] == pytest.approx(102.0, abs=1e-9)
        assert doc["objective"] == pytest.approx(tree.cost + 2 * 10.0, rel=1e-12)
        assert doc["objective"] == pytest.approx(122.0, abs=1e-9)
        path = tmp_path / "weighted-result.json"
        path.write_text(dumps(doc))
        assert main(["check", str(path)]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_certificate_summary_present(self, worked_instance, worked_topology):
        tree = solve_topology(worked_instance, worked_topology)
        doc = result_document(tree, DegreeBound(3))
        assert doc["certificates"]["locally_minimal"] is True
        # locally minimal but not angle-clean: the sink-side Steiner point
        # meets its z2 in-edge at under 90 degrees
        assert doc["certificates"]["angle_violations"] == 1
        assert doc["claims"] == {"locally_minimal": True, "global_optimum": False}

    def test_missing_positions_rejected(self, worked_instance, worked_topology):
        tree = solve_topology(worked_instance, worked_topology)
        doc = result_document(tree, DegreeBound(3))
        doc["steiner_positions"] = doc["steiner_positions"][:1]
        with pytest.raises(DocumentError):
            parse_result_document(doc)

    def test_flow_entries_validated(self, worked_instance, worked_topology):
        tree = solve_topology(worked_instance, worked_topology)
        doc = result_document(tree, DegreeBound(3))
        doc["flows"][0]["to"] = 99
        with pytest.raises(DocumentError):
            parse_result_document(doc)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_flow_rejected(self, worked_instance, worked_topology, value):
        tree = solve_topology(worked_instance, worked_topology)
        doc = result_document(tree, DegreeBound(3))
        doc["flows"][1]["flow"] = value
        with pytest.raises(DocumentError, match="finite"):
            parse_result_document(doc)

    @pytest.mark.parametrize("value", [0.0, -1.0, 0])
    def test_non_positive_flow_rejected(self, worked_instance, worked_topology, value):
        tree = solve_topology(worked_instance, worked_topology)
        doc = result_document(tree, DegreeBound(3))
        doc["flows"][1]["flow"] = value
        edge = doc["flows"][1]["from"]
        with pytest.raises(DocumentError, match=f"flow of edge {edge} must be positive"):
            parse_result_document(doc)

    @pytest.mark.parametrize("key", ["from", "flow"])
    def test_boolean_edge_id_and_flow_rejected(self, worked_instance, worked_topology, key):
        # edge 1 -> 4 carries flow 1, so true would read as a valid id or flow
        tree = solve_topology(worked_instance, worked_topology)
        doc = result_document(tree, DegreeBound(3))
        assert doc["flows"][1]["from"] == 1 and doc["flows"][1]["flow"] == 1.0
        doc["flows"][1][key] = True
        with pytest.raises(DocumentError, match="bad flow entry"):
            parse_result_document(doc)

    def test_repeated_flow_entry_rejected(self, worked_instance, worked_topology):
        tree = solve_topology(worked_instance, worked_topology)
        doc = result_document(tree, DegreeBound(3))
        doc["flows"][2] = dict(doc["flows"][1])
        edge = doc["flows"][1]["from"]
        with pytest.raises(DocumentError, match=f"flow of edge {edge} is listed twice"):
            parse_result_document(doc)

    def test_result_tree_holds_the_coordinate_table(self, worked_instance, worked_topology):
        tree = solve_topology(worked_instance, worked_topology)
        parsed = parse_result_document(loads(dumps(result_document(tree, DegreeBound(3)))))
        assert parsed.tree.xs == tree.xs
        assert parsed.tree.ys == tree.ys

    def test_dumps_refuses_non_finite_numbers(self):
        with pytest.raises(DocumentError):
            dumps({"cost": float("inf")})

    def test_dumps_refuses_self_referencing_documents(self):
        doc = {"cost": 1.0}
        doc["self"] = doc
        nested = []
        nested.append(nested)
        for bad in (doc, {"claims": nested}):
            with pytest.raises(DocumentError, match="self-referencing"):
                dumps(bad)

    def test_emission_is_deterministic(self, worked_instance, worked_topology):
        tree = solve_topology(worked_instance, worked_topology)
        a = dumps(result_document(tree, DegreeBound(3)))
        b = dumps(result_document(tree, DegreeBound(3)))
        assert a == b


@pytest.mark.parametrize("text", ['{"x": NaN}', "[Infinity]", '{"cost": -Infinity}'])
def test_loads_rejects_non_finite_tokens(text):
    with pytest.raises(DocumentError, match="not valid JSON"):
        loads(text)


def test_loads_refuses_an_integer_past_the_digit_limit():
    # int() refuses so long a literal with a plain ValueError
    with pytest.raises(DocumentError, match="not valid JSON"):
        loads("[" + "9" * 5000 + "]")
