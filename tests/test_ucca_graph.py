import dataclasses
import json
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_graph
from swss.cli import main
from swss.errors import GraphError
from swss.harness import evaluate, load_dataset
from swss.scoring import SwssParams
from swss.synthetic import random_graph, write_synthetic_dataset
from swss.ucca_graph import (
    Category,
    Edge,
    Terminal,
    build_graph,
    emit_json,
    isomorphic,
    load_graph,
    parse_ucca_json,
    parse_ucca_json_stream,
    parse_ucca_xml,
)

FIGURE_TOKENS = ["John", "and", "Mary", "bought", "the", "sofa", "I", "sold", "together"]


class TestFigureFixture:
    def test_tokens_in_order(self, figure_graph):
        assert figure_graph.tokens() == FIGURE_TOKENS

    def test_lowest_labels(self, figure_graph):
        labels = {t.text: figure_graph.lowest_label(t.id).value for t in figure_graph.terminals}
        assert labels == {
            "John": "C",
            "and": "N",
            "Mary": "C",
            "bought": "P",
            "the": "E",
            "sofa": "C",  # the remote A must never win
            "I": "A",
            "sold": "P",
            "together": "D",
        }

    def test_two_scenes(self, figure_graph):
        assert figure_graph.count_scenes() == 2

    def test_node_count(self, figure_graph):
        # 9 terminals + 4 internal units + root, per the rendered tree.
        assert len(figure_graph.terminals) == 9
        assert len(figure_graph.internal_nodes) == 4
        assert figure_graph.count_nodes() == 14

    def test_critical_edges(self, figure_graph):
        assert figure_graph.count_critical_edges() == 5
        assert figure_graph.count_critical_edges(include_remote=True) == 6

    def test_root_has_single_scene_child(self, figure_graph):
        top = [e for e in figure_graph.edges if e.parent == figure_graph.root and not e.remote]
        assert len(top) == 1
        assert top[0].category is Category.PARALLEL_SCENE

    def test_json_mirror_is_isomorphic(self, figure_graph, figure_graph_json):
        assert isomorphic(figure_graph, figure_graph_json)

    def test_remote_edge_survives_collapse(self, figure_graph):
        remotes = [e for e in figure_graph.edges if e.remote]
        positions = {t.id: t.position for t in figure_graph.terminals}
        assert len(remotes) == 1
        assert remotes[0].category is Category.PARTICIPANT
        assert positions[remotes[0].child] == 6  # points at "sofa"


class TestMinimalGraphs:
    def test_single_token_passage(self, minimal_graph):
        assert minimal_graph.tokens() == ["Hello"]
        assert minimal_graph.count_nodes() == 3
        assert minimal_graph.count_scenes() == 0

    def test_single_token_xml(self):
        document = """
        <root passageID="2"><layer layerID="0">
          <node ID="0.1" type="Word"><attributes paragraph="1" paragraph_position="1" text="Hello"/></node>
        </layer><layer layerID="1">
          <node ID="1.1" type="FN"><attributes/><edge toID="1.2" type="H"><attributes/></edge></node>
          <node ID="1.2" type="FN"><attributes/><edge toID="1.3" type="C"><attributes/></edge></node>
          <node ID="1.3" type="FN"><attributes/><edge toID="0.1" type="Terminal"><attributes/></edge></node>
        </layer></root>
        """
        graph = parse_ucca_xml(document)
        assert graph.tokens() == ["Hello"]
        assert graph.count_nodes() == 3
        assert graph.lowest_label(graph.terminals[0].id) is Category.CENTER


class TestXmlErrors:
    def test_malformed_xml(self):
        with pytest.raises(GraphError, match="malformed XML"):
            parse_ucca_xml(b"<root><layer")

    def test_unknown_category_names_edge(self):
        document = """
        <root><layer layerID="0">
          <node ID="0.1" type="Word"><attributes paragraph_position="1" text="Hi"/></node>
        </layer><layer layerID="1">
          <node ID="1.1" type="FN"><attributes/><edge toID="1.2" type="Z"><attributes/></edge></node>
          <node ID="1.2" type="FN"><attributes/><edge toID="0.1" type="Terminal"><attributes/></edge></node>
        </layer></root>
        """
        with pytest.raises(GraphError, match=r"unknown category code 'Z' on edge '1\.1' -> '1\.2'"):
            parse_ucca_xml(document)

    def test_cyclic_primary_edges(self):
        document = """
        <root><layer layerID="0">
          <node ID="0.1" type="Word"><attributes paragraph_position="1" text="Hi"/></node>
        </layer><layer layerID="1">
          <node ID="1.1" type="FN"><attributes/><edge toID="1.2" type="H"><attributes/></edge></node>
          <node ID="1.2" type="FN"><attributes/><edge toID="1.1" type="A"><attributes/></edge>
            <edge toID="0.1" type="Terminal"><attributes/></edge></node>
        </layer></root>
        """
        with pytest.raises(GraphError, match="no root unit"):
            parse_ucca_xml(document)

    def test_terminal_with_two_parents(self):
        document = """
        <root><layer layerID="0">
          <node ID="0.1" type="Word"><attributes paragraph_position="1" text="Hi"/></node>
          <node ID="0.2" type="Word"><attributes paragraph_position="2" text="there"/></node>
        </layer><layer layerID="1">
          <node ID="1.1" type="FN"><attributes/>
            <edge toID="1.2" type="C"><attributes/></edge>
            <edge toID="1.3" type="E"><attributes/></edge></node>
          <node ID="1.2" type="FN"><attributes/><edge toID="0.1" type="Terminal"><attributes/></edge>
            <edge toID="0.2" type="Terminal"><attributes/></edge></node>
          <node ID="1.3" type="FN"><attributes/><edge toID="0.2" type="Terminal"><attributes/></edge></node>
        </layer></root>
        """
        with pytest.raises(GraphError, match="multiple primary parents"):
            parse_ucca_xml(document)

    def test_unanalyzable_unit_spreads_label(self):
        # One preterminal covering two words: both get the unit's category.
        document = """
        <root><layer layerID="0">
          <node ID="0.1" type="Word"><attributes paragraph_position="1" text="New"/></node>
          <node ID="0.2" type="Word"><attributes paragraph_position="2" text="York"/></node>
        </layer><layer layerID="1">
          <node ID="1.1" type="FN"><attributes/><edge toID="1.2" type="A"><attributes/></edge></node>
          <node ID="1.2" type="FN"><attributes/>
            <edge toID="0.1" type="Terminal"><attributes/></edge>
            <edge toID="0.2" type="Terminal"><attributes/></edge></node>
        </layer></root>
        """
        graph = parse_ucca_xml(document)
        labels = [graph.lowest_label(t.id) for t in graph.terminals]
        assert labels == [Category.PARTICIPANT, Category.PARTICIPANT]

    def test_implicit_units_are_dropped(self):
        document = """
        <root><layer layerID="0">
          <node ID="0.1" type="Word"><attributes paragraph_position="1" text="go"/></node>
        </layer><layer layerID="1">
          <node ID="1.1" type="FN"><attributes/><edge toID="1.2" type="H"><attributes/></edge></node>
          <node ID="1.2" type="FN"><attributes/>
            <edge toID="1.3" type="P"><attributes/></edge>
            <edge toID="1.4" type="A"><attributes/></edge></node>
          <node ID="1.3" type="FN"><attributes/><edge toID="0.1" type="Terminal"><attributes/></edge></node>
          <node ID="1.4" type="FN"><attributes implicit="True"/></node>
        </layer></root>
        """
        graph = parse_ucca_xml(document)
        assert graph.tokens() == ["go"]
        assert graph.count_critical_edges() == 1  # only the P edge survives


class TestJsonParsing:
    def test_round_trip_is_exact(self, figure_graph_json):
        emitted = json.dumps(emit_json(figure_graph_json))
        assert parse_ucca_json(emitted) == figure_graph_json

    def test_xml_round_trips_isomorphically(self, figure_graph):
        emitted = json.dumps(emit_json(figure_graph))
        assert isomorphic(parse_ucca_json(emitted), figure_graph)

    def test_empty_node_list_is_no_root(self):
        document = {"tokens": ["Hi"], "nodes": [], "edges": [], "root": "r"}
        with pytest.raises(GraphError, match="no root"):
            parse_ucca_json(json.dumps(document))

    def test_duplicate_node_id_named(self):
        document = {
            "tokens": ["Hi"],
            "nodes": [{"id": "r"}, {"id": "u"}, {"id": "u"}],
            "root": "r",
            "edges": [
                {"parent": "r", "child": "u", "category": "H", "remote": False},
                {"parent": "u", "child": {"terminal": 1}, "category": "C", "remote": False},
            ],
        }
        with pytest.raises(GraphError, match="duplicate node id 'u'"):
            parse_ucca_json(json.dumps(document))

    def test_unknown_field_path(self):
        document = {"tokens": [], "nodes": [], "edges": [], "root": "r", "extra": 1}
        with pytest.raises(GraphError, match="unknown field 'extra'"):
            parse_ucca_json(json.dumps(document))

    def test_terminal_position_out_of_range(self):
        document = {
            "tokens": ["Hi"],
            "nodes": [{"id": "r"}],
            "root": "r",
            "edges": [{"parent": "r", "child": {"terminal": 2}, "category": "C", "remote": False}],
        }
        with pytest.raises(GraphError, match="position 2 out of range"):
            parse_ucca_json(json.dumps(document))

    def test_stream_parses_per_line(self, figure_json_path):
        line = json.dumps(json.loads(figure_json_path.read_text()))
        stream = f"{line}\n\n{line}\n"
        graphs = list(parse_ucca_json_stream(stream))
        assert len(graphs) == 2
        assert graphs[0] == graphs[1]

    def test_stream_reports_line_numbers(self, figure_json_path):
        good = json.dumps(json.loads(figure_json_path.read_text()))
        with pytest.raises(GraphError, match="line 2"):
            list(parse_ucca_json_stream(f"{good}\n{{broken\n"))


class TestValidation:
    def test_dangling_remote_strict_vs_lenient(self):
        terminals = [Terminal("t1", "Hi", 1)]
        edges = [
            Edge("r", "u", Category.PARALLEL_SCENE),
            Edge("u", "t1", Category.CENTER),
            Edge("u", "ghost", Category.PARTICIPANT, remote=True),
        ]
        with pytest.raises(GraphError, match="unknown node 'ghost'"):
            build_graph("r", terminals, ["u"], edges)
        graph = build_graph("r", terminals, ["u"], edges, lenient=True)
        assert all(not e.remote for e in graph.edges)

    def test_dangling_primary_always_rejected(self):
        with pytest.raises(GraphError, match="unknown node"):
            build_graph(
                "r",
                [Terminal("t1", "Hi", 1)],
                ["u"],
                [
                    Edge("r", "u", Category.PARALLEL_SCENE),
                    Edge("u", "t1", Category.CENTER),
                    Edge("r", "ghost", Category.PARTICIPANT),
                ],
                lenient=True,
            )

    def test_remote_cycle_rejected(self):
        edges = [
            ("r", "u", "H"),
            ("u", "v", "A"),
            ("v", 1, "C"),
            ("v", "u", "A", True),  # back to an ancestor
        ]
        with pytest.raises(GraphError, match="cycle"):
            make_graph(["Hi"], edges)

    def test_remote_reentrancy_allowed(self):
        edges = [
            ("r", "u", "H"),
            ("u", "v", "A"),
            ("u", 2, "P"),
            ("v", 1, "C"),
            ("u", "v", "A", True),
        ]
        graph = make_graph(["Hi", "ho"], edges)
        assert sum(e.remote for e in graph.edges) == 1

    def test_terminal_positions_must_be_contiguous(self):
        with pytest.raises(GraphError, match="contiguous"):
            build_graph(
                "r",
                [Terminal("t1", "Hi", 1), Terminal("t3", "ho", 3)],
                ["u"],
                [
                    Edge("r", "u", Category.PARALLEL_SCENE),
                    Edge("u", "t1", Category.CENTER),
                    Edge("u", "t3", Category.CENTER),
                ],
            )

    def test_empty_terminal_text_rejected(self):
        with pytest.raises(GraphError, match="empty text"):
            build_graph(
                "r",
                [Terminal("t1", "", 1)],
                ["u"],
                [Edge("r", "u", Category.PARALLEL_SCENE), Edge("u", "t1", Category.CENTER)],
            )

    def test_internal_leaf_rejected(self):
        with pytest.raises(GraphError, match="no primary children"):
            build_graph(
                "r",
                [Terminal("t1", "Hi", 1)],
                ["u", "empty"],
                [
                    Edge("r", "u", Category.PARALLEL_SCENE),
                    Edge("u", "t1", Category.CENTER),
                    Edge("u", "empty", Category.ELABORATOR),
                ],
            )

    def test_terminal_cannot_have_children(self):
        with pytest.raises(GraphError, match="cannot have outgoing edges"):
            build_graph(
                "r",
                [Terminal("t1", "Hi", 1), Terminal("t2", "ho", 2)],
                ["u"],
                [
                    Edge("r", "u", Category.PARALLEL_SCENE),
                    Edge("u", "t1", Category.CENTER),
                    Edge("t1", "t2", Category.CENTER),
                ],
            )

    def test_lowest_label_rejects_non_terminals(self, figure_graph):
        with pytest.raises(GraphError, match="not a terminal"):
            figure_graph.lowest_label(figure_graph.root)


class TestCounts:
    def test_two_sibling_parallel_scenes(self):
        graph = make_graph(
            ["John", "ran", "Mary", "slept"],
            [
                ("r", "s1", "H"),
                ("r", "s2", "H"),
                ("s1", 1, "A"),
                ("s1", 2, "P"),
                ("s2", 3, "A"),
                ("s2", 4, "P"),
            ],
        )
        assert graph.count_scenes() == 2

    def test_no_critical_edges(self):
        graph = make_graph(
            ["very", "nice"],
            [("r", "u", "H"), ("u", 1, "E"), ("u", 2, "D")],
        )
        assert graph.count_critical_edges() == 0
        assert graph.count_critical_edges(include_remote=True) == 0

    def test_adding_one_participant_edge_increments_count(self):
        tokens = ["John", "ran"]
        edges = [("r", "u", "H"), ("u", 1, "E"), ("u", 2, "P")]
        before = make_graph(tokens, edges)
        after = make_graph(tokens, [("r", "u", "H"), ("u", 1, "A"), ("u", 2, "P")])
        assert after.count_critical_edges() == before.count_critical_edges() + 1

    def test_token_count_equals_terminal_count(self, figure_graph, minimal_graph):
        for graph in (figure_graph, minimal_graph):
            assert len(graph.tokens()) == len(graph.terminals)


class TestQueriesOnRandomGraphs:
    @given(st.integers(min_value=0, max_value=10_000))
    def test_round_trip_and_invariants(self, seed):
        graph = random_graph(random.Random(seed))
        again = parse_ucca_json(json.dumps(emit_json(graph)))
        assert isomorphic(graph, again)
        assert again.count_nodes() == graph.count_nodes()
        assert [t.text for t in again.terminals] == graph.tokens()

        if graph.internal_nodes:
            assert graph.count_nodes() >= len(graph.tokens()) + 2
        primary_ps = sum(
            1 for e in graph.edges if not e.remote and e.category in (Category.PROCESS, Category.STATE)
        )
        assert graph.count_scenes() <= primary_ps
        labels = [graph.lowest_label(t.id) for t in graph.terminals]
        assert all(isinstance(l, Category) for l in labels)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_remote_edges_do_not_change_nodes_or_labels(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng)
        stripped = build_graph(
            graph.root,
            graph.terminals,
            graph.internal_nodes,
            [e for e in graph.edges if not e.remote],
        )
        assert stripped.count_nodes() == graph.count_nodes()
        for t in graph.terminals:
            assert stripped.lowest_label(t.id) == graph.lowest_label(t.id)


def _bad_position(figure_xml_path):
    return figure_xml_path.read_text().replace('paragraph_position="1"', 'paragraph_position="x"', 1).encode()


MALFORMED_FILES = {
    "bad-position.xml": _bad_position,
    "bad-bytes.json": lambda _: b"\xff\xfe{",
    "deep-nesting.json": lambda _: b"[" * 100_000,
}


class TestMalformedFiles:
    """Inputs that once escaped as ValueError, UnicodeDecodeError or
    RecursionError: each must be a GraphError naming the file, which a
    non-strict run skips and counts and the CLI reports with exit code 1."""

    @pytest.fixture(params=sorted(MALFORMED_FILES))
    def bad_file(self, request, tmp_path, figure_xml_path):
        path = tmp_path / request.param
        path.write_bytes(MALFORMED_FILES[request.param](figure_xml_path))
        return path

    def test_load_graph_names_the_file(self, bad_file):
        with pytest.raises(GraphError, match=re.escape(str(bad_file))):
            load_graph(bad_file)

    def test_lenient_evaluate_skips_and_counts(self, bad_file, tmp_path):
        records = load_dataset(write_synthetic_dataset(tmp_path / "corpus", n_segments=6, seed=5, noise=0.01))
        mixed = [dataclasses.replace(records[0], candidate_ucca=bad_file), *records[1:]]
        report = evaluate(mixed, SwssParams())
        assert report.skipped == 1
        assert report.n == {"xx-en": 5}

    def test_inspect_exits_one(self, bad_file, capsys):
        assert main(["inspect", str(bad_file)]) == 1
        assert str(bad_file) in capsys.readouterr().err
