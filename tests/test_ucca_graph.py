import codecs
import contextlib
import dataclasses
import io
import json
import random
import re
import time
import xml.etree.ElementTree as ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, ODD_VALUES, make_graph, mutate_bytes, mutate_json
from oracles import build_graph_reference, graph_from_dict_reference, isomorphic, parse_ucca_xml_reference
from swss.cli import main
from swss.core_words import CoreWord
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
    graph_from_dict,
    load_graph,
    parse_ucca_json,
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

    @pytest.mark.parametrize(
        "bom, codec",
        [(codecs.BOM_UTF8, "utf-8"), (codecs.BOM_UTF16_LE, "utf-16-le"), (codecs.BOM_UTF16_BE, "utf-16-be")],
        ids=["utf-8", "utf-16-le", "utf-16-be"],
    )
    def test_xml_after_a_byte_order_mark_loads(self, figure_graph, figure_xml_path, tmp_path, bom, codec):
        path = tmp_path / "figure.xml"
        path.write_bytes(bom + ("\n" + figure_xml_path.read_text(encoding="utf-8")).encode(codec))
        assert emit_json(load_graph(path)) == emit_json(figure_graph)

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

    def test_repeated_unit_id(self, figure_xml_path):
        # A second element with a unit's ID is not merged into that unit.
        document = figure_xml_path.read_text(encoding="utf-8")
        unit = '    <node ID="1.4" type="FN"><attributes/></node>\n  </layer>'
        document = unit.join(document.rsplit("  </layer>", 1))
        for parse in (parse_ucca_xml, parse_ucca_xml_reference):
            with pytest.raises(GraphError, match=r"^duplicate node id '1\.4'$"):
                parse(document)

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


_TRUE_FLAGS = ["true", "True", "1", "yes", "YES"]


def write_ucca_xml(graph, rng):
    """``graph`` as UCCA passage XML, with the choices a parser must undo
    made at random. A word hangs below a preterminal unit, possibly shared
    with siblings of the same category, or is linked straight from a mixed
    unit, or has a categorised edge of its own. A remote edge into a word
    may point at the word's one-word preterminal. Implicit units, linked
    into units and preterminals alike, are added. The sentence is split
    into paragraphs, and nodes and edges come in random order."""
    element = ElementTree.SubElement
    units = [graph.root, *sorted(graph.internal_nodes)]
    # At most one unit per node, one preterminal per word and two implicit units.
    needed = 2 * len(units) + len(graph.terminals) + 2
    fresh = iter(f"1.{n}" for n in rng.sample(range(1, 2 * needed), needed))
    xml_id = {u: next(fresh) for u in units}
    xml_id.update({t.id: f"0.{t.position}" for t in graph.terminals})
    incoming = {e.child: e.category for e in graph.edges if not e.remote}
    unit_edges = {xml_id[u]: [] for u in units}  # (toID, type, remote)
    attrs = {}

    words = {}
    for e in graph.edges:
        if not e.remote:
            if e.child in graph.internal_nodes:
                unit_edges[xml_id[e.parent]].append((xml_id[e.child], e.category.value, False))
            else:
                words.setdefault((e.parent, e.category), []).append(e.child)
    single_preterminal = {}
    for (parent, category), children in words.items():
        mixed_ok = parent != graph.root and incoming[parent] is category
        while children:
            size = rng.randint(1, len(children))
            group, children = children[:size], children[size:]
            mode = rng.choice(["preterminal", "direct"] + ["mixed"] * mixed_ok)
            if mode == "preterminal":
                unit = next(fresh)
                unit_edges[xml_id[parent]].append((unit, category.value, False))
                unit_edges[unit] = [(xml_id[w], "Terminal", False) for w in group]
                if len(group) == 1:
                    single_preterminal[group[0]] = unit
            else:
                tag = "Terminal" if mode == "mixed" else category.value
                unit_edges[xml_id[parent]].extend((xml_id[w], tag, False) for w in group)
    for e in graph.edges:
        if e.remote:
            target = xml_id[e.child]
            if e.child in single_preterminal and rng.random() < 0.5:
                target = single_preterminal[e.child]
            unit_edges[xml_id[e.parent]].append((target, e.category.value, True))
    for unit in units:
        # A unit whose only outgoing edges are terminal links is collapsed;
        # keep such links below a preterminal that carries the unit's own
        # category, which gives the words the same labels.
        edge_list = unit_edges[xml_id[unit]]
        if unit != graph.root and all(tag == "Terminal" for _, tag, _ in edge_list):
            linked = [to for to, _, _ in edge_list]
            preterminal = next(fresh)
            edge_list[:] = [(preterminal, incoming[unit].value, False)]
            unit_edges[preterminal] = [(to, "Terminal", False) for to in linked]

    hosts = list(unit_edges)
    for _ in range(rng.randint(0, 2)):
        unit = next(fresh)
        attrs[unit] = {"implicit": rng.choice(_TRUE_FLAGS)}
        unit_edges[rng.choice(hosts)].append((unit, rng.choice(list(Category)).value, rng.random() < 0.3))
        unit_edges[unit] = []
        if rng.random() < 0.5:
            unit_edges[unit].append((f"0.{rng.randint(1, len(graph.terminals))}", "Terminal", False))
        if rng.random() < 0.5:
            unit_edges[unit].append((rng.choice(hosts), rng.choice(list(Category)).value, False))

    passage = ElementTree.Element("root", passageID="1")
    layer0 = element(passage, "layer", layerID="0")
    terminals = list(graph.terminals)
    breaks = set(rng.sample(range(1, len(terminals)), rng.randint(0, min(2, len(terminals) - 1))))
    placed = []
    paragraph, position = 1, 0
    for i, t in enumerate(terminals):
        if i in breaks:
            paragraph, position = paragraph + 1, 0
        position += 1
        placed.append((t, paragraph, position))
    rng.shuffle(placed)
    for t, paragraph, position in placed:
        node = element(layer0, "node", ID=xml_id[t.id], type="Word")
        element(node, "attributes", paragraph=str(paragraph), paragraph_position=str(position), text=t.text)
    layer1 = element(passage, "layer", layerID="1")
    order = list(unit_edges)
    rng.shuffle(order)
    for unit in order:
        node = element(layer1, "node", ID=unit, type="FN")
        if unit in attrs or rng.random() < 0.7:
            element(node, "attributes", attrs.get(unit, {}))
        edge_list = list(unit_edges[unit])
        rng.shuffle(edge_list)
        for to, tag, remote in edge_list:
            edge = element(node, "edge", toID=to, type=tag)
            if remote:
                element(edge, "attributes", remote=rng.choice(_TRUE_FLAGS))
            elif rng.random() < 0.7:
                element(edge, "attributes")
    return ElementTree.tostring(passage, encoding="unicode")


def mutate_xml(rng, document):
    """``document`` with one attribute of one element set to an odd value
    or removed, or with one element renamed."""
    passage = ElementTree.fromstring(document)
    elements = list(passage.iter())
    values = [e.get("ID") for e in elements if e.get("ID")] + ["", "0", "-1", "x", "true", "H", "A", "Terminal"]
    target = rng.choice(elements)
    roll = rng.random()
    if roll < 0.2 or not target.attrib:
        target.tag = rng.choice([tag for tag in ("node", "edge", "attributes", "layer", "x") if tag != target.tag])
    elif roll < 0.35:
        del target.attrib[rng.choice(sorted(target.attrib))]
    else:
        target.set(rng.choice(sorted(target.attrib)), rng.choice(values))
    return ElementTree.tostring(passage, encoding="unicode")


class TestXmlReference:
    @settings(max_examples=200, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_agrees_with_reference_parser(self, rng):
        """The same graph as the replaced parser, or the same error, on
        random graphs written as XML, half of them with one mutation. An
        unmutated document must give back the graph it was written from."""
        graph = random_graph(rng, remote_prob=0.5)
        document = write_ucca_xml(graph, rng)
        mutated = rng.random() < 0.5
        if mutated:
            document = mutate_xml(rng, document)
        lenient = rng.random() < 0.5
        try:
            expected = parse_ucca_xml_reference(document, lenient)
        except GraphError as exc:
            with pytest.raises(GraphError) as info:
                parse_ucca_xml(document, lenient)
            if str(info.value) != str(exc):
                # The one message the topological peel words differently.
                assert "cycl" in str(exc) and "lies on a cycle" in str(info.value)
        else:
            assert parse_ucca_xml(document, lenient) == expected
            if not mutated:
                assert isomorphic(expected, graph)


class TestValueTypes:
    def test_edge_and_terminal_are_immutable_hashable_named_tuples(self):
        cases = [
            (lambda: Edge("u", "t1", Category.CENTER), "parent"),
            (lambda: Terminal("t1", "Hi", 1), "text"),
            (lambda: CoreWord("Hi", "hi", 1, Category.CENTER), "stem"),
        ]
        for make, field in cases:
            value, twin = make(), make()
            with pytest.raises(AttributeError):
                setattr(value, field, "x")
            assert value == twin and hash(value) == hash(twin) and value is not twin
            assert value._replace(**{field: "x"}) != value
        # Named tuples compare equal to the plain tuple of their fields;
        # that is accepted, as no code compares a graph value with a tuple.
        assert Edge("u", "t1", Category.CENTER) == ("u", "t1", Category.CENTER, False)
        assert Terminal("t1", "Hi", 1) == ("t1", "Hi", 1)
        assert CoreWord("Hi", "hi", 1, Category.CENTER) == ("Hi", "hi", 1, Category.CENTER)


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

    def test_large_document_loads_in_linear_time(self):
        # Chains of units over one word. Ten times the units takes about ten
        # times as long; looking each id up in a list of the ids before it
        # made it about a hundred times (0.3 s and 27 s).
        def chain(n):
            return {
                "tokens": ["Hi"],
                "nodes": [{"id": f"u{i}"} for i in range(n)],
                "root": "u0",
                "edges": [{"parent": f"u{i}", "child": f"u{i + 1}", "category": "C"} for i in range(n - 1)]
                + [{"parent": f"u{n - 1}", "child": {"terminal": 1}, "category": "C"}],
            }

        def load_seconds(document):
            text = json.dumps(document)
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                graph = parse_ucca_json(text)
                best = min(best, time.perf_counter() - start)
            assert len(graph.internal_nodes) == len(document["nodes"]) - 1
            return best

        large = chain(50_000)
        assert load_seconds(large) < 30 * load_seconds(chain(5_000))
        large["nodes"].append({"id": "u7"})
        with pytest.raises(GraphError, match="duplicate node id 'u7'"):
            parse_ucca_json(json.dumps(large))

    def test_unknown_field_path(self):
        document = {"tokens": [], "nodes": [], "edges": [], "root": "r", "extra": 1}
        with pytest.raises(GraphError, match="unknown field 'extra'"):
            parse_ucca_json(json.dumps(document))

    def test_unknown_node_field_named(self):
        document = {
            "tokens": ["Hi"],
            "nodes": [{"id": "r"}, {"id": "u", "colour": "red"}],
            "root": "r",
            "edges": [
                {"parent": "r", "child": "u", "category": "H", "remote": False},
                {"parent": "u", "child": {"terminal": 1}, "category": "C", "remote": False},
            ],
        }
        for parse in (graph_from_dict, graph_from_dict_reference):
            with pytest.raises(GraphError, match=r"^nodes\[1\]: unknown field 'colour'$"):
                parse(document)

    def test_terminal_position_out_of_range(self):
        document = {
            "tokens": ["Hi"],
            "nodes": [{"id": "r"}],
            "root": "r",
            "edges": [{"parent": "r", "child": {"terminal": 2}, "category": "C", "remote": False}],
        }
        with pytest.raises(GraphError, match="position 2 out of range"):
            parse_ucca_json(json.dumps(document))


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

    def test_primary_cycle_cut_off_from_the_root_rejected(self):
        terminals = [Terminal("t1", "Hi", 1), Terminal("t2", "ho", 2)]
        edges = [
            Edge("r", "u", Category.PARALLEL_SCENE),
            Edge("u", "t1", Category.CENTER),
            Edge("a", "b", Category.PARTICIPANT),
            Edge("b", "a", Category.PARTICIPANT),
            Edge("b", "t2", Category.CENTER),
        ]
        with pytest.raises(GraphError, match=r"node 'a' .*cycl"):
            build_graph("r", terminals, ["u", "a", "b"], edges)

    def test_remote_edge_into_the_root_rejected(self):
        edges = [("r", "u", "H"), ("u", 1, "C"), ("u", "r", "A", True)]
        with pytest.raises(GraphError, match=r"'r' .*cycle"):
            make_graph(["Hi"], edges)

    @settings(max_examples=300, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_agrees_with_reference_validator(self, rng):
        """Same accept or reject as the replaced validator, the same graph
        on accept, and the same message for every error but a cycle."""
        graph = random_graph(rng)
        parents = [graph.root, *sorted(graph.internal_nodes)]
        nodes = parents + [t.id for t in graph.terminals]
        edges = list(graph.edges)
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 3)):
                edges.append(Edge(rng.choice(parents), rng.choice(nodes), rng.choice(list(Category)), remote=True))
        else:
            i = rng.choice([k for k, e in enumerate(edges) if not e.remote])
            edges[i] = edges[i]._replace(parent=rng.choice(parents))
        rng.shuffle(edges)
        parts = (graph.root, graph.terminals, graph.internal_nodes, edges)
        try:
            expected = build_graph_reference(*parts)
        except GraphError as exc:
            with pytest.raises(GraphError) as info:
                build_graph(*parts)
            if "cycl" in str(exc):
                assert "cycle" in str(info.value)
            else:
                assert str(info.value) == str(exc)
        else:
            assert build_graph(*parts) == expected

    def test_node_without_primary_parent_named(self):
        # 'u' has no edge into it, and its one edge out is remote.
        with pytest.raises(GraphError, match=r"^node 'u' has no incoming primary edge$"):
            build_graph(
                "r",
                [Terminal("t1", "Hi", 1)],
                ["u"],
                [Edge("r", "t1", Category.CENTER), Edge("u", "t1", Category.CENTER, remote=True)],
            )

    def test_terminal_without_primary_parent_named(self):
        with pytest.raises(GraphError, match=r"^terminal 't2' has no incoming primary edge$"):
            build_graph("r", [Terminal("t1", "Hi", 1), Terminal("t2", "ho", 2)], [], [Edge("r", "t1", Category.CENTER)])

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


def _figure_xml(old, new):
    """The figure fixture's XML with its one ``old`` replaced by ``new``."""

    def make(figure_xml_path):
        text = figure_xml_path.read_text()
        assert text.count(old) == 1
        return text.replace(old, new).encode()

    return make


def _json_graph(**fields):
    """A one-word JSON graph, with ``fields`` replacing its own."""
    document = {
        "tokens": ["a"],
        "nodes": [{"id": "r"}, {"id": "u"}],
        "root": "r",
        "edges": [
            {"parent": "r", "child": "u", "category": "H"},
            {"parent": "u", "child": {"terminal": 1}, "category": "C"},
        ],
    }
    return lambda _: json.dumps({**document, **fields}).encode()


_H_EDGE = '<edge toID="1.2" type="H"><attributes/></edge>'

MALFORMED_FILES = {
    "bad-position.xml": _figure_xml('paragraph_position="1"', 'paragraph_position="x"'),
    "bad-bytes.json": lambda _: b"\xff\xfe{",
    "deep-nesting.json": lambda _: b"[" * 100_000,
    "huge-int.json": lambda _: (
        b'{"tokens": ["a"], "nodes": [{"id": "r"}], "root": "r", '
        b'"edges": [{"parent": "r", "child": {"terminal": ' + b"1" * 5000 + b'}, "category": "C"}]}'
    ),
    "lone-surrogate.json": _json_graph(tokens=["a\ud800b"]),
    "terminal-without-text.xml": _figure_xml(' text="John"', ""),
    "edge-without-target.xml": _figure_xml('<edge toID="1.2" type="H">', '<edge type="H">'),
    "root-links-a-terminal.xml": _figure_xml(_H_EDGE, _H_EDGE + '<edge toID="0.1" type="Terminal"/>'),
    "document-not-an-object.json": lambda _: b"[1]",
    "root-not-a-string.json": _json_graph(root=1),
    "root-not-a-node.json": _json_graph(root="x"),
    "edges-not-a-list.json": _json_graph(edges={}),
    "nodes-not-a-list.json": _json_graph(nodes={"id": "r"}),
    "node-named-like-a-terminal.json": _json_graph(nodes=[{"id": "r"}, {"id": "u"}, {"id": "t1"}]),
    "edge-into-the-root.json": _json_graph(
        edges=[
            {"parent": "r", "child": "u", "category": "H"},
            {"parent": "u", "child": {"terminal": 1}, "category": "C"},
            {"parent": "u", "child": "r", "category": "A"},
        ]
    ),
}

# The message after the file name, for each file whose message does not
# depend on the Python version.
MESSAGES = {
    "bad-position.xml": "terminal '0.1': paragraph and position must be integers",
    "lone-surrogate.json": "tokens[0]: lone surrogate in 'a\\ud800b'",
    "terminal-without-text.xml": "terminal '0.1' lacks text or position",
    "edge-without-target.xml": "edge of unit '1.1' lacks toID or type",
    "root-links-a-terminal.xml": "root unit '1.1' may not link terminals directly",
    "document-not-an-object.json": "document root: expected a JSON object",
    "root-not-a-string.json": "root: expected a string node id",
    "root-not-a-node.json": "root 'x' is not in the node list",
    "edges-not-a-list.json": "edges: expected a list",
    "nodes-not-a-list.json": "nodes: expected a list",
    # JSON terminals are named t1..tn, so a node may not be.
    "node-named-like-a-terminal.json": "duplicate node id 't1'",
    "edge-into-the-root.json": "root 'r' has an incoming primary edge",
}


class TestMalformedFiles:
    """Inputs that once escaped as ValueError, UnicodeDecodeError or
    RecursionError, or that loaded and then failed to print (a token with
    a lone surrogate), and inputs that only one check of the readers
    rejects: each must be a GraphError naming the file, which a
    non-strict run skips and counts and the CLI reports with exit code 1."""

    @pytest.fixture(params=sorted(MALFORMED_FILES))
    def bad_file(self, request, tmp_path, figure_xml_path):
        path = tmp_path / request.param
        path.write_bytes(MALFORMED_FILES[request.param](figure_xml_path))
        return path

    def test_load_graph_names_the_file(self, bad_file):
        with pytest.raises(GraphError, match=re.escape(str(bad_file))):
            load_graph(bad_file)

    @pytest.mark.parametrize("name", sorted(MESSAGES))
    def test_load_graph_gives_the_exact_message(self, name, tmp_path, figure_xml_path):
        path = tmp_path / name
        path.write_bytes(MALFORMED_FILES[name](figure_xml_path))
        with pytest.raises(GraphError) as info:
            load_graph(path)
        assert str(info.value) == f"{path}: {MESSAGES[name]}"

    def test_lenient_evaluate_skips_and_counts(self, bad_file, tmp_path):
        records = load_dataset(write_synthetic_dataset(tmp_path / "corpus", n_segments=6, seed=5, noise=0.01))
        mixed = [dataclasses.replace(records[0], candidate_ucca=bad_file), *records[1:]]
        report = evaluate(mixed, SwssParams())
        assert report.skipped == 1
        assert report.n == {"xx-en": 5}

    def test_inspect_exits_one(self, bad_file, capsys):
        assert main(["inspect", str(bad_file)]) == 1
        assert str(bad_file) in capsys.readouterr().err


FIXTURE_BYTES = {fmt: (DATA_DIR / f"figure_sentence.{fmt}").read_bytes() for fmt in ("xml", "json")}


@st.composite
def byte_mutants(draw, fmt):
    """A figure fixture with a few bytes replaced, deleted or inserted."""
    return mutate_bytes(draw, FIXTURE_BYTES[fmt])


@st.composite
def xml_attribute_mutants(draw):
    """The XML fixture with one attribute value replaced."""
    text = FIXTURE_BYTES["xml"].decode("utf-8")
    spans = [m.span(1) for m in re.finditer(r'\w+="([^"]*)"', text)]
    start, end = draw(st.sampled_from(spans))
    value = draw(st.sampled_from(ODD_VALUES) | st.text(max_size=4))
    return (text[:start] + value + text[end:]).encode("utf-8", "surrogatepass")


@st.composite
def json_attribute_mutants(draw):
    """The JSON fixture with one value anywhere in the document replaced
    or its key removed."""
    document = json.loads(FIXTURE_BYTES["json"])
    mutate_json(draw, document)
    return json.dumps(document).encode("utf-8", "surrogatepass")


class TestJsonReference:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), rng=st.randoms(use_true_random=False))
    def test_agrees_with_reference_reader(self, data, rng):
        """The same graph as the replaced reader, or the same error, on
        random graphs written as JSON documents, half of them with one key
        removed or one value replaced."""
        graph = random_graph(rng, remote_prob=0.5)
        document = emit_json(graph)
        mutated = data.draw(st.booleans())
        if mutated:
            mutate_json(data.draw, document)
        lenient = data.draw(st.booleans())
        try:
            expected = graph_from_dict_reference(document, lenient)
        except GraphError as exc:
            with pytest.raises(GraphError) as info:
                graph_from_dict(document, lenient)
            if str(info.value) != str(exc):
                # The one message the topological peel words differently.
                assert "cycl" in str(exc) and "lies on a cycle" in str(info.value)
        else:
            assert graph_from_dict(document, lenient) == expected
            if not mutated:
                assert expected == graph


@pytest.fixture(scope="module")
def mutant_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants")


class TestIngestionFuzz:
    """Whatever a mutated fixture holds, only GraphError leaves the
    parsers, and ``swss inspect`` exits 0, or 1 with an error that names
    the file, never 2. Its output is encoded as UTF-8, as on a terminal,
    so text that cannot be encoded shows."""

    def check(self, directory, fmt, document):
        path = directory / f"mutant.{fmt}"
        path.write_bytes(document)
        for lenient in (False, True):
            with contextlib.suppress(GraphError):
                load_graph(path, lenient=lenient)
        for argv in (["inspect", str(path)], ["inspect", "--json", "--lenient", str(path)]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO(), encoding="utf-8")), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            assert code == 0 or code == 1 and str(path) in err.getvalue(), err.getvalue()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), fmt=st.sampled_from(["xml", "json"]))
    def test_byte_mutants(self, mutant_dir, data, fmt):
        self.check(mutant_dir, fmt, data.draw(byte_mutants(fmt)))

    @settings(max_examples=100, deadline=None)
    @given(document=xml_attribute_mutants())
    def test_xml_attribute_mutants(self, mutant_dir, document):
        self.check(mutant_dir, "xml", document)

    @settings(max_examples=100, deadline=None)
    @given(document=json_attribute_mutants())
    def test_json_attribute_mutants(self, mutant_dir, document):
        self.check(mutant_dir, "json", document)
