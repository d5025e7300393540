from pathlib import Path

import pytest

from swss.core_words import CoreWord, CoreWordBag
from swss.ucca_graph import Category, Edge, Terminal, build_graph, parse_ucca_json, parse_ucca_xml

DATA_DIR = Path(__file__).parent / "data"


def make_graph(tokens, edges, lenient=False):
    """Terse graph builder for tests.

    ``edges`` holds (parent, child, category_code) or (parent, child,
    category_code, remote) tuples, with integer children meaning terminal
    positions. Node set and root are inferred from the edges.
    """
    document = {
        "tokens": list(tokens),
        "nodes": [],
        "edges": [],
        "root": None,
    }
    node_ids = []
    children = set()
    for entry in edges:
        parent, child, code = entry[0], entry[1], entry[2]
        remote = bool(entry[3]) if len(entry) > 3 else False
        if parent not in node_ids:
            node_ids.append(parent)
        if isinstance(child, int):
            child_ref = {"terminal": child}
        else:
            child_ref = child
            if child not in node_ids:
                node_ids.append(child)
            if not remote:
                children.add(child)
        document["edges"].append(
            {"parent": parent, "child": child_ref, "category": code, "remote": remote}
        )
    document["nodes"] = [{"id": n} for n in node_ids]
    roots = [n for n in node_ids if n not in children]
    document["root"] = roots[0] if roots else node_ids[0]
    from swss.ucca_graph import graph_from_dict

    return graph_from_dict(document, lenient=lenient)


def bag_of_stems(stems, label=Category.CENTER):
    """A core-word bag straight from stem strings, each word its own
    surface form, in the given order, all with one label."""
    return CoreWordBag(tuple(CoreWord(s, s, i, label) for i, s in enumerate(stems, start=1)))


@pytest.fixture(scope="session")
def figure_xml_path():
    return DATA_DIR / "figure_sentence.xml"


@pytest.fixture(scope="session")
def figure_json_path():
    return DATA_DIR / "figure_sentence.json"


@pytest.fixture(scope="session")
def figure_graph(figure_xml_path):
    return parse_ucca_xml(figure_xml_path.read_bytes())


@pytest.fixture(scope="session")
def figure_graph_json(figure_json_path):
    return parse_ucca_json(figure_json_path.read_bytes())


@pytest.fixture(scope="session")
def minimal_graph():
    # Single-token sentence under a lone H/C chain.
    return build_graph(
        "r",
        [Terminal(id="t1", text="Hello", position=1)],
        ["u"],
        [Edge("r", "u", Category.PARALLEL_SCENE), Edge("u", "t1", Category.CENTER)],
    )
