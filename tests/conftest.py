from pathlib import Path

import pytest
from hypothesis import strategies as st

from swss.core_words import CoreWord, CoreWordBag
from swss.ucca_graph import Category, Edge, Terminal, build_graph, parse_ucca_json, parse_ucca_xml

DATA_DIR = Path(__file__).parent / "data"

# Values that parse as something in one field and mean nothing in another.
ODD_VALUES = ["", "0", "-1", "1", "9", "10", "x", "1.5", "1e3", "99999999999999999999", "true", "false",
              "H", "A", "P", "Terminal", "FN", "Word", "1.1", "1.2", "0.1", "0.9", "t1", "top", "scene",
              "a\ud800b"]

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats() | st.sampled_from(ODD_VALUES) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["id", "terminal", "x"]), inner, max_size=2),
    max_leaves=4,
)


def mutate_bytes(draw, data):
    """``data`` with a few bytes replaced, deleted or inserted."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data) - 1))
        op = draw(st.sampled_from(["replace", "delete", "insert"]))
        if op == "replace":
            data[at] = draw(st.integers(0, 255))
        elif op == "delete":
            del data[at]
        else:
            data.insert(at, draw(st.integers(0, 255)))
    return bytes(data)


def mutate_json(draw, document):
    """Replace one value anywhere in a decoded JSON document, or remove
    its key."""
    slots = []

    def collect(node):
        keys = node.keys() if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
        for key in keys:
            slots.append((node, key))
            collect(node[key])

    collect(document)
    node, key = draw(st.sampled_from(slots))
    if isinstance(node, dict) and draw(st.booleans()):
        del node[key]
    else:
        node[key] = draw(_json_values)


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
