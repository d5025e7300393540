"""UCCA graph model, ingestion, and structural queries.

A graph is a rooted DAG: the primary (non-remote) edges form a tree whose
leaves are exactly the sentence terminals, and remote edges add secondary
roles without ever creating cycles. Graphs are immutable once built and
safe to share between threads.

Two wire formats are supported: the standard passage XML produced by UCCA
annotation tooling (layer 0 terminals, layer 1 foundational units), and a
compact JSON mirror that is convenient to write by hand and round-trips
losslessly (see ``emit_json``).
"""

import json
import xml.etree.ElementTree as ElementTree
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Union

from .errors import GraphError

__all__ = [
    "Category",
    "Terminal",
    "Edge",
    "UccaGraph",
    "build_graph",
    "parse_ucca_xml",
    "parse_ucca_json",
    "parse_ucca_json_stream",
    "graph_from_dict",
    "emit_json",
    "load_graph",
    "isomorphic",
    "SCENE_CATEGORIES",
    "CRITICAL_CATEGORIES",
]


class Category(Enum):
    """Edge labels of the UCCA foundational layer."""

    PARALLEL_SCENE = "H"
    PARTICIPANT = "A"
    PROCESS = "P"
    STATE = "S"
    CENTER = "C"
    CONNECTOR = "N"
    ELABORATOR = "E"
    ADVERBIAL = "D"
    RELATOR = "R"
    FUNCTION = "F"
    GROUND = "G"
    LINKER = "L"
    PUNCTUATION = "U"


# A unit is a scene when its main relation is a process or a state.
SCENE_CATEGORIES = frozenset({Category.PROCESS, Category.STATE})

# Edges toward critical semantic roles: scene main relations plus participants.
CRITICAL_CATEGORIES = frozenset({Category.PROCESS, Category.STATE, Category.PARTICIPANT})


def _category(code: str, where: str) -> Category:
    try:
        return Category(code)
    except ValueError:
        raise GraphError(f"unknown category code {code!r} on {where}") from None


@dataclass(frozen=True)
class Terminal:
    """A word token; ``position`` is its 1-based place in the sentence."""

    id: str
    text: str
    position: int


@dataclass(frozen=True)
class Edge:
    """A labeled parent -> child link; ``remote`` marks secondary roles."""

    parent: str
    child: str
    category: Category
    remote: bool = False


@dataclass(frozen=True)
class UccaGraph:
    """Validated, immutable UCCA graph.

    ``internal_nodes`` never contains the root; total node count is
    terminals + internal nodes + the root. Construct through
    :func:`build_graph` or one of the parsers, which enforce the
    structural invariants.
    """

    root: str
    terminals: tuple[Terminal, ...]
    internal_nodes: frozenset[str]
    edges: tuple[Edge, ...]

    @cached_property
    def _terminal_by_id(self) -> dict[str, Terminal]:
        return {t.id: t for t in self.terminals}

    @cached_property
    def _incoming_primary(self) -> dict[str, Edge]:
        return {e.child: e for e in self.edges if not e.remote}

    @cached_property
    def _primary_children(self) -> dict[str, list[Edge]]:
        children: dict[str, list[Edge]] = defaultdict(list)
        for e in self.edges:
            if not e.remote:
                children[e.parent].append(e)
        return dict(children)

    def tokens(self) -> list[str]:
        """Terminal texts in sentence order."""
        return [t.text for t in self.terminals]

    def lowest_label(self, terminal_id: str) -> Category:
        """Category of the terminal's unique incoming primary edge.

        This is the most basic semantic role of the word; remote edges are
        never consulted.
        """
        if terminal_id not in self._terminal_by_id:
            raise GraphError(f"{terminal_id!r} is not a terminal of this graph")
        return self._incoming_primary[terminal_id].category

    def count_scenes(self) -> int:
        """Number of internal units whose main relation is a process or state."""
        scenes = {
            e.parent
            for e in self.edges
            if not e.remote and e.category in SCENE_CATEGORIES and e.parent in self.internal_nodes
        }
        return len(scenes)

    def count_nodes(self) -> int:
        """Total node count: terminals + internal units + the root.

        Remote reentrancy never adds nodes, so this is invariant under
        remote-edge insertion.
        """
        return len(self.terminals) + len(self.internal_nodes) + 1

    def count_critical_edges(self, include_remote: bool = False) -> int:
        """Number of edges labeled P, S, or A.

        Remote edges are excluded by default; pass ``include_remote=True``
        to count secondary participant links as well.
        """
        return sum(
            1
            for e in self.edges
            if e.category in CRITICAL_CATEGORIES and (include_remote or not e.remote)
        )


def build_graph(
    root: str,
    terminals: Iterable[Terminal],
    internal_nodes: Iterable[str],
    edges: Iterable[Edge],
    lenient: bool = False,
) -> UccaGraph:
    """Validate the parts and assemble a graph.

    Raises :class:`GraphError` on any structural violation. With
    ``lenient=True``, remote edges whose endpoints are missing are dropped
    instead of rejected (real parser output is imperfect); every other
    check stays strict.
    """
    terminals = tuple(sorted(terminals, key=lambda t: t.position))
    internal = frozenset(internal_nodes) - {root}

    seen: set[str] = set()
    for node_id in [root, *internal, *(t.id for t in terminals)]:
        if node_id in seen:
            raise GraphError(f"duplicate node id {node_id!r}")
        seen.add(node_id)

    for i, t in enumerate(terminals, start=1):
        if not t.text:
            raise GraphError(f"terminal {t.id!r} has empty text")
        if t.position != i:
            raise GraphError(
                f"terminal positions must form a contiguous 1..n sequence; "
                f"got position {t.position} where {i} was expected (terminal {t.id!r})"
            )

    terminal_ids = {t.id for t in terminals}
    kept: list[Edge] = []
    for e in edges:
        if e.parent == e.child:
            raise GraphError(f"self-loop on node {e.parent!r}")
        dangling = e.parent not in seen or e.child not in seen
        if dangling:
            if e.remote and lenient:
                continue
            missing = e.parent if e.parent not in seen else e.child
            raise GraphError(f"edge {e.parent!r} -> {e.child!r} references unknown node {missing!r}")
        if e.parent in terminal_ids:
            raise GraphError(f"terminal {e.parent!r} cannot have outgoing edges")
        kept.append(e)
    kept.sort(key=lambda e: (e.remote, e.parent, e.child, e.category.value))

    primary_parents: dict[str, list[str]] = defaultdict(list)
    children: dict[str, list[str]] = defaultdict(list)
    for e in kept:
        if not e.remote:
            primary_parents[e.child].append(e.parent)
            children[e.parent].append(e.child)

    if root in primary_parents:
        raise GraphError(f"root {root!r} has an incoming primary edge")
    for node_id in sorted(internal) + [t.id for t in terminals]:
        n_parents = len(primary_parents.get(node_id, ()))
        if n_parents == 0:
            kind = "terminal" if node_id in terminal_ids else "node"
            raise GraphError(f"{kind} {node_id!r} has no incoming primary edge")
        if n_parents > 1:
            raise GraphError(
                f"node {node_id!r} has multiple primary parents: "
                + ", ".join(repr(p) for p in sorted(primary_parents[node_id]))
            )
    for node_id in [root, *sorted(internal)]:
        if not children.get(node_id):
            raise GraphError(f"internal node {node_id!r} has no primary children")

    # Single primary parent everywhere + reachability makes the primary
    # subgraph a tree; anything unreached indicates a cycle.
    reached = {root}
    stack = [root]
    while stack:
        for child in children.get(stack.pop(), ()):
            if child not in reached:
                reached.add(child)
                stack.append(child)
    unreached = (internal | terminal_ids) - reached
    if unreached:
        raise GraphError(
            f"node {sorted(unreached)[0]!r} is not reachable from the root "
            "via primary edges (cyclic or disconnected)"
        )

    _check_acyclic(root, internal | terminal_ids, kept)
    return UccaGraph(root=root, terminals=terminals, internal_nodes=internal, edges=tuple(kept))


def _check_acyclic(root: str, others: set[str], edges: list[Edge]) -> None:
    out: dict[str, list[str]] = defaultdict(list)
    for e in edges:
        out[e.parent].append(e.child)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in [root, *sorted(others)]}
    for start in color:
        if color[start] != WHITE:
            continue
        stack: list[tuple[str, int]] = [(start, 0)]
        color[start] = GRAY
        while stack:
            node, idx = stack[-1]
            succs = out.get(node, ())
            if idx == len(succs):
                color[node] = BLACK
                stack.pop()
                continue
            stack[-1] = (node, idx + 1)
            nxt = succs[idx]
            if color[nxt] == GRAY:
                raise GraphError(f"remote edge into {nxt!r} creates a cycle")
            if color[nxt] == WHITE:
                color[nxt] = GRAY
                stack.append((nxt, 0))


# --------------------------------------------------------------------------
# Standard passage XML


def parse_ucca_xml(document: Union[bytes, str], lenient: bool = False) -> UccaGraph:
    """Parse a passage in the standard UCCA XML format.

    Layer 0 supplies the terminals, layer 1 the foundational units. The
    "Terminal" linkage edges are collapsed so that each word's incoming
    primary edge carries the category of the edge into its lowest
    containing unit; remote edges into a collapsed unit are re-pointed at
    its terminals. Units marked implicit have no surface content and are
    dropped together with their incident edges.
    """
    try:
        root_el = ElementTree.fromstring(document)
    except ElementTree.ParseError as exc:
        raise GraphError(f"malformed XML: {exc}") from None

    terminal_entries: list[tuple[int, int, str, str]] = []
    unit_edges: dict[str, list[tuple[str, str, bool]]] = {}
    term_links: dict[str, list[str]] = defaultdict(list)
    implicit: set[str] = set()

    for layer in root_el.iter("layer"):
        layer_id = layer.get("layerID")
        if layer_id == "0":
            for node in layer.iter("node"):
                node_id = node.get("ID")
                attrs = node.find("attributes")
                if node_id is None or attrs is None:
                    raise GraphError("layer 0 node without ID or attributes")
                text = attrs.get("text")
                pos = attrs.get("paragraph_position")
                if text is None or pos is None:
                    raise GraphError(f"terminal {node_id!r} lacks text or position")
                try:
                    para = int(attrs.get("paragraph", "1"))
                    position = int(pos)
                except ValueError:
                    raise GraphError(f"terminal {node_id!r}: paragraph and position must be integers") from None
                terminal_entries.append((para, position, node_id, text))
        elif layer_id == "1":
            for node in layer.iter("node"):
                node_id = node.get("ID")
                if node_id is None:
                    raise GraphError("layer 1 node without ID")
                attrs = node.find("attributes")
                if attrs is not None and _xml_flag(attrs.get("implicit")):
                    implicit.add(node_id)
                unit_edges.setdefault(node_id, [])
                for edge in node.findall("edge"):
                    to_id = edge.get("toID")
                    tag = edge.get("type")
                    if to_id is None or tag is None:
                        raise GraphError(f"edge of unit {node_id!r} lacks toID or type")
                    edge_attrs = edge.find("attributes")
                    remote = edge_attrs is not None and _xml_flag(edge_attrs.get("remote"))
                    if tag == "Terminal":
                        term_links[node_id].append(to_id)
                    else:
                        _category(tag, f"edge {node_id!r} -> {to_id!r}")
                        unit_edges[node_id].append((to_id, tag, remote))

    if not terminal_entries:
        raise GraphError("no terminals in layer 0")
    terminal_entries.sort(key=lambda entry: (entry[0], entry[1]))
    terminals = []
    for position, (_, _, node_id, text) in enumerate(terminal_entries, start=1):
        terminals.append(Terminal(id=node_id, text=text, position=position))
    terminal_ids = {t.id for t in terminals}

    for node_id in implicit:
        unit_edges.pop(node_id, None)
        term_links.pop(node_id, None)
    for node_id in unit_edges:
        unit_edges[node_id] = [e for e in unit_edges[node_id] if e[0] not in implicit]

    incoming_primary: dict[str, tuple[str, str]] = {}
    for parent, edge_list in unit_edges.items():
        for child, tag, remote in edge_list:
            if remote:
                continue
            if child in incoming_primary:
                raise GraphError(f"unit {child!r} has multiple primary parents")
            incoming_primary[child] = (parent, tag)

    roots = [n for n in unit_edges if n not in incoming_primary]
    if not roots:
        raise GraphError("no root unit found (cyclic primary edges?)")
    if len(roots) > 1:
        raise GraphError("multiple root units: " + ", ".join(repr(r) for r in sorted(roots)))
    root_id = roots[0]

    for parent, linked in term_links.items():
        for to_id in linked:
            if to_id not in terminal_ids:
                raise GraphError(f"unit {parent!r} links to unknown terminal {to_id!r}")

    # Collapse pure preterminals: a unit whose only outgoing edges are
    # terminal links disappears, and its words take over the category of
    # its incoming primary edge (this also realizes the rule that every
    # word of an unanalyzable unit receives the unit's label).
    collapsed: set[str] = set()
    edges: list[Edge] = []
    for unit, linked in sorted(term_links.items()):
        if unit == root_id:
            raise GraphError(f"root unit {root_id!r} may not link terminals directly")
        if unit not in incoming_primary:
            raise GraphError(f"unit {unit!r} links terminals but has no incoming primary edge")
        parent, tag = incoming_primary[unit]
        if unit_edges.get(unit):
            # Mixed unit: keep it, attach its words below it with the
            # category of its own incoming edge (lowest containing unit).
            for to_id in linked:
                edges.append(Edge(unit, to_id, Category(tag)))
            continue
        collapsed.add(unit)
        for to_id in linked:
            edges.append(Edge(parent, to_id, Category(tag)))

    for parent, edge_list in unit_edges.items():
        if parent in collapsed:
            continue
        for child, tag, remote in edge_list:
            if child in collapsed:
                if not remote:
                    continue  # replaced by the collapsed terminal edge
                for to_id in term_links[child]:
                    edges.append(Edge(parent, to_id, Category(tag), remote=True))
            else:
                edges.append(Edge(parent, child, Category(tag), remote=remote))

    internal = set(unit_edges) - collapsed - {root_id}
    return build_graph(root_id, terminals, internal, edges, lenient=lenient)


def _xml_flag(value: Union[str, None]) -> bool:
    return value is not None and value.lower() in {"true", "1", "yes"}


# --------------------------------------------------------------------------
# JSON mirror format


def parse_ucca_json(document: Union[bytes, str], lenient: bool = False) -> UccaGraph:
    """Parse the JSON mirror format.

    Schema: ``{"tokens": [str], "nodes": [{"id": str}], "edges":
    [{"parent": str, "child": str | {"terminal": int}, "category": str,
    "remote": bool}], "root": str}``. Terminals are addressed by 1-based
    position and get synthesized ids ``t1..tn``.
    """
    try:
        obj = json.loads(document)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise GraphError(f"malformed JSON: {exc}") from None
    except RecursionError:
        raise GraphError("malformed JSON: nested too deeply") from None
    return graph_from_dict(obj, lenient=lenient)


def graph_from_dict(obj: object, lenient: bool = False) -> UccaGraph:
    """Build a graph from an already-decoded JSON mirror document."""
    if not isinstance(obj, dict):
        raise GraphError("document root: expected a JSON object")
    unknown = set(obj) - {"tokens", "nodes", "edges", "root"}
    if unknown:
        raise GraphError(f"unknown field {sorted(unknown)[0]!r}")
    for key in ("tokens", "nodes", "edges", "root"):
        if key not in obj:
            raise GraphError(f"missing field {key!r}")

    tokens = obj["tokens"]
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise GraphError("tokens: expected a list of strings")
    terminals = [Terminal(id=f"t{i}", text=text, position=i) for i, text in enumerate(tokens, 1)]

    nodes = obj["nodes"]
    if not isinstance(nodes, list):
        raise GraphError("nodes: expected a list")
    if not nodes:
        raise GraphError("no root: the node list is empty")
    node_ids: list[str] = []
    for i, entry in enumerate(nodes):
        if not isinstance(entry, dict) or not isinstance(entry.get("id"), str) or not entry["id"]:
            raise GraphError(f"nodes[{i}]: expected an object with a non-empty string 'id'")
        if entry["id"] in node_ids:
            raise GraphError(f"duplicate node id {entry['id']!r}")
        node_ids.append(entry["id"])

    root = obj["root"]
    if not isinstance(root, str):
        raise GraphError("root: expected a string node id")
    if root not in node_ids:
        raise GraphError(f"root {root!r} is not in the node list")

    raw_edges = obj["edges"]
    if not isinstance(raw_edges, list):
        raise GraphError("edges: expected a list")
    edges: list[Edge] = []
    for i, entry in enumerate(raw_edges):
        where = f"edges[{i}]"
        if not isinstance(entry, dict):
            raise GraphError(f"{where}: expected an object")
        unknown = set(entry) - {"parent", "child", "category", "remote"}
        if unknown:
            raise GraphError(f"{where}: unknown field {sorted(unknown)[0]!r}")
        parent = entry.get("parent")
        if not isinstance(parent, str):
            raise GraphError(f"{where}.parent: expected a string node id")
        child = entry.get("child")
        if isinstance(child, dict):
            pos = child.get("terminal")
            if set(child) != {"terminal"} or not isinstance(pos, int) or isinstance(pos, bool):
                raise GraphError(f"{where}.child: expected {{'terminal': <position>}}")
            if not 1 <= pos <= len(terminals):
                raise GraphError(f"{where}.child: terminal position {pos} out of range")
            child_id = f"t{pos}"
        elif isinstance(child, str):
            child_id = child
        else:
            raise GraphError(f"{where}.child: expected a node id or {{'terminal': <position>}}")
        code = entry.get("category")
        if not isinstance(code, str):
            raise GraphError(f"{where}.category: expected a string")
        category = _category(code, f"edge {parent!r} -> {child_id!r}")
        remote = entry.get("remote", False)
        if not isinstance(remote, bool):
            raise GraphError(f"{where}.remote: expected a boolean")
        edges.append(Edge(parent, child_id, category, remote=remote))

    internal = set(node_ids) - {root}
    return build_graph(root, terminals, internal, edges, lenient=lenient)


def parse_ucca_json_stream(document: Union[bytes, str], lenient: bool = False) -> Iterator[UccaGraph]:
    """Parse a newline-delimited stream of JSON graphs, one per line."""
    if isinstance(document, bytes):
        document = document.decode("utf-8")
    for lineno, line in enumerate(document.splitlines(), 1):
        if not line.strip():
            continue
        try:
            yield parse_ucca_json(line, lenient=lenient)
        except GraphError as exc:
            raise GraphError(f"line {lineno}: {exc}") from None


def emit_json(graph: UccaGraph) -> dict:
    """Serialize a graph to the JSON mirror schema (see parse_ucca_json)."""
    terminal_pos = {t.id: t.position for t in graph.terminals}

    def child_ref(node_id: str) -> Union[str, dict]:
        if node_id in terminal_pos:
            return {"terminal": terminal_pos[node_id]}
        return node_id

    return {
        "tokens": graph.tokens(),
        "nodes": [{"id": n} for n in [graph.root, *sorted(graph.internal_nodes)]],
        "root": graph.root,
        "edges": [
            {
                "parent": e.parent,
                "child": child_ref(e.child),
                "category": e.category.value,
                "remote": e.remote,
            }
            for e in graph.edges
        ],
    }


def load_graph(path, lenient: bool = False) -> UccaGraph:
    """Read one graph from ``path``, sniffing XML vs JSON from the content."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        if data.lstrip()[:1] == b"<":
            return parse_ucca_xml(data, lenient=lenient)
        return parse_ucca_json(data, lenient=lenient)
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from None


# --------------------------------------------------------------------------
# Structural comparison


def isomorphic(a: UccaGraph, b: UccaGraph) -> bool:
    """True when the graphs are equal up to renaming of node ids.

    Terminal positions and texts, edge categories, remote flags, and the
    shape of the primary tree must all agree.
    """
    return _canonical_form(a) == _canonical_form(b)


def _canonical_form(graph: UccaGraph):
    children = graph._primary_children
    terminal = graph._terminal_by_id
    paths: dict[str, tuple[int, ...]] = {}

    def min_position(node_id: str) -> int:
        if node_id in terminal:
            return terminal[node_id].position
        return min(min_position(e.child) for e in children[node_id])

    def signature(node_id: str, path: tuple[int, ...]):
        paths[node_id] = path
        if node_id in terminal:
            t = terminal[node_id]
            return ("t", t.position, t.text)
        ordered = sorted(children[node_id], key=lambda e: min_position(e.child))
        return (
            "n",
            tuple(
                (e.category.value, signature(e.child, path + (i,)))
                for i, e in enumerate(ordered)
            ),
        )

    tree = signature(graph.root, ())
    remotes = frozenset(
        (paths[e.parent], paths[e.child], e.category.value)
        for e in graph.edges
        if e.remote
    )
    return tree, remotes
