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
from operator import attrgetter, itemgetter
from typing import Iterable, NamedTuple, Union

from .errors import GraphError

__all__ = [
    "Category",
    "Terminal",
    "Edge",
    "UccaGraph",
    "build_graph",
    "parse_ucca_xml",
    "parse_ucca_json",
    "graph_from_dict",
    "emit_json",
    "load_graph",
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

    # Members are singletons and compare by identity, so the identity hash
    # agrees with equality; Enum's own hash hashes the name in Python code.
    __hash__ = object.__hash__


_CATEGORY_BY_CODE = {c.value: c for c in Category}

# A unit is a scene when its main relation is a process or a state.
SCENE_CATEGORIES = frozenset({Category.PROCESS, Category.STATE})

# Edges toward critical semantic roles: scene main relations plus participants.
CRITICAL_CATEGORIES = frozenset({Category.PROCESS, Category.STATE, Category.PARTICIPANT})


def _category(code: str, parent: str, child: str) -> Category:
    try:
        return _CATEGORY_BY_CODE[code]
    except KeyError:
        raise GraphError(f"unknown category code {code!r} on edge {parent!r} -> {child!r}") from None


# Terminal and Edge are named tuples: cheap to build, immutable and
# hashable. Like any tuple they compare equal to the plain tuple of their
# fields; two values of one type compare field by field.
class Terminal(NamedTuple):
    """A word token; ``position`` is its 1-based place in the sentence."""

    id: str
    text: str
    position: int


class Edge(NamedTuple):
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
        return self._counts[0]

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
        return self._counts[2 if include_remote else 1]

    @cached_property
    def _counts(self) -> tuple[int, int, int]:
        """The scene count, and the critical-edge count without and with
        remote edges, from one pass over the edges."""
        # Every scene category is critical, so scenes are found among the
        # critical primary edges.
        internal = self.internal_nodes
        scenes = set()
        critical = remote_critical = 0
        for parent, _, category, remote in self.edges:
            if category in CRITICAL_CATEGORIES:
                if remote:
                    remote_critical += 1
                else:
                    critical += 1
                    if category in SCENE_CATEGORIES and parent in internal:
                        scenes.add(parent)
        return len(scenes), critical, critical + remote_critical


_BY_POSITION = attrgetter("position")
# Enum's ``value`` is a Python-level property; ``_value_`` is a plain attribute.
_EDGE_ORDER = attrgetter("remote", "parent", "child", "category._value_")


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
    terminals = tuple(sorted(terminals, key=_BY_POSITION))
    internal = frozenset(internal_nodes) - {root}
    terminal_ids = [t.id for t in terminals]

    seen = {root, *internal, *terminal_ids}
    if len(seen) < 1 + len(internal) + len(terminal_ids):
        seen = set()
        for node_id in [root, *internal, *terminal_ids]:
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

    is_terminal = set(terminal_ids)
    kept: list[Edge] = []
    primary_parent: dict[str, str] = {}
    n_remote = 0
    indegree = dict.fromkeys(seen, 0)
    successors: dict[str, list[str]] = defaultdict(list)
    for e in edges:
        parent, child, _, remote = e
        if parent == child:
            raise GraphError(f"self-loop on node {parent!r}")
        if parent not in seen or child not in seen:
            if remote and lenient:
                continue
            missing = parent if parent not in seen else child
            raise GraphError(f"edge {parent!r} -> {child!r} references unknown node {missing!r}")
        if parent in is_terminal:
            raise GraphError(f"terminal {parent!r} cannot have outgoing edges")
        kept.append(e)
        indegree[child] += 1
        successors[parent].append(child)
        if remote:
            n_remote += 1
        else:
            primary_parent[child] = parent
    kept.sort(key=_EDGE_ORDER)

    if root in primary_parent:
        raise GraphError(f"root {root!r} has an incoming primary edge")
    # One primary parent per node but the root, unless a child was seen
    # twice or a node never: then find the first offender in id order.
    if not len(primary_parent) == len(kept) - n_remote == len(seen) - 1:
        primary_parents: dict[str, list[str]] = defaultdict(list)
        for e in kept:
            if not e.remote:
                primary_parents[e.child].append(e.parent)
        for node_id in sorted(internal) + terminal_ids:
            n_parents = len(primary_parents.get(node_id, ()))
            if n_parents == 0:
                kind = "terminal" if node_id in is_terminal else "node"
                raise GraphError(f"{kind} {node_id!r} has no incoming primary edge")
            if n_parents > 1:
                raise GraphError(
                    f"node {node_id!r} has multiple primary parents: "
                    + ", ".join(repr(p) for p in sorted(primary_parents[node_id]))
                )
    # Parents are never terminals, so they are all present exactly when
    # there are as many as the root plus the internal nodes.
    with_children = set(primary_parent.values())
    if len(with_children) <= len(internal):
        for node_id in [root, *sorted(internal)]:
            if node_id not in with_children:
                raise GraphError(f"internal node {node_id!r} has no primary children")

    # With one primary parent per node, the primary edges form a tree
    # exactly when no edge, primary or remote, closes a cycle. Peel the
    # nodes in topological order: one left over lies on or below a cycle.
    # Only the root lacks a primary parent, so only it can start the peel.
    peeled = [] if indegree[root] else [root]
    for node in peeled:
        for child in successors.get(node, ()):
            indegree[child] -= 1
            if not indegree[child]:
                peeled.append(child)
    if len(peeled) < len(indegree):
        stuck = min(node for node, degree in indegree.items() if degree)
        raise GraphError(f"node {stuck!r} lies on a cycle or below one")

    return UccaGraph(root=root, terminals=terminals, internal_nodes=internal, edges=tuple(kept))


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
    unit_edges: dict[str, list[tuple[str, Category, bool]]] = {}
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
                out = unit_edges.setdefault(node_id, [])
                for edge in node.findall("edge"):
                    to_id = edge.get("toID")
                    tag = edge.get("type")
                    if to_id is None or tag is None:
                        raise GraphError(f"edge of unit {node_id!r} lacks toID or type")
                    if tag == "Terminal":
                        term_links[node_id].append(to_id)
                        continue
                    edge_attrs = edge.find("attributes")
                    remote = edge_attrs is not None and _xml_flag(edge_attrs.get("remote"))
                    out.append((to_id, _category(tag, node_id, to_id), remote))

    if not terminal_entries:
        raise GraphError("no terminals in layer 0")
    terminal_entries.sort(key=_PARAGRAPH_ORDER)
    terminals = [
        Terminal(node_id, text, position)
        for position, (_, _, node_id, text) in enumerate(terminal_entries, start=1)
    ]
    terminal_ids = {t.id for t in terminals}

    if implicit:
        for node_id in implicit:
            unit_edges.pop(node_id, None)
            term_links.pop(node_id, None)
        for node_id in unit_edges:
            unit_edges[node_id] = [e for e in unit_edges[node_id] if e[0] not in implicit]

    incoming_primary: dict[str, tuple[str, Category]] = {}
    for parent, edge_list in unit_edges.items():
        for child, category, remote in edge_list:
            if remote:
                continue
            if child in incoming_primary:
                raise GraphError(f"unit {child!r} has multiple primary parents")
            incoming_primary[child] = (parent, category)

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
        parent, category = incoming_primary[unit]
        if unit_edges.get(unit):
            # Mixed unit: keep it, attach its words below it with the
            # category of its own incoming edge (lowest containing unit).
            for to_id in linked:
                edges.append(Edge(unit, to_id, category))
            continue
        collapsed.add(unit)
        for to_id in linked:
            edges.append(Edge(parent, to_id, category))

    for parent, edge_list in unit_edges.items():
        if parent in collapsed:
            continue
        for child, category, remote in edge_list:
            if child in collapsed:
                if not remote:
                    continue  # replaced by the collapsed terminal edge
                for to_id in term_links[child]:
                    edges.append(Edge(parent, to_id, category, True))
            else:
                edges.append(Edge(parent, child, category, remote))

    internal = set(unit_edges) - collapsed - {root_id}
    return build_graph(root_id, terminals, internal, edges, lenient=lenient)


_PARAGRAPH_ORDER = itemgetter(0, 1)


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
    except ValueError as exc:
        raise GraphError(f"malformed JSON: {exc}") from None
    except RecursionError:
        raise GraphError("malformed JSON: nested too deeply") from None
    return graph_from_dict(obj, lenient=lenient)


_DOCUMENT_KEYS = frozenset({"tokens", "nodes", "edges", "root"})
_EDGE_KEYS = frozenset({"parent", "child", "category", "remote"})


def graph_from_dict(obj: object, lenient: bool = False) -> UccaGraph:
    """Build a graph from an already-decoded JSON mirror document.

    Fields are checked in document order; the first problem raises
    :class:`GraphError`. Messages are worded only when a check fails.
    """
    if not isinstance(obj, dict):
        raise GraphError("document root: expected a JSON object")
    if obj.keys() != _DOCUMENT_KEYS:
        unknown = set(obj) - _DOCUMENT_KEYS
        if unknown:
            raise GraphError(f"unknown field {sorted(unknown)[0]!r}")
        missing = next(key for key in ("tokens", "nodes", "edges", "root") if key not in obj)
        raise GraphError(f"missing field {missing!r}")

    tokens = obj["tokens"]
    if not isinstance(tokens, list):
        raise GraphError("tokens: expected a list of strings")
    try:
        "".join(tokens).encode()
    except TypeError:
        raise GraphError("tokens: expected a list of strings") from None
    except UnicodeEncodeError:
        for i, text in enumerate(tokens):
            try:
                text.encode()
            except UnicodeEncodeError:
                raise GraphError(f"tokens[{i}]: lone surrogate in {text!r}") from None
    n_tokens = len(tokens)
    # terminal_ids[i] is the id of the word at position i; index 0 is unused.
    terminal_ids = [f"t{i}" for i in range(n_tokens + 1)]
    terminals = list(map(Terminal, terminal_ids[1:], tokens, range(1, n_tokens + 1)))

    nodes = obj["nodes"]
    if not isinstance(nodes, list):
        raise GraphError("nodes: expected a list")
    if not nodes:
        raise GraphError("no root: the node list is empty")
    node_ids: set[str] = set()
    for i, entry in enumerate(nodes):
        node_id = entry.get("id") if isinstance(entry, dict) else None
        if not isinstance(node_id, str) or not node_id:
            raise GraphError(f"nodes[{i}]: expected an object with a non-empty string 'id'")
        if len(entry) != 1:
            raise GraphError(f"nodes[{i}]: unknown field {sorted(set(entry) - {'id'})[0]!r}")
        if node_id in node_ids:
            raise GraphError(f"duplicate node id {node_id!r}")
        node_ids.add(node_id)

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
        if not isinstance(entry, dict):
            raise GraphError(f"edges[{i}]: expected an object")
        if not entry.keys() <= _EDGE_KEYS:
            raise GraphError(f"edges[{i}]: unknown field {sorted(set(entry) - _EDGE_KEYS)[0]!r}")
        parent = entry.get("parent")
        if not isinstance(parent, str):
            raise GraphError(f"edges[{i}].parent: expected a string node id")
        child = entry.get("child")
        if isinstance(child, dict):
            pos = child.get("terminal")
            if len(child) != 1 or not isinstance(pos, int) or isinstance(pos, bool):
                raise GraphError(f"edges[{i}].child: expected {{'terminal': <position>}}")
            if not 1 <= pos <= n_tokens:
                raise GraphError(f"edges[{i}].child: terminal position {pos} out of range")
            child = terminal_ids[pos]
        elif not isinstance(child, str):
            raise GraphError(f"edges[{i}].child: expected a node id or {{'terminal': <position>}}")
        code = entry.get("category")
        if not isinstance(code, str):
            raise GraphError(f"edges[{i}].category: expected a string")
        category = _CATEGORY_BY_CODE.get(code) or _category(code, parent, child)
        remote = entry.get("remote", False)
        if not isinstance(remote, bool):
            raise GraphError(f"edges[{i}].remote: expected a boolean")
        edges.append(Edge(parent, child, category, remote))

    node_ids.discard(root)
    return build_graph(root, terminals, node_ids, edges, lenient=lenient)


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

