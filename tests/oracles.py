"""Independent reference implementations used only as test oracles.

The matching oracles are exhaustive subset searches, the BLEU oracle uses
explicit n-gram lists and the product form of the geometric mean, the
correlation oracle uses the raw-moment formula, and the isomorphism check
compares canonical forms of the primary tree. The graph-validation,
XML-parsing, JSON-reading, stemming and scoring oracles are the slower
paths the library replaced (a reachability walk plus a three-colour DFS,
the XML parser built on it, the document reader that checks every field
in order, the buffer-based stemmer, scoring straight from graphs), which
the fast paths must agree with bit for bit. The evaluation and
grid-search oracles load both graphs of every record, score them with
the scoring oracle, and build each language pair's combined metric and
its mean with loops of their own, at every grid point. They call the
library's public ``pearson`` and ``sentence_bleu``, because their reports
must match bit for bit, and the textbook versions here differ from those
in the last bits.

No oracle imports a private name of the library, apart from the three
Porter rule tables, which are data that the vocabulary conformance test
checks on its own; ``tests/test_checks.py`` enforces this.
"""

import itertools
import math
from collections import defaultdict
from functools import lru_cache

from swss.porter import _STEP2_RULES, _STEP3_RULES, _STEP4_SUFFIXES


def max_weight_matching_bruteforce(candidate, reference):
    """Matched weights of a maximum-weight one-to-one matching.

    ``candidate`` and ``reference`` are sequences of ``(stem, weight)``;
    words with equal stems may pair, and a pair is worth the sum of its
    two words' weights. Returns ``(candidate weight matched, reference
    weight matched)`` of a best matching, found by exhaustive subset
    recursion. Only suitable for small instances with weights whose sums
    are exact, so that ties between matchings are real ties.
    """
    cand = tuple(candidate)
    ref = tuple(reference)

    @lru_cache(maxsize=None)
    def best(i, used_mask):
        if i == len(cand):
            return 0, 0
        options = [best(i + 1, used_mask)]
        stem, weight = cand[i]
        for j, (other, other_weight) in enumerate(ref):
            if not used_mask >> j & 1 and stem == other:
                matched_cand, matched_ref = best(i + 1, used_mask | 1 << j)
                options.append((weight + matched_cand, other_weight + matched_ref))
        return max(options, key=sum)

    result = best(0, 0)
    best.cache_clear()
    return result


def max_matching_bruteforce(candidate_stems, reference_stems):
    """Size of a maximum one-to-one matching where equal stems may pair."""
    matched, _ = max_weight_matching_bruteforce(
        [(s, 1) for s in candidate_stems], [(s, 1) for s in reference_stems]
    )
    return matched


def isomorphic(a, b):
    """True when two UCCA graphs are equal up to renaming of node ids.

    Terminal positions and texts, edge categories, remote flags, and the
    shape of the primary tree must all agree.
    """
    return _canonical_form(a) == _canonical_form(b)


def _canonical_form(graph):
    children = {}
    for e in graph.edges:
        if not e.remote:
            children.setdefault(e.parent, []).append(e)
    terminal = {t.id: t for t in graph.terminals}
    paths = {}

    def min_position(node_id):
        if node_id in terminal:
            return terminal[node_id].position
        return min(min_position(e.child) for e in children[node_id])

    def signature(node_id, path):
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


def reference_bleu(candidate, reference, n_max=4):
    """Textbook smoothed sentence BLEU: clipped precisions from explicit
    n-gram lists, add-one smoothing above order 1, brevity penalty."""
    if not candidate:
        return 0.0
    precisions = []
    for n in range(1, n_max + 1):
        cand_grams = [tuple(candidate[i : i + n]) for i in range(len(candidate) - n + 1)]
        if not cand_grams:
            break
        ref_grams = [tuple(reference[i : i + n]) for i in range(len(reference) - n + 1)]
        hits = 0
        for gram in set(cand_grams):
            hits += min(cand_grams.count(gram), ref_grams.count(gram))
        if n == 1:
            if hits == 0:
                return 0.0
            precisions.append(hits / len(cand_grams))
        else:
            precisions.append((hits + 1) / (len(cand_grams) + 1))
    score = 1.0
    for p in precisions:
        score *= p ** (1.0 / len(precisions))
    if len(candidate) < len(reference):
        score *= math.exp(1.0 - len(reference) / len(candidate))
    return score


def reference_pearson(xs, ys):
    """Raw-moment Pearson formula (numerically naive on purpose)."""
    n = len(xs)
    sx = sum(xs)
    sy = sum(ys)
    sxy = sum(x * y for x, y in zip(xs, ys))
    sxx = sum(x * x for x in xs)
    syy = sum(y * y for y in ys)
    return (n * sxy - sx * sy) / math.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))


def swss_from_graphs(candidate_graph, reference_graph, params):
    """The pair score computed straight from the two graphs, as
    ``swss.scoring.swss`` did before it scored from per-graph features:
    core words and counts are read from each graph at scoring time, and
    only the edge count that ``params`` asks for is taken. A word's label
    is the category of its primary edge in ``graph.edges``, its stem comes
    from ``porter_stem_reference``, and the counts from loops of their
    own: nothing here reads the graph's own label map or counts."""
    from swss.core_words import CORE_CATEGORIES, CoreWord, CoreWordBag
    from swss.scoring import GraphStats, ScoreBreakdown, f1_score, penalized_score, ratio_penalty
    from swss.ucca_graph import CRITICAL_CATEGORIES, SCENE_CATEGORIES

    def core_words(graph):
        labels = {e.child: e.category for e in graph.edges if not e.remote}
        words = []
        for t in graph.terminals:
            label = labels[t.id]
            if label in CORE_CATEGORIES:
                words.append(
                    CoreWord(surface=t.text, stem=porter_stem_reference(t.text), position=t.position, label=label)
                )
        return CoreWordBag(tuple(words))

    candidate_bag = core_words(candidate_graph)
    reference_bag = core_words(reference_graph)
    precision, recall, f1, fallback_used = f1_score(candidate_bag, reference_bag, params)

    def stats(graph, bag):
        scenes = set()
        critical_edges = 0
        for e in graph.edges:
            if not e.remote and e.category in SCENE_CATEGORIES and e.parent in graph.internal_nodes:
                scenes.add(e.parent)
            if e.category in CRITICAL_CATEGORIES and (params.include_remote_critical_edges or not e.remote):
                critical_edges += 1
        return GraphStats(
            tokens=len(graph.terminals),
            scenes=len(scenes),
            nodes=len(graph.terminals) + len(graph.internal_nodes) + 1,
            internal_nodes=len(graph.internal_nodes),
            critical_edges=critical_edges,
            core_words=bag.total,
        )

    candidate = stats(candidate_graph, candidate_bag)
    reference = stats(reference_graph, reference_bag)
    p_scene = ratio_penalty(candidate.scenes, reference.scenes)
    p_node = ratio_penalty(candidate.nodes, reference.nodes)
    p_edge = ratio_penalty(candidate.critical_edges, reference.critical_edges)
    len_penalty = (candidate.tokens + reference.tokens) / 2
    return ScoreBreakdown(
        precision=precision,
        recall=recall,
        f1=f1,
        p_scene=p_scene,
        p_node=p_node,
        p_edge=p_edge,
        len_penalty=len_penalty,
        swss=penalized_score(f1, fallback_used, p_scene, p_node, p_edge, len_penalty, params),
        fallback_used=fallback_used,
        candidate=candidate,
        reference=reference,
    )


def _scored_per_record(records, params, base, strict):
    """Both graphs of every record loaded and scored afresh, so a file
    that k records share is parsed k times. Returns, per language pair in
    sorted order, the rows ``(base score, human score, breakdown)`` of the
    records scored, and the number skipped."""
    from swss.errors import DatasetError, GraphError
    from swss.lexical import ExternalScoreTable, sentence_bleu
    from swss.ucca_graph import load_graph

    if isinstance(base, str) and base != "bleu":
        raise ValueError(f"unknown base metric {base!r}; expected 'bleu' or an ExternalScoreTable")
    rows = defaultdict(list)
    skipped = 0
    for record in records:
        try:
            candidate = load_graph(record.candidate_ucca, lenient=not strict)
            reference = load_graph(record.reference_ucca, lenient=not strict)
        except GraphError as exc:
            if strict:
                raise DatasetError(f"record {record.label}: {exc}") from None
            skipped += 1
            continue
        if isinstance(base, ExternalScoreTable):
            base_score = base.score(record.system, record.segment_id)
        else:
            base_score = sentence_bleu(candidate.tokens(), reference.tokens())
        breakdown = swss_from_graphs(candidate, reference, params)
        rows[record.lang_pair].append((base_score, record.human_score, breakdown))
    if not rows:
        raise DatasetError("no segments could be evaluated")
    return {lang_pair: rows[lang_pair] for lang_pair in sorted(rows)}, skipped


def _pair_correlation(lang_pair, combined, human):
    from swss.errors import DatasetError
    from swss.harness import pearson

    try:
        return pearson(combined, human)
    except ValueError as exc:
        raise DatasetError(f"language pair {lang_pair!r}: {exc}") from None


def evaluate_per_record(records, params, base="bleu", strict=False):
    """``swss.harness.evaluate(records, params, base, strict=strict)
    .to_dict()``, computed record by record: each record's combined
    metric is its base score plus beta times the ``swss_from_graphs``
    score of its two graphs. Same report and the same errors."""
    from swss.errors import DatasetError
    from swss.harness import pearson

    if not records:
        raise DatasetError("no records to evaluate")
    rows_by_pair, skipped = _scored_per_record(records, params, base, strict)
    per_pair, base_per_pair, n = {}, {}, {}
    for lang_pair, rows in rows_by_pair.items():
        human = [h for _, h, _ in rows]
        combined = [b + params.beta * breakdown.swss for b, _, breakdown in rows]
        per_pair[lang_pair] = _pair_correlation(lang_pair, combined, human)
        try:
            base_per_pair[lang_pair] = pearson([b for b, _, _ in rows], human)
        except ValueError:
            base_per_pair[lang_pair] = None
        n[lang_pair] = len(rows)
    defined = [r for r in base_per_pair.values() if r is not None]
    return {
        "per_pair": per_pair,
        "base_per_pair": base_per_pair,
        "average": math.fsum(per_pair.values()) / len(per_pair),
        "base_average": math.fsum(defined) / len(defined) if len(defined) == len(base_per_pair) else None,
        "n": n,
        "skipped": skipped,
        "params": params.to_dict(),
        "base": base if isinstance(base, str) else base.metric_name,
    }


def grid_search_per_record(records, grid, base="bleu", strict=False):
    """``swss.harness.grid_search`` as an exhaustive search: every record
    is scored once with ``swss_from_graphs``, then every grid point, in
    lexicographic order, rescores each record from its breakdown (omega
    for a fallback segment, undiscounted) and takes the average Pearson r
    over pairs. Returns the first point of highest objective, or raises
    the DatasetError of the first point where some pair's metric is
    constant."""
    from swss.errors import DatasetError
    from swss.scoring import SwssParams

    if not records:
        raise DatasetError("no records to tune on")
    rows_by_pair, _ = _scored_per_record(records, SwssParams(), base, strict)
    best_vector = None
    best_objective = -math.inf
    for vector in itertools.product(
        grid.alpha1, grid.alpha2, grid.alpha3, grid.alpha4, grid.beta, grid.omega
    ):
        a1, a2, a3, a4, beta, omega = vector
        correlations = []
        for lang_pair, rows in rows_by_pair.items():
            combined = []
            for b, _, s in rows:
                if s.fallback_used:
                    score = omega
                else:
                    score = s.f1 * math.exp(-(a1 * s.p_scene + a2 * s.p_node + a3 * s.p_edge + a4 * s.len_penalty))
                combined.append(b + beta * score)
            correlations.append(_pair_correlation(lang_pair, combined, [h for _, h, _ in rows]))
        objective = math.fsum(correlations) / len(correlations)
        if objective > best_objective:
            best_objective = objective
            best_vector = vector
    return SwssParams(*best_vector), best_objective


def build_graph_reference(root, terminals, internal_nodes, edges, lenient=False):
    """``swss.ucca_graph.build_graph`` as it was before one topological
    peel replaced its last two checks: a walk over primary edges from the
    root, then a three-colour depth-first search over all edges. Same
    arguments, result and errors, except the text of a cycle error."""
    from swss.errors import GraphError
    from swss.ucca_graph import UccaGraph

    terminals = tuple(sorted(terminals, key=lambda t: t.position))
    internal = frozenset(internal_nodes) - {root}

    seen = set()
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
    kept = []
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

    primary_parents = defaultdict(list)
    children = defaultdict(list)
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

    out = defaultdict(list)
    for e in kept:
        out[e.parent].append(e.child)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in [root, *sorted(internal | terminal_ids)]}
    for start in color:
        if color[start] != WHITE:
            continue
        stack = [(start, 0)]
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

    return UccaGraph(root=root, terminals=terminals, internal_nodes=internal, edges=tuple(kept))


def parse_ucca_xml_reference(document, lenient=False):
    """``swss.ucca_graph.parse_ucca_xml`` as it was before its ingestion
    path was made leaner: it converts each tag with ``Category(code)``,
    rebuilds every unit's edge list to drop implicit children, and
    validates with ``build_graph_reference``. Same arguments, result and
    errors, except the text of a cycle error."""
    import xml.etree.ElementTree as ElementTree
    from collections import defaultdict

    from swss.errors import GraphError
    from swss.ucca_graph import Category, Edge, Terminal

    def _category(code, where):
        try:
            return Category(code)
        except ValueError:
            raise GraphError(f"unknown category code {code!r} on {where}") from None

    def _xml_flag(value):
        return value is not None and value.lower() in {"true", "1", "yes"}

    try:
        root_el = ElementTree.fromstring(document)
    except ElementTree.ParseError as exc:
        raise GraphError(f"malformed XML: {exc}") from None

    terminal_entries = []
    unit_edges = {}
    term_links = defaultdict(list)
    implicit = set()

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
                if node_id in unit_edges:
                    raise GraphError(f"duplicate node id {node_id!r}")
                attrs = node.find("attributes")
                if attrs is not None and _xml_flag(attrs.get("implicit")):
                    implicit.add(node_id)
                unit_edges[node_id] = []
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
                        category = _category(tag, f"edge {node_id!r} -> {to_id!r}")
                        unit_edges[node_id].append((to_id, category, remote))

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

    incoming_primary = {}
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
    collapsed = set()
    edges = []
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
                    edges.append(Edge(parent, to_id, category, remote=True))
            else:
                edges.append(Edge(parent, child, category, remote=remote))

    internal = set(unit_edges) - collapsed - {root_id}
    return build_graph_reference(root_id, terminals, internal, edges, lenient=lenient)


def graph_from_dict_reference(obj, lenient=False):
    """``swss.ucca_graph.graph_from_dict`` as it was before it checked
    plain documents first and worded errors only on failure: every check
    in document order, duplicate node ids looked up in a list, and
    validation by ``build_graph_reference``. Same arguments, result and
    errors, except the text of a cycle error."""
    from swss.errors import GraphError
    from swss.ucca_graph import Category, Edge, Terminal

    def _category(code, parent, child):
        try:
            return Category(code)
        except ValueError:
            raise GraphError(f"unknown category code {code!r} on edge {parent!r} -> {child!r}") from None

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
    for i, text in enumerate(tokens):
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise GraphError(f"tokens[{i}]: lone surrogate in {text!r}") from None
    terminals = [Terminal(id=f"t{i}", text=text, position=i) for i, text in enumerate(tokens, 1)]

    nodes = obj["nodes"]
    if not isinstance(nodes, list):
        raise GraphError("nodes: expected a list")
    if not nodes:
        raise GraphError("no root: the node list is empty")
    node_ids = []
    for i, entry in enumerate(nodes):
        if not isinstance(entry, dict) or not isinstance(entry.get("id"), str) or not entry["id"]:
            raise GraphError(f"nodes[{i}]: expected an object with a non-empty string 'id'")
        unknown = set(entry) - {"id"}
        if unknown:
            raise GraphError(f"nodes[{i}]: unknown field {sorted(unknown)[0]!r}")
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
    edges = []
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
        category = _category(code, parent, child_id)
        remote = entry.get("remote", False)
        if not isinstance(remote, bool):
            raise GraphError(f"{where}.remote: expected a boolean")
        edges.append(Edge(parent, child_id, category, remote=remote))

    internal = set(node_ids) - {root}
    return build_graph_reference(root, terminals, internal, edges, lenient=lenient)


def porter_stem_reference(token):
    """``swss.porter.stem`` as it was before it worked on plain strings:
    a mutable buffer with an end index, and the measure counted letter by
    letter. It shares the rule tables, which the vocabulary conformance
    test checks on their own."""
    if not token:
        raise ValueError("cannot stem an empty token")
    word = token.lower()
    if len(word) <= 2 or not (word.isascii() and word.isalpha()):
        return word
    w = _PorterWord(word)
    _porter_step1ab(w)
    _porter_step1c(w)
    _porter_step2(w)
    _porter_step3(w)
    _porter_step4(w)
    _porter_step5(w)
    return w.b[: w.k + 1]


class _PorterWord:
    """Mutable stemming buffer.

    ``b`` holds the letters, ``k`` is the index of the last live letter,
    and ``j`` is the offset set by the most recent suffix test. The
    measure and shape helpers all follow the reference definitions.
    """

    __slots__ = ("b", "k", "j")

    def __init__(self, word: str):
        self.b = word
        self.k = len(word) - 1
        self.j = 0

    def cons(self, i: int) -> bool:
        ch = self.b[i]
        if ch in "aeiou":
            return False
        if ch == "y":
            return i == 0 or not self.cons(i - 1)
        return True

    def m(self) -> int:
        # Number of vowel-consonant sequences in b[0..j].
        n = 0
        i = 0
        while i <= self.j and self.cons(i):
            i += 1
        while True:
            while True:
                if i > self.j:
                    return n
                if self.cons(i):
                    break
                i += 1
            n += 1
            while i <= self.j and self.cons(i):
                i += 1

    def vowel_in_stem(self) -> bool:
        return any(not self.cons(i) for i in range(self.j + 1))

    def doublec(self, i: int) -> bool:
        return i > 0 and self.b[i] == self.b[i - 1] and self.cons(i)

    def cvc(self, i: int) -> bool:
        # consonant-vowel-consonant ending at i, last consonant not w, x or y;
        # used to decide whether to restore a final e (cav(e), lov(e)).
        if i < 2 or not self.cons(i) or self.cons(i - 1) or not self.cons(i - 2):
            return False
        return self.b[i] not in "wxy"

    def ends(self, suffix: str) -> bool:
        length = len(suffix)
        if suffix[-1] != self.b[self.k] or length > self.k + 1:
            return False
        if self.b[self.k - length + 1 : self.k + 1] != suffix:
            return False
        self.j = self.k - length
        return True

    def set_to(self, s: str) -> None:
        self.b = self.b[: self.j + 1] + s
        self.k = self.j + len(s)

    def replace_if_measured(self, s: str) -> None:
        if self.m() > 0:
            self.set_to(s)


def _porter_step1ab(w: _PorterWord) -> None:
    # Plurals and -ed / -ing: caresses -> caress, ponies -> poni,
    # agreed -> agree, matting -> mat, mating -> mate.
    if w.b[w.k] == "s":
        if w.ends("sses"):
            w.k -= 2
        elif w.ends("ies"):
            w.set_to("i")
        elif w.b[w.k - 1] != "s":
            w.k -= 1
    if w.ends("eed"):
        if w.m() > 0:
            w.k -= 1
    elif (w.ends("ed") or w.ends("ing")) and w.vowel_in_stem():
        w.k = w.j
        if w.ends("at"):
            w.set_to("ate")
        elif w.ends("bl"):
            w.set_to("ble")
        elif w.ends("iz"):
            w.set_to("ize")
        elif w.doublec(w.k):
            if w.b[w.k - 1] not in "lsz":
                w.k -= 1
        elif w.m() == 1 and w.cvc(w.k):
            w.set_to("e")


def _porter_step1c(w: _PorterWord) -> None:
    # Terminal y -> i when the stem contains another vowel.
    if w.ends("y") and w.vowel_in_stem():
        w.b = w.b[: w.k] + "i"


def _porter_step2(w: _PorterWord) -> None:
    # Double suffixes to single ones: -ization -> -ize. The stem before
    # the suffix must have measure > 0.
    for suffix, replacement in _STEP2_RULES.get(w.b[w.k - 1], ()):
        if w.ends(suffix):
            w.replace_if_measured(replacement)
            return


def _porter_step3(w: _PorterWord) -> None:
    # -ic-, -full, -ness and friends, same strategy as step 2.
    for suffix, replacement in _STEP3_RULES.get(w.b[w.k], ()):
        if w.ends(suffix):
            w.replace_if_measured(replacement)
            return


def _porter_step4(w: _PorterWord) -> None:
    # Strip -ant, -ence, etc. in context <c>vcvc<v>.
    ch = w.b[w.k - 1]
    if ch == "o":
        if not (
            (w.ends("ion") and w.j >= 0 and w.b[w.j] in "st") or w.ends("ou")
        ):
            return
    else:
        for suffix in _STEP4_SUFFIXES.get(ch, ()):
            if w.ends(suffix):
                break
        else:
            return
    if w.m() > 1:
        w.k = w.j


def _porter_step5(w: _PorterWord) -> None:
    # Final -e removal when measure > 1, and -ll -> -l.
    w.j = w.k
    if w.b[w.k] == "e":
        a = w.m()
        if a > 1 or (a == 1 and not w.cvc(w.k - 1)):
            w.k -= 1
    if w.b[w.k] == "l" and w.doublec(w.k) and w.m() > 1:
        w.k -= 1
