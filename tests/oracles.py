"""Independent reference implementations used only as test oracles.

These deliberately share no code with the library: the matching oracles
are exhaustive subset searches, the BLEU oracle uses explicit n-gram lists
and the product form of the geometric mean, the correlation oracle uses
the raw-moment formula, and the isomorphism check compares canonical
forms of the primary tree. The graph-validation, XML-parsing,
grid-search, scoring and preparation oracles are the exception: they are
the slower paths the library replaced (a reachability walk plus a
three-colour DFS, the XML parser built on it, exhaustive grid loop,
scoring straight from graphs, loading both graphs of every record), which
the fast paths must agree with bit for bit.
"""

import itertools
import math
from collections import defaultdict
from dataclasses import replace
from functools import lru_cache


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


def grid_search_bruteforce(records, grid, base="bleu"):
    """Exhaustive grid search: the exact objective at every point.

    This is the per-point loop the closed-form search in
    ``swss.harness.grid_search`` replaced; it reuses the library's
    segment preparation and per-point correlation on purpose, so the two
    differ only in how they pick the points to evaluate exactly.
    """
    from swss.harness import _correlations, _mean, _prepare_segments
    from swss.scoring import SwssParams

    prepared, _ = _prepare_segments(records, SwssParams(), base, strict=False)
    best_vector = None
    best_objective = -math.inf
    for vector in itertools.product(
        grid.alpha1, grid.alpha2, grid.alpha3, grid.alpha4, grid.beta, grid.omega
    ):
        params = SwssParams(*vector)
        adjusted = [s if not s.fallback_used else replace(s, f1=params.omega) for s in prepared]
        per_pair, _, _ = _correlations(adjusted, params)
        objective = _mean(per_pair.values())
        if objective > best_objective:
            best_objective = objective
            best_vector = vector
    return SwssParams(*best_vector), best_objective


def swss_from_graphs(candidate_graph, reference_graph, params):
    """The pair score computed straight from the two graphs, as
    ``swss.scoring.swss`` did before it scored from per-graph features:
    core words and counts are read from each graph at scoring time, and
    only the edge count that ``params`` asks for is taken."""
    from swss.core_words import extract_core_words
    from swss.scoring import GraphStats, ScoreBreakdown, f1_score, penalized_score, ratio_penalty

    candidate_bag = extract_core_words(candidate_graph)
    reference_bag = extract_core_words(reference_graph)
    precision, recall, f1, fallback_used = f1_score(candidate_bag, reference_bag, params)

    def stats(graph, bag):
        return GraphStats(
            tokens=len(graph.terminals),
            scenes=graph.count_scenes(),
            nodes=graph.count_nodes(),
            internal_nodes=len(graph.internal_nodes),
            critical_edges=graph.count_critical_edges(include_remote=params.include_remote_critical_edges),
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


def prepare_segments_per_record(records, params, base, strict):
    """Segment preparation record by record, as
    ``swss.harness._prepare_segments`` did before it kept per-file
    features: both graphs of every record are loaded and scored afresh,
    so a file that k records share is parsed k times. Drop-in for
    ``_prepare_segments`` (same arguments, same result and errors)."""
    from swss.errors import DatasetError, GraphError
    from swss.harness import _PreparedSegment
    from swss.lexical import ExternalScoreTable, sentence_bleu
    from swss.ucca_graph import load_graph

    if isinstance(base, str) and base != "bleu":
        raise ValueError(f"unknown base metric {base!r}; expected 'bleu' or an ExternalScoreTable")
    prepared = []
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
        prepared.append(
            _PreparedSegment(
                lang_pair=record.lang_pair,
                base_score=base_score,
                human_score=record.human_score,
                f1=breakdown.f1,
                fallback_used=breakdown.fallback_used,
                p_scene=breakdown.p_scene,
                p_node=breakdown.p_node,
                p_edge=breakdown.p_edge,
                len_penalty=breakdown.len_penalty,
            )
        )
    if not prepared:
        raise DatasetError("no segments could be evaluated")
    return prepared, skipped


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
