"""Seeded, DA-shaped corpora for the benchmark.

A corpus is what a user of ``swss evaluate`` or ``swss tune`` has on disk:
a newline-delimited JSON manifest, one UCCA file per candidate and per
reference, and, for external base metrics, a TSV score table. The
generator also writes ``truth.json``, which the program never reads: it
says which records point at a corrupt file, so the benchmark can check
every outcome.

Human scores come from the generator's own mutation rate plus noise,
never from ``swss``, so the inputs stay the same when the program changes.
Graph structure comes from ``swss.synthetic.random_graph``.
"""

import json
import math
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional
from xml.sax.saxutils import quoteattr

from swss.synthetic import random_graph
from swss.ucca_graph import UccaGraph, emit_json

VOCABULARY_FILE = Path("tests") / "data" / "porter" / "voc.txt"

LANG_PAIRS = ("de-en", "ru-en", "zh-en")

# Kinds of corruption that load_graph rejects with GraphError today, so a
# non-strict run must skip (and count) every record that points at one.
XML_CORRUPTIONS = ("malformed", "dangling", "cycle", "category")
JSON_CORRUPTIONS = ("truncated", "dangling", "cycle", "category")

SMALL_GRID = {
    "alpha1": [0.0, 0.5],
    "alpha2": [0.0, 1.0],
    "alpha3": [0.0, 0.5],
    "alpha4": [0.0, 0.01],
    "beta": [0.1, 0.5],
    "omega": [0.0, 0.5],
}
TUNE_GRID = {
    "alpha1": [0.0, 0.1, 0.5, 1.0],
    "alpha2": [0.0, 0.1, 0.5, 1.0],
    "alpha3": [0.0, 0.1, 0.5, 1.0],
    "alpha4": [0.0, 0.005, 0.01, 0.05],
    "beta": [0.1, 0.2, 0.5, 1.0],
    "omega": [0.0, 0.5, 1.0],
}


@dataclass(frozen=True)
class Shape:
    """What a workload's corpus looks like.

    ``systems`` candidates are written per reference segment when
    ``share_references`` is set (k = systems); otherwise every record gets
    its own reference (k = 1) and ``systems`` only names the rows.
    """

    segments_per_pair: int
    systems: int
    share_references: bool
    xml_share: float
    zipf: bool
    corrupt_share: float
    base: str  # "bleu" or "tsv"
    grid: dict = field(default_factory=dict)


WORKLOADS = {
    "da-bleu": Shape(
        segments_per_pair=25, systems=8, share_references=True, xml_share=0.5,
        zipf=True, corrupt_share=0.02, base="bleu", grid=SMALL_GRID,
    ),
    "unique-xml": Shape(
        segments_per_pair=25, systems=8, share_references=False, xml_share=1.0,
        zipf=False, corrupt_share=0.02, base="bleu", grid=SMALL_GRID,
    ),
    "tune-tsv": Shape(
        segments_per_pair=16, systems=8, share_references=True, xml_share=0.0,
        zipf=True, corrupt_share=0.02, base="tsv", grid=TUNE_GRID,
    ),
}


def load_vocabulary(root: Path) -> list[str]:
    with open(root / VOCABULARY_FILE, encoding="utf-8") as handle:
        return [line.strip() for line in handle if line.strip()]


class _Words:
    """Draws words either Zipf-like over a seeded rank order or uniformly."""

    def __init__(self, rng: random.Random, vocabulary: list[str], zipf: bool):
        self.rng = rng
        self.words = list(vocabulary)
        rng.shuffle(self.words)
        self.cum_weights = None
        if zipf:
            total = 0.0
            cum = []
            for rank in range(1, len(self.words) + 1):
                total += 1.0 / rank ** 1.05
                cum.append(total)
            self.cum_weights = cum

    def draw(self, n: int) -> list[str]:
        if self.cum_weights is None:
            return [self.rng.choice(self.words) for _ in range(n)]
        return self.rng.choices(self.words, cum_weights=self.cum_weights, k=n)


def _exact_flags(rng: random.Random, n: int, share: float) -> list[bool]:
    flags = [i < round(share * n) for i in range(n)]
    rng.shuffle(flags)
    return flags


def _stratified(rng: random.Random, n: int, inverse_cdf) -> list:
    """``n`` draws at evenly spaced quantiles, in seeded order: every seed
    gets the same distribution, so the amount of work does not depend on
    the seed."""
    values = [inverse_cdf((i + 0.5) / n) for i in range(n)]
    rng.shuffle(values)
    return values


def _sentence_length(q: float) -> int:
    """Lognormal reference lengths (median 17 tokens), clipped to 5..40."""
    return min(40, max(5, round(math.exp(2.85 + 0.45 * statistics.NormalDist().inv_cdf(q)))))


def _mutate(rng: random.Random, words: _Words, tokens: list[str], keep: float) -> tuple[list[str], float]:
    """A system output: keep, replace or drop each reference token, and now
    and then insert one. Returns the tokens and the share of kept tokens."""
    out = []
    kept = 0
    for token in tokens:
        roll = rng.random()
        if roll < keep:
            out.append(token)
            kept += 1
        elif roll < keep + 0.6 * (1 - keep):
            out.extend(words.draw(1))
        if rng.random() < 0.05:
            out.extend(words.draw(1))
    if not out:
        out.extend(words.draw(1))
    return out, kept / len(tokens)


# --------------------------------------------------------------------------
# Writers


def graph_to_xml(graph: UccaGraph, extra_edges=()) -> str:
    """Standard passage XML for ``graph``.

    Layer 0 holds the words. Layer 1 holds the units, and every word hangs
    below a preterminal unit of its own through a ``Terminal`` edge, the
    way annotation tools emit it, so parsing runs the collapse path. A
    remote edge into a word points at the word's preterminal unit.
    ``extra_edges`` holds ``(parent, child, code, remote)`` tuples in graph
    node ids, appended verbatim (unknown ids pass through unchanged).
    """
    xml_id = {graph.root: "1.1"}
    order = [graph.root]
    children: dict[str, list] = {}
    for e in graph.edges:
        if not e.remote:
            children.setdefault(e.parent, []).append(e)
    i = 0
    while i < len(order):
        for e in children.get(order[i], ()):
            if e.child in graph.internal_nodes and e.child not in xml_id:
                xml_id[e.child] = f"1.{len(xml_id) + 1}"
                order.append(e.child)
        i += 1
    terminal_pos = {t.id: t.position for t in graph.terminals}
    preterminal = {}
    for t in graph.terminals:
        preterminal[t.id] = f"1.{len(xml_id) + len(preterminal) + 1}"

    def target(node_id: str) -> str:
        if node_id in terminal_pos:
            return preterminal[node_id]
        return xml_id.get(node_id, node_id)

    unit_edges: dict[str, list[str]] = {xml_id[n]: [] for n in order}
    for e in graph.edges:
        attrs = '<attributes remote="true"/>' if e.remote else "<attributes/>"
        unit_edges[xml_id[e.parent]].append(
            f'<edge toID="{target(e.child)}" type="{e.category.value}">{attrs}</edge>'
        )
    for parent, child, code, remote in extra_edges:
        attrs = '<attributes remote="true"/>' if remote else "<attributes/>"
        unit_edges[xml_id[parent]].append(f'<edge toID="{target(child)}" type="{code}">{attrs}</edge>')
    for t in graph.terminals:
        unit_edges[preterminal[t.id]] = [f'<edge toID="0.{t.position}" type="Terminal"><attributes/></edge>']

    lines = ['<root annotationID="0" passageID="1">', "  <attributes/>"]
    lines += ['  <layer layerID="0">', "    <attributes/>"]
    for t in graph.terminals:
        lines.append(
            f'    <node ID="0.{t.position}" type="Word"><attributes paragraph="1" '
            f'paragraph_position="{t.position}" text={quoteattr(t.text)}/></node>'
        )
    lines += ["  </layer>", '  <layer layerID="1">', "    <attributes/>"]
    for unit, edges in unit_edges.items():
        lines.append(f'    <node ID="{unit}" type="FN">')
        lines.append("      <attributes/>")
        lines.extend("      " + edge for edge in edges)
        lines.append("    </node>")
    lines += ["  </layer>", "</root>", ""]
    return "\n".join(lines)


def _top_unit(graph: UccaGraph) -> str:
    return next(e.child for e in graph.edges if e.parent == graph.root and not e.remote)


def graph_document(graph: UccaGraph, fmt: str, corruption: Optional[str] = None) -> str:
    """The file text for ``graph`` in ``fmt`` ("xml" or "json"), corrupted
    in one of the ways load_graph rejects when ``corruption`` is given."""
    top = _top_unit(graph)
    extra = []
    if corruption == "dangling":
        extra.append((top, "missing", "A", False))
    elif corruption == "cycle":
        extra.append((top, graph.root, "A", True))
    if fmt == "xml":
        text = graph_to_xml(graph, extra)
        if corruption == "malformed":
            text = text[: len(text) // 2]
        elif corruption == "category":
            text = text.replace('type="H"', 'type="Z"', 1)
        return text
    doc = emit_json(graph)
    for parent, child, code, remote in extra:
        doc["edges"].append({"parent": parent, "child": child, "category": code, "remote": remote})
    if corruption == "category":
        next(e for e in doc["edges"] if e["parent"] == graph.root)["category"] = "Z"
    text = json.dumps(doc)
    if corruption == "truncated":
        text = text[: len(text) // 2]
    return text


# --------------------------------------------------------------------------
# Corpus


@dataclass
class Corpus:
    """Where a generated corpus lives and what it holds."""

    root: Path
    manifest: Path
    grid: Path
    base: str  # "bleu" or a "tsv:PATH" spec
    truth: Path


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def generate(workload: str, seed: int, dest: Path, repo_root: Path) -> Corpus:
    """Write the corpus of ``workload`` for ``seed`` under ``dest``.

    The same workload and seed give byte-identical files.
    """
    shape = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    words = _Words(rng, load_vocabulary(repo_root), shape.zipf)
    dest.mkdir(parents=True, exist_ok=True)

    files: dict[str, dict] = {}  # relative path -> {"fmt", "corrupt", "tokens"}
    n_candidates = len(LANG_PAIRS) * shape.segments_per_pair * shape.systems
    n_references = n_candidates // shape.systems if shape.share_references else n_candidates
    # Exact counts per role, so every seed has the same format mix and the
    # same corruption load (a corrupt shared reference skips k records).
    flags = {
        role: iter(list(zip(_exact_flags(rng, n, shape.xml_share), _exact_flags(rng, n, shape.corrupt_share))))
        for role, n in (("ref", n_references), ("cand", n_candidates))
    }

    def write_graph(rel: str, graph: UccaGraph, role: str) -> str:
        is_xml, corrupt = next(flags[role])
        fmt = "xml" if is_xml else "json"
        corruption = rng.choice(XML_CORRUPTIONS if is_xml else JSON_CORRUPTIONS) if corrupt else None
        rel = f"{rel}.{fmt}"
        _write(dest / rel, graph_document(graph, fmt, corruption))
        files[rel] = {"fmt": fmt, "corrupt": corruption, "tokens": len(graph.terminals)}
        return rel

    records = []
    external = []
    segment_id = 0
    for lang_pair in LANG_PAIRS:
        quality = _stratified(rng, shape.systems, lambda q: 0.45 + 0.5 * q)
        lengths = iter(_stratified(rng, n_references // len(LANG_PAIRS), _sentence_length))
        for _ in range(shape.segments_per_pair):
            shared = None
            for system in range(shape.systems):
                if shared is None or not shape.share_references:
                    segment_id += 1
                    ref_tokens = words.draw(next(lengths))
                    ref_graph = random_graph(rng, tokens=ref_tokens)
                    ref_path = write_graph(f"{lang_pair}/ref/{segment_id:05d}", ref_graph, "ref")
                    shared = (segment_id, ref_tokens, ref_path)
                seg, ref_tokens, ref_path = shared
                keep = min(1.0, max(0.05, quality[system] + rng.gauss(0.0, 0.1)))
                cand_tokens, kept = _mutate(rng, words, ref_tokens, keep)
                name = f"sys{system + 1}"
                cand_graph = random_graph(rng, tokens=cand_tokens)
                cand_path = write_graph(f"{lang_pair}/{name}/{seg:05d}", cand_graph, "cand")
                human = round(100.0 * kept + rng.gauss(0.0, 12.0), 4)
                records.append(
                    {
                        "lang_pair": lang_pair,
                        "system": name,
                        "segment_id": seg,
                        "candidate_ucca": cand_path,
                        "reference_ucca": ref_path,
                        "human_score": human,
                    }
                )
                external.append(f"{name}\t{seg}\t{round(kept + rng.gauss(0.0, 0.15), 6)}")

    # Manifests of DA data come grouped by language pair and system, so a
    # shared reference is re-read many records after its first use.
    records.sort(key=lambda r: (r["lang_pair"], int(r["system"][3:]), r["segment_id"]))
    manifest = dest / "manifest.jsonl"
    _write(manifest, "".join(json.dumps(r) + "\n" for r in records))
    grid = dest / "grid.json"
    _write(grid, json.dumps(shape.grid, sort_keys=True))
    base = "bleu"
    if shape.base == "tsv":
        _write(dest / "external.tsv", "\n".join(external) + "\n")
        base = f"tsv:{dest / 'external.tsv'}"

    truth = {
        "workload": workload,
        "seed": seed,
        "records": [
            {
                "lang_pair": r["lang_pair"],
                "valid": not (files[r["candidate_ucca"]]["corrupt"] or files[r["reference_ucca"]]["corrupt"]),
            }
            for r in records
        ],
        "shape": corpus_shape(shape, records, files),
    }
    _write(dest / "truth.json", json.dumps(truth, sort_keys=True))
    write_probe(dest / "probe", rng)
    return Corpus(dest, manifest, grid, base, dest / "truth.json")


def corpus_shape(shape: Shape, records: list[dict], files: dict[str, dict]) -> dict:
    lengths = [f["tokens"] for f in files.values()]
    corrupt_records = sum(
        1 for r in records if files[r["candidate_ucca"]]["corrupt"] or files[r["reference_ucca"]]["corrupt"]
    )
    quartiles = statistics.quantiles(lengths, n=4)
    return {
        "records": len(records),
        "lang_pairs": len(LANG_PAIRS),
        "distinct_files": len(files),
        "k": shape.systems if shape.share_references else 1,
        "xml_share": sum(f["fmt"] == "xml" for f in files.values()) / len(files),
        "corrupt_file_share": sum(bool(f["corrupt"]) for f in files.values()) / len(files),
        "corrupt_records": corrupt_records,
        "vocabulary": "zipf" if shape.zipf else "uniform",
        "base": shape.base,
        "grid_points": _grid_size(shape.grid),
        "tokens": {
            "min": min(lengths),
            "p25": quartiles[0],
            "p50": quartiles[1],
            "p75": quartiles[2],
            "max": max(lengths),
            "mean": round(statistics.fmean(lengths), 3),
        },
    }


def _grid_size(grid: dict) -> int:
    size = 1
    for values in grid.values():
        size *= len(values)
    return size


# Ingest probe: one file per corruption kind the corpora use, which must
# give GraphError, plus the three inputs that escape as other exceptions
# today (a bad XML attribute, undecodable bytes, pathological nesting).
PROBE_GRAPH_ERRORS = {
    "truncated.json": ("json", "truncated"),
    "malformed.xml": ("xml", "malformed"),
    "dangling.json": ("json", "dangling"),
    "cycle.xml": ("xml", "cycle"),
    "category.json": ("json", "category"),
}


def write_probe(dest: Path, rng: random.Random) -> None:
    graph = random_graph(rng, tokens=["probe", "input", "file", "here", "now"])
    for name, (fmt, corruption) in PROBE_GRAPH_ERRORS.items():
        _write(dest / name, graph_document(graph, fmt, corruption))
    bad_position = graph_to_xml(graph).replace('paragraph_position="1"', 'paragraph_position="x"')
    _write(dest / "bad-position.xml", bad_position)
    dest.joinpath("bad-bytes.json").write_bytes(b"\xff\xfe{")
    dest.joinpath("deep-nesting.json").write_bytes(b"[" * 100_000)
