"""Random UCCA-style graph corpora.

Experiments and stress tests need many valid graphs without running a
parser, so this module grows random primary trees over small random
sentences, sprinkles remote participant edges on top, and can write whole
synthetic datasets (graph files, manifest, and human scores correlated
with the metric) to disk.
"""

import json
import random
from pathlib import Path
from typing import Optional

from .lexical import sentence_bleu
from .scoring import SwssParams, swss
from .ucca_graph import Category, Edge, Terminal, UccaGraph, build_graph, emit_json

__all__ = ["WORDS", "random_graph", "mutate_tokens", "random_pair", "write_synthetic_dataset"]

WORDS = (
    "the a this that dog cat sofa house man woman boy girl john mary anna".split()
    + "car tree bird river book bought sold saw likes runs jumped wrote read".split()
    + "gave took found lost made broke quickly slowly red big old small".split()
    + "together yesterday nearby happily . ,".split()
)

# Sampling weights for edge labels into words; participants and centers
# dominate, like in real annotation.
_WORD_CATEGORIES = (
    [Category.PARTICIPANT] * 4
    + [Category.CENTER] * 4
    + [Category.PROCESS] * 3
    + [Category.STATE] * 1
    + [Category.ELABORATOR] * 3
    + [Category.ADVERBIAL] * 2
    + [Category.CONNECTOR, Category.FUNCTION, Category.RELATOR, Category.PUNCTUATION]
)
_UNIT_CATEGORIES = (
    [Category.PARTICIPANT] * 3
    + [Category.PARALLEL_SCENE] * 2
    + [Category.CENTER, Category.ELABORATOR, Category.ADVERBIAL, Category.LINKER]
)


def random_graph(rng: random.Random, tokens=None, max_tokens: int = 10, remote_prob: float = 0.25) -> UccaGraph:
    """Build a valid random graph over ``tokens`` (or a random sentence)."""
    if tokens is None:
        tokens = [rng.choice(WORDS) for _ in range(rng.randint(1, max_tokens))]
    terminals = [Terminal(id=f"t{i}", text=text, position=i) for i, text in enumerate(tokens, 1)]

    counter = 0
    internal: list[str] = []
    edges: list[Edge] = []

    def new_unit() -> str:
        nonlocal counter
        counter += 1
        internal.append(f"u{counter}")
        return f"u{counter}"

    def grow(parent: str, positions: list[int], depth: int) -> None:
        # Split the span into chunks; each chunk becomes either a word
        # child or a nested unit.
        i = 0
        while i < len(positions):
            size = rng.randint(1, min(3, len(positions) - i))
            chunk = positions[i : i + size]
            i += size
            if len(chunk) == 1 and (depth >= 3 or rng.random() < 0.6):
                edges.append(Edge(parent, f"t{chunk[0]}", rng.choice(_WORD_CATEGORIES)))
            elif depth >= 3:
                for position in chunk:
                    edges.append(Edge(parent, f"t{position}", rng.choice(_WORD_CATEGORIES)))
            else:
                unit = new_unit()
                edges.append(Edge(parent, unit, rng.choice(_UNIT_CATEGORIES)))
                grow(unit, chunk, depth + 1)

    top = new_unit()
    edges.append(Edge("root", top, Category.PARALLEL_SCENE))
    grow(top, list(range(1, len(terminals) + 1)), 1)

    if internal and rng.random() < remote_prob:
        # Remote edges to terminals can never create a cycle.
        source = rng.choice(internal)
        target = rng.choice(terminals)
        candidate = Edge(source, target.id, Category.PARTICIPANT, remote=True)
        if candidate not in edges:
            edges.append(candidate)

    return build_graph("root", terminals, internal, edges)


def mutate_tokens(rng: random.Random, tokens: list, keep: float = 0.7) -> list:
    """Degrade a sentence: keep, replace, or drop each token at random."""
    out = []
    for token in tokens:
        roll = rng.random()
        if roll < keep:
            out.append(token)
        elif roll < keep + 0.5 * (1 - keep):
            out.append(rng.choice(WORDS))
    if not out:
        out.append(rng.choice(WORDS))
    return out


def random_pair(rng: random.Random, max_tokens: int = 10) -> tuple[UccaGraph, UccaGraph]:
    """A reference graph and an independently structured, degraded candidate."""
    reference = random_graph(rng, max_tokens=max_tokens)
    candidate = random_graph(rng, tokens=mutate_tokens(rng, reference.tokens()))
    return candidate, reference


def write_synthetic_dataset(
    dest,
    n_segments: int,
    lang_pairs=("xx-en",),
    seed: int = 0,
    beta_true: float = 0.2,
    noise: float = 0.0,
    params: Optional[SwssParams] = None,
) -> Path:
    """Write graph files plus a manifest whose human scores follow
    ``base + beta_true * swss + N(0, noise)``, and return the manifest path.

    The base metric is the in-repo sentence BLEU over the graphs' tokens,
    so an evaluation run with that base should recover ``beta_true`` as
    the best combination weight. A count below 1 raises ValueError, and
    nothing is written.
    """
    if n_segments < 1:
        raise ValueError(f"the number of segments must be at least 1, got {n_segments}")
    rng = random.Random(seed)
    params = params if params is not None else SwssParams()
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    manifest_path = dest / "manifest.jsonl"
    with open(manifest_path, "w", encoding="utf-8") as manifest:
        for i in range(n_segments):
            lang_pair = lang_pairs[i % len(lang_pairs)]
            candidate, reference = random_pair(rng)
            cand_path = dest / f"seg{i:04d}.cand.json"
            ref_path = dest / f"seg{i:04d}.ref.json"
            cand_path.write_text(json.dumps(emit_json(candidate)), encoding="utf-8")
            ref_path.write_text(json.dumps(emit_json(reference)), encoding="utf-8")
            base = sentence_bleu(candidate.tokens(), reference.tokens())
            structural = swss(candidate, reference, params).swss
            human = base + beta_true * structural + (rng.gauss(0.0, noise) if noise else 0.0)
            record = {
                "lang_pair": lang_pair,
                "system": "synthetic",
                "segment_id": i,
                "candidate_ucca": cand_path.name,
                "reference_ucca": ref_path.name,
                "human_score": human,
            }
            manifest.write(json.dumps(record) + "\n")
    return manifest_path
