"""Penalized core-word F1 scoring and combination with a base metric.

The similarity score for a sentence pair is

    score = F1 * exp(-a1*P_scene - a2*P_node - a3*P_edge - a4*Len)

where F1 is the harmonic mean of clipped core-word precision and recall,
the three structural penalties compare scene / node / critical-edge
counts of the two graphs via 1 - min/max, and Len is the average token
count of the pair. A fixed fallback score omega replaces F1 when either
sentence has no core words at all. The score is symmetric in its two
arguments and lies in [0, 1]; it can be blended with any lexical base
metric as base + beta * score.
"""

import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional

from .core_words import CoreWordBag, clipped_match, extract_core_words
from .errors import _in_float_range, _is_number
from .ucca_graph import Category, UccaGraph

__all__ = [
    "SwssParams",
    "GraphStats",
    "ScoreBreakdown",
    "ratio_penalty",
    "f1_score",
    "penalized_score",
    "swss",
    "combine",
]

_SCALARS = ("alpha1", "alpha2", "alpha3", "alpha4", "beta", "omega")
_FLAGS = ("fallback_applies_penalties", "include_remote_critical_edges")


def _check_scalar(name: str, value, what: Optional[str] = None) -> None:
    """Raise ValueError unless ``value`` may be the scalar parameter
    ``name``: a number, not a bool, finite, at least 0, and at most 1 for
    omega. The message starts with ``what``, by default ``name``."""
    what = what or name
    if not _is_number(value):
        raise ValueError(f"{what} must be a number, got {value!r}")
    if not (_in_float_range(value) and value >= 0):
        raise ValueError(f"{what} must be finite and >= 0, got {value!r}")
    if name == "omega" and value > 1:
        raise ValueError(f"{what} must lie in [0, 1], got {value!r}")


def _field_values(cls, data: Mapping, kind: str) -> dict:
    """``data`` as a dict, if every key names a field of the dataclass
    ``cls``; otherwise ValueError for the first unknown key in sorted
    order, as an unknown ``kind``."""
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {kind} {sorted(unknown)[0]!r}")
    return dict(data)


@dataclass(frozen=True)
class SwssParams:
    """Tunable knobs of the similarity score.

    The defaults are the tuned operating point used throughout the
    documentation and the CLI. ``category_weights`` lets per-role word
    weights differ from 1 in tuning experiments; ``fallback_applies_penalties``
    controls whether the structural penalties also discount the fallback
    score; ``include_remote_critical_edges`` counts secondary participant
    edges in the edge penalty.
    """

    alpha1: float = 0.2
    alpha2: float = 1.0
    alpha3: float = 0.5
    alpha4: float = 0.01
    beta: float = 0.2
    omega: float = 0.5
    category_weights: Optional[Mapping[Category, float]] = None
    fallback_applies_penalties: bool = False
    include_remote_critical_edges: bool = False

    def __post_init__(self):
        for name in _SCALARS:
            _check_scalar(name, getattr(self, name))
        for name in _FLAGS:
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be true or false, got {value!r}")
        if self.category_weights is not None:
            if not isinstance(self.category_weights, Mapping):
                raise ValueError(f"category_weights must be a mapping, got {self.category_weights!r}")
            for category, weight in self.category_weights.items():
                if not isinstance(category, Category):
                    raise ValueError(f"category_weights key {category!r} is not a Category")
                if not (_is_number(weight) and _in_float_range(weight) and weight > 0):
                    raise ValueError(f"weight for {category.value} must be a positive number")

    def weight(self, category: Category) -> float:
        if self.category_weights is None:
            return 1.0
        return float(self.category_weights.get(category, 1.0))

    def to_dict(self) -> dict:
        weights = {c.value: self.weight(c) for c in Category}
        return {
            **{name: float(getattr(self, name)) for name in _SCALARS},
            "category_weights": weights,
            "fallback_applies_penalties": self.fallback_applies_penalties,
            "include_remote_critical_edges": self.include_remote_critical_edges,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SwssParams":
        kwargs = _field_values(cls, data, "parameter")
        weights = kwargs.get("category_weights")
        if weights is not None:
            if not isinstance(weights, Mapping):
                raise ValueError(f"category_weights must be an object mapping codes to weights, got {weights!r}")
            converted = {}
            for code, weight in weights.items():
                try:
                    category = Category(code)
                except ValueError:
                    raise ValueError(f"unknown category code {code!r} in category_weights") from None
                converted[category] = weight
            kwargs["category_weights"] = converted
        return cls(**kwargs)


@dataclass(frozen=True)
class GraphStats:
    """Per-sentence counts that feed the penalties and diagnostics."""

    tokens: int
    scenes: int
    nodes: int
    internal_nodes: int
    critical_edges: int
    core_words: int


@dataclass(frozen=True)
class ScoreBreakdown:
    """Full decomposition of one pair's score."""

    precision: float
    recall: float
    f1: float
    p_scene: float
    p_node: float
    p_edge: float
    len_penalty: float
    swss: float
    fallback_used: bool
    candidate: GraphStats
    reference: GraphStats

    def to_dict(self) -> dict:
        return asdict(self)


def ratio_penalty(c1: int, c2: int) -> float:
    """1 - min/max of two counts: 0 when equal (including 0 = 0), 1 when
    exactly one count is 0."""
    if c1 == c2:
        return 0.0
    if c1 == 0 or c2 == 0:
        return 1.0
    return 1.0 - min(c1, c2) / max(c1, c2)


def f1_score(
    candidate: CoreWordBag, reference: CoreWordBag, params: SwssParams
) -> tuple[float, float, float, bool]:
    """Weighted precision, recall, and F1 of the core-word overlap.

    Returns ``(precision, recall, f1, fallback_used)``. When either bag is
    empty the computation is undefined and the fixed fallback ``omega``
    stands in for F1; two non-empty bags with no overlap give F1 = 0
    without the fallback.
    """
    if candidate.total == 0 or reference.total == 0:
        return 0.0, 0.0, params.omega, True
    p_num, p_den = clipped_match(candidate, reference, params.weight)
    r_num, r_den = clipped_match(reference, candidate, params.weight)
    if math.isinf(p_den) or math.isinf(r_den):
        # Weights near the float maximum overflowed a total; scaled by a
        # power of two, which is exact, they give the same ratios.
        def scaled(category: Category) -> float:
            return math.ldexp(params.weight(category), -64)

        p_num, p_den = clipped_match(candidate, reference, scaled)
        r_num, r_den = clipped_match(reference, candidate, scaled)
    precision = p_num / p_den
    recall = r_num / r_den
    if precision + recall == 0.0:
        return precision, recall, 0.0, False
    return precision, recall, (2.0 * precision * recall) / (precision + recall), False


def penalized_score(
    f1: float,
    fallback_used: bool,
    p_scene: float,
    p_node: float,
    p_edge: float,
    len_penalty: float,
    params: SwssParams,
) -> float:
    """Apply the exponential penalty factor to an F1 (or fallback) value."""
    if fallback_used and not params.fallback_applies_penalties:
        return f1
    exponent = (
        params.alpha1 * p_scene
        + params.alpha2 * p_node
        + params.alpha3 * p_edge
        + params.alpha4 * len_penalty
    )
    return f1 * math.exp(-exponent)


@dataclass(frozen=True)
class GraphFeatures:
    """Everything scoring reads from one graph.

    None of it depends on the parameters, so one value serves every pair
    and every parameter point that involves the graph: ``stats`` leaves
    remote critical edges out of its counts and ``stats_with_remote``
    counts them, for either value of ``include_remote_critical_edges``.
    """

    tokens: tuple[str, ...]
    bag: CoreWordBag
    stats: GraphStats
    stats_with_remote: GraphStats

    @classmethod
    def of(cls, graph: UccaGraph) -> "GraphFeatures":
        tokens = tuple(graph.tokens())
        bag = extract_core_words(graph)
        stats = GraphStats(
            tokens=len(tokens),
            scenes=graph.count_scenes(),
            nodes=graph.count_nodes(),
            internal_nodes=len(graph.internal_nodes),
            critical_edges=graph.count_critical_edges(),
            core_words=bag.total,
        )
        with_remote = replace(stats, critical_edges=graph.count_critical_edges(include_remote=True))
        return cls(tokens, bag, stats, with_remote)


def swss(
    candidate_graph: UccaGraph,
    reference_graph: UccaGraph,
    params: Optional[SwssParams] = None,
) -> ScoreBreakdown:
    """Score a candidate/reference pair of UCCA graphs.

    Symmetric in its two graph arguments: swapping them swaps the
    candidate/reference diagnostics and exchanges precision with recall,
    but yields the identical score.
    """
    return score_from_features(GraphFeatures.of(candidate_graph), GraphFeatures.of(reference_graph), params)


def score_from_features(
    candidate: GraphFeatures,
    reference: GraphFeatures,
    params: Optional[SwssParams] = None,
) -> ScoreBreakdown:
    """:func:`swss` on the features of the two graphs."""
    if params is None:
        params = SwssParams()
    precision, recall, f1, fallback_used = f1_score(candidate.bag, reference.bag, params)

    if params.include_remote_critical_edges:
        candidate_stats, reference_stats = candidate.stats_with_remote, reference.stats_with_remote
    else:
        candidate_stats, reference_stats = candidate.stats, reference.stats

    p_scene = ratio_penalty(candidate_stats.scenes, reference_stats.scenes)
    p_node = ratio_penalty(candidate_stats.nodes, reference_stats.nodes)
    p_edge = ratio_penalty(candidate_stats.critical_edges, reference_stats.critical_edges)
    len_penalty = (candidate_stats.tokens + reference_stats.tokens) / 2

    score = penalized_score(f1, fallback_used, p_scene, p_node, p_edge, len_penalty, params)
    return ScoreBreakdown(
        precision=precision,
        recall=recall,
        f1=f1,
        p_scene=p_scene,
        p_node=p_node,
        p_edge=p_edge,
        len_penalty=len_penalty,
        swss=score,
        fallback_used=fallback_used,
        candidate=candidate_stats,
        reference=reference_stats,
    )


def combine(base_score: float, breakdown: ScoreBreakdown, params: SwssParams) -> float:
    """Blend a base metric score with the structural score: base + beta * swss."""
    if not _is_number(base_score):
        raise ValueError(f"base score must be a number, got {base_score!r}")
    if not _in_float_range(base_score):
        raise ValueError(f"base score must be finite, got {base_score!r}")
    return base_score + params.beta * breakdown.swss
