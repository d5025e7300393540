"""Semantically weighted sentence similarity over UCCA graphs.

Extracts semantic core words (lowest edge label P, S, A, or C) from UCCA
graphs, scores sentence pairs by a penalized core-word F1, blends the
result with lexical metrics such as BLEU, and evaluates metric quality by
Pearson correlation against human judgments.
"""

from .core_words import (
    CORE_CATEGORIES,
    CoreWord,
    CoreWordBag,
    clipped_match,
    extract_core_words,
    porter_stem,
)
from .errors import DatasetError, GraphError, SwssError
from .harness import (
    ABLATIONS,
    CorrelationReport,
    SegmentRecord,
    TuneGrid,
    apply_ablation,
    evaluate,
    grid_search,
    load_dataset,
    pearson,
)
from .lexical import ExternalScoreTable, load_external_scores, ngram_profile, sentence_bleu
from .scoring import (
    GraphStats,
    ScoreBreakdown,
    SwssParams,
    combine,
    f1_score,
    penalized_score,
    ratio_penalty,
    swss,
)
from .ucca_graph import (
    CRITICAL_CATEGORIES,
    SCENE_CATEGORIES,
    Category,
    Edge,
    Terminal,
    UccaGraph,
    build_graph,
    emit_json,
    graph_from_dict,
    load_graph,
    parse_ucca_json,
    parse_ucca_xml,
)

__version__ = "0.1.0"
