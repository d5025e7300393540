import inspect

import pytest

import swss
from swss import core_words, harness, lexical, scoring, ucca_graph

# Everything ``import swss`` offers besides its submodules. A name added
# here is a promise to users, so helpers that only tests need belong in
# tests/oracles.py instead.
PUBLIC_NAMES = {
    "ABLATIONS",
    "CORE_CATEGORIES",
    "CRITICAL_CATEGORIES",
    "Category",
    "CoreWord",
    "CoreWordBag",
    "CorrelationReport",
    "DatasetError",
    "Edge",
    "ExternalScoreTable",
    "GraphError",
    "GraphStats",
    "SCENE_CATEGORIES",
    "ScoreBreakdown",
    "SegmentRecord",
    "SwssError",
    "SwssParams",
    "Terminal",
    "TuneGrid",
    "UccaGraph",
    "apply_ablation",
    "build_graph",
    "clipped_match",
    "combine",
    "emit_json",
    "evaluate",
    "extract_core_words",
    "f1_score",
    "graph_from_dict",
    "grid_search",
    "load_dataset",
    "load_external_scores",
    "load_graph",
    "ngram_profile",
    "parse_ucca_json",
    "parse_ucca_xml",
    "pearson",
    "penalized_score",
    "porter_stem",
    "ratio_penalty",
    "sentence_bleu",
    "swss",
}


def test_public_names_are_exactly_the_documented_set():
    exported = {
        name for name, value in vars(swss).items() if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == PUBLIC_NAMES


@pytest.mark.parametrize("module", [core_words, harness, lexical, scoring, ucca_graph], ids=lambda m: m.__name__)
def test_module_exports_are_package_exports(module):
    assert set(module.__all__) <= PUBLIC_NAMES
