"""Tests of the benchmark itself: seeded corpora, the XML writer, the
corruptions, and the output checks.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import argparse
import copy
import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

import checks
import child
import corpus
import run
from swss import GraphError, SwssParams, TuneGrid, harness, load_graph, parse_ucca_json, parse_ucca_xml
from swss.synthetic import random_graph

ROOT = Path(__file__).resolve().parents[2]


def tree_sha256(root: Path) -> str:
    """One digest over every file name and byte under ``root``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _summary(graph):
    return (
        graph.tokens(),
        [graph.lowest_label(t.id) for t in graph.terminals],
        graph.count_scenes(),
        graph.count_nodes(),
        graph.count_critical_edges(),
        graph.count_critical_edges(include_remote=True),
    )


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_same_seed_gives_byte_identical_corpus(tmp_path, workload):
    first = corpus.generate(workload, 7, tmp_path / "a", ROOT)
    second = corpus.generate(workload, 7, tmp_path / "b", ROOT)
    other = corpus.generate(workload, 8, tmp_path / "c", ROOT)
    assert tree_sha256(first.root) == tree_sha256(second.root)
    assert tree_sha256(first.root) != tree_sha256(other.root)


def test_xml_round_trip_keeps_what_scoring_reads():
    rng = random.Random(3)
    words = corpus.load_vocabulary(ROOT)
    for _ in range(300):
        tokens = rng.sample(words, rng.randint(5, 40))
        graph = random_graph(rng, tokens=tokens, remote_prob=0.8)
        parsed = parse_ucca_xml(corpus.graph_to_xml(graph))
        assert _summary(parsed) == _summary(graph)


def test_xml_round_trip_of_the_figure_fixture():
    graph = parse_ucca_json((ROOT / "tests" / "data" / "figure_sentence.json").read_bytes())
    assert _summary(parse_ucca_xml(corpus.graph_to_xml(graph))) == _summary(graph)


def test_corpus_files_parse_unless_marked_corrupt(tmp_path):
    made = corpus.generate("da-bleu", 5, tmp_path, ROOT)
    truth = json.loads(made.truth.read_text())
    records = harness.load_dataset(made.manifest)
    for record, entry in zip(records, truth["records"]):
        try:
            load_graph(record.candidate_ucca, lenient=True)
            load_graph(record.reference_ucca, lenient=True)
            loaded = True
        except GraphError:
            loaded = False
        assert loaded == entry["valid"], record.label
    shape = truth["shape"]
    assert shape["corrupt_records"] == sum(not e["valid"] for e in truth["records"]) > 0
    assert 0.4 < shape["xml_share"] < 0.6
    assert shape["distinct_files"] == shape["records"] + shape["records"] // shape["k"]


@pytest.mark.parametrize("fmt,kinds", [("xml", corpus.XML_CORRUPTIONS), ("json", corpus.JSON_CORRUPTIONS)])
def test_every_corruption_is_a_graph_error(tmp_path, fmt, kinds):
    graph = random_graph(random.Random(1), tokens="a few words to parse here".split())
    for kind in kinds:
        path = tmp_path / f"{kind}.{fmt}"
        path.write_text(corpus.graph_document(graph, fmt, kind))
        with pytest.raises(GraphError):
            load_graph(path, lenient=True)
        path.write_text(corpus.graph_document(graph, fmt))
        assert _summary(load_graph(path)) == _summary(graph)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A tune-tsv corpus, its evaluate and tune reports, and the replay."""
    made = corpus.generate("tune-tsv", 2, tmp_path_factory.mktemp("corpus"), ROOT)
    truth = json.loads(made.truth.read_text())["records"]
    humans = [json.loads(line)["human_score"] for line in made.manifest.read_text().splitlines()]
    args = argparse.Namespace(corpus=str(made.root), base=made.base, spans=None, best=None, one_point=False)
    records, base, _ = child._setup(args)
    report = harness.evaluate(records, SwssParams(), base=base).to_dict()
    best, objective = harness.grid_search(records, TuneGrid.from_dict(corpus.SMALL_GRID), base=base)
    tune = {"params": best.to_dict(), "objective": objective, "grid_size": 64}
    best_average = harness.evaluate(records, best, base=base).average
    rows = child.job_replay(args)["rows"]
    return report, tune, best_average, rows, truth, humans


def test_checks_pass_on_true_reports(small_run):
    report, tune, best_average, rows, truth, humans = small_run
    assert checks.outcome_failures(rows, truth) == 0
    assert checks.check_evaluate(report, rows, truth, humans) == []
    assert checks.check_tune(tune, corpus.SMALL_GRID, best_average, rows, truth, humans, seed=0) == []


@pytest.mark.parametrize(
    "perturb",
    [
        lambda r: r["per_pair"].update({"de-en": r["per_pair"]["de-en"] + 1e-6}),
        lambda r: r["base_per_pair"].update({"ru-en": r["base_per_pair"]["ru-en"] - 1e-6}),
        lambda r: r.update(average=r["average"] + 1e-6),
        lambda r: r.update(skipped=r["skipped"] + 1),
        lambda r: r["n"].update({"zh-en": r["n"]["zh-en"] - 1}),
    ],
)
def test_perturbed_evaluate_report_fails(small_run, perturb):
    report, _, _, rows, truth, humans = small_run
    bad = copy.deepcopy(report)
    perturb(bad)
    assert checks.check_evaluate(bad, rows, truth, humans)


def test_perturbed_tune_report_fails(small_run):
    _, tune, best_average, rows, truth, humans = small_run
    off_grid = copy.deepcopy(tune)
    off_grid["params"]["alpha1"] = 0.3
    shifted = copy.deepcopy(tune)
    shifted["objective"] += 1e-9
    assert checks.check_tune(off_grid, corpus.SMALL_GRID, best_average, rows, truth, humans, 0)
    assert checks.check_tune(shifted, corpus.SMALL_GRID, best_average, rows, truth, humans, 0)

    # A worse grid point passed off as the argmax is beaten by the sample.
    worst = min(
        (dict(zip(checks.PARAM_NAMES, values)) for values in _grid_points(corpus.SMALL_GRID)),
        key=lambda point: checks.objective(point, rows, truth, humans),
    )
    wrong = {"params": worst, "objective": checks.objective(worst, rows, truth, humans), "grid_size": 64}
    failures = checks.check_tune(wrong, corpus.SMALL_GRID, wrong["objective"], rows, truth, humans, 0)
    assert any("reaches" in failure for failure in failures)


def test_wrong_outcomes_are_counted(small_run):
    _, _, _, rows, truth, _ = small_run
    flipped = list(rows)
    first_valid = next(i for i, entry in enumerate(truth) if entry["valid"])
    flipped[first_valid] = None
    assert checks.outcome_failures(flipped, truth) == 1


def _grid_points(grid):
    return itertools.product(*(grid[name] for name in checks.PARAM_NAMES))


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(corpus.WORKLOADS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"], metric["name"]
