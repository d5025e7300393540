import dataclasses
import errno
import itertools
import json
import logging
import math
import multiprocessing
import os
import random
import re
import select
import signal
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import Counter
from pathlib import Path

import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import evaluate_per_record, grid_search_per_record, reference_pearson
from swss import _fanout, harness
from swss.errors import DatasetError, GraphError
from swss.harness import TuneGrid, evaluate, grid_search, load_dataset, pearson
from swss.lexical import ExternalScoreTable, sentence_bleu
from swss.scoring import SwssParams, score_from_features, swss
from swss.synthetic import mutate_tokens, random_graph, write_synthetic_dataset
from swss.ucca_graph import emit_json, load_graph

floats = st.floats(min_value=-100, max_value=100)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    dest = tmp_path_factory.mktemp("corpus")
    manifest = write_synthetic_dataset(
        dest, n_segments=24, lang_pairs=("aa-en", "bb-en"), seed=7, noise=0.01
    )
    return manifest


@pytest.fixture(scope="module")
def records(corpus):
    return load_dataset(corpus)


class TestPearson:
    def test_perfect_positive_linear_relation(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [2 * x + 1 for x in xs]
        assert pearson(xs, ys) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative_relation(self):
        xs = [1.0, 2.0, 3.0]
        assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_half(self):
        # means 2, 2; covariance 1; variances 2, 2; r = 1/2.
        assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-12)

    def test_constant_input_is_an_error(self):
        with pytest.raises(ValueError, match="constant"):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(ValueError, match="constant"):
            pearson([1, 2, 3], [5, 5, 5])

    # Constants whose floating-point mean is off by an ulp, which once
    # left tiny deviations and r = 0.0 instead of an error.
    @pytest.mark.parametrize("value,n", [(0.1, 3), (0.1, 6), (0.7, 12), (0.1, 24)])
    def test_constant_with_inexact_mean_is_an_error(self, value, n):
        varying = [float(i) for i in range(n)]
        with pytest.raises(ValueError, match="constant"):
            pearson([value] * n, varying)
        with pytest.raises(ValueError, match="constant"):
            pearson(varying, [value] * n)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            pearson([1, 2], [1, 2, 3])

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least two"):
            pearson([1], [2])

    @given(st.lists(st.tuples(floats, floats), min_size=3, max_size=30))
    # Spreads so small that the sums of squares underflow unless the
    # deviations are rescaled first.
    @example([(0.0, 0.0), (0.0, 0.0), (3.007e-157, 3.007e-157)])
    @example([(0.0, 0.0), (0.0, 0.0), (0.015625, 3.007e-157)])
    @example([(0.0, 0.0), (1.0, 1e-161), (0.5, 3e-162)])
    def test_matches_scipy(self, pairs):
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        sx = sum((x - xs[0]) ** 2 for x in xs)
        sy = sum((y - ys[0]) ** 2 for y in ys)
        if sx == 0 or sy == 0:
            return
        expected = scipy.stats.pearsonr(xs, ys).statistic
        assert pearson(xs, ys) == pytest.approx(expected, abs=1e-9)

    @given(
        st.lists(
            st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
            min_size=3,
            max_size=20,
        ),
        st.floats(min_value=0.1, max_value=10),
        st.floats(min_value=-100, max_value=100),
    )
    def test_affine_invariance(self, pairs, scale, shift):
        # Integer-valued points keep distinct values distinct after the
        # affine map, so the correlation stays well defined.
        xs = [float(p[0]) for p in pairs]
        ys = [float(p[1]) for p in pairs]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            return
        base = pearson(xs, ys)
        assert pearson([scale * x + shift for x in xs], ys) == pytest.approx(base, abs=1e-12)
        assert pearson([-scale * x + shift for x in xs], ys) == pytest.approx(-base, abs=1e-12)

    def test_matches_raw_moment_oracle(self):
        xs = [0.3, 1.7, 2.2, 4.0, 5.1]
        ys = [1.1, 0.4, 2.8, 2.9, 4.4]
        assert pearson(xs, ys) == pytest.approx(reference_pearson(xs, ys), abs=1e-12)


class TestLoadDataset:
    def test_counts_match_manifest(self, corpus, records):
        assert len(records) == 24
        assert {r.lang_pair for r in records} == {"aa-en", "bb-en"}
        assert all(r.candidate_ucca.is_file() and r.reference_ucca.is_file() for r in records)

    def test_empty_manifest_warns(self, tmp_path, caplog):
        manifest = tmp_path / "empty.jsonl"
        manifest.write_text("")
        with caplog.at_level(logging.WARNING):
            assert load_dataset(manifest) == []
        assert "no records" in caplog.text

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError, match="manifest not found"):
            load_dataset(tmp_path / "nope.jsonl")

    def test_missing_graph_file_names_record(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(
            json.dumps(
                {
                    "lang_pair": "aa-en",
                    "system": "sys",
                    "segment_id": 3,
                    "candidate_ucca": "gone.json",
                    "reference_ucca": "gone.json",
                    "human_score": 0.5,
                }
            )
            + "\n"
        )
        with pytest.raises(DatasetError, match="record aa-en/sys/3: missing UCCA file"):
            load_dataset(manifest)

    def test_unknown_field_rejected(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text('{"lang_pair": "aa-en", "surprise": 1}\n')
        with pytest.raises(DatasetError, match="unknown field 'surprise'"):
            load_dataset(manifest)

    def test_wrong_type_rejected(self, tmp_path, corpus):
        graph = corpus.parent / "seg0000.cand.json"
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(
            json.dumps(
                {
                    "lang_pair": "aa-en",
                    "system": "sys",
                    "segment_id": "three",
                    "candidate_ucca": str(graph),
                    "reference_ucca": str(graph),
                    "human_score": 0.5,
                }
            )
            + "\n"
        )
        with pytest.raises(DatasetError, match="field 'segment_id' has the wrong type"):
            load_dataset(manifest)

    def test_malformed_line_numbered(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("\n{oops\n")
        with pytest.raises(DatasetError, match=":2: malformed JSON"):
            load_dataset(manifest)

    def test_wmt_scale_manifest(self, tmp_path):
        # One language pair with 500 segments, the shape of a real
        # evaluation-campaign dataset.
        manifest = write_synthetic_dataset(tmp_path, n_segments=500, lang_pairs=("cs-en",), seed=1, noise=0.01)
        records = load_dataset(manifest)
        assert len(records) == 500
        report = evaluate(records, SwssParams())
        assert report.n == {"cs-en": 500}


def constant_table(records, value=0.0):
    return ExternalScoreTable(
        metric_name="constant", rows={(r.system, r.segment_id): value for r in records}
    )


class TestEvaluate:
    def test_perfect_metric_gives_r_one(self, records):
        # Human scores constructed to equal the structural score exactly;
        # with a zero base the combined metric is beta * swss, so r = 1.
        params = SwssParams()
        scored = [
            dataclasses.replace(
                r, human_score=swss(load_graph(r.candidate_ucca), load_graph(r.reference_ucca), params).swss
            )
            for r in records
        ]
        report = evaluate(scored, params, base=constant_table(scored))
        for lang_pair, r in report.per_pair.items():
            assert r == pytest.approx(1.0, abs=1e-12), lang_pair
        assert report.average == pytest.approx(1.0, abs=1e-12)
        # A constant base has no correlation of its own.
        assert all(r is None for r in report.base_per_pair.values())
        assert report.base_average is None

    def test_counts_and_echo(self, records):
        report = evaluate(records, SwssParams())
        assert report.n == {"aa-en": 12, "bb-en": 12}
        assert report.base_name == "bleu"
        assert report.skipped == 0
        assert report.params == SwssParams()
        assert -1.0 <= report.average <= 1.0

    def test_deterministic(self, records):
        a = evaluate(records, SwssParams())
        b = evaluate(records, SwssParams())
        assert a == b

    def test_base_only_equals_raw_base_correlation(self, records):
        report = evaluate(records, SwssParams(), ablation="base-only")
        assert report.per_pair == report.base_per_pair
        assert report.average == report.base_average
        assert report.params.beta == 0.0

    def test_no_repr_equals_zeroed_alphas(self, records):
        flagged = evaluate(records, SwssParams(), ablation="no-repr")
        manual = evaluate(records, SwssParams(alpha1=0.0, alpha2=0.0, alpha3=0.0))
        assert flagged == manual

    def test_no_len_equals_zeroed_alpha4(self, records):
        flagged = evaluate(records, SwssParams(), ablation="no-len")
        manual = evaluate(records, SwssParams(alpha4=0.0))
        assert flagged == manual

    def test_unknown_ablation_rejected(self, records):
        with pytest.raises(ValueError, match="unknown ablation"):
            evaluate(records, SwssParams(), ablation="no-everything")

    def test_empty_records_rejected(self):
        with pytest.raises(DatasetError, match="no records"):
            evaluate([], SwssParams())

    def test_single_segment_pair_is_an_error(self, records):
        lonely = [records[0], *[r for r in records if r.lang_pair != records[0].lang_pair]]
        with pytest.raises(DatasetError, match=f"language pair '{records[0].lang_pair}'"):
            evaluate(lonely, SwssParams())

    def test_external_base_combination(self, records):
        # human := meteor + beta * swss exactly, so evaluating with that
        # external base must give r = 1 in every pair.
        params = SwssParams()
        rows = {}
        scored = []
        for i, r in enumerate(records):
            meteor = 0.1 + 0.8 * (i / len(records))
            structural = swss(load_graph(r.candidate_ucca), load_graph(r.reference_ucca), params).swss
            rows[(r.system, r.segment_id)] = meteor
            scored.append(dataclasses.replace(r, human_score=meteor + params.beta * structural))
        table = ExternalScoreTable(metric_name="meteor", rows=rows)
        report = evaluate(scored, params, base=table)
        assert report.base_name == "meteor"
        for r in report.per_pair.values():
            assert r == pytest.approx(1.0, abs=1e-12)

    def test_missing_external_score_is_an_error(self, records):
        table = ExternalScoreTable(metric_name="meteor", rows={})
        with pytest.raises(DatasetError, match="no meteor score"):
            evaluate(records, SwssParams(), base=table)

    def test_unknown_base_string_rejected(self, records):
        with pytest.raises(ValueError, match="unknown base metric"):
            evaluate(records, SwssParams(), base="rouge")

    def test_corrupt_graph_lenient_skips_strict_aborts(self, records, tmp_path, caplog):
        broken_path = tmp_path / "broken.json"
        broken_path.write_text("{not json")
        broken = dataclasses.replace(records[0], candidate_ucca=broken_path)
        mixed = [broken, *records[1:]]
        with pytest.raises(DatasetError, match="broken.json"):
            evaluate(mixed, SwssParams(), strict=True)
        with caplog.at_level(logging.WARNING):
            report = evaluate(mixed, SwssParams(), strict=False)
        assert report.skipped == 1
        assert sum(report.n.values()) == len(records) - 1
        assert "skipping record" in caplog.text

    def test_beta_continuity_at_zero(self, records):
        at_zero = evaluate(records, SwssParams(beta=0.0)).average
        near_zero = evaluate(records, SwssParams(beta=1e-9)).average
        assert near_zero == pytest.approx(at_zero, abs=1e-6)


class TestTuneGrid:
    def test_default_grid_size(self):
        grid = TuneGrid()
        assert grid.size == 8 * 8 * 8 * 8 * 5 * 5

    def test_values_sorted_and_deduped(self):
        grid = TuneGrid(alpha1=(1.0, 0.1, 1.0), alpha2=(0,), alpha3=(0,), alpha4=(0,), beta=(0.2,), omega=(0.5,))
        assert grid.alpha1 == (0.1, 1.0)
        assert grid.size == 2

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            TuneGrid(alpha1=())

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown grid parameter"):
            TuneGrid.from_dict({"alpha9": [1]})

    def test_omega_range_checked(self):
        with pytest.raises(ValueError, match="omega"):
            TuneGrid(omega=(0.5, 2.0))

    @pytest.mark.parametrize("value", ["abc", "", 0.5, None, {"a": 1}])
    def test_value_must_be_a_list(self, value):
        with pytest.raises(ValueError, match="grid for 'beta' must be a list of numbers"):
            TuneGrid.from_dict({"beta": value})

    def test_value_too_large_for_a_float_rejected(self):
        with pytest.raises(ValueError, match="for 'alpha1' must be finite"):
            TuneGrid.from_dict({"alpha1": [10**400]})


def singleton_grid(**overrides):
    values = {"alpha1": (0.2,), "alpha2": (1.0,), "alpha3": (0.5,), "alpha4": (0.01,), "beta": (0.2,), "omega": (0.5,)}
    values.update(overrides)
    return TuneGrid(**values)


class TestGridSearch:
    def test_singleton_grid_echoes_point(self, records):
        grid = singleton_grid()
        best, objective = grid_search(records, grid)
        assert best == SwssParams()
        assert objective == evaluate(records, best).average

    def test_objective_matches_evaluate_everywhere(self, records):
        grid = singleton_grid(alpha1=(0.0, 0.2), beta=(0.1, 0.2), omega=(0.0, 1.0))
        best, objective = grid_search(records, grid)
        # Exhaustive re-check: the returned point attains the grid maximum.
        points = [
            SwssParams(*vector)
            for vector in itertools.product(
                grid.alpha1, grid.alpha2, grid.alpha3, grid.alpha4, grid.beta, grid.omega
            )
        ]
        objectives = {p: evaluate(records, p).average for p in points}
        assert objective == max(objectives.values())
        assert objectives[best] == objective

    def test_recovers_dominant_point(self, records):
        # Construct labels that follow beta = 0.2 exactly; the grid point
        # with that beta then yields r = 1 and must win.
        params = SwssParams()
        scored = [
            dataclasses.replace(
                r,
                human_score=sentence_bleu(
                    load_graph(r.candidate_ucca).tokens(), load_graph(r.reference_ucca).tokens()
                )
                + 0.2 * swss(load_graph(r.candidate_ucca), load_graph(r.reference_ucca), params).swss,
            )
            for r in records
        ]
        grid = singleton_grid(beta=(0.05, 0.2))
        best, objective = grid_search(scored, grid)
        assert best.beta == 0.2
        assert objective == pytest.approx(1.0, abs=1e-12)

    def test_ties_break_to_smallest_vector(self, records):
        # Self-pairs have all ratio penalties at 0, so alpha1 cannot matter
        # and the search must settle on the smaller value.
        selfine = [dataclasses.replace(r, candidate_ucca=r.reference_ucca) for r in records]
        grid = singleton_grid(alpha1=(0.0, 1.0))
        best, _ = grid_search(selfine, grid)
        assert best.alpha1 == 0.0

    def test_grid_size_logged(self, records, caplog):
        with caplog.at_level(logging.INFO):
            grid_search(records, singleton_grid())
        assert "grid search over 1 parameter points" in caplog.text

    def test_empty_records_rejected(self):
        with pytest.raises(DatasetError):
            grid_search([], singleton_grid())

    def test_omega_sensitivity_reaches_fallback_segments(self, records, tmp_path):
        # Give one record a candidate with no core words, then verify the
        # tuned omega actually changes the objective through the fallback.
        empty = {
            "tokens": ["very"],
            "nodes": [{"id": "r"}, {"id": "u"}],
            "root": "r",
            "edges": [
                {"parent": "r", "child": "u", "category": "H", "remote": False},
                {"parent": "u", "child": {"terminal": 1}, "category": "E", "remote": False},
            ],
        }
        path = tmp_path / "empty_core.json"
        path.write_text(json.dumps(empty))
        tweaked = [dataclasses.replace(records[0], candidate_ucca=path), *records[1:]]
        lo = evaluate(tweaked, SwssParams(omega=0.0)).average
        hi = evaluate(tweaked, SwssParams(omega=1.0)).average
        assert lo != hi
        best, objective = grid_search(tweaked, singleton_grid(omega=(0.0, 1.0)))
        assert objective == max(lo, hi)
        assert best.omega == (0.0 if lo >= hi else 1.0)

    def test_recheck_count_logged(self, records, caplog):
        with caplog.at_level(logging.INFO):
            grid_search(records, singleton_grid(alpha1=(0.0, 0.2)))
        assert "re-checked" in caplog.text
        assert "of 2 points re-checked" in caplog.text


def axis(values):
    return st.lists(st.sampled_from(values), min_size=1, max_size=3)


def outcome(function, *args, **kwargs):
    """``function(*args, **kwargs)``, or the text of the DatasetError it raises."""
    try:
        return function(*args, **kwargs)
    except DatasetError as exc:
        return str(exc)


# Corpora and grids on which the grid search must match the oracle.
ORACLE_CASES = dict(
    n_segments=st.integers(2, 10),
    two_pairs=st.booleans(),
    noise=st.sampled_from([0.0, 0.05]),
    self_pairs=st.booleans(),
    constant_base=st.sampled_from([None, 0.25, 0.3]),
    seed=st.integers(0, 10_000),
    grid=st.builds(
        TuneGrid,
        alpha1=axis([0.0, 0.1, 1.0]),
        alpha2=axis([0.0, 0.5, 2.0]),
        alpha3=axis([0.0, 0.2, 1.0]),
        alpha4=axis([0.0, 0.01, 0.5]),
        beta=axis([0.0, 0.2, 1.0]),
        omega=axis([0.0, 0.5, 1.0]),
    ),
)


def oracle_case(tmp, n_segments, two_pairs, noise, self_pairs, constant_base, seed):
    """The records and base of one ``ORACLE_CASES`` draw, written to ``tmp``."""
    lang_pairs = ("aa-en", "bb-en") if two_pairs else ("aa-en",)
    records = load_dataset(write_synthetic_dataset(tmp, n_segments, lang_pairs=lang_pairs, seed=seed, noise=noise))
    if self_pairs:
        # Every ratio penalty is 0, so alpha1..alpha3 tie exactly.
        records = [dataclasses.replace(r, candidate_ucca=r.reference_ucca) for r in records]
    return records, "bleu" if constant_base is None else constant_table(records, constant_base)


class TestGridSearchOracle:
    """The closed-form screen plus exact re-check must reproduce the
    exhaustive per-point search bit for bit, errors included."""

    @settings(max_examples=80, deadline=None)
    @given(**ORACLE_CASES)
    def test_matches_bruteforce(self, n_segments, two_pairs, noise, self_pairs, constant_base, seed, grid):
        with tempfile.TemporaryDirectory() as tmp:
            records, base = oracle_case(tmp, n_segments, two_pairs, noise, self_pairs, constant_base, seed)
            expected = outcome(grid_search_per_record, records, grid, base)
            got = outcome(grid_search, records, grid, base)
            assert got == expected
            if not isinstance(got, str):
                best, objective = got
                assert objective == evaluate(records, best, base=base).average

    def test_constant_human_scores_raise_like_bruteforce(self, records):
        flat = [
            dataclasses.replace(r, human_score=0.5) if r.lang_pair == "bb-en" else r for r in records
        ]
        grid = singleton_grid(alpha1=(0.0, 0.2), beta=(0.1, 0.2))
        expected = outcome(grid_search_per_record, flat, grid, "bleu")
        assert expected == "language pair 'bb-en': pearson is undefined for a constant input"
        with pytest.raises(DatasetError) as info:
            grid_search(flat, grid)
        assert str(info.value) == expected

    def test_constant_base_at_beta_zero_raises_like_bruteforce(self, records):
        table = constant_table(records, 0.25)
        grid = singleton_grid(alpha1=(0.0, 0.2), beta=(0.0, 0.2))
        expected = outcome(grid_search_per_record, records, grid, table)
        assert expected == "language pair 'aa-en': pearson is undefined for a constant input"
        with pytest.raises(DatasetError) as info:
            grid_search(records, grid, base=table)
        assert str(info.value) == expected


def write_shared_corpus(dest, n_segments=6, systems=3, seed=0):
    """A DA-shaped corpus: ``systems`` candidates per segment, all judged
    against the segment's one reference file. Records come system by
    system, so each reference comes back long after its first use; one
    more record pairs a reference with itself. Returns the records."""
    rng = random.Random(seed)
    dest.mkdir(parents=True, exist_ok=True)

    def write(name, graph):
        (dest / name).write_text(json.dumps(emit_json(graph)), encoding="utf-8")
        return name

    references = [random_graph(rng) for _ in range(n_segments)]
    rows = []
    for system in range(systems):
        for i, reference in enumerate(references):
            candidate = random_graph(rng, tokens=mutate_tokens(rng, reference.tokens()))
            rows.append((f"sys{system}", i, write(f"sys{system}.{i}.json", candidate), write(f"ref.{i}.json", reference)))
    rows.append(("self", 1, "ref.1.json", "ref.1.json"))
    with open(dest / "manifest.jsonl", "w", encoding="utf-8") as manifest:
        for system, i, candidate, reference in rows:
            record = {
                "lang_pair": ("aa-en", "bb-en")[i % 2],
                "system": system,
                "segment_id": i,
                "candidate_ucca": candidate,
                "reference_ucca": reference,
                "human_score": rng.random(),
            }
            manifest.write(json.dumps(record) + "\n")
    return load_dataset(dest / "manifest.jsonl")


@pytest.fixture(scope="module")
def shared_records(tmp_path_factory):
    return write_shared_corpus(tmp_path_factory.mktemp("shared"))


@pytest.fixture(scope="module")
def corrupt_shared_records(tmp_path_factory):
    """The shared corpus with one corrupt reference (every system's
    record of segment 2 points at it) and one corrupt candidate."""
    records = write_shared_corpus(tmp_path_factory.mktemp("corrupt"), seed=1)
    corrupt = {records[2].reference_ucca, records[9].candidate_ucca}
    for path in corrupt:
        path.write_text("{not json")
    assert sum(r.candidate_ucca in corrupt or r.reference_ucca in corrupt for r in records) == 4
    return records


def random_table(records):
    rng = random.Random(3)
    return ExternalScoreTable(metric_name="meteor", rows={(r.system, r.segment_id): rng.random() for r in records})


class TestSharedFiles:
    """Each distinct file is loaded once per run and its features are
    shared by every record that names it; the results must be those of
    loading both graphs of every record, bit for bit."""

    GRID = TuneGrid(
        alpha1=(0.0, 0.5), alpha2=(0.0, 1.0), alpha3=(0.5,), alpha4=(0.0, 0.01), beta=(0.1, 0.5), omega=(0.0, 0.5)
    )

    @pytest.mark.parametrize("fixture", ["shared_records", "corrupt_shared_records"])
    @pytest.mark.parametrize("table", [False, True], ids=["bleu", "tsv"])
    def test_matches_per_record_oracle(self, request, fixture, table):
        records = request.getfixturevalue(fixture)
        base = random_table(records) if table else "bleu"
        for params in (SwssParams(), SwssParams(include_remote_critical_edges=True)):
            assert evaluate(records, params, base=base).to_dict() == evaluate_per_record(records, params, base)
        assert grid_search(records, self.GRID, base=base) == grid_search_per_record(records, self.GRID, base)

    def test_strict_raises_like_oracle_at_first_record_of_a_corrupt_file(self, corrupt_shared_records):
        records = corrupt_shared_records
        for search, oracle, arg in (
            (evaluate, evaluate_per_record, SwssParams()),
            (grid_search, grid_search_per_record, self.GRID),
        ):
            expected = outcome(oracle, records, arg, strict=True)
            assert expected.startswith(f"record {records[2].label}: {records[2].reference_ucca}: malformed JSON")
            with pytest.raises(DatasetError) as info:
                search(records, arg, strict=True)
            assert str(info.value) == expected

    def test_lenient_skips_every_record_of_a_corrupt_file(self, corrupt_shared_records, caplog):
        with caplog.at_level(logging.WARNING):
            report = evaluate(corrupt_shared_records, SwssParams())
        assert report.skipped == 4
        assert caplog.text.count("skipping record") == 4

    def count_loads(self, monkeypatch, records):
        loads = Counter()
        real = harness.load_graph

        def counting(path, lenient=False):
            loads[path] += 1
            return real(path, lenient=lenient)

        monkeypatch.setattr(harness, "load_graph", counting)
        evaluate(records, SwssParams())
        return loads

    def test_each_distinct_file_is_loaded_once(self, monkeypatch, shared_records):
        loads = self.count_loads(monkeypatch, shared_records)
        distinct = {p for r in shared_records for p in (r.candidate_ucca, r.reference_ucca)}
        assert loads == Counter(distinct)
        assert sum(loads.values()) < 2 * len(shared_records)

    def test_corrupt_files_are_loaded_once_too(self, monkeypatch, corrupt_shared_records):
        loads = self.count_loads(monkeypatch, corrupt_shared_records)
        assert set(loads.values()) == {1}

    def test_features_are_kept_only_until_last_use(self, monkeypatch, shared_records, corrupt_shared_records, tmp_path):
        check_features_kept_until_last_use(monkeypatch, shared_records, corrupt_shared_records, tmp_path)


def distinct_paths(records):
    return {p for r in records for p in (r.candidate_ucca, r.reference_ucca)}


def check_features_kept_until_last_use(monkeypatch, shared_records, corrupt_shared_records, tmp_path, fan_out=None):
    """Check, at every use of a file, that the feature cache holds exactly
    the files loaded so far that a later record still names. With
    ``fan_out``, the check runs in the caller and in a forked child, and
    each distinct file must be loaded once in all."""
    # Every file of the synthetic corpus is single-use, so nothing may be kept there.
    unique = load_dataset(write_synthetic_dataset(tmp_path / "unique", n_segments=6, seed=2))
    cache_class = harness._FeatureCache
    if fan_out:
        fan_out()
        log_loads(monkeypatch, tmp_path / "loads")
    for records in (shared_records, corrupt_shared_records, unique):
        later = Counter(p for r in records for p in (r.candidate_ucca, r.reference_ucca))
        loaded = set()

        class Checked(cache_class):
            def take(self, path, load=True):
                found = super().take(path, load)
                later[path] -= 1
                if found is not None:
                    loaded.add(path)
                assert set(self._kept) == {p for p in loaded if later[p] > 0}
                return found

        monkeypatch.setattr(harness, "_FeatureCache", Checked)
        evaluate(records, SwssParams())
        if fan_out:
            # A process checks only its own tasks, and no other task names
            # their files; a failed check comes back as that record's error.
            pids, paths = logged_loads(tmp_path / "loads")
            (tmp_path / "loads").unlink()
            assert len(pids) >= 2 and os.getpid() in pids
            assert paths == Counter(map(str, distinct_paths(records)))
        else:
            # Every use was counted, also that of a reference whose candidate failed.
            assert set(later.values()) == {0}


# The two phases that fan out: record scoring and the grid screen.
PHASES = ("score", "screen")
# What each phase runs per record or per grid point.
STEP_OF_PHASE = {"score": "_score_record", "screen": "_estimate"}


def force_fan_out(monkeypatch, processes=2, phases=PHASES):
    """Run each of ``phases`` with ``processes`` processes, whatever the
    record, grid and CPU counts."""
    if not hasattr(os, "fork"):
        pytest.skip("the fan-out needs os.fork")
    if "score" in phases:
        monkeypatch.setattr(harness, "_FAN_OUT_MIN_RECORDS", 1)
    if "screen" in phases:
        monkeypatch.setattr(harness, "_FAN_OUT_MIN_SCREEN_WORK", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(processes)), raising=False)


@pytest.fixture
def fan_out(monkeypatch):
    """``fan_out(processes=2, child=None, caller=None, phase="score")``
    forces the fan-out of ``phase`` alone and makes each process run at
    least one task: the caller's first task waits until every child it
    forked has begun one. Before each step of the phase (a record, or a
    grid point of the screen), ``child(n, step)`` runs in the n-th forked
    child (from 0) and ``caller(step)`` in the caller. Returns the list of
    the pids that ``os.fork`` returns; every child still running is
    killed at teardown."""
    began_r, began_w = os.pipe()
    pids = []

    def configure(processes=2, child=None, caller=None, phase="score"):
        force_fan_out(monkeypatch, processes, (phase,))
        parent, waiting, me = os.getpid(), [0], {}
        real_fork, run_task = os.fork, _fanout._task_results
        step = getattr(harness, STEP_OF_PHASE[phase])

        def fork():
            pid = real_fork()
            if pid:
                pids.append(pid)
                waiting[0] += 1
            else:
                me["n"] = len(pids)
            return pid

        def task_results(run, n):
            if os.getpid() == parent:
                while waiting[0]:
                    if not select.select([began_r], [], [], 10)[0]:
                        raise AssertionError("a forked child began no task")
                    waiting[0] -= len(os.read(began_r, waiting[0]))
            elif not me.get("began"):
                me["began"] = True
                os.write(began_w, b"x")
            return run_task(run, n)

        def stepped(first, *args):
            if os.getpid() == parent:
                if caller:
                    caller(first)
            elif child:
                child(me["n"], first)
            return step(first, *args)

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(_fanout, "_task_results", task_results)
        monkeypatch.setattr(harness, STEP_OF_PHASE[phase], stepped)
        return pids

    yield configure
    for pid in pids:
        try:
            if os.waitpid(pid, os.WNOHANG) == (0, 0):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    os.close(began_r)
    os.close(began_w)


def log_loads(monkeypatch, log):
    """Make every graph load append ``pid path`` to the file ``log``."""
    real = harness.load_graph

    def logged(path, lenient=False):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {path}\n")
        return real(path, lenient=lenient)

    monkeypatch.setattr(harness, "load_graph", logged)


def logged_loads(log):
    lines = log.read_text(encoding="utf-8").splitlines()
    return Counter(int(line.split(" ", 1)[0]) for line in lines), Counter(line.split(" ", 1)[1] for line in lines)


def result_or_error(function, *args, **kwargs):
    """The result of a call, or the type and text of what it raised."""
    try:
        return function(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def evaluate_in_a_worker(records):
    return evaluate(records, SwssParams()).to_dict()


def run_phase(phase, records):
    """The output of a run that reaches ``phase``: the evaluate report to
    score, or the tuned parameters and objective to screen."""
    if phase == "score":
        return evaluate(records, SwssParams()).to_dict()
    return grid_search(records, TestSharedFiles.GRID)


def run_forced_fan_out(script, manifest):
    """Run ``script`` in a fresh interpreter that forces a two-process
    fan-out of both phases, with ``caller`` set to its pid, ``GRID`` to a
    small grid and the manifest path as ``sys.argv[1]``."""
    setup = (
        "import os, select, signal, sys\n"
        "from swss import harness\n"
        "from swss.harness import evaluate, load_dataset\n"
        "from swss.scoring import SwssParams\n"
        "from swss.harness import TuneGrid, grid_search\n"
        "harness._FAN_OUT_MIN_RECORDS = 1\n"
        "harness._FAN_OUT_MIN_SCREEN_WORK = 1\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "GRID = TuneGrid(alpha1=(0.0, 0.5), alpha2=(0.0, 1.0), beta=(0.1, 0.5))\n"
        "caller = os.getpid()\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parent.parent)}
    return subprocess.run(
        [sys.executable, "-c", setup + script, str(manifest)], env=env, capture_output=True, text=True, timeout=60
    )


class TestWorkerPool:
    """Records scored by the calling process and forked children, which a
    run starts for enough records on more than one CPU, give the serial
    run's results, errors and warnings."""

    GRID = TestSharedFiles.GRID

    def test_workers_score_and_load_each_file_once(self, monkeypatch, fan_out, shared_records, tmp_path):
        fan_out()
        log_loads(monkeypatch, tmp_path / "loads")
        evaluate(shared_records, SwssParams())
        pids, paths = logged_loads(tmp_path / "loads")
        assert len(pids) >= 2 and os.getpid() in pids
        assert paths == Counter(map(str, distinct_paths(shared_records)))

    def test_features_are_kept_only_until_last_use(
        self, monkeypatch, fan_out, shared_records, corrupt_shared_records, tmp_path
    ):
        check_features_kept_until_last_use(monkeypatch, shared_records, corrupt_shared_records, tmp_path, fan_out)

    @pytest.mark.parametrize("fixture", ["shared_records", "corrupt_shared_records"])
    @pytest.mark.parametrize("table", [False, True], ids=["bleu", "tsv"])
    def test_matches_serial_run_and_oracle(self, fan_out, request, fixture, table):
        records = request.getfixturevalue(fixture)
        base = random_table(records) if table else "bleu"
        serial = harness._prepare_segments(records, SwssParams(), base, False)
        fan_out()
        assert harness._prepare_segments(records, SwssParams(), base, False) == serial
        for params in (SwssParams(), SwssParams(include_remote_critical_edges=True)):
            assert evaluate(records, params, base=base).to_dict() == evaluate_per_record(records, params, base)
        assert grid_search(records, self.GRID, base=base) == grid_search_per_record(records, self.GRID, base)

    def test_strict_error_and_lenient_warnings_match_serial_run(self, fan_out, corrupt_shared_records, caplog):
        records = corrupt_shared_records

        def run():
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="swss.harness"):
                evaluate(records, SwssParams())
            warnings = [r.getMessage() for r in caplog.records]
            return result_or_error(evaluate, records, SwssParams(), strict=True), warnings

        serial = run()
        assert len(serial[1]) == 5 and serial[0][0] is DatasetError
        fan_out()
        assert run() == serial

    @pytest.mark.parametrize(
        "fault, error",
        [("graph", DatasetError), ("tsv-row", DatasetError), ("deleted-file", FileNotFoundError)],
    )
    def test_first_error_in_record_order_wins(self, monkeypatch, fan_out, tmp_path, fault, error):
        # Records 0 and 17 fail, in different tasks. The task numbers are
        # fed in reverse, so the task that holds record 0 is the last one
        # taken, and its outcomes come after those of a later task.
        records = write_shared_corpus(tmp_path / "corpus")
        failing = (records[0], records[17])
        base, strict = "bleu", fault == "graph"
        if fault == "graph":
            for record in failing:
                record.candidate_ucca.write_text("{not json")
        elif fault == "tsv-row":
            table = random_table(records)
            missing = {(r.system, r.segment_id) for r in failing}
            base = ExternalScoreTable(table.metric_name, {k: v for k, v in table.rows.items() if k not in missing})
        else:
            for record in failing:
                record.candidate_ucca.unlink()
        serial = result_or_error(evaluate, records, SwssParams(), base=base, strict=strict)
        assert serial[0] is error
        assert "'sys0', segment 0" in serial[1] if fault == "tsv-row" else records[0].candidate_ucca.name in serial[1]

        tasks = _fanout.partition(records, 8)
        assert tasks[0][0] == 0 and 17 in tasks[-1]
        partition = _fanout.partition
        monkeypatch.setattr(_fanout, "partition", lambda records, count: partition(records, count)[::-1])
        log = tmp_path / "scored"

        def scoring(record):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()} {records.index(record)}\n")

        fan_out(child=lambda n, record: scoring(record), caller=scoring)
        assert result_or_error(evaluate, records, SwssParams(), base=base, strict=strict) == serial
        order = {}
        for line in log.read_text(encoding="utf-8").splitlines():
            pid, index = map(int, line.split())
            order.setdefault(pid, []).append(index)
        assert len(order) == 2
        (scored_0,) = (indices for indices in order.values() if 0 in indices)
        # That process scored another task first, and record 0's task last.
        assert scored_0[0] != 0 and set(scored_0[scored_0.index(0):]) <= set(tasks[0])

    def test_worker_traceback_is_the_cause_of_an_unexpected_error(self, monkeypatch, fan_out, shared_records):
        caller = os.getpid()
        fan_out()
        for in_child in (True, False):

            def broken(candidate, reference, params):
                if (os.getpid() != caller) == in_child:
                    raise TypeError("boom")
                return score_from_features(candidate, reference, params)

            monkeypatch.setattr(harness, "score_from_features", broken)
            with pytest.raises(TypeError, match="^boom$") as info:
                evaluate(shared_records, SwssParams())
            own = "".join(traceback.format_tb(info.value.__traceback__))
            if in_child:
                # The child's frames come as the cause, as text.
                assert "in _score_record" in str(info.value.__cause__) and "in _score_record" not in own
            else:
                assert info.value.__cause__ is None and "in _score_record" in own

    @pytest.mark.parametrize("phase", PHASES)
    def test_exception_a_child_cannot_send_comes_as_its_repr(self, monkeypatch, fan_out, shared_records, phase):
        def child(n, step):
            raise TypeError(threading.Lock())  # a lock cannot be pickled

        fan_out(child=child, phase=phase)
        with pytest.raises(RuntimeError, match=r"could not send: TypeError\(<unlocked _thread.lock object") as info:
            run_phase(phase, shared_records)
        # The child's frames come as the cause, as text.
        assert "in child" in str(info.value.__cause__)

    @pytest.mark.parametrize(
        "phase, death, message",
        [
            ("score", "os._exit(3)", "exited with code 3"),
            ("score", "os.kill(os.getpid(), signal.SIGKILL)", "was killed by signal 9"),
            ("screen", "os._exit(3)", "exited with code 3"),
            ("screen", "os.kill(os.getpid(), signal.SIGKILL)", "was killed by signal 9"),
        ],
        ids=["exit", "signal", "screen-exit", "screen-signal"],
    )
    def test_dead_child_raises(self, tmp_path, phase, death, message):
        # The child dies at its first step of the phase, and the caller's
        # first step waits until it has begun one.
        step = STEP_OF_PHASE[phase]
        script = (
            "began, begin = os.pipe()\n"
            f"step = harness.{step}\n"
            "def stepped(*args):\n"
            "    if os.getpid() != caller:\n"
            "        os.write(begin, b'x')\n"
            f"        {death}\n"
            "    select.select([began], [], [], 10)\n"
            "    return step(*args)\n"
            f"harness.{step} = stepped\n"
            "grid_search(load_dataset(sys.argv[1]), GRID)\n"
        )
        result = run_forced_fan_out(script, write_synthetic_dataset(tmp_path, n_segments=12, seed=4))
        assert result.returncode == 1
        last = result.stderr.strip().splitlines()[-1]
        assert re.fullmatch(rf"RuntimeError: worker process \d+ {message} before it sent its results", last)

    @pytest.mark.parametrize(
        "phase, where", [("score", "caller"), ("score", "merge"), ("screen", "caller"), ("screen", "merge")],
        ids=["caller", "merge", "screen-caller", "screen-merge"],
    )
    def test_no_child_outlives_the_call(self, fan_out, shared_records, phase, where):
        def child(n, step):
            if where == "merge" and n == 0:
                os._exit(3)
            time.sleep(60)

        def caller(step):
            if where == "caller":
                raise KeyboardInterrupt

        pids = fan_out(processes=2 if where == "caller" else 3, child=child, caller=caller, phase=phase)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt if where == "caller" else RuntimeError):
            run_phase(phase, shared_records)
        assert time.monotonic() - started < 30
        assert len(pids) == (1 if where == "caller" else 2)
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_runs_serially_in_a_daemonic_worker(self, monkeypatch, shared_records, tmp_path):
        expected = evaluate(shared_records, SwssParams()).to_dict()
        force_fan_out(monkeypatch)
        log_loads(monkeypatch, tmp_path / "loads")
        with multiprocessing.get_context("fork").Pool(1) as outer:
            assert outer.apply(evaluate_in_a_worker, (shared_records,)) == expected
        pids, _ = logged_loads(tmp_path / "loads")
        assert len(pids) == 1 and os.getpid() not in pids

    def test_runs_serially_while_other_threads_run(self, monkeypatch, shared_records, tmp_path):
        force_fan_out(monkeypatch)
        log_loads(monkeypatch, tmp_path / "loads")
        release = threading.Event()
        thread = threading.Thread(target=release.wait, daemon=True)
        thread.start()
        try:
            evaluate(shared_records, SwssParams())
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        pids, _ = logged_loads(tmp_path / "loads")
        assert set(pids) == {os.getpid()}

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=40),
        st.integers(1, 12),
    )
    def test_tasks_partition_records_and_keep_shared_files_together(self, pairs, count):
        records = [
            harness.SegmentRecord("aa-en", "s", i, Path(f"{c}.json"), Path(f"{r}.json"), 0.0)
            for i, (c, r) in enumerate(pairs)
        ]
        tasks = _fanout.partition(records, count)
        assert 1 <= len(tasks) <= count and all(tasks)
        assert sorted(i for task in tasks for i in task) == list(range(len(records)))
        assert all(task == sorted(set(task)) for task in tasks)
        task_of = {i: n for n, task in enumerate(tasks) for i in task}
        for i, j in itertools.combinations(range(len(records)), 2):
            a, b = records[i], records[j]
            if {a.candidate_ucca, a.reference_ucca} & {b.candidate_ucca, b.reference_ucca}:
                assert task_of[i] == task_of[j]

    def test_import_starts_no_process_machinery(self, tmp_path):
        code = (
            "import sys, swss\n"
            "print(sorted({'multiprocessing', 'concurrent.futures', 'pickle', 'swss._fanout'} & set(sys.modules)))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parent.parent)}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"
        # Nor does a run that forks children, to score or to screen; the
        # results come back without pickle.
        script = (
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(fork()) or forks[-1]\n"
            "records = load_dataset(sys.argv[1])\n"
            "evaluate(records, SwssParams())\n"
            "grid_search(records, GRID)\n"
            "print(len(forks), sorted({'multiprocessing', 'concurrent.futures', 'pickle'} & set(sys.modules)))\n"
        )
        result = run_forced_fan_out(script, write_synthetic_dataset(tmp_path, n_segments=12, seed=4))
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "3 []"

    @pytest.mark.parametrize("phase", PHASES)
    @pytest.mark.parametrize("call", ["fork", "pipe"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_failed_fork_gives_fewer_processes(self, monkeypatch, shared_records, caplog, phase, call, k):
        serial = run_phase(phase, shared_records)
        force_fan_out(monkeypatch, 3, (phase,))
        calls, pids = [], []
        real_fork, real_pipe = os.fork, os.pipe

        def fork():
            calls.append("fork")
            if call == "fork" and calls.count("fork") == k:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            pid = real_fork()
            pids.append(pid)
            return pid

        def pipe():
            calls.append("pipe")
            if call == "pipe" and calls.count("pipe") == k:
                raise OSError(errno.EMFILE, "Too many open files")
            return real_pipe()

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "pipe", pipe)
        descriptors = len(os.listdir("/proc/self/fd"))
        with caplog.at_level(logging.WARNING):
            assert run_phase(phase, shared_records) == serial
        assert len(os.listdir("/proc/self/fd")) == descriptors
        assert len(pids) == (1 if (call, k) == ("fork", 2) else 0)
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        (warning,) = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warning.startswith("could not start a worker process ([Errno")
        assert warning.endswith(f"running with {len(pids) + 1} process(es)")


class TestSplitScreen:
    """The grid screen, split into tasks over forked processes, gives the
    serial screen's candidates in the serial order, and so the same
    search."""

    @settings(max_examples=40, deadline=None)
    @given(**ORACLE_CASES, processes=st.integers(2, 4))
    @example(  # one alpha1 value
        n_segments=8, two_pairs=True, noise=0.05, self_pairs=False, constant_base=None, seed=1, processes=3,
        grid=TuneGrid(alpha1=(0.1,), alpha2=(0.0, 0.5, 2.0), alpha3=(0.0, 1.0), alpha4=(0.0, 0.5), beta=(0.2, 1.0)),
    )
    @example(  # self-pair ties
        n_segments=6, two_pairs=False, noise=0.0, self_pairs=True, constant_base=None, seed=2, processes=2,
        grid=TuneGrid(alpha1=(0.0, 1.0), alpha2=(0.0, 2.0), alpha3=(0.0, 0.2), alpha4=(0.0,), beta=(0.2,)),
    )
    @example(  # a constant base at beta = 0: nan estimates, re-checked
        n_segments=8, two_pairs=True, noise=0.05, self_pairs=False, constant_base=0.25, seed=3, processes=2,
        grid=TuneGrid(alpha1=(0.0, 0.1), alpha2=(0.0,), alpha3=(0.0, 1.0), alpha4=(0.0,), beta=(0.0, 0.2)),
    )
    @example(  # more processes than tasks
        n_segments=8, two_pairs=False, noise=0.05, self_pairs=False, constant_base=None, seed=4, processes=4,
        grid=TuneGrid(alpha1=(0.1,), alpha2=(0.5,), alpha3=(0.2,), alpha4=(0.0, 0.5), beta=(0.2, 1.0)),
    )
    def test_matches_serial_screen(
        self, n_segments, two_pairs, noise, self_pairs, constant_base, seed, grid, processes
    ):
        with tempfile.TemporaryDirectory() as tmp:
            records, base = oracle_case(tmp, n_segments, two_pairs, noise, self_pairs, constant_base, seed)
            columns, _ = harness._prepare_segments(records, SwssParams(), base, False)
            serial = harness._screen(columns, grid)
            expected = outcome(grid_search_per_record, records, grid, base)
            counts = []
            with pytest.MonkeyPatch.context() as monkeypatch:
                force_fan_out(monkeypatch, processes, ("screen",))
                run_tasks = _fanout.forked_results
                monkeypatch.setattr(
                    _fanout, "forked_results", lambda run, count, n: counts.append(count) or run_tasks(run, count, n)
                )
                assert harness._screen(columns, grid) == serial
                assert outcome(grid_search, records, grid, base) == expected
            # A pair with fewer than two distinct human scores raises at
            # every point, and the screen returns the first one unswept.
            assert bool(counts) != any(len(set(pair.human)) < 2 for pair in columns.values())

    def test_rechecks_as_many_points_as_serial_screen(self, monkeypatch, records, caplog):
        grid = TuneGrid(
            alpha1=(0.0, 0.1, 1.0), alpha2=(0.0, 0.5), alpha3=(0.0, 0.2), alpha4=(0.0, 0.5), beta=(0.1, 0.2, 1.0)
        )

        def search():
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="swss.harness"):
                found = grid_search(records, grid)
            return found, [r.getMessage() for r in caplog.records]

        serial = search()
        assert re.search(r"\(\d+ of 360 points re-checked\)$", serial[1][-1])
        force_fan_out(monkeypatch, 2, ("screen",))
        assert search() == serial

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=4, max_size=4), st.integers(1, 64))
    def test_tasks_split_the_alpha_tuples_in_order(self, sizes, count):
        tasks = _fanout.screen_tasks(sizes, count)
        assert min(count, math.prod(sizes)) <= len(tasks) < 2 * count
        swept = []
        for task in tasks:
            # The task's slices, and every index at the levels it leaves free.
            parts = [*task, *[slice(None)] * (len(sizes) - len(task))]
            swept += itertools.product(*(range(size)[part] for size, part in zip(sizes, parts)))
        assert swept == list(itertools.product(*map(range, sizes)))
