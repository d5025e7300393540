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
import statistics
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
from hypothesis import assume, example, given, settings, target
from hypothesis import strategies as st

from oracles import evaluate_per_record, grid_search_per_record, reference_pearson
from swss import _fanout, harness
from swss.cli import main
from swss.errors import DatasetError, GraphError
from swss.harness import ABLATIONS, TuneGrid, apply_ablation, evaluate, grid_search, load_dataset, pearson
from swss.lexical import ExternalScoreTable, sentence_bleu
from swss.scoring import SwssParams, swss
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

    # Exactly linear, but the rounded sums put r an ulp outside [-1, 1].
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_rounding_past_one_is_clamped(self, sign):
        assert pearson([4.0, -4.0, -8.0], [sign * y for y in (12.5, -11.5, -23.5)]) == sign

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

    @given(
        st.lists(st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)), min_size=2, max_size=20),
        st.integers(0, 1100),
        st.integers(0, 1100),
    )
    # Shifts capped at the float maximum: a sum that leaves the float
    # range, and deviations that overflow to inf.
    @example([(-1000, 1), (1000, 2), (1000, 3), (0, 4)], 1100, 0)
    @example([(-1000, -1000), (1000, 1000)], 1100, 1100)
    def test_inputs_up_to_the_float_maximum(self, pairs, x_shift, y_shift):
        xs = [float(x) for x, _ in pairs]
        ys = [float(y) for _, y in pairs]
        assume(len(set(xs)) > 1 and len(set(ys)) > 1)
        # Exact scalings, the largest magnitude at most the float maximum.
        x_shift = min(x_shift, 1024 - math.frexp(max(map(abs, xs)))[1])
        y_shift = min(y_shift, 1024 - math.frexp(max(map(abs, ys)))[1])
        r = pearson([math.ldexp(x, x_shift) for x in xs], [math.ldexp(y, y_shift) for y in ys])
        assert r == pytest.approx(statistics.correlation(xs, ys), abs=1e-12)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_input_that_is_not_finite_is_an_error(self, bad, at):
        xs = [1.0, 2.0, 3.0]
        xs[at] = bad
        with pytest.raises(ValueError, match="not finite"):
            pearson(xs, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="not finite"):
            pearson([1.0, 2.0, 3.0], xs)


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

    def test_records_that_name_one_file_share_one_path(self, shared_records):
        paths = {}
        for record in shared_records:
            for path in (record.candidate_ucca, record.reference_ucca):
                assert paths.setdefault(str(path), path) is path
        assert len(paths) < 2 * len(shared_records)

    def test_missing_file_fails_at_the_first_line_that_names_it(self, tmp_path, corpus):
        graph = str(corpus.parent / "seg0000.cand.json")
        rows = [(graph, graph), (graph, "gone.json"), (graph, graph), (graph, graph), ("gone.json", graph)]
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(
            "".join(
                json.dumps(
                    {
                        "lang_pair": "aa-en",
                        "system": "sys",
                        "segment_id": i,
                        "candidate_ucca": candidate,
                        "reference_ucca": reference,
                        "human_score": 0.5,
                    }
                )
                + "\n"
                for i, (candidate, reference) in enumerate(rows)
            )
        )
        with pytest.raises(DatasetError) as info:
            load_dataset(manifest)
        assert str(info.value) == f"{manifest}:2: record aa-en/sys/1: missing UCCA file {tmp_path / 'gone.json'}"

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

    def test_line_that_is_not_an_object_numbered(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("\n[1, 2]\n")
        with pytest.raises(DatasetError) as info:
            load_dataset(manifest)
        assert str(info.value) == f"{manifest}:2: expected a JSON object"

    @pytest.mark.parametrize("human", ["NaN", "Infinity", "-1e999", "1" * 400])
    def test_human_score_that_is_not_finite_rejected(self, tmp_path, corpus, human):
        graph = json.dumps(str(corpus.parent / "seg0000.cand.json"))
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(
            '{"lang_pair": "aa-en", "system": "sys", "segment_id": 0, '
            f'"candidate_ucca": {graph}, "reference_ucca": {graph}, "human_score": {human}}}\n'
        )
        with pytest.raises(DatasetError) as info:
            load_dataset(manifest)
        assert str(info.value) == f"{manifest}:1: human_score must be finite"

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

    def test_base_near_the_float_maximum(self, tmp_path):
        records = load_dataset(write_synthetic_dataset(tmp_path, 8, seed=3))
        values = [-1.7e308, 1.7e308, 1.7e308, 0.0]
        table = ExternalScoreTable("huge", {(r.system, r.segment_id): values[i % 4] for i, r in enumerate(records)})
        report = evaluate(records, SwssParams(beta=0.0), base=table)
        prescaled = [math.ldexp(values[i % 4], -1000) for i in range(len(records))]
        expected = statistics.correlation(prescaled, [r.human_score for r in records])
        (lang_pair,) = report.per_pair
        assert report.per_pair[lang_pair] == pytest.approx(expected, abs=1e-12)
        assert report.base_per_pair[lang_pair] == pytest.approx(expected, abs=1e-12)
        assert expected < 0.9

    def test_combined_metric_that_overflows_is_an_error(self, records):
        table = ExternalScoreTable("huge", {(r.system, r.segment_id): 1.7e308 + i for i, r in enumerate(records)})
        with pytest.raises(DatasetError, match="^language pair 'aa-en': pearson is undefined for an input that is not"):
            evaluate(records, SwssParams(beta=1.7e308), base=table)

    def test_base_average_is_none_when_one_pair_has_a_constant_base(self, records):
        rng = random.Random(5)
        rows = {(r.system, r.segment_id): 0.5 if r.lang_pair == "aa-en" else rng.random() for r in records}
        report = evaluate(records, SwssParams(), base=ExternalScoreTable("half-constant", rows))
        assert report.base_per_pair["aa-en"] is None
        assert report.base_per_pair["bb-en"] is not None
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
        assert ABLATIONS == ("full", "no-repr", "no-len", "base-only")
        with pytest.raises(ValueError) as info:
            evaluate(records, SwssParams(), ablation="no-everything")
        assert str(info.value) == "unknown ablation 'no-everything'; expected one of full, no-repr, no-len, base-only"

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

    def test_dangling_remote_edge_dropped_unless_strict(self, records, tmp_path):
        # Without strict, graphs load as lenient ones do: the remote edge
        # from a missing node is dropped and the record is scored, not
        # skipped or counted.
        document = json.loads(records[0].candidate_ucca.read_text())
        document["edges"].append({"parent": "ghost", "child": {"terminal": 1}, "category": "A", "remote": True})
        dangling_path = tmp_path / "dangling.json"
        dangling_path.write_text(json.dumps(document))
        mixed = [dataclasses.replace(records[0], candidate_ucca=dangling_path), *records[1:]]
        assert evaluate(mixed, SwssParams()) == evaluate(records, SwssParams())
        with pytest.raises(DatasetError) as info:
            evaluate(mixed, SwssParams(), strict=True)
        assert str(info.value) == (
            f"record {records[0].label}: {dangling_path}: edge 'ghost' -> 't1' references unknown node 'ghost'"
        )

    def test_no_record_left_is_an_error(self, records, tmp_path):
        broken_path = tmp_path / "broken.json"
        broken_path.write_text("{not json")
        broken = [dataclasses.replace(r, candidate_ucca=broken_path) for r in records]
        with pytest.raises(DatasetError) as info:
            evaluate(broken, SwssParams())
        assert str(info.value) == "no segments could be evaluated"

    def test_beta_continuity_at_zero(self, records):
        at_zero = evaluate(records, SwssParams(beta=0.0)).average
        near_zero = evaluate(records, SwssParams(beta=1e-9)).average
        assert near_zero == pytest.approx(at_zero, abs=1e-6)


@pytest.fixture(scope="module")
def dropped_pair_records(tmp_path_factory):
    """Two language pairs of 6 segments each; every bb-en candidate is
    malformed JSON, so every bb-en record is skipped."""
    dest = tmp_path_factory.mktemp("dropped")
    records = load_dataset(write_synthetic_dataset(dest, 12, lang_pairs=("aa-en", "bb-en"), seed=5, noise=0.05))
    for record in records:
        if record.lang_pair == "bb-en":
            record.candidate_ucca.write_text("{not json")
    return records


class TestDroppedPair:
    """A language pair whose every record is skipped is named in one
    warning per run, and the report's numbers stay those of the others."""

    WARNING = "language pair bb-en left out of the report: all 6 of its record(s) were skipped"

    def dropped_warnings(self, caplog):
        return [r.getMessage() for r in caplog.records if "left out of the report" in r.getMessage()]

    @pytest.mark.parametrize("fanned", [False, True], ids=["serial", "fanned"])
    def test_ablation_ladder_warns_once(self, request, caplog, capsys, tmp_path, dropped_pair_records, fanned):
        records = dropped_pair_records
        pids = request.getfixturevalue("fan_out")() if fanned else []
        manifest = records[0].candidate_ucca.parent / "manifest.jsonl"
        out = tmp_path / "ladder.json"
        with caplog.at_level(logging.WARNING):
            assert main(["evaluate", str(manifest), "--ablation", "all", "--out", str(out)]) == 0
        capsys.readouterr()
        assert len(pids) == fanned
        assert self.dropped_warnings(caplog) == [self.WARNING]
        ladder = json.loads(out.read_text(encoding="utf-8"))
        for ablation in ABLATIONS:
            assert ladder[ablation]["n"] == {"aa-en": 6}
            assert ladder[ablation]["skipped"] == 6
            oracle = evaluate_per_record(records, apply_ablation(SwssParams(), ablation))
            assert ladder[ablation] == json.loads(json.dumps(oracle))

    def test_tune_warns_once(self, caplog, dropped_pair_records):
        with caplog.at_level(logging.WARNING):
            grid_search(dropped_pair_records, singleton_grid(alpha1=(0.0, 0.2)))
        assert self.dropped_warnings(caplog) == [self.WARNING]

    def test_no_warning_while_a_pair_keeps_records(self, caplog, dropped_pair_records):
        # Two bb-en records get a valid candidate, so bb-en stays.
        valid = dropped_pair_records[0].candidate_ucca
        records = [
            dataclasses.replace(r, candidate_ucca=valid) if r.segment_id in (1, 3) else r for r in dropped_pair_records
        ]
        with caplog.at_level(logging.WARNING):
            report = evaluate(records, SwssParams())
        assert set(report.n) == {"aa-en", "bb-en"}
        assert self.dropped_warnings(caplog) == []


class TestTuneGrid:
    def test_default_grid_size(self):
        grid = TuneGrid()
        assert grid.size == 8 * 8 * 8 * 8 * 5 * 5 == 102_400
        assert singleton_grid().size == 1

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

    def test_a_grid_value_is_accepted_exactly_when_the_parameter_is(self):
        for name in ("alpha1", "alpha2", "alpha3", "alpha4", "beta", "omega"):
            for value in (0, 0.5, 1, 1.5, -1, -0.0, True, "0.1", None, math.nan, math.inf, 10**400):
                params_error = grid_error = None
                try:
                    SwssParams(**{name: value})
                except ValueError as exc:
                    params_error = str(exc)
                try:
                    TuneGrid(**{name: (value,)})
                except ValueError as exc:
                    grid_error = str(exc)
                assert (grid_error is None) == (params_error is None), (name, value)
                if grid_error is not None:
                    assert grid_error == f"grid value for {name!r}" + params_error[len(name):]


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

    def test_huge_beta_matches_bruteforce(self, records):
        # beta squared overflows in the screen; the points are re-checked.
        grid = singleton_grid(alpha1=(0.0, 0.2), beta=(0.5, 1.8869812124107707e168), omega=(0.0, 0.5))
        assert outcome(grid_search, records, grid, "bleu") == outcome(grid_search_per_record, records, grid, "bleu")

    def test_beta_near_the_float_maximum_matches_bruteforce(self, records):
        # The combined metric's sum leaves the float range in the re-check.
        grid = singleton_grid(alpha1=(0.0, 0.2), beta=(1e308,), omega=(0.0, 0.5))
        found = outcome(grid_search, records, grid, "bleu")
        assert found == outcome(grid_search_per_record, records, grid, "bleu")
        assert not isinstance(found, str)

    @pytest.mark.parametrize("column", ["base", "human"])
    def test_inputs_near_the_float_maximum_match_bruteforce(self, records, column):
        values = [-1.7e308, 1.7e308, 1.7e308, 0.0, 1.0]
        if column == "human":
            records = [dataclasses.replace(r, human_score=values[i % 5]) for i, r in enumerate(records)]
            base = "bleu"
        else:
            base = ExternalScoreTable("huge", {(r.system, r.segment_id): values[i % 5] for i, r in enumerate(records)})
        grid = singleton_grid(alpha1=(0.0, 0.2), beta=(0.0, 0.5), omega=(0.0, 0.5))
        found = outcome(grid_search, records, grid, base)
        assert found == outcome(grid_search_per_record, records, grid, base)
        assert not isinstance(found, str)

    def test_constant_base_at_beta_zero_raises_like_bruteforce(self, records):
        table = constant_table(records, 0.25)
        grid = singleton_grid(alpha1=(0.0, 0.2), beta=(0.0, 0.2))
        expected = outcome(grid_search_per_record, records, grid, table)
        assert expected == "language pair 'aa-en': pearson is undefined for a constant input"
        with pytest.raises(DatasetError) as info:
            grid_search(records, grid, base=table)
        assert str(info.value) == expected


class TestScreenBound:
    """Where the screen's estimate of a grid point comes with a finite
    bound, the exact objective lies within that bound of it."""

    @settings(max_examples=150, deadline=None)
    @given(
        **ORACLE_CASES,
        # A base that is constant but for noise of this size, if not 0.
        jitter=st.sampled_from([0.0, 1e-13, 1e-7]),
        # Betas near 0 leave a pair's metric nearly constant.
        small_betas=st.sampled_from([(), (1e-12,), (1e-7, 5.0)]),
    )
    def test_estimate_lies_within_its_bound(
        self, n_segments, two_pairs, noise, self_pairs, constant_base, seed, grid, jitter, small_betas
    ):
        with tempfile.TemporaryDirectory() as tmp:
            records, base = oracle_case(tmp, n_segments, two_pairs, noise, self_pairs, constant_base, seed)
            if jitter:
                rng = random.Random(seed)
                rows = {(r.system, r.segment_id): 0.25 + jitter * rng.random() for r in records}
                base = ExternalScoreTable("near-constant", rows)
            prepared = harness._prepare_segments(records, SwssParams(), base, False)
        grid = dataclasses.replace(grid, beta=grid.beta + small_betas)
        estimates = []
        real_estimate = harness._estimate

        def recorded(sums, beta, omega):
            found = real_estimate(sums, beta, omega)
            estimates.append((beta, omega, *found))
            return found

        ratios = []
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(harness, "_estimate", recorded)
            monkeypatch.setattr(harness, "_FAN_OUT_MIN_SCREEN_WORK", math.inf)  # one process
            # One screen per alpha tuple, so each recorded estimate is
            # that of the tuple's point at the recorded beta and omega.
            for alphas in itertools.product(grid.alpha1, grid.alpha2, grid.alpha3, grid.alpha4):
                estimates.clear()
                single = dict(zip(("alpha1", "alpha2", "alpha3", "alpha4"), ((alpha,) for alpha in alphas)))
                harness._screen(prepared.columns, dataclasses.replace(grid, **single))
                for beta, omega, estimate, bound in estimates:
                    if bound == math.inf:
                        continue
                    exact = harness._report(prepared, SwssParams(*alphas, beta, omega), base).average
                    gap = abs(estimate - exact)
                    assert gap <= bound, (alphas, beta, omega, estimate, exact, bound)
                    ratios.append(gap / bound)
        if ratios:
            target(max(ratios), label="gap over bound")


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


class Score(float):
    """A score that marshal cannot take, and pickle can."""


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

    def test_features_are_kept_only_while_their_group_is_scored(
        self, monkeypatch, shared_records, corrupt_shared_records, tmp_path
    ):
        check_features_kept_while_their_group_is_scored(monkeypatch, shared_records, corrupt_shared_records, tmp_path)

    def run_evaluate(self, capsys, records, ablation, out):
        manifest = records[0].candidate_ucca.parent / "manifest.jsonl"
        assert main(["evaluate", str(manifest), "--ablation", ablation, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        return json.loads(out.read_text(encoding="utf-8")), captured.err

    @pytest.mark.parametrize("fixture", ["shared_records", "corrupt_shared_records"])
    @pytest.mark.parametrize("fanned", [False, True], ids=["serial", "fanned"])
    def test_ablation_ladder_matches_single_runs_and_oracle(
        self, request, monkeypatch, capsys, tmp_path, fixture, fanned
    ):
        records = request.getfixturevalue(fixture)
        if fanned:
            force_fan_out(monkeypatch)
        ladder, _ = self.run_evaluate(capsys, records, "all", tmp_path / "ladder.json")
        assert list(ladder) == sorted(ABLATIONS)
        for ablation in ABLATIONS:
            single, _ = self.run_evaluate(capsys, records, ablation, tmp_path / f"{ablation}.json")
            assert ladder[ablation] == single
            oracle = evaluate_per_record(records, apply_ablation(SwssParams(), ablation))
            assert ladder[ablation] == json.loads(json.dumps(oracle))

    @pytest.mark.parametrize("fixture", ["shared_records", "corrupt_shared_records"])
    @pytest.mark.parametrize("fanned", [False, True], ids=["serial", "fanned"])
    def test_ablation_ladder_loads_each_file_and_warns_once(
        self, request, monkeypatch, capsys, caplog, tmp_path, fixture, fanned
    ):
        records = request.getfixturevalue(fixture)
        if fanned:
            request.getfixturevalue("fan_out")()  # the caller and the child each score a task
        log_loads(monkeypatch, tmp_path / "loads")
        with caplog.at_level(logging.WARNING):
            ladder, err = self.run_evaluate(capsys, records, "all", tmp_path / "ladder.json")
        pids, paths = logged_loads(tmp_path / "loads")
        assert paths == Counter(map(str, distinct_paths(records)))
        assert os.getpid() in pids and len(pids) == (2 if fanned else 1)
        skipped = ladder["full"]["skipped"]
        assert skipped == (4 if fixture.startswith("corrupt") else 0)
        assert caplog.text.count("skipping record") == skipped
        assert caplog.text.count("record(s) with invalid UCCA parses") == (skipped > 0)
        assert err.count("segment(s) skipped") == (skipped > 0)


def distinct_paths(records):
    return {p for r in records for p in (r.candidate_ucca, r.reference_ucca)}


def file_groups(records):
    """Each record index's group: the indices of the records that name a
    common file with it, directly or through other records."""
    groups = [frozenset([i]) for i in range(len(records))]
    first = {}  # file path: the first record index that names it
    for i, record in enumerate(records):
        for path in (record.candidate_ucca, record.reference_ucca):
            merged = groups[i] | groups[first.setdefault(path, i)]
            for k in merged:
                groups[k] = merged
    return groups


def check_features_kept_while_their_group_is_scored(
    monkeypatch, shared_records, corrupt_shared_records, tmp_path, fan_out=None
):
    """Check the memory rule after each record is scored: its group's dict
    of loaded files holds exactly the files named more than once that the
    group has looked up so far, and the record loaded only what it looked
    up and its group had not kept. A record looks up its candidate, and
    its reference unless the candidate failed. Each file looked up is
    loaded once in all; with ``fan_out``, the check runs in the caller and
    in a forked child."""
    # Every file of the synthetic corpus is named once, so nothing may be
    # kept there, and its corrupt candidate's reference is never loaded.
    unique = load_dataset(write_synthetic_dataset(tmp_path / "unique", n_segments=6, seed=2))
    unique[1].candidate_ucca.write_text("{not json")
    if fan_out:
        fan_out()
    log_loads(monkeypatch, tmp_path / "loads")
    score, load = harness._score_record, harness.load_graph
    loads = []

    def loading(path, lenient=False):
        loads.append(path)
        return load(path, lenient=lenient)

    monkeypatch.setattr(harness, "load_graph", loading)
    for records in (shared_records, corrupt_shared_records, unique):
        named = Counter(p for r in records for p in (r.candidate_ucca, r.reference_ucca))
        # A file that fails to load gives (error type, message).
        failed = {p for p in named if isinstance(result_or_error(load_graph, p, lenient=True), tuple)}
        looks_up = [
            (r.candidate_ucca,) if r.candidate_ucca in failed else (r.candidate_ucca, r.reference_ucca) for r in records
        ]
        index, groups = {id(r): i for i, r in enumerate(records)}, file_groups(records)
        looked_up = {}  # group: the files it has looked up so far

        def checked(record, loaded, *args):
            i = index[id(record)]
            kept = set(loaded)
            loads.clear()
            result = score(record, loaded, *args)
            assert loads == list(dict.fromkeys(p for p in looks_up[i] if p not in kept))
            group = looked_up.setdefault(groups[i], set())
            group.update(looks_up[i])
            assert set(loaded) == {p for p in group if named[p] > 1}
            return result

        monkeypatch.setattr(harness, "_score_record", checked)
        evaluate(records, SwssParams())
        # A failed check in a child comes back as that record's error,
        # and the caller's run of its task fails the same way.
        pids, paths = logged_loads(tmp_path / "loads")
        (tmp_path / "loads").unlink()
        assert paths == Counter({str(p) for paths_of_record in looks_up for p in paths_of_record})
        assert os.getpid() in pids and len(pids) == (2 if fan_out else 1)


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
    """``fan_out(processes=2, child=None, caller=None, phase="score",
    children_first=False)`` forces the fan-out of ``phase`` alone and makes
    each process run at least one task: a process that has read its first
    task number waits until every other one has read one. With
    ``children_first``, the caller reads its first one only then, so each
    child's first task comes before the caller's. Before each step of the
    phase (a record, or a grid point of the screen), ``child(n, step)``
    runs in the n-th forked child (from 0) and ``caller(step)`` in the
    caller. Returns the list of the pids that ``os.fork`` returns; every
    child still running is killed at teardown."""
    read_r, read_w = os.pipe()  # a byte from each child once it has read a task
    go_r, go_w = os.pipe()  # a byte for each child once every process has
    pids = []

    def configure(processes=2, child=None, caller=None, phase="score", children_first=False):
        force_fan_out(monkeypatch, processes, (phase,))
        # Children forked that have not read a task yet, and those that
        # have and wait to go on.
        parent, waiting, held, me = os.getpid(), [0], [0], {}
        real_fork, take_tasks = os.fork, _fanout._take_tasks
        step = getattr(harness, STEP_OF_PHASE[phase])

        def fork():
            pid = real_fork()
            if pid:
                pids.append(pid)
                waiting[0] += 1
            else:
                me["n"] = len(pids)
            return pid

        def gather():
            # In the caller: wait until each child forked since the last
            # run of a phase has read a task.
            while waiting[0]:
                if not select.select([read_r], [], [], 10)[0]:
                    pytest.fail("a forked child read no task")
                count = len(os.read(read_r, waiting[0]))
                waiting[0] -= count
                held[0] += count

        def take(queue, run, tasks):
            if os.getpid() == parent and children_first:
                gather()

            # A failed handshake ends the process's run: pytest.fail raises
            # an exception that a task's capture does not catch.
            def met(task):
                if os.getpid() == parent:
                    gather()
                    os.write(go_w, b"x" * held[0])
                    held[0] = 0
                elif not me.get("met"):
                    me["met"] = True
                    os.write(read_w, b"x")
                    if not select.select([go_r], [], [], 10)[0]:
                        pytest.fail("the caller read no task")
                    os.read(go_r, 1)
                return run(task)

            return take_tasks(queue, met, tasks)

        def stepped(first, *args):
            if os.getpid() == parent:
                if caller:
                    caller(first)
            elif child:
                child(me["n"], first)
            return step(first, *args)

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(_fanout, "_take_tasks", take)
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
    for fd in (read_r, read_w, go_r, go_w):
        os.close(fd)


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


def run_phase(phase, records, base="bleu"):
    """The output of a run that reaches ``phase``: the evaluate report to
    score, or the tuned parameters and objective to screen."""
    if phase == "score":
        return evaluate(records, SwssParams(), base=base).to_dict()
    return grid_search(records, TestSharedFiles.GRID, base=base)


# The grid of ``run_forced_fan_out``'s scripts.
FORCED_GRID = {"alpha1": (0.0, 0.5), "alpha2": (0.0, 1.0), "beta": (0.1, 0.5)}


def run_forced_fan_out(script, manifest):
    """Run ``script`` in a fresh interpreter that forces a two-process
    fan-out of both phases, with ``caller`` set to its pid, ``GRID`` to
    ``FORCED_GRID`` and the manifest path as ``sys.argv[1]``."""
    setup = (
        "import os, select, signal, sys\n"
        "from swss import harness\n"
        "from swss.harness import evaluate, load_dataset\n"
        "from swss.scoring import SwssParams\n"
        "from swss.harness import TuneGrid, grid_search\n"
        "harness._FAN_OUT_MIN_RECORDS = 1\n"
        "harness._FAN_OUT_MIN_SCREEN_WORK = 1\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        f"GRID = TuneGrid(**{FORCED_GRID!r})\n"
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

    def test_features_are_kept_only_while_their_group_is_scored(
        self, monkeypatch, fan_out, shared_records, corrupt_shared_records, tmp_path
    ):
        check_features_kept_while_their_group_is_scored(
            monkeypatch, shared_records, corrupt_shared_records, tmp_path, fan_out
        )

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

        groups, _ = harness._partition(records)
        assert groups[0][0] == 0 and 17 in groups[-1]
        partition = harness._partition

        def reversed_partition(records):
            groups, shared = partition(records)
            return groups[::-1], shared

        monkeypatch.setattr(harness, "_partition", reversed_partition)
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
        # Each process read one of the first tasks, so a process that
        # scored record 0, in the last task, scored another task first;
        # the caller scores it again if a child's run of it raised.
        scored_0 = [indices for indices in order.values() if 0 in indices]
        assert scored_0
        for indices in scored_0:
            assert indices[0] != 0

    @pytest.mark.parametrize("fanned", [False, True], ids=["serial", "fanned"])
    @pytest.mark.parametrize(
        "fault, error",
        [("graph", DatasetError), ("tsv-row", DatasetError), ("deleted-file", FileNotFoundError)],
    )
    def test_first_error_in_record_order_wins_over_group_order(self, request, tmp_path, fanned, fault, error):
        # Records 0 and 2 name one reference, and record 1 a reference of
        # its own. Records 1 and 2 fail. Serially, the one task scores the
        # group {0, 2} before record 1; fanned out, each group is a task.
        records = write_shared_corpus(tmp_path / "corpus", n_segments=2, systems=2)[:3]
        assert records[0].reference_ucca == records[2].reference_ucca != records[1].reference_ucca
        failing = records[1:]
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
        serial = result_or_error(evaluate_per_record, records, SwssParams(), base, strict)
        assert serial[0] is error
        assert "'sys0', segment 1" in serial[1] if fault == "tsv-row" else records[1].candidate_ucca.name in serial[1]
        if fanned:
            request.getfixturevalue("fan_out")()  # the caller and the child each score a group
        assert result_or_error(evaluate, records, SwssParams(), base=base, strict=strict) == serial

    @pytest.mark.parametrize("phase", PHASES)
    def test_fault_in_every_process_raises_like_the_serial_run(self, monkeypatch, fan_out, shared_records, phase):
        # Each record's fault, or each grid point's, has its own message.
        if phase == "score":

            def broken(candidate, reference, params):
                raise TypeError(f"boom at {' '.join(candidate.tokens)}")

            monkeypatch.setattr(harness, "score_from_features", broken)
        else:

            def broken(sums, beta, omega):
                raise TypeError(f"boom at {sums[0][1]!r}")

            monkeypatch.setattr(harness, "_estimate", broken)
        serial = result_or_error(run_phase, phase, shared_records)
        assert serial[0] is TypeError
        # The caller takes no task until the child has taken one, so the
        # child's fault comes first in task order.
        began, begin = os.pipe()
        fan_out(child=lambda n, step: os.write(begin, b"x"), phase=phase, children_first=True)
        try:
            with pytest.raises(TypeError) as info:
                run_phase(phase, shared_records)
            assert select.select([began], [], [], 0)[0]
        finally:
            os.close(began)
            os.close(begin)
        assert (type(info.value), str(info.value)) == serial
        # Raised in the caller's own frames, not rebuilt from a child's.
        assert info.value.__cause__ is None
        own = "".join(traceback.format_tb(info.value.__traceback__))
        assert f"in {'_score_record' if phase == 'score' else '_screen_sweep'}" in own

    @pytest.mark.parametrize("phase", PHASES)
    def test_fault_only_in_children_gives_the_serial_output(self, fan_out, shared_records, phase):
        serial = run_phase(phase, shared_records)

        def child(n, step):
            raise TypeError(threading.Lock())  # neither marshal nor pickle can take a lock

        pids = fan_out(child=child, phase=phase)
        assert run_phase(phase, shared_records) == serial
        assert len(pids) == 1

    @pytest.mark.parametrize("phase", PHASES)
    def test_scores_of_a_float_subclass_give_the_serial_report(self, fan_out, shared_records, phase):
        table = random_table(shared_records)
        table = ExternalScoreTable(table.metric_name, {key: Score(value) for key, value in table.rows.items()})
        serial = run_phase(phase, shared_records, table)
        fan_out(phase=phase)
        assert run_phase(phase, shared_records, table) == serial

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
    def test_dead_child_gives_the_serial_output(self, tmp_path, phase, death, message):
        # The first child to reach a step of the phase dies there, and the
        # caller's first step waits until it has; later children see that
        # one died and live. The run evaluates, then tunes.
        manifest = write_synthetic_dataset(tmp_path, n_segments=12, seed=4)
        step = STEP_OF_PHASE[phase]
        script = (
            "began, begin = os.pipe()\n"
            f"step = harness.{step}\n"
            "def stepped(*args):\n"
            "    if os.getpid() != caller and not select.select([began], [], [], 0)[0]:\n"
            "        os.write(begin, b'x')\n"
            f"        {death}\n"
            "    select.select([began], [], [], 10)\n"
            "    return step(*args)\n"
            f"harness.{step} = stepped\n"
            "records = load_dataset(sys.argv[1])\n"
            "print(repr((evaluate(records, SwssParams()).to_dict(), grid_search(records, GRID))))\n"
        )
        result = run_forced_fan_out(script, manifest)
        assert result.returncode == 0, result.stderr
        records = load_dataset(manifest)
        serial = (evaluate(records, SwssParams()).to_dict(), grid_search(records, TuneGrid(**FORCED_GRID)))
        assert result.stdout.strip() == repr(serial)
        (warning,) = result.stderr.splitlines()
        assert re.fullmatch(rf"worker process \d+ {message}; running its tasks here", warning)

    @pytest.mark.parametrize(
        "phase, where", [("score", "caller"), ("score", "merge"), ("screen", "caller"), ("screen", "merge")],
        ids=["caller", "merge", "screen-caller", "screen-merge"],
    )
    def test_no_child_outlives_the_call(self, monkeypatch, fan_out, shared_records, phase, where):
        # An interrupt in the caller's own tasks, or once it has reaped a
        # dead child and waits on a sleeping one's pipe.
        def child(n, step):
            if where == "merge" and n == 0:
                os._exit(3)
            time.sleep(60)

        def caller(step):
            if where == "caller":
                raise KeyboardInterrupt

        pids = fan_out(processes=2 if where == "caller" else 3, child=child, caller=caller, phase=phase)
        take_tasks, parent = _fanout._take_tasks, os.getpid()

        def take_tasks_then_interrupt(queue, run, tasks):
            done = take_tasks(queue, run, tasks)
            if os.getpid() == parent:
                signal.setitimer(signal.ITIMER_REAL, 0.2)
            return done

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        monkeypatch.setattr(_fanout, "_take_tasks", take_tasks_then_interrupt)
        handler = signal.signal(signal.SIGALRM, interrupt)
        started = time.monotonic()
        try:
            with pytest.raises(KeyboardInterrupt):
                run_phase(phase, shared_records)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)
        assert time.monotonic() - started < 30
        assert len(pids) == (1 if where == "caller" else 2)
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @pytest.mark.parametrize("fixture", ["shared_records", "corrupt_shared_records"])
    @pytest.mark.parametrize("one", ["cpu", "below-thresholds"])
    def test_one_process_opens_no_pipe_and_forks_nothing(self, monkeypatch, request, caplog, fixture, one):
        records = request.getfixturevalue(fixture)
        if one == "cpu":
            force_fan_out(monkeypatch, 1)
        else:
            assert len(records) < harness._FAN_OUT_MIN_RECORDS
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        expected = (evaluate_per_record(records, SwssParams()), grid_search_per_record(records, self.GRID))
        calls = Counter()

        def refused(name):
            def call(*args):
                calls[name] += 1
                raise OSError(errno.EPERM, f"{name} refused")

            return call

        def counted(name, real):
            def call(*args):
                calls[name] += 1
                return real(*args)

            return call

        monkeypatch.setattr(os, "pipe", refused("pipe"))
        monkeypatch.setattr(os, "fork", refused("fork"))
        # One task per phase: every record in order, one sweep over the
        # whole grid.
        run_tasks = _fanout.forked_results

        def counted_tasks(run, tasks, processes):
            calls["phase"] += 1
            calls["task"] += len(tasks)
            return run_tasks(run, tasks, processes)

        monkeypatch.setattr(_fanout, "forked_results", counted_tasks)
        monkeypatch.setattr(harness, "_screen_sweep", counted("sweep", harness._screen_sweep))
        with caplog.at_level(logging.WARNING):
            assert (evaluate(records, SwssParams()).to_dict(), grid_search(records, self.GRID)) == expected
        assert calls == {"phase": 3, "task": 3, "sweep": 1}
        assert not [r for r in caplog.records if "could not start a worker process" in r.getMessage()]

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
    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=40))
    def test_tasks_partition_records_and_keep_shared_files_together(self, pairs):
        records = [
            harness.SegmentRecord("aa-en", "sys", i, Path(f"{c}.json"), Path(f"{r}.json"), 0.0)
            for i, (c, r) in enumerate(pairs)
        ]
        groups, shared = harness._partition(records)
        # Groups in record order, each group in record order.
        assert groups == sorted(map(sorted, set(file_groups(records))))
        named = Counter(p for r in records for p in (r.candidate_ucca, r.reference_ucca))
        assert shared == {p for p, n in named.items() if n > 1}

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5000), st.integers(1, 128))
    def test_task_ranges_cut_the_units_in_order_into_near_equal_ranges(self, units, processes):
        ranges = _fanout.task_ranges(units, processes)
        assert [r.start for r in ranges] == [0, *(r.stop for r in ranges[:-1])] and ranges[-1].stop == units
        sizes = {len(r) for r in ranges}
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
        assert len(ranges) <= min(units, _fanout.MAX_TASKS)
        if processes == 1:
            assert ranges == [range(units)]

    @pytest.mark.parametrize("processes", [1, 2, 3])
    @pytest.mark.parametrize("fault", [None, "raises-in-a-child", "not-marshal-able"])
    def test_forked_results_equal_a_serial_run(self, processes, fault):
        # One value per task, in task order, whoever ran it: a task that
        # raised in a child, or whose value marshal cannot take, runs
        # again in the caller, and so gives the caller's value.
        if not hasattr(os, "fork"):
            pytest.skip("the fan-out needs os.fork")
        caller, (started_r, started_w) = os.getpid(), os.pipe()
        waited = [processes < 2]  # the caller's first task waits until a child has taken one

        def run(span):
            if os.getpid() != caller:
                os.write(started_w, b"x")
                if fault == "raises-in-a-child":
                    raise TypeError("only in a child")
            elif not waited[0]:
                waited[0] = True
                if not select.select([started_r], [], [], 10)[0]:
                    pytest.fail("no child took a task")
            return span.start, [Score(n) if fault == "not-marshal-able" else float(n) for n in span]

        tasks = [range(k, k + 3) for k in range(0, 30, 3)]
        try:
            results = _fanout.forked_results(run, tasks, processes)
            serial = [run(task) for task in tasks]
            assert results == serial
            assert [list(map(type, values)) for _, values in results] == [
                list(map(type, values)) for _, values in serial
            ]
        finally:
            os.close(started_r)
            os.close(started_w)

    def test_import_starts_no_process_machinery(self, tmp_path):
        code = (
            "import sys, swss\n"
            "print(sorted({'multiprocessing', 'concurrent.futures', 'pickle', 'swss._fanout'} & set(sys.modules)))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parent.parent)}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"
        # Nor does a run that forks children, to score or to screen; the
        # results come back without pickle, also when a child's task
        # raises (the caller's first record waits until one has).
        script = (
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(fork()) or forks[-1]\n"
            "records = load_dataset(sys.argv[1])\n"
            "evaluate(records, SwssParams())\n"
            "grid_search(records, GRID)\n"
            "raised, raising = os.pipe()\n"
            "score = harness.score_from_features\n"
            "def broken(*args):\n"
            "    if os.getpid() != caller:\n"
            "        os.write(raising, b'x')\n"
            "        raise TypeError('boom')\n"
            "    select.select([raised], [], [], 10)\n"
            "    return score(*args)\n"
            "harness.score_from_features = broken\n"
            "evaluate(records, SwssParams())\n"
            "print(len(forks), bool(select.select([raised], [], [], 0)[0]),\n"
            "      sorted({'multiprocessing', 'concurrent.futures', 'pickle'} & set(sys.modules)))\n"
        )
        result = run_forced_fan_out(script, write_synthetic_dataset(tmp_path, n_segments=12, seed=4))
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "4 True []"

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


@pytest.fixture(scope="module")
def failed_candidate_records(tmp_path_factory):
    """A shared corpus of 3 segments and 2 systems. The first record's
    candidate is corrupt, and its reference is loaded only for a later
    record, whose candidate is good; both candidates of segment 2 are
    corrupt, so its reference is never loaded."""
    records = write_shared_corpus(tmp_path_factory.mktemp("failed-candidates"), n_segments=3, systems=2, seed=2)
    for i in (0, 2, 5):
        records[i].candidate_ucca.write_text("{not json")
    assert records[0].reference_ucca == records[3].reference_ucca
    assert [r.reference_ucca for r in records].count(records[2].reference_ucca) == 2
    return records


def prepared_per_record(records):
    """The rows, skips and number of files loaded of a lenient run, from
    each record's own loads: a record whose candidate fails does not load
    its reference, and a file is counted once however many records load
    it."""
    rows, skips, loaded = {}, [], set()
    for i, record in enumerate(records):
        for path in (record.candidate_ucca, record.reference_ucca):
            loaded.add(path)
            found = result_or_error(load_graph, path, lenient=True)
            if isinstance(found, tuple):  # (error type, message)
                skips.append((i, str(path), found[1]))
                break
        else:
            rows.setdefault(record.lang_pair, []).append(i)
    return dict(sorted(rows.items())), skips, len(loaded)


class TestPrepared:
    """The record phase hands the reports the record behind each column
    entry, each skipped record's failed file and message, and the number
    of files loaded by every process together, whoever scored a task."""

    @pytest.mark.parametrize("fixture", ["shared_records", "corrupt_shared_records", "failed_candidate_records"])
    @pytest.mark.parametrize("mode", ["serial", "fanned", "rerun"])
    def test_rows_skips_and_loads_match_per_record_oracle(self, monkeypatch, tmp_path, request, fixture, mode):
        records = request.getfixturevalue(fixture)
        rows, skips, files_loaded = prepared_per_record(records)
        log_loads(monkeypatch, tmp_path / "loads")
        if mode != "serial":

            def child(n, record):
                if mode == "rerun":  # the child's task is not sent, so the caller runs it again
                    raise TypeError(threading.Lock())

            pids = request.getfixturevalue("fan_out")(child=child)
        prepared = harness._prepare_segments(records, SwssParams(), "bleu", False)
        if mode != "serial":
            assert len(pids) == 1
        assert {lang_pair: pair.record for lang_pair, pair in prepared.columns.items()} == rows
        assert prepared.skips == skips
        assert prepared.files_loaded == files_loaded
        # The count derived from the outcomes is that of the real loads.
        assert prepared.files_loaded == len(logged_loads(tmp_path / "loads")[1])
        assert list(prepared.columns) == list(rows)
        for lang_pair, indices in rows.items():
            assert prepared.columns[lang_pair].human == [records[i].human_score for i in indices]


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
            columns = harness._prepare_segments(records, SwssParams(), base, False).columns
            serial = harness._screen(columns, grid)
            expected = outcome(grid_search_per_record, records, grid, base)
            counts = []
            with pytest.MonkeyPatch.context() as monkeypatch:
                force_fan_out(monkeypatch, processes, ("screen",))
                run_tasks = _fanout.forked_results

                def counted(run, tasks, n):
                    if n > 1:  # record scoring runs in one process here
                        counts.append(len(tasks))
                    return run_tasks(run, tasks, n)

                monkeypatch.setattr(_fanout, "forked_results", counted)
                assert harness._screen(columns, grid) == serial
                assert outcome(grid_search, records, grid, base) == expected
            # A pair with fewer than two distinct human scores raises at
            # every point: the screen returns every point unswept, and the
            # exact re-check raises at the first.
            assert bool(counts) != any(len(set(pair.human)) < 2 for pair in columns.values())

    def test_each_task_is_swept_once(self, monkeypatch, fan_out, records, tmp_path):
        # The caller sweeps again only a task that no process sent.
        grid = TestSharedFiles.GRID
        fan_out(phase="screen")
        log, sweep = tmp_path / "sweeps", harness._screen_sweep

        def logged(pairs, grid, span):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()} {span}\n")
            return sweep(pairs, grid, span)

        monkeypatch.setattr(harness, "_screen_sweep", logged)
        grid_search(records, grid)
        lines = log.read_text(encoding="utf-8").splitlines()
        pids = Counter(line.split(" ", 1)[0] for line in lines)
        tasks = Counter(line.split(" ", 1)[1] for line in lines)
        total = len(grid.alpha1) * len(grid.alpha2) * len(grid.alpha3) * len(grid.alpha4)
        assert len(pids) == 2 and str(os.getpid()) in pids
        assert len(tasks) == len(_fanout.task_ranges(total, 2)) and set(tasks.values()) == {1}

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

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_sweep_walks_its_range_of_the_alpha_tuples(self, data):
        # The same products in the same order as a walk over every tuple.
        sizes = data.draw(st.lists(st.integers(1, 5), min_size=4, max_size=4))
        n = data.draw(st.integers(1, 4))
        factors = st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n)
        f1 = data.draw(factors)
        tables = [[(float(k), data.draw(factors)) for k in range(size)] for size in sizes]
        start = data.draw(st.integers(0, math.prod(sizes)))
        stop = data.draw(st.integers(start, math.prod(sizes)))
        walk = []
        for row in itertools.product(*tables):
            scores = f1
            for _, level_factors in row:
                scores = [x * y for x, y in zip(scores, level_factors)]
            walk.append((tuple(alpha for alpha, _ in row), scores))
        assert list(harness._alpha_sweep(f1, tables, start, stop)) == walk[start:stop]


@pytest.fixture(scope="module")
def relation_records(tmp_path_factory):
    """A synthetic corpus in three language pairs with one corrupt
    candidate and one empty reference, so that two records are skipped."""
    manifest = write_synthetic_dataset(
        tmp_path_factory.mktemp("relations"), n_segments=36, lang_pairs=("aa-en", "bb-en", "cc-en"), seed=12, noise=0.02
    )
    records = load_dataset(manifest)
    records[4].candidate_ucca.write_text("{not json")
    records[7].reference_ucca.write_bytes(b"")
    return records


def relation_outputs(records, base="bleu"):
    """The evaluate report of every ablation, and the tuned point."""
    reports = harness._reports(records, SwssParams(), base, ABLATIONS, False)
    return [report.to_dict() for report in reports], grid_search(records, TestSharedFiles.GRID, base=base)


def relation_outputs_of(records, fanned, base="bleu"):
    with pytest.MonkeyPatch.context() as monkeypatch:
        if fanned:
            force_fan_out(monkeypatch)
        return relation_outputs(records, base)


class TestRelations:
    """Metamorphic relations: changes to the records whose effect on the
    output is known exactly, serial and fanned out. Every sum that an
    output depends on is exactly rounded or re-checked, so they hold bit
    for bit."""

    @pytest.fixture(scope="class")
    def expected(self, relation_records):
        reports, tuned = relation_outputs(relation_records)
        assert reports[0]["skipped"] == 2
        return reports, tuned

    @pytest.mark.parametrize("fanned", [False, True], ids=["serial", "fanned"])
    @settings(max_examples=10, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_record_order_changes_nothing(self, relation_records, expected, fanned, rng):
        records = list(relation_records)
        rng.shuffle(records)
        assert relation_outputs_of(records, fanned) == expected

    @pytest.mark.parametrize("fanned", [False, True], ids=["serial", "fanned"])
    def test_every_record_twice_doubles_only_the_counts(self, relation_records, expected, fanned):
        reports, tuned = expected
        doubled = [
            {**report, "n": {pair: 2 * n for pair, n in report["n"].items()}, "skipped": 2 * report["skipped"]}
            for report in reports
        ]
        assert relation_outputs_of(relation_records * 2, fanned) == (doubled, tuned)

    @pytest.mark.parametrize("fanned", [False, True], ids=["serial", "fanned"])
    @pytest.mark.parametrize("k", [-40, 3, 200])
    def test_human_scores_times_a_power_of_two_change_nothing(self, relation_records, expected, fanned, k):
        # Pearson scales the deviations by a power of two, which is exact
        # away from underflow and overflow.
        scaled = [dataclasses.replace(r, human_score=math.ldexp(r.human_score, k)) for r in relation_records]
        assert relation_outputs_of(scaled, fanned) == expected

    @pytest.mark.parametrize("fanned", [False, True], ids=["serial", "fanned"])
    def test_renaming_systems_and_segments_changes_nothing(self, relation_records, expected, fanned):
        # With the BLEU base, the names label the records and nothing more.
        renamed = [
            dataclasses.replace(r, system=f"system {r.segment_id % 3}", segment_id=1000 - r.segment_id)
            for r in relation_records
        ]
        assert relation_outputs_of(renamed, fanned) == expected

    @pytest.mark.parametrize("fanned", [False, True], ids=["serial", "fanned"])
    def test_swapping_candidate_and_reference_changes_nothing(self, relation_records, fanned):
        # SWSS is symmetric, and a score table keyed by system and segment
        # does not read the graphs.
        table = ExternalScoreTable(
            metric_name="table", rows={(r.system, r.segment_id): (7 * r.segment_id % 11) / 11 for r in relation_records}
        )
        swapped = [
            dataclasses.replace(r, candidate_ucca=r.reference_ucca, reference_ucca=r.candidate_ucca)
            for r in relation_records
        ]
        expected = relation_outputs(relation_records, table)
        assert expected[0][0]["skipped"] == 2
        assert relation_outputs_of(swapped, fanned, table) == expected
