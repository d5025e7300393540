import dataclasses
import itertools
import json
import logging
import tempfile

import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import grid_search_bruteforce, reference_pearson
from swss.errors import DatasetError
from swss.harness import TuneGrid, evaluate, grid_search, load_dataset, pearson
from swss.lexical import ExternalScoreTable, sentence_bleu
from swss.scoring import SwssParams, swss
from swss.synthetic import write_synthetic_dataset
from swss.ucca_graph import load_graph

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

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            pearson([1, 2], [1, 2, 3])

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least two"):
            pearson([1], [2])

    @given(st.lists(st.tuples(floats, floats), min_size=3, max_size=30))
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


def outcome(search, records, grid, base):
    try:
        return search(records, grid, base)
    except DatasetError as exc:
        return str(exc)


class TestGridSearchOracle:
    """The closed-form screen plus exact re-check must reproduce the
    exhaustive per-point search bit for bit, errors included."""

    @settings(max_examples=80, deadline=None)
    @given(
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
    def test_matches_bruteforce(self, n_segments, two_pairs, noise, self_pairs, constant_base, seed, grid):
        lang_pairs = ("aa-en", "bb-en") if two_pairs else ("aa-en",)
        with tempfile.TemporaryDirectory() as tmp:
            manifest = write_synthetic_dataset(tmp, n_segments, lang_pairs=lang_pairs, seed=seed, noise=noise)
            records = load_dataset(manifest)
            if self_pairs:
                # Every ratio penalty is 0, so alpha1..alpha3 tie exactly.
                records = [dataclasses.replace(r, candidate_ucca=r.reference_ucca) for r in records]
            base = "bleu" if constant_base is None else constant_table(records, constant_base)
            expected = outcome(grid_search_bruteforce, records, grid, base)
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
        expected = outcome(grid_search_bruteforce, flat, grid, "bleu")
        assert expected == "language pair 'bb-en': pearson is undefined for a constant input"
        with pytest.raises(DatasetError) as info:
            grid_search(flat, grid)
        assert str(info.value) == expected

    def test_constant_base_at_beta_zero_raises_like_bruteforce(self, records):
        table = constant_table(records, 0.25)
        grid = singleton_grid(alpha1=(0.0, 0.2), beta=(0.0, 0.2))
        expected = outcome(grid_search_bruteforce, records, grid, table)
        assert expected == "language pair 'aa-en': pearson is undefined for a constant input"
        with pytest.raises(DatasetError) as info:
            grid_search(records, grid, base=table)
        assert str(info.value) == expected
