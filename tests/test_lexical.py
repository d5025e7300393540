import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import reference_bleu
from swss.errors import DatasetError
from swss.lexical import load_external_scores, ngram_profile, sentence_bleu

token_lists = st.lists(st.sampled_from("the cat dog sat mat on a ran".split()), max_size=12)


class TestNGramProfile:
    def test_counts_per_order(self):
        profile = ngram_profile(["a", "b", "a"], n_max=2)
        assert profile[1] == {("a",): 2, ("b",): 1}
        assert profile[2] == {("a", "b"): 1, ("b", "a"): 1}

    def test_orders_beyond_length_absent(self):
        profile = ngram_profile(["a"], n_max=4)
        assert set(profile) == {1}

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            ngram_profile(["a"], n_max=0)


class TestSentenceBleu:
    def test_identical_sentences_score_one(self):
        tokens = "the cat sat on the mat".split()
        assert sentence_bleu(tokens, tokens) == 1.0

    def test_zero_unigram_overlap_scores_zero(self):
        assert sentence_bleu(["dog"], ["cat"]) == 0.0

    def test_empty_candidate_scores_zero(self):
        assert sentence_bleu([], ["cat"]) == 0.0

    def test_clipped_unigram_example(self):
        # Candidate longer than the reference, so no brevity penalty;
        # "the" clips to the single reference occurrence.
        score = sentence_bleu(["the", "the", "the"], ["the", "cat"], n_max=1)
        assert score == pytest.approx(1 / 3, rel=1e-12)

    def test_hand_computed_bigram_case(self):
        # candidate "the cat the", reference "the cat":
        #   p1 = 2/3 (the clips to 1, cat matches)
        #   p2 = (1+1)/(2+1) with add-one smoothing
        #   no brevity penalty (candidate longer)
        expected = math.exp((math.log(2 / 3) + math.log(2 / 3)) / 2)
        score = sentence_bleu(["the", "cat", "the"], ["the", "cat"], n_max=2)
        assert score == pytest.approx(expected, rel=1e-12)

    def test_invalid_order(self):
        with pytest.raises(ValueError) as info:
            sentence_bleu(["a"], ["a"], n_max=0)
        assert str(info.value) == "n_max must be >= 1, got 0"

    def test_brevity_penalty_applies_to_short_candidates(self):
        score = sentence_bleu(["the", "cat"], ["the", "cat", "sat", "on"], n_max=1)
        assert score == pytest.approx(math.exp(1 - 4 / 2) * 1.0, rel=1e-12)

    def test_mutation_lowers_score(self):
        reference = "the cat sat on the mat".split()
        candidate = "the dog sat on the mat".split()
        assert 0.0 < sentence_bleu(candidate, reference) < 1.0

    @given(token_lists, token_lists)
    def test_bounded(self, candidate, reference):
        assert 0.0 <= sentence_bleu(candidate, reference) <= 1.0

    @given(token_lists)
    def test_identity_scores_one_or_zero_when_empty(self, tokens):
        expected = 1.0 if tokens else 0.0
        assert sentence_bleu(tokens, tokens) == expected

    @given(st.integers(min_value=0, max_value=2_000))
    def test_agrees_with_reference_implementation(self, seed):
        rng = random.Random(seed)
        vocab = "the cat dog sat mat on a ran jumps".split()
        candidate = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        reference = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
        ours = sentence_bleu(candidate, reference)
        theirs = reference_bleu(candidate, reference)
        assert ours == pytest.approx(theirs, abs=1e-9)

    def test_repetition_cannot_beat_clipping(self):
        reference = ["the", "cat"]
        single = sentence_bleu(["the"], reference, n_max=1)
        spammed = sentence_bleu(["the"] * 10, reference, n_max=1)
        assert spammed < single


class TestExternalScores:
    def write(self, tmp_path, text, name="meteor.tsv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_loads_valid_table(self, tmp_path):
        path = self.write(tmp_path, "sysA\t1\t0.5\nsysA\t2\t0.25\nsysB\t1\t0.75\n")
        table = load_external_scores(path)
        assert table.metric_name == "meteor"
        assert len(table.rows) == 3
        assert table.score("sysA", 2) == 0.25

    def test_custom_metric_name(self, tmp_path):
        path = self.write(tmp_path, "sysA\t1\t0.5\n")
        assert load_external_scores(path, metric_name="meteor++").metric_name == "meteor++"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            load_external_scores(tmp_path / "nope.tsv")

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = self.write(tmp_path, "sysA\t1\t0.5\n\n \t\nsysA\t2\t0.25\n")
        assert load_external_scores(path).rows == {("sysA", 1): 0.5, ("sysA", 2): 0.25}
        path = self.write(tmp_path, "sysA\t1\t0.5\n\nsysA\tx\t0.25\n")
        with pytest.raises(DatasetError) as info:
            load_external_scores(path)
        assert str(info.value) == f"{path}:3: segment id 'x' is not an integer"

    def test_non_numeric_score_reports_line(self, tmp_path):
        path = self.write(tmp_path, "sysA\t1\t0.5\nsysA\t2\tbogus\n")
        with pytest.raises(DatasetError, match=":2:"):
            load_external_scores(path)

    def test_duplicate_key_named(self, tmp_path):
        path = self.write(tmp_path, "sysA\t1\t0.5\nsysA\t1\t0.6\n")
        with pytest.raises(DatasetError, match="duplicate entry for system 'sysA', segment 1"):
            load_external_scores(path)

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = self.write(tmp_path, "sysA\t1\n")
        with pytest.raises(DatasetError, match=":1: expected 3"):
            load_external_scores(path)

    def test_non_finite_score_rejected(self, tmp_path):
        path = self.write(tmp_path, "sysA\t1\tinf\n")
        with pytest.raises(DatasetError, match="finite"):
            load_external_scores(path)

    def test_missing_key_lookup_fails(self, tmp_path):
        table = load_external_scores(self.write(tmp_path, "sysA\t1\t0.5\n"))
        with pytest.raises(DatasetError, match="no meteor score"):
            table.score("sysB", 9)
