import dataclasses
import json
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bag_of_stems, make_graph
from oracles import max_matching_bruteforce, max_weight_matching_bruteforce, swss_from_graphs
from swss.core_words import CORE_CATEGORIES, CoreWord, CoreWordBag
from swss.scoring import GraphStats, ScoreBreakdown, SwssParams, combine, f1_score, ratio_penalty, swss
from swss.synthetic import random_pair
from swss.ucca_graph import Category

counts = st.integers(min_value=0, max_value=50)
core_labels = st.sampled_from(sorted(CORE_CATEGORIES, key=lambda c: c.value))
# Non-empty (stem, label) lists; few stems, so that words compete for matches.
labelled_words = st.lists(st.tuples(st.sampled_from("abc"), core_labels), min_size=1, max_size=7)

_STATS = GraphStats(tokens=1, scenes=0, nodes=3, internal_nodes=1, critical_edges=0, core_words=1)
_DUMMY = ScoreBreakdown(
    precision=1.0,
    recall=1.0,
    f1=1.0,
    p_scene=0.0,
    p_node=0.0,
    p_edge=0.0,
    len_penalty=1.0,
    swss=1.0,
    fallback_used=False,
    candidate=_STATS,
    reference=_STATS,
)


class TestParams:
    def test_defaults_are_the_tuned_point(self):
        p = SwssParams()
        assert (p.alpha1, p.alpha2, p.alpha3, p.alpha4) == (0.2, 1.0, 0.5, 0.01)
        assert (p.beta, p.omega) == (0.2, 0.5)

    @pytest.mark.parametrize(
        "bad",
        [
            {"alpha1": -0.1},
            {"omega": 1.5},
            {"beta": float("nan")},
            {"alpha2": float("inf")},
            {"alpha3": 10**400},
            {"fallback_applies_penalties": "no"},
            {"include_remote_critical_edges": 0},
            {"category_weights": []},
            {"category_weights": {Category.PROCESS: True}},
            {"category_weights": {Category.PROCESS: 10**400}},
        ],
    )
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError):
            SwssParams(**bad)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter 'gamma'"):
            SwssParams.from_dict({"gamma": 1.0})

    @pytest.mark.parametrize("weights", [[], "P", 2.0, [["P", 2.0]]])
    def test_category_weights_must_be_an_object(self, weights):
        with pytest.raises(ValueError, match="category_weights must be an object"):
            SwssParams.from_dict({"category_weights": weights})

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda: SwssParams(category_weights={"P": 2.0}), "category_weights key 'P' is not a Category"),
            (
                lambda: SwssParams.from_dict({"category_weights": {"Z": 2.0}}),
                "unknown category code 'Z' in category_weights",
            ),
        ],
        ids=["key-not-a-category", "unknown-code"],
    )
    def test_category_weight_key_named(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message

    def test_dict_round_trip(self):
        p = SwssParams(alpha1=0.3, category_weights={Category.PROCESS: 2.0})
        again = SwssParams.from_dict(json.loads(json.dumps(p.to_dict())))
        assert again.alpha1 == 0.3
        assert again.weight(Category.PROCESS) == 2.0
        assert again.weight(Category.CENTER) == 1.0


class TestRatioPenalty:
    @pytest.mark.parametrize(
        "c1, c2, expected",
        [(2, 2, 0.0), (1, 2, 0.5), (0, 3, 1.0), (0, 0, 0.0), (3, 4, 0.25), (10, 1, 0.9)],
    )
    def test_examples(self, c1, c2, expected):
        assert ratio_penalty(c1, c2) == pytest.approx(expected, abs=1e-15)

    @given(counts, counts)
    def test_symmetric_and_bounded(self, c1, c2):
        p = ratio_penalty(c1, c2)
        assert p == ratio_penalty(c2, c1)
        assert 0.0 <= p <= 1.0

    @given(counts)
    def test_equal_counts_unpenalized(self, c):
        assert ratio_penalty(c, c) == 0.0


class TestF1:
    def test_identical_bags(self):
        bag = bag_of_stems(["buy", "sofa"])
        assert f1_score(bag, bag, SwssParams()) == (1.0, 1.0, 1.0, False)

    def test_clipping_arithmetic(self):
        cand = bag_of_stems(["a", "a", "b"])
        ref = bag_of_stems(["a", "c"])
        precision, recall, f1, fallback = f1_score(cand, ref, SwssParams())
        assert precision == pytest.approx(1 / 3)
        assert recall == pytest.approx(1 / 2)
        assert f1 == pytest.approx(0.4)
        assert not fallback

    def test_empty_candidate_uses_omega(self):
        empty = bag_of_stems([])
        full = bag_of_stems(["a"])
        precision, recall, f1, fallback = f1_score(empty, full, SwssParams(omega=0.5))
        assert (precision, recall) == (0.0, 0.0)
        assert f1 == 0.5
        assert fallback

    def test_both_empty_uses_omega(self):
        empty = bag_of_stems([])
        assert f1_score(empty, empty, SwssParams(omega=0.25))[2] == 0.25

    def test_zero_overlap_is_zero_not_omega(self):
        cand = bag_of_stems(["a"])
        ref = bag_of_stems(["b"])
        precision, recall, f1, fallback = f1_score(cand, ref, SwssParams(omega=0.5))
        assert f1 == 0.0
        assert not fallback

    @given(
        st.lists(st.sampled_from("abcd"), max_size=8).filter(bool),
        st.lists(st.sampled_from("abcd"), max_size=8).filter(bool),
    )
    def test_unit_weights_agree_with_match_counts(self, cand_stems, ref_stems):
        cand = bag_of_stems(cand_stems)
        ref = bag_of_stems(ref_stems)
        matched = max_matching_bruteforce(cand_stems, ref_stems)
        precision, recall, _, fallback = f1_score(cand, ref, SwssParams())
        assert not fallback
        assert precision == matched / len(cand_stems)
        assert recall == matched / len(ref_stems)

    def test_category_weights_shift_precision(self):
        # Candidate: matched P word (weight 2) + unmatched C word (weight 1).
        cand = CoreWordBag(
            (
                bag_of_stems(["buy"]).words[0]._replace(label=Category.PROCESS),
                bag_of_stems(["x"]).words[0]._replace(label=Category.CENTER, position=2),
            )
        )
        ref = bag_of_stems(["buy"], label=Category.PROCESS)
        params = SwssParams(category_weights={Category.PROCESS: 2.0})
        precision, recall, f1, _ = f1_score(cand, ref, params)
        assert precision == pytest.approx(2 / 3)
        assert recall == pytest.approx(1.0)

    @pytest.mark.parametrize("labels", [(Category.CENTER, Category.PROCESS), (Category.PROCESS, Category.CENTER)])
    def test_heaviest_word_of_a_stem_is_matched(self, labels):
        # Whichever position it holds, the P "buy" (weight 2) takes the one
        # reference "buy", so precision is 2/3 in both word orders.
        cand = CoreWordBag(tuple(CoreWord("buy", "buy", i, label) for i, label in enumerate(labels, start=1)))
        ref = bag_of_stems(["buy"], label=Category.PROCESS)
        params = SwssParams(category_weights={Category.PROCESS: 2.0})
        precision, recall, _, _ = f1_score(cand, ref, params)
        assert precision == 2 / 3
        assert recall == 1.0

    @given(
        labelled_words,
        labelled_words,
        # Dyadic weights keep every sum exact, so ties between matchings are real.
        st.dictionaries(core_labels, st.sampled_from([0.5, 2.0, 3.0])),
        st.randoms(use_true_random=False),
    )
    def test_weighted_matching_is_maximum_and_order_free(self, cand_words, ref_words, weights, rng):
        params = SwssParams(category_weights=weights)

        def bag(words):
            return CoreWordBag(tuple(CoreWord(s, s, i, label) for i, (s, label) in enumerate(words, start=1)))

        def weighted(words):
            return [(s, params.weight(label)) for s, label in words]

        matched_cand, matched_ref = max_weight_matching_bruteforce(weighted(cand_words), weighted(ref_words))
        cand_total = sum(w for _, w in weighted(cand_words))
        ref_total = sum(w for _, w in weighted(ref_words))
        precision, recall, _, _ = f1_score(bag(cand_words), bag(ref_words), params)
        assert precision == matched_cand / cand_total
        assert recall == matched_ref / ref_total

        shuffled_cand, shuffled_ref = list(cand_words), list(ref_words)
        rng.shuffle(shuffled_cand)
        rng.shuffle(shuffled_ref)
        assert f1_score(bag(shuffled_cand), bag(shuffled_ref), params)[:2] == (precision, recall)


def one_scene_paraphrase():
    # "John and Mary bought the sofa": a single scene.
    return make_graph(
        ["John", "and", "Mary", "bought", "the", "sofa"],
        [
            ("r", "scene", "H"),
            ("scene", "buyers", "A"),
            ("scene", 4, "P"),
            ("scene", "goods", "A"),
            ("buyers", 1, "C"),
            ("buyers", 2, "N"),
            ("buyers", 3, "C"),
            ("goods", 5, "E"),
            ("goods", 6, "C"),
        ],
    )


class TestSwss:
    def test_self_pair_without_penalties_is_one(self, figure_graph):
        breakdown = swss(figure_graph, figure_graph, SwssParams(alpha1=0, alpha2=0, alpha3=0, alpha4=0))
        assert breakdown.swss == 1.0
        assert breakdown.f1 == 1.0

    def test_self_pair_tuned_params_only_length_penalty(self, figure_graph):
        breakdown = swss(figure_graph, figure_graph)
        assert breakdown.p_scene == breakdown.p_node == breakdown.p_edge == 0.0
        assert breakdown.len_penalty == 9
        assert breakdown.swss == pytest.approx(math.exp(-0.01 * 9), rel=1e-12)

    def test_scene_penalty_against_one_scene_paraphrase(self, figure_graph):
        breakdown = swss(figure_graph, one_scene_paraphrase())
        assert breakdown.p_scene == 0.5

    def test_breakdown_reconstructs_score(self, figure_graph):
        params = SwssParams()
        breakdown = swss(figure_graph, one_scene_paraphrase(), params)
        expected = breakdown.f1 * math.exp(
            -(
                params.alpha1 * breakdown.p_scene
                + params.alpha2 * breakdown.p_node
                + params.alpha3 * breakdown.p_edge
                + params.alpha4 * breakdown.len_penalty
            )
        )
        assert breakdown.swss == pytest.approx(expected, rel=1e-12)
        assert breakdown.swss <= breakdown.f1

    def test_diagnostics_carry_both_sides(self, figure_graph):
        breakdown = swss(figure_graph, one_scene_paraphrase())
        assert breakdown.candidate.scenes == 2
        assert breakdown.reference.scenes == 1
        assert breakdown.candidate.tokens == 9
        assert breakdown.reference.tokens == 6
        assert breakdown.candidate.nodes == 14
        assert breakdown.candidate.internal_nodes == 4

    def test_fallback_skips_penalties_by_default(self):
        empty = make_graph(["very", "nice"], [("r", "u", "H"), ("u", 1, "E"), ("u", 2, "D")])
        full = one_scene_paraphrase()
        breakdown = swss(empty, full, SwssParams(omega=0.5))
        assert breakdown.fallback_used
        assert breakdown.swss == 0.5

    def test_fallback_can_apply_penalties(self):
        empty = make_graph(["very", "nice"], [("r", "u", "H"), ("u", 1, "E"), ("u", 2, "D")])
        full = one_scene_paraphrase()
        params = SwssParams(omega=0.5, fallback_applies_penalties=True)
        breakdown = swss(empty, full, params)
        assert breakdown.fallback_used
        assert 0 < breakdown.swss < 0.5

    def test_remote_critical_edge_flag(self, figure_graph):
        plain = swss(figure_graph, one_scene_paraphrase())
        with_remote = swss(
            figure_graph, one_scene_paraphrase(), SwssParams(include_remote_critical_edges=True)
        )
        assert plain.candidate.critical_edges == 5
        assert with_remote.candidate.critical_edges == 6
        assert plain.reference.critical_edges == with_remote.reference.critical_edges == 3

    def test_to_dict_serializes(self, figure_graph):
        payload = swss(figure_graph, figure_graph).to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["candidate"]["core_words"] == 6

    @given(st.integers(min_value=0, max_value=20_000))
    def test_symmetry_and_bounds(self, seed):
        candidate, reference = random_pair(random.Random(seed))
        params = SwssParams()
        forward = swss(candidate, reference, params)
        backward = swss(reference, candidate, params)
        assert forward.swss == backward.swss  # bit exact
        assert forward.precision == backward.recall
        assert forward.recall == backward.precision
        assert forward.candidate == backward.reference
        assert forward.reference == backward.candidate
        assert 0.0 <= forward.swss <= 1.0
        for penalty in (forward.p_scene, forward.p_node, forward.p_edge):
            assert 0.0 <= penalty <= 1.0

    @given(st.integers(min_value=0, max_value=5_000))
    def test_symmetry_with_category_weights(self, seed):
        candidate, reference = random_pair(random.Random(seed))
        params = SwssParams(category_weights={Category.PROCESS: 2.5, Category.CENTER: 0.5})
        assert swss(candidate, reference, params).swss == swss(reference, candidate, params).swss

    @given(st.integers(min_value=0, max_value=5_000))
    def test_weights_near_the_float_maximum_act_like_equal_weights(self, seed):
        # Two such words already overflow a total.
        candidate, reference = random_pair(random.Random(seed))
        huge = SwssParams(category_weights={category: 2.0**1023 for category in Category})
        for first, second in ((candidate, reference), (reference, candidate)):
            got, expected = swss(first, second, huge), swss(first, second)
            assert (got.precision, got.recall, got.f1, got.swss) == (
                expected.precision, expected.recall, expected.f1, expected.swss,
            )

    @given(st.integers(min_value=0, max_value=5_000), st.sampled_from(["alpha1", "alpha2", "alpha3", "alpha4"]))
    def test_increasing_any_alpha_weakly_decreases_score(self, seed, name):
        candidate, reference = random_pair(random.Random(seed))
        low = SwssParams()
        high = dataclasses.replace(low, **{name: getattr(low, name) + 1.0})
        assert swss(candidate, reference, high).swss <= swss(candidate, reference, low).swss

    @given(
        st.integers(min_value=0, max_value=20_000),
        st.none() | st.dictionaries(st.sampled_from(list(Category)), st.floats(0.1, 5.0), max_size=4),
        st.booleans(),
        st.booleans(),
    )
    def test_features_path_matches_graph_based_oracle(self, seed, weights, remote, fallback_penalized):
        candidate, reference = random_pair(random.Random(seed))
        params = SwssParams(
            category_weights=weights,
            include_remote_critical_edges=remote,
            fallback_applies_penalties=fallback_penalized,
        )
        assert swss(candidate, reference, params).to_dict() == swss_from_graphs(candidate, reference, params).to_dict()

    def test_equal_counts_leave_only_length(self, figure_graph):
        params = SwssParams(alpha4=0.1)
        breakdown = swss(figure_graph, figure_graph, params)
        assert breakdown.swss == pytest.approx(breakdown.f1 * math.exp(-0.1 * 9), rel=1e-12)


class TestCombine:
    def test_beta_zero_returns_base(self, figure_graph):
        breakdown = swss(figure_graph, figure_graph)
        assert combine(0.731, breakdown, SwssParams(beta=0.0)) == 0.731

    def test_arithmetic(self, figure_graph):
        breakdown = dataclasses.replace(swss(figure_graph, figure_graph), swss=0.4)
        assert combine(0.5, breakdown, SwssParams(beta=0.2)) == pytest.approx(0.58)

    def test_non_finite_base_rejected(self, figure_graph):
        breakdown = swss(figure_graph, figure_graph)
        for base, message in [
            (math.nan, "base score must be finite, got nan"),
            (math.inf, "base score must be finite, got inf"),
            (-math.inf, "base score must be finite, got -inf"),
            (True, "base score must be a number, got True"),
            (10**400, f"base score must be finite, got {10**400!r}"),
        ]:
            with pytest.raises(ValueError) as info:
                combine(base, breakdown, SwssParams())
            assert str(info.value) == message

    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=3, max_size=10, unique=True))
    def test_beta_zero_preserves_base_ranking(self, bases):
        # With beta = 0 the combined ranking is exactly the base ranking.
        breakdowns = [dataclasses.replace(_DUMMY, swss=random.Random(i).random()) for i in range(len(bases))]
        combined = [combine(b, bd, SwssParams(beta=0.0)) for b, bd in zip(bases, breakdowns)]
        assert sorted(range(len(bases)), key=bases.__getitem__) == sorted(
            range(len(combined)), key=combined.__getitem__
        )
