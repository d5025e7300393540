import random
from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from conftest import make_graph
from oracles import max_matching_bruteforce
from swss.core_words import CORE_CATEGORIES, CoreWordBag, clipped_match, extract_core_words, porter_stem
from swss.scoring import SwssParams
from swss.synthetic import random_graph

stems_lists = st.lists(st.sampled_from("abcdefg"), max_size=8)

# The weights scoring uses under default parameters: 1 for every label.
unit = SwssParams().weight


def match(cand, ref):
    return clipped_match(CoreWordBag.from_stems(cand), CoreWordBag.from_stems(ref), unit)


class TestExtraction:
    def test_figure_core_words(self, figure_graph):
        bag = extract_core_words(figure_graph)
        assert [w.surface for w in bag.words] == ["John", "Mary", "bought", "sofa", "I", "sold"]

    def test_elaborator_never_core(self, figure_graph):
        bag = extract_core_words(figure_graph)
        assert "the" not in {w.surface for w in bag.words}

    def test_stems_are_lowercased(self, figure_graph):
        bag = extract_core_words(figure_graph)
        by_surface = {w.surface: w.stem for w in bag.words}
        assert by_surface["John"] == "john"
        assert by_surface["bought"] == "bought"
        assert by_surface["sofa"] == "sofa"

    def test_positions_and_labels(self, figure_graph):
        bag = extract_core_words(figure_graph)
        assert [w.position for w in bag.words] == [1, 3, 4, 6, 7, 8]
        assert all(w.label in CORE_CATEGORIES for w in bag.words)

    def test_non_core_graph_yields_empty_bag(self):
        graph = make_graph(
            ["very", "nice", "and"],
            [("r", "u", "H"), ("u", 1, "E"), ("u", 2, "D"), ("u", 3, "N")],
        )
        assert extract_core_words(graph).total == 0

    @given(st.integers(min_value=0, max_value=5_000))
    def test_core_words_are_a_submultiset_of_tokens(self, seed):
        graph = random_graph(random.Random(seed))
        bag = extract_core_words(graph)
        token_stems = Counter(porter_stem(t) for t in graph.tokens())
        assert not bag.stem_counts - token_stems


class TestBag:
    def test_counts_add_up(self):
        bag = CoreWordBag.from_stems(["run", "run", "dog"])
        assert bag.total == 3
        assert bag.stem_counts == Counter({"run": 2, "dog": 1})

    def test_empty_is_legal(self):
        bag = CoreWordBag.from_stems([])
        assert bag.total == 0
        assert not bag.stem_counts


class TestMatching:
    def test_clipping_example(self):
        # First compute the expected value with the exhaustive oracle,
        # then assert the library agrees.
        cand, ref = ["a", "a", "b"], ["a", "c"]
        assert max_matching_bruteforce(cand, ref) == 1
        assert match(cand, ref) == (1.0, 3.0)
        assert match(ref, cand) == (1.0, 2.0)

    def test_identical_bags_match_fully(self):
        assert match(["x", "y", "y"], ["x", "y", "y"]) == (3.0, 3.0)

    def test_disjoint_bags_match_nothing(self):
        assert match(["a", "b"], ["c"]) == (0.0, 2.0)

    def test_empty_side(self):
        assert match([], ["a"]) == (0.0, 0.0)
        assert match(["a"], []) == (0.0, 1.0)

    @given(stems_lists, stems_lists)
    def test_matches_bruteforce_maximum(self, cand, ref):
        expected = max_matching_bruteforce(cand, ref)
        assert match(cand, ref) == (expected, len(cand))
        assert match(ref, cand) == (expected, len(ref))

    @given(stems_lists, stems_lists)
    def test_symmetry(self, cand, ref):
        assert match(cand, ref)[0] == match(ref, cand)[0]

    @given(stems_lists, stems_lists)
    def test_matched_never_exceeds_totals(self, cand, ref):
        matched, total = match(cand, ref)
        assert 0 <= matched <= total == len(cand)
