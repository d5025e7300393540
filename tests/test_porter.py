from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import porter_stem_reference
from swss.porter import stem

PORTER_DIR = Path(__file__).parent / "data" / "porter"


def load_reference_vectors():
    words = (PORTER_DIR / "voc.txt").read_text().split()
    stems = (PORTER_DIR / "output.txt").read_text().split()
    assert len(words) == len(stems) == 23531
    return list(zip(words, stems))


@pytest.mark.parametrize(
    "word, expected",
    [
        ("caresses", "caress"),
        ("ponies", "poni"),
        ("ties", "ti"),
        ("caress", "caress"),
        ("cats", "cat"),
        ("feed", "feed"),
        ("agreed", "agre"),
        ("plastered", "plaster"),
        ("motoring", "motor"),
        ("sing", "sing"),
        ("sofa", "sofa"),
        ("relational", "relat"),
        ("troubling", "troubl"),
        ("happy", "happi"),
        ("sky", "sky"),
    ],
)
def test_known_stems(word, expected):
    assert stem(word) == expected


def test_case_folding_before_stemming():
    assert stem("John") == "john"
    assert stem("CARESSES") == "caress"


def test_short_words_untouched():
    assert stem("X") == "x"
    assert stem("by") == "by"
    assert stem("as") == "as"


def test_non_alphabetic_passthrough():
    assert stem("123") == "123"
    assert stem("don't") == "don't"
    assert stem("U.N.") == "u.n."
    assert stem("naïve") == "naïve"


def test_empty_token_rejected():
    with pytest.raises(ValueError):
        stem("")


def test_reference_vector_sample():
    # Every tenth entry; the full 23,531-word sweep runs in the acceptance suite.
    vectors = load_reference_vectors()
    for word, expected in vectors[::10]:
        assert stem(word) == expected, f"{word!r} stemmed to {stem(word)!r}, expected {expected!r}"


def test_idempotence_deviations_are_frozen():
    # Porter is not idempotent on its own output; freeze the empirically
    # measured deviation set size instead of asserting blindly.
    distinct = sorted({s for _, s in load_reference_vectors()})
    deviations = [s for s in distinct if stem(s) != s]
    assert len(distinct) == 14950
    assert len(deviations) == 464
    assert "caus" in deviations and stem("caus") == "cau"
    assert "agre" in deviations and stem("agre") == "agr"
    for fixed_point in ("caress", "poni", "motor", "sofa"):
        assert fixed_point not in deviations


@given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=20))
def test_alpha_words_stem_to_nonempty_lowercase_alpha(word):
    out = stem(word)
    assert out
    assert out == out.lower()
    assert out.isalpha()


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), min_size=1, max_size=20))
def test_stemming_is_deterministic_and_case_insensitive(word):
    assert stem(word) == stem(word)
    assert stem(word) == stem(word.upper()) == stem(word.lower())


# Letters weighted toward what the rules test: y (a vowel or a consonant
# by its left neighbour), vowels, and the suffix letters s, e and l.
_RULE_LETTERS = "aeiouyyyyssseeellbcdfgmnrtvwxz"


@settings(max_examples=2000)
@given(
    st.text(alphabet=_RULE_LETTERS, min_size=1, max_size=14)
    | st.text(alphabet=_RULE_LETTERS + "AEIOUYSEL0123456789éİ'-", min_size=1, max_size=10)
    | st.text(min_size=1, max_size=6)
)
def test_agrees_with_reference_stemmer(word):
    assert stem(word) == porter_stem_reference(word)
