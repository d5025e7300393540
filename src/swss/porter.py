"""Porter suffix-stripping stemmer.

Implements the classic rule-based English stemmer, following the author's
frozen ANSI C version rather than the 1980 journal text. The differences
are deliberate and well known: "bli" -> "ble" replaces "abli" -> "able",
the "logi" -> "log" rule is added in step 2, and words of length one or
two are returned untouched. This is the variant that produces the
published sample vocabulary output (see tests/data/porter/), and the
conformance suite holds the implementation to 100% agreement with it.

Only lowercase ASCII letter sequences are stemmed; everything else passes
through unchanged apart from case folding.
"""

# Step 2 and 3 rule tables, dispatched on one character the way the
# reference implementation switches: step 2 on the penultimate letter,
# step 3 on the last. Order within a bucket matters ("entli" before "eli").
_STEP2_RULES = {
    "a": (("ational", "ate"), ("tional", "tion")),
    "c": (("enci", "ence"), ("anci", "ance")),
    "e": (("izer", "ize"),),
    "l": (("bli", "ble"), ("alli", "al"), ("entli", "ent"), ("eli", "e"), ("ousli", "ous")),
    "o": (("ization", "ize"), ("ation", "ate"), ("ator", "ate")),
    "s": (("alism", "al"), ("iveness", "ive"), ("fulness", "ful"), ("ousness", "ous")),
    "t": (("aliti", "al"), ("iviti", "ive"), ("biliti", "ble")),
    "g": (("logi", "log"),),
}

_STEP3_RULES = {
    "e": (("icate", "ic"), ("ative", ""), ("alize", "al")),
    "i": (("iciti", "ic"),),
    "l": (("ical", "ic"), ("ful", "")),
    "s": (("ness", ""),),
}

# Step 4 strips a final suffix when the remaining stem has measure > 1.
# "ion" additionally requires the stem to end in s or t.
_STEP4_SUFFIXES = {
    "a": ("al",),
    "c": ("ance", "ence"),
    "e": ("er",),
    "i": ("ic",),
    "l": ("able", "ible"),
    "n": ("ant", "ement", "ment", "ent"),
    "s": ("ism",),
    "t": ("ate", "iti"),
    "u": ("ous",),
    "v": ("ive",),
    "z": ("ize",),
}


# Every letter but y, whose class depends on its left neighbour.
_CONSONANT_OR_VOWEL = str.maketrans("aeioubcdfghjklmnpqrstvwxz", "v" * 5 + "c" * 20)


def _pattern(word: str) -> str:
    """The word's letters as "c" (consonant) and "v" (vowel).

    A "y" is a consonant at the start or after a vowel, and a vowel after
    a consonant. A letter's class depends only on the letters before it,
    so the pattern of a prefix is the prefix of the pattern.
    """
    pattern = word.translate(_CONSONANT_OR_VOWEL)
    i = pattern.find("y")
    while i >= 0:
        pattern = pattern[:i] + ("v" if i and pattern[i - 1] == "c" else "c") + pattern[i + 1 :]
        i = pattern.find("y", i + 1)
    return pattern


def _measure(stem: str) -> int:
    # m in [C](VC)^m[V]: the number of vowel-consonant sequences.
    return _pattern(stem).count("vc")


def _ends_cvc(stem: str) -> bool:
    # consonant-vowel-consonant at the end, last consonant not w, x or y;
    # used to decide whether to restore a final e (cav(e), lov(e)).
    return _pattern(stem).endswith("cvc") and stem[-1] not in "wxy"


def _step1ab(w: str) -> str:
    # Plurals and -ed / -ing: caresses -> caress, ponies -> poni,
    # agreed -> agree, matting -> mat, mating -> mate.
    if w[-1] == "s":
        if w.endswith("sses") or w.endswith("ies"):
            w = w[:-2]
        elif w[-2] != "s":
            w = w[:-1]
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            w = w[:-1]
        return w
    if w.endswith("ed"):
        stem = w[:-2]
    elif w.endswith("ing"):
        stem = w[:-3]
    else:
        return w
    pattern = _pattern(stem)
    if "v" not in pattern:
        return w
    if stem.endswith(("at", "bl", "iz")):
        return stem + "e"
    if stem[-1] == stem[-2:-1] and pattern[-1] == "c":
        return stem if stem[-1] in "lsz" else stem[:-1]
    if pattern.count("vc") == 1 and _ends_cvc(stem):
        return stem + "e"
    return stem


def _step1c(w: str) -> str:
    # Terminal y -> i when the stem contains another vowel.
    if w[-1] == "y" and "v" in _pattern(w[:-1]):
        return w[:-1] + "i"
    return w


def _step2(w: str) -> str:
    # Double suffixes to single ones: -ization -> -ize. The stem before
    # the suffix must have measure > 0.
    for suffix, replacement in _STEP2_RULES.get(w[-2:-1], ()):
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            return stem + replacement if _measure(stem) > 0 else w
    return w


def _step3(w: str) -> str:
    # -ic-, -full, -ness and friends, same strategy as step 2.
    for suffix, replacement in _STEP3_RULES.get(w[-1], ()):
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            return stem + replacement if _measure(stem) > 0 else w
    return w


def _step4(w: str) -> str:
    # Strip -ant, -ence, etc. in context <c>vcvc<v>.
    ch = w[-2:-1]
    if ch == "o":
        if w.endswith("ion") and w[-4:-3] in ("s", "t"):
            stem = w[:-3]
        elif w.endswith("ou"):
            stem = w[:-2]
        else:
            return w
    else:
        for suffix in _STEP4_SUFFIXES.get(ch, ()):
            if w.endswith(suffix):
                stem = w[: -len(suffix)]
                break
        else:
            return w
    return stem if _measure(stem) > 1 else w


def _step5(w: str) -> str:
    # Final -e removal when measure > 1, and -ll -> -l. Dropping the
    # vowel e leaves the measure as it was.
    if w[-1] == "e":
        m = _measure(w)
        if m > 1 or m == 1 and not _ends_cvc(w[:-1]):
            w = w[:-1]
    if w.endswith("ll") and _measure(w) > 1:
        w = w[:-1]
    return w


# Distinct tokens whose stems each process keeps. Words repeat: on the
# benchmark corpora 34-82 % of the calls stem a token seen before. Once
# the memo is full, new tokens are stemmed without being kept.
_MEMO_SIZE = 16384
_memo: dict[str, str] = {}


def stem(token: str) -> str:
    """Return the stem of ``token``, lowercased.

    Tokens that are not pure ASCII letter strings (numbers, punctuation,
    accented words) are returned lowercased but otherwise unchanged, as
    are words of length one or two.
    """
    found = _memo.get(token)
    if found is not None:
        return found
    if not token:
        raise ValueError("cannot stem an empty token")
    found = token.lower()
    if len(found) > 2 and found.isascii() and found.isalpha():
        found = _step5(_step4(_step3(_step2(_step1c(_step1ab(found))))))
    if len(_memo) < _MEMO_SIZE:
        _memo[token] = found
    return found
