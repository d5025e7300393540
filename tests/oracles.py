"""Independent reference implementations used only as test oracles.

These deliberately share no code with the library: the matching oracle is
an exhaustive subset search, the BLEU oracle uses explicit n-gram lists
and the product form of the geometric mean, and the correlation oracle
uses the raw-moment formula. The grid-search oracle is the exception:
it is the exhaustive loop the fast search must agree with point for point.
"""

import itertools
import math
from dataclasses import replace
from functools import lru_cache


def max_matching_bruteforce(candidate_stems, reference_stems):
    """Size of a maximum one-to-one matching where equal stems may pair.

    Explores every assignment of candidate words to unused reference
    words via subset recursion (memoized on the used-reference bitmask).
    Only suitable for small instances.
    """
    cand = tuple(candidate_stems)
    ref = tuple(reference_stems)

    @lru_cache(maxsize=None)
    def best(i, used_mask):
        if i == len(cand):
            return 0
        score = best(i + 1, used_mask)  # leave word i unmatched
        for j, stem in enumerate(ref):
            if not used_mask >> j & 1 and cand[i] == stem:
                score = max(score, 1 + best(i + 1, used_mask | 1 << j))
        return score

    result = best(0, 0)
    best.cache_clear()
    return result


def reference_bleu(candidate, reference, n_max=4):
    """Textbook smoothed sentence BLEU: clipped precisions from explicit
    n-gram lists, add-one smoothing above order 1, brevity penalty."""
    if not candidate:
        return 0.0
    precisions = []
    for n in range(1, n_max + 1):
        cand_grams = [tuple(candidate[i : i + n]) for i in range(len(candidate) - n + 1)]
        if not cand_grams:
            break
        ref_grams = [tuple(reference[i : i + n]) for i in range(len(reference) - n + 1)]
        hits = 0
        for gram in set(cand_grams):
            hits += min(cand_grams.count(gram), ref_grams.count(gram))
        if n == 1:
            if hits == 0:
                return 0.0
            precisions.append(hits / len(cand_grams))
        else:
            precisions.append((hits + 1) / (len(cand_grams) + 1))
    score = 1.0
    for p in precisions:
        score *= p ** (1.0 / len(precisions))
    if len(candidate) < len(reference):
        score *= math.exp(1.0 - len(reference) / len(candidate))
    return score


def reference_pearson(xs, ys):
    """Raw-moment Pearson formula (numerically naive on purpose)."""
    n = len(xs)
    sx = sum(xs)
    sy = sum(ys)
    sxy = sum(x * y for x, y in zip(xs, ys))
    sxx = sum(x * x for x in xs)
    syy = sum(y * y for y in ys)
    return (n * sxy - sx * sy) / math.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))


def grid_search_bruteforce(records, grid, base="bleu"):
    """Exhaustive grid search: the exact objective at every point.

    This is the per-point loop the closed-form search in
    ``swss.harness.grid_search`` replaced; it reuses the library's
    segment preparation and per-point correlation on purpose, so the two
    differ only in how they pick the points to evaluate exactly.
    """
    from swss.harness import _correlations, _mean, _prepare_segments
    from swss.scoring import SwssParams

    prepared, _ = _prepare_segments(records, SwssParams(), base, strict=False)
    best_vector = None
    best_objective = -math.inf
    for vector in itertools.product(
        grid.alpha1, grid.alpha2, grid.alpha3, grid.alpha4, grid.beta, grid.omega
    ):
        params = SwssParams(*vector)
        adjusted = [s if not s.fallback_used else replace(s, f1=params.omega) for s in prepared]
        per_pair, _, _ = _correlations(adjusted, params)
        objective = _mean(per_pair.values())
        if objective > best_objective:
            best_objective = objective
            best_vector = vector
    return SwssParams(*best_vector), best_objective
