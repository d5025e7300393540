"""Lexical base metrics: a smoothed sentence-level BLEU and an ingestion
path for scores computed by external tools (Meteor and friends).

The BLEU variant is sentence-level with clipped n-gram precisions up to
order 4, add-one smoothing on orders above 1, and the usual brevity
penalty. External metrics are never reimplemented here; their per-segment
scores are read from a TSV file and blended downstream.
"""

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .errors import DatasetError, _read_lines

__all__ = ["ngram_profile", "sentence_bleu", "ExternalScoreTable", "load_external_scores"]


def ngram_profile(tokens: Sequence[str], n_max: int = 4) -> dict[int, Counter]:
    """Per-order n-gram counts of one token sequence, keyed by order.

    Orders with no n-grams (sentence shorter than the order) are absent,
    so every stored count is at least 1.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    counts = {}
    for n in range(1, n_max + 1):
        if len(tokens) < n:
            break
        counts[n] = Counter(zip(*[tokens[i:] for i in range(n)]))
    return counts


def sentence_bleu(
    candidate_tokens: Sequence[str],
    reference_tokens: Sequence[str],
    n_max: int = 4,
) -> float:
    """Smoothed sentence BLEU of a candidate against a single reference.

    Geometric mean of clipped n-gram precisions over orders 1..n_max,
    multiplied by the brevity penalty. Order-1 precision is unsmoothed
    (zero unigram overlap means a zero score); higher orders get add-one
    smoothing. Orders for which the candidate has no n-grams are skipped.
    An empty candidate scores 0.
    """
    # Built first, so that ngram_profile checks n_max for an empty candidate too.
    candidate = ngram_profile(candidate_tokens, n_max)
    if not candidate_tokens:
        return 0.0
    reference = ngram_profile(reference_tokens, n_max)

    log_sum = 0.0
    orders = 0
    for n in range(1, n_max + 1):
        cand_counts = candidate.get(n)
        if cand_counts is None:
            break
        total = sum(cand_counts.values())
        ref_counts = reference.get(n, {})
        hits = sum(min(count, ref_counts[gram]) for gram, count in cand_counts.items() if gram in ref_counts)
        if n == 1:
            if hits == 0:
                return 0.0
            precision = hits / total
        else:
            precision = (hits + 1) / (total + 1)
        log_sum += math.log(precision)
        orders += 1

    geometric_mean = math.exp(log_sum / orders)
    if len(candidate_tokens) < len(reference_tokens):
        brevity = math.exp(1.0 - len(reference_tokens) / len(candidate_tokens))
    else:
        brevity = 1.0
    return brevity * geometric_mean


@dataclass(frozen=True)
class ExternalScoreTable:
    """Per-segment scores of an externally computed metric, keyed by
    (system, segment id)."""

    metric_name: str
    rows: Mapping[tuple[str, int], float]

    def score(self, system: str, segment_id: int) -> float:
        try:
            return self.rows[(system, segment_id)]
        except KeyError:
            raise DatasetError(
                f"no {self.metric_name} score for system {system!r}, segment {segment_id}"
            ) from None


def load_external_scores(path, metric_name: str = "") -> ExternalScoreTable:
    """Load a score table from a headerless TSV with columns
    ``system<TAB>segment_id<TAB>score``."""
    path = Path(path)
    rows: dict[tuple[str, int], float] = {}
    for lineno, line in enumerate(_read_lines(path, "score table"), start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DatasetError(f"{path}:{lineno}: expected 3 tab-separated columns, got {len(parts)}")
        system, raw_segment, raw_score = parts
        try:
            segment_id = int(raw_segment)
        except ValueError:
            raise DatasetError(f"{path}:{lineno}: segment id {raw_segment!r} is not an integer") from None
        try:
            score = float(raw_score)
        except ValueError:
            raise DatasetError(f"{path}:{lineno}: score {raw_score!r} is not a number") from None
        if not math.isfinite(score):
            raise DatasetError(f"{path}:{lineno}: score must be finite, got {raw_score!r}")
        key = (system, segment_id)
        if key in rows:
            raise DatasetError(f"{path}:{lineno}: duplicate entry for system {system!r}, segment {segment_id}")
        rows[key] = score
    return ExternalScoreTable(metric_name=metric_name or path.stem, rows=rows)
