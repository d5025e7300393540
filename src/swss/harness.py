"""Evaluation harness: dataset ingestion, metric-human correlation, and
parameter tuning.

A dataset is a newline-delimited JSON manifest; each record points at two
pre-parsed UCCA files and carries the human judgment for the candidate.
Metric quality is the segment-level Pearson correlation against the human
scores within each language pair, averaged with equal weight per pair.
"""

import itertools
import json
import logging
import math
import operator
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from .errors import DatasetError, GraphError
from .lexical import ExternalScoreTable, sentence_bleu
from .scoring import SwssParams, penalized_score, swss
from .ucca_graph import load_graph

__all__ = [
    "ABLATIONS",
    "SegmentRecord",
    "CorrelationReport",
    "TuneGrid",
    "load_dataset",
    "pearson",
    "apply_ablation",
    "evaluate",
    "grid_search",
]

logger = logging.getLogger(__name__)

ABLATIONS = ("full", "no-repr", "no-len", "base-only")

_MANIFEST_FIELDS = {
    "lang_pair": str,
    "system": str,
    "segment_id": int,
    "candidate_ucca": str,
    "reference_ucca": str,
    "human_score": (int, float),
}


@dataclass(frozen=True)
class SegmentRecord:
    """One evaluation row: a system output judged against a reference."""

    lang_pair: str
    system: str
    segment_id: int
    candidate_ucca: Path
    reference_ucca: Path
    human_score: float

    @property
    def label(self) -> str:
        return f"{self.lang_pair}/{self.system}/{self.segment_id}"


@dataclass
class CorrelationReport:
    """Correlations of the evaluated metric (and its base) per language pair.

    ``params`` echoes the effective parameters after any ablation was
    applied, so two runs that compute the same thing produce equal reports.
    The base-metric correlations are diagnostics; they are None when the
    base is constant within a pair (a constant evaluated metric, by
    contrast, is a hard error).
    """

    per_pair: dict[str, float]
    base_per_pair: dict[str, Optional[float]]
    average: float
    base_average: Optional[float]
    n: dict[str, int]
    skipped: int
    params: SwssParams
    base_name: str

    def to_dict(self) -> dict:
        return {
            "per_pair": dict(self.per_pair),
            "base_per_pair": dict(self.base_per_pair),
            "average": self.average,
            "base_average": self.base_average,
            "n": dict(self.n),
            "skipped": self.skipped,
            "params": self.params.to_dict(),
            "base": self.base_name,
        }


def load_dataset(manifest: Union[str, Path]) -> list[SegmentRecord]:
    """Read a newline-delimited JSON manifest into segment records.

    Relative UCCA paths are resolved against the manifest's directory, and
    every referenced file must exist.
    """
    manifest = Path(manifest)
    if not manifest.is_file():
        raise DatasetError(f"manifest not found: {manifest}")
    base_dir = manifest.parent
    records: list[SegmentRecord] = []
    with open(manifest, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{manifest}:{lineno}: malformed JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise DatasetError(f"{manifest}:{lineno}: expected a JSON object")
            unknown = set(obj) - set(_MANIFEST_FIELDS)
            if unknown:
                raise DatasetError(f"{manifest}:{lineno}: unknown field {sorted(unknown)[0]!r}")
            for name, types in _MANIFEST_FIELDS.items():
                if name not in obj:
                    raise DatasetError(f"{manifest}:{lineno}: missing field {name!r}")
                if not isinstance(obj[name], types) or isinstance(obj[name], bool):
                    raise DatasetError(f"{manifest}:{lineno}: field {name!r} has the wrong type")
            human = float(obj["human_score"])
            if not math.isfinite(human):
                raise DatasetError(f"{manifest}:{lineno}: human_score must be finite")
            record = SegmentRecord(
                lang_pair=obj["lang_pair"],
                system=obj["system"],
                segment_id=obj["segment_id"],
                candidate_ucca=base_dir / obj["candidate_ucca"],
                reference_ucca=base_dir / obj["reference_ucca"],
                human_score=human,
            )
            for path in (record.candidate_ucca, record.reference_ucca):
                if not path.is_file():
                    raise DatasetError(f"record {record.label}: missing UCCA file {path}")
            records.append(record)
    if not records:
        logger.warning("manifest %s contains no records", manifest)
    return records


def _centred(values: Sequence[float]) -> list[float]:
    mean = math.fsum(values) / len(values)
    return [v - mean for v in values]


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient of two equal-length lists.

    Raises ValueError for fewer than two points or for a constant input,
    where the coefficient is undefined (never silently 0).
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise ValueError("pearson requires at least two points")
    dx = _centred(xs)
    dy = _centred(ys)
    sxx = math.fsum(d * d for d in dx)
    syy = math.fsum(d * d for d in dy)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("pearson is undefined for a constant input")
    r = math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def apply_ablation(params: SwssParams, ablation: str) -> SwssParams:
    """Effective parameters for an ablation mode.

    no-repr zeroes the three structural penalty coefficients, no-len the
    length coefficient, and base-only the combination weight (leaving the
    base metric alone).
    """
    if ablation == "full":
        return params
    if ablation == "no-repr":
        return replace(params, alpha1=0.0, alpha2=0.0, alpha3=0.0)
    if ablation == "no-len":
        return replace(params, alpha4=0.0)
    if ablation == "base-only":
        return replace(params, beta=0.0)
    raise ValueError(f"unknown ablation {ablation!r}; expected one of {', '.join(ABLATIONS)}")


@dataclass(frozen=True)
class _PreparedSegment:
    # Everything about a segment that does not depend on the six scalar
    # parameters, so tuning can sweep them without re-parsing graphs.
    lang_pair: str
    base_score: float
    human_score: float
    f1: float
    fallback_used: bool
    p_scene: float
    p_node: float
    p_edge: float
    len_penalty: float


def _base_name(base: Union[str, ExternalScoreTable]) -> str:
    return base if isinstance(base, str) else base.metric_name


def _prepare_segments(
    records: Sequence[SegmentRecord],
    params: SwssParams,
    base: Union[str, ExternalScoreTable],
    strict: bool,
) -> tuple[list[_PreparedSegment], int]:
    if isinstance(base, str) and base != "bleu":
        raise ValueError(f"unknown base metric {base!r}; expected 'bleu' or an ExternalScoreTable")
    prepared: list[_PreparedSegment] = []
    skipped = 0
    for record in records:
        try:
            candidate = load_graph(record.candidate_ucca, lenient=not strict)
            reference = load_graph(record.reference_ucca, lenient=not strict)
        except GraphError as exc:
            if strict:
                raise DatasetError(f"record {record.label}: {exc}") from None
            skipped += 1
            logger.warning("skipping record %s: %s", record.label, exc)
            continue
        if isinstance(base, ExternalScoreTable):
            base_score = base.score(record.system, record.segment_id)
        else:
            base_score = sentence_bleu(candidate.tokens(), reference.tokens())
        breakdown = swss(candidate, reference, params)
        prepared.append(
            _PreparedSegment(
                lang_pair=record.lang_pair,
                base_score=base_score,
                human_score=record.human_score,
                f1=breakdown.f1,
                fallback_used=breakdown.fallback_used,
                p_scene=breakdown.p_scene,
                p_node=breakdown.p_node,
                p_edge=breakdown.p_edge,
                len_penalty=breakdown.len_penalty,
            )
        )
    if skipped:
        logger.warning("skipped %d record(s) with invalid UCCA parses", skipped)
    if not prepared:
        raise DatasetError("no segments could be evaluated")
    return prepared, skipped


def _segment_score(segment: _PreparedSegment, params: SwssParams) -> float:
    # A fallback segment's F1 is omega itself, so one prepared list serves
    # every omega of a grid search.
    structural = penalized_score(
        params.omega if segment.fallback_used else segment.f1,
        segment.fallback_used,
        segment.p_scene,
        segment.p_node,
        segment.p_edge,
        segment.len_penalty,
        params,
    )
    return segment.base_score + params.beta * structural


def _by_pair(prepared: Sequence[_PreparedSegment]) -> dict[str, list[_PreparedSegment]]:
    # Segments grouped by language pair, the pairs in sorted order.
    by_pair: dict[str, list[_PreparedSegment]] = {}
    for segment in prepared:
        by_pair.setdefault(segment.lang_pair, []).append(segment)
    return {lang_pair: by_pair[lang_pair] for lang_pair in sorted(by_pair)}


def _correlations(
    prepared: Sequence[_PreparedSegment], params: SwssParams
) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    per_pair: dict[str, float] = {}
    base_per_pair: dict[str, Optional[float]] = {}
    counts: dict[str, int] = {}
    for lang_pair, segments in _by_pair(prepared).items():
        combined = [_segment_score(s, params) for s in segments]
        human = [s.human_score for s in segments]
        bases = [s.base_score for s in segments]
        try:
            per_pair[lang_pair] = pearson(combined, human)
        except ValueError as exc:
            raise DatasetError(f"language pair {lang_pair!r}: {exc}") from None
        try:
            base_per_pair[lang_pair] = pearson(bases, human)
        except ValueError:
            base_per_pair[lang_pair] = None
        counts[lang_pair] = len(segments)
    return per_pair, base_per_pair, counts


def _mean(values) -> float:
    values = list(values)
    return math.fsum(values) / len(values)


def evaluate(
    records: Sequence[SegmentRecord],
    params: Optional[SwssParams] = None,
    base: Union[str, ExternalScoreTable] = "bleu",
    ablation: str = "full",
    strict: bool = False,
) -> CorrelationReport:
    """Correlate the combined metric (base + beta * score) with human
    judgments, per language pair and on average.

    ``base`` is either "bleu" for the in-repo sentence BLEU over UCCA
    tokens, or a loaded :class:`ExternalScoreTable`. In strict mode any
    invalid UCCA parse aborts the run; otherwise such segments are skipped
    and counted. An unresolvable base score is always an error.
    """
    if not records:
        raise DatasetError("no records to evaluate")
    effective = apply_ablation(params if params is not None else SwssParams(), ablation)
    prepared, skipped = _prepare_segments(records, effective, base, strict)
    per_pair, base_per_pair, counts = _correlations(prepared, effective)
    defined = [r for r in base_per_pair.values() if r is not None]
    return CorrelationReport(
        per_pair=per_pair,
        base_per_pair=base_per_pair,
        average=_mean(per_pair.values()),
        base_average=_mean(defined) if len(defined) == len(base_per_pair) else None,
        n=counts,
        skipped=skipped,
        params=effective,
        base_name=_base_name(base),
    )


@dataclass(frozen=True)
class TuneGrid:
    """Value lists for the parameter grid search.

    Lists are sorted internally, so the search visits points in
    lexicographic order and ties resolve to the smallest parameter vector.
    """

    alpha1: tuple = (0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0)
    alpha2: tuple = (0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0)
    alpha3: tuple = (0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0)
    alpha4: tuple = (0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0)
    beta: tuple = (0.05, 0.1, 0.2, 0.5, 1.0)
    omega: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)

    def __post_init__(self):
        for field_ in fields(self):
            values = getattr(self, field_.name)
            if not values:
                raise ValueError(f"grid for {field_.name!r} must not be empty")
            cleaned = []
            for v in values:
                if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v) or v < 0:
                    raise ValueError(f"grid value {v!r} for {field_.name!r} must be finite and >= 0")
                cleaned.append(float(v))
            if field_.name == "omega" and max(cleaned) > 1.0:
                raise ValueError("omega grid values must lie in [0, 1]")
            object.__setattr__(self, field_.name, tuple(sorted(set(cleaned))))

    @property
    def size(self) -> int:
        return (
            len(self.alpha1) * len(self.alpha2) * len(self.alpha3)
            * len(self.alpha4) * len(self.beta) * len(self.omega)
        )

    @classmethod
    def from_dict(cls, data: Mapping) -> "TuneGrid":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown grid parameter {sorted(unknown)[0]!r}")
        return cls(**{k: tuple(v) for k, v in data.items()})


# Screening bounds of the closed-form grid search. Every point whose
# estimate could come within _SCREEN_FLOOR of the best one, given a
# rounding bound of _ROUNDING per unit of conditioning, is re-checked
# exactly; a pair whose metric variance is below _DEGENERATE times the
# sum of its non-negative terms counts as constant and is re-checked too.
_SCREEN_FLOOR = 1e-9
_DEGENERATE = 1e-9
_ROUNDING = 64 * sys.float_info.epsilon


@dataclass(frozen=True)
class _PairSums:
    # Centred columns and the sums of one language pair that do not
    # depend on the alphas: b is the base, h the human score, u the
    # fallback flag; bh is sum(db * dh) and so on.
    lo: int
    hi: int
    dh: list
    db: list
    du: list
    hh: float
    bh: float
    uh: float
    bb: float
    uu: float
    bu: float
    top_base: float


def _dot(xs, ys) -> float:
    return sum(map(operator.mul, xs, ys))


def _alpha_sweep(f1: list, tables: list):
    """Yield ``(alphas, scores)`` over the alpha grid in lexicographic
    order, where ``scores[i]`` is segment i's F1 times its four penalty
    factors; partial products are shared between neighbouring tuples."""

    def walk(prefix, partial, level):
        if level == len(tables):
            yield prefix, partial
            return
        for alpha, factors in tables[level]:
            yield from walk(prefix + (alpha,), list(map(operator.mul, partial, factors)), level + 1)

    return walk((), f1, 0)


def _estimate(sums: list, beta: float, omega: float) -> tuple[float, float]:
    """Closed-form average Pearson r of ``b + beta*s + beta*omega*u`` and a
    bound on its distance from the exact per-point value; ``(nan, inf)``
    when some pair's metric is constant or nearly so."""
    bw = beta * omega
    total = 0.0
    slack = 0.0
    for pair, sh, ss, sb, su in sums:
        sxy = pair.bh + beta * sh + bw * pair.uh
        spread = pair.bb + beta * beta * ss + bw * bw * pair.uu
        sxx = spread + 2.0 * (beta * sb + bw * pair.bu + beta * bw * su)
        # Bounds |metric| (s and omega are at most 1); rounding at that
        # magnitude can collapse a tiny spread to a constant.
        top = pair.top_base + 2.0 * beta
        n = pair.hi - pair.lo
        if not sxx > _DEGENERATE * spread + n * (16 * sys.float_info.epsilon * top) ** 2:
            return math.nan, math.inf
        total += sxy / math.sqrt(sxx * pair.hh)
        slack += 1.0 + spread / sxx + top * math.sqrt(n / sxx)
    return total / len(sums), _SCREEN_FLOOR + _ROUNDING * slack / len(sums)


def _screen(prepared: Sequence[_PreparedSegment], grid: "TuneGrid") -> list[tuple]:
    """Grid vectors, in lexicographic order, whose exact objective may be
    the maximum or may raise.

    With the alphas fixed, the combined metric of a pair is ``b + beta*s +
    beta*omega*u``, where s is the penalized F1 (0 on fallback segments)
    and u the fallback flag, so every Pearson r follows from a few sums.
    """
    points = itertools.product(
        grid.alpha1, grid.alpha2, grid.alpha3, grid.alpha4, grid.beta, grid.omega
    )
    pairs: list[_PairSums] = []
    segments: list[_PreparedSegment] = []
    for group in _by_pair(prepared).values():
        dh = _centred([s.human_score for s in group])
        hh = math.fsum(d * d for d in dh)
        if len(group) < 2 or hh == 0.0:
            # Pearson raises at every point, so the first one tells how.
            return [next(points)]
        bases = [s.base_score for s in group]
        db = _centred(bases)
        du = _centred([float(s.fallback_used) for s in group])
        pairs.append(
            _PairSums(
                lo=len(segments), hi=len(segments) + len(group), dh=dh, db=db, du=du,
                hh=hh, bh=_dot(db, dh), uh=_dot(du, dh), bb=_dot(db, db), uu=_dot(du, du),
                bu=_dot(db, du), top_base=max(map(abs, bases)),
            )
        )
        segments.extend(group)

    f1 = [0.0 if s.fallback_used else s.f1 for s in segments]
    columns = (
        [s.p_scene for s in segments],
        [s.p_node for s in segments],
        [s.p_edge for s in segments],
        [s.len_penalty for s in segments],
    )
    tables = [
        [(alpha, [math.exp(-alpha * p) for p in column]) for alpha in values]
        for values, column in zip((grid.alpha1, grid.alpha2, grid.alpha3, grid.alpha4), columns)
    ]

    lower = -math.inf  # the best lower bound on any point's exact objective
    candidates: list[tuple[float, tuple]] = []
    prune_at = 64
    for alphas, scores in _alpha_sweep(f1, tables):
        sums = []
        for pair in pairs:
            column = scores[pair.lo : pair.hi]
            mean = sum(column) / len(column)
            ds = [x - mean for x in column]
            sums.append((pair, _dot(ds, pair.dh), _dot(ds, ds), _dot(ds, pair.db), _dot(ds, pair.du)))
        for beta in grid.beta:
            for omega in grid.omega:
                estimate, error = _estimate(sums, beta, omega)
                upper = estimate + error
                if upper < math.inf:
                    lower = max(lower, estimate - error)
                else:
                    upper = math.inf  # also for nan: unknown, so re-check
                if upper >= lower:
                    candidates.append((upper, (*alphas, beta, omega)))
        if len(candidates) > prune_at:
            candidates = [c for c in candidates if c[0] >= lower]
            prune_at = 2 * len(candidates) + 64
    return [vector for upper, vector in candidates if upper >= lower]


def grid_search(
    records: Sequence[SegmentRecord],
    grid: TuneGrid,
    base: Union[str, ExternalScoreTable] = "bleu",
    strict: bool = False,
) -> tuple[SwssParams, float]:
    """Search the Cartesian grid and return the argmax.

    The objective is the unweighted average Pearson correlation over
    language pairs of the combined metric. Graphs are parsed and scored
    once; only the scalar parameters vary across grid points. Each
    point's objective is first estimated in closed form from per-pair
    sums, which costs O(segments) per alpha tuple and O(1) per (beta,
    omega); the points whose estimate lies near the best one, and any
    whose metric looks constant, are then recomputed exactly. The result
    is the exhaustive search's: ties go to the lexicographically smallest
    (alpha1..alpha4, beta, omega) vector, and a point where the metric is
    constant in some language pair raises DatasetError.
    """
    if not records:
        raise DatasetError("no records to tune on")
    logger.info("grid search over %d parameter points", grid.size)
    prepared, _ = _prepare_segments(records, SwssParams(), base, strict)

    candidates = _screen(prepared, grid)
    best_vector = None
    best_objective = -math.inf
    for vector in candidates:
        per_pair, _, _ = _correlations(prepared, SwssParams(*vector))
        objective = _mean(per_pair.values())
        if objective > best_objective:
            best_objective = objective
            best_vector = vector
    logger.info(
        "grid search finished; best objective %.6f (%d of %d points re-checked)",
        best_objective, len(candidates), grid.size,
    )
    return SwssParams(*best_vector), best_objective
