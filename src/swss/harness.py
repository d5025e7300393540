"""Evaluation harness: dataset ingestion, metric-human correlation, and
parameter tuning.

A dataset is a newline-delimited JSON manifest; each record points at two
pre-parsed UCCA files and carries the human judgment for the candidate.
Metric quality is the segment-level Pearson correlation against the human
scores within each language pair, averaged with equal weight per pair.
"""

import json
import logging
import math
import operator
import os
import sys
import threading
from collections import Counter
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Sequence, Union

from .errors import DatasetError, GraphError
from .lexical import ExternalScoreTable, sentence_bleu
from .scoring import GraphFeatures, SwssParams, penalized_score, score_from_features
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
    try:
        with open(manifest, encoding="utf-8") as handle:
            lines = handle.readlines()
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{manifest}: not UTF-8 text: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:
            raise DatasetError(f"{manifest}:{lineno}: malformed JSON: {exc}") from None
        except RecursionError:
            raise DatasetError(f"{manifest}:{lineno}: malformed JSON: nested too deeply") from None
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
        human = obj["human_score"]
        # False for NaN, and for an int too large to become a float.
        if not -sys.float_info.max <= human <= sys.float_info.max:
            raise DatasetError(f"{manifest}:{lineno}: human_score must be finite")
        record = SegmentRecord(
            lang_pair=obj["lang_pair"],
            system=obj["system"],
            segment_id=obj["segment_id"],
            candidate_ucca=base_dir / obj["candidate_ucca"],
            reference_ucca=base_dir / obj["reference_ucca"],
            human_score=float(human),
        )
        for path in (record.candidate_ucca, record.reference_ucca):
            if not path.is_file():
                raise DatasetError(f"{manifest}:{lineno}: record {record.label}: missing UCCA file {path}")
        records.append(record)
    if not records:
        logger.warning("manifest %s contains no records", manifest)
    return records


def _centred(values: Sequence[float]) -> list[float]:
    mean = math.fsum(values) / len(values)
    return [v - mean for v in values]


def _scaled(deviations: list[float]) -> list[float]:
    # Multiply by the power of two that brings the largest magnitude into
    # [0.5, 1). That is exact, leaves Pearson r unchanged, and keeps the
    # sums of squares of a tiny (or huge) spread from underflowing (or
    # overflowing).
    shift = -math.frexp(max(map(abs, deviations)))[1]
    return [math.ldexp(d, shift) for d in deviations]


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
    # Tested before centring: the mean of a constant can be off by an
    # ulp, which leaves tiny non-zero deviations.
    if max(xs) == min(xs) or max(ys) == min(ys):
        raise ValueError("pearson is undefined for a constant input")
    dx = _scaled(_centred(xs))
    dy = _scaled(_centred(ys))
    sxx = math.fsum(d * d for d in dx)
    syy = math.fsum(d * d for d in dy)
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


class _Columns(NamedTuple):
    # One language pair's segments, one list per quantity that does not
    # depend on the six scalar parameters, so tuning can sweep them
    # without re-parsing graphs. f1 is 0 on fallback segments, where
    # omega stands in for it.
    base: list
    human: list
    f1: list
    fallback: list
    p_scene: list
    p_node: list
    p_edge: list
    len_penalty: list


def _base_name(base: Union[str, ExternalScoreTable]) -> str:
    return base if isinstance(base, str) else base.metric_name


class _FeatureCache:
    """Graph features per file path for one pass over ``records``.

    Each file is loaded once. Its features, or the GraphError it raised,
    are kept only while a later record still names the file, so a file
    that only one record names is never kept, and memory follows the
    number of files still to come back, not the corpus size.
    """

    def __init__(self, records: Sequence[SegmentRecord], lenient: bool):
        self._uses = Counter(path for r in records for path in (r.candidate_ucca, r.reference_ucca))
        self._kept: dict[Path, Union[GraphFeatures, GraphError]] = {}
        self._lenient = lenient

    def take(self, path: Path, load: bool = True) -> Union[GraphFeatures, GraphError, None]:
        """Use ``path`` once more: its features, or the error loading it
        raised. With ``load=False`` the use is only counted, and None is
        returned for a file not loaded yet."""
        self._uses[path] -= 1
        last = self._uses[path] == 0
        found = self._kept.pop(path, None) if last else self._kept.get(path)
        if found is None and load:
            try:
                found = GraphFeatures.of(load_graph(path, lenient=self._lenient))
            except GraphError as exc:
                # Without its traceback, which holds the parser's frames.
                found = exc.with_traceback(None)
            if not last:
                self._kept[path] = found
        return found


def _score_record(
    record: SegmentRecord, features: _FeatureCache, params: SwssParams, base: Union[str, ExternalScoreTable]
) -> Union[tuple, GraphError]:
    """One record's column values, or the GraphError of a graph it names."""
    candidate = features.take(record.candidate_ucca)
    candidate_failed = isinstance(candidate, GraphError)
    # The reference's use is counted even when the candidate failed.
    reference = features.take(record.reference_ucca, load=not candidate_failed)
    if candidate_failed or isinstance(reference, GraphError):
        return candidate if candidate_failed else reference
    if isinstance(base, ExternalScoreTable):
        base_score = base.score(record.system, record.segment_id)
    else:
        base_score = sentence_bleu(candidate.tokens, reference.tokens)
    scored = score_from_features(candidate, reference, params)
    return (
        base_score, record.human_score, 0.0 if scored.fallback_used else scored.f1, scored.fallback_used,
        scored.p_scene, scored.p_node, scored.p_edge, scored.len_penalty,
    )


def _outcomes(
    records: Sequence[SegmentRecord], params: SwssParams, base: Union[str, ExternalScoreTable], lenient: bool
):
    """Yield each record's ``_score_record`` outcome in order; an
    unexpected exception propagates at its record."""
    features = _FeatureCache(records, lenient)
    for record in records:
        yield _score_record(record, features, params, base)


# Below this many records, scoring stays in the calling process. A fork
# costs about 0.5 ms and a child's round trip about 2 ms, but on 2 CPUs
# records of JSON graphs with a TSV base, the cheapest to score, break
# even only near 50 records; from 75 on, every kind measured gains.
_FAN_OUT_MIN_RECORDS = 75
# Below this many alpha tuples times segments, the grid screen stays in
# the calling process. The sweep costs about 0.5 us per unit and a fork
# round about 2.5 ms; on 2 CPUs the split screen breaks even at 40,000 to
# 50,000 units.
_FAN_OUT_MIN_SCREEN_WORK = 50_000


def _processes(work: int, minimum: int) -> int:
    """Processes to do ``work`` units with, this one included: 1, to do
    them in this process alone, below ``minimum`` units."""
    if work < minimum or not hasattr(os, "sched_getaffinity"):
        return 1
    # A fork is unsafe while other threads run, and a daemonic
    # multiprocessing worker may not start children.
    multiprocessing = sys.modules.get("multiprocessing")
    if (
        threading.active_count() > 1
        or multiprocessing is not None and multiprocessing.current_process().daemon
    ):
        return 1
    return len(os.sched_getaffinity(0))


def _prepare_segments(
    records: Sequence[SegmentRecord],
    params: SwssParams,
    base: Union[str, ExternalScoreTable],
    strict: bool,
) -> tuple[dict[str, _Columns], int]:
    """The columns of each language pair, the pairs in sorted order, and
    the number of records skipped."""
    if isinstance(base, str) and base != "bleu":
        raise ValueError(f"unknown base metric {base!r}; expected 'bleu' or an ExternalScoreTable")
    processes = _processes(len(records), _FAN_OUT_MIN_RECORDS)
    if processes > 1:
        from ._fanout import forked_outcomes  # only a run that fans out loads it

        outcomes = forked_outcomes(records, params, base, not strict, processes)
    else:
        outcomes = _outcomes(records, params, base, not strict)
    rows: dict[str, list[tuple]] = {}
    skipped = 0
    # In record order, so the first error raised and the warnings are
    # those of one pass over the records, whoever scored them.
    for record, outcome in zip(records, outcomes):
        if isinstance(outcome, GraphError):
            if strict:
                raise DatasetError(f"record {record.label}: {outcome}") from None
            skipped += 1
            logger.warning("skipping record %s: %s", record.label, outcome)
        elif isinstance(outcome, Exception):
            raise outcome
        else:
            rows.setdefault(record.lang_pair, []).append(outcome)
    if skipped:
        logger.warning("skipped %d record(s) with invalid UCCA parses", skipped)
    if not rows:
        raise DatasetError("no segments could be evaluated")
    return {lang_pair: _Columns(*map(list, zip(*rows[lang_pair]))) for lang_pair in sorted(rows)}, skipped


def _combined(pair: _Columns, params: SwssParams) -> list[float]:
    # base + beta * penalized score; omega is a fallback segment's F1, so
    # one set of columns serves every omega of a grid search.
    omega = params.omega
    return [
        b + params.beta * penalized_score(omega if u else f, u, ps, pn, pe, ln, params)
        for b, f, u, ps, pn, pe, ln in zip(
            pair.base, pair.f1, pair.fallback, pair.p_scene, pair.p_node, pair.p_edge, pair.len_penalty
        )
    ]


def _correlations(
    columns: Mapping[str, _Columns], params: SwssParams
) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    per_pair: dict[str, float] = {}
    base_per_pair: dict[str, Optional[float]] = {}
    counts: dict[str, int] = {}
    for lang_pair, pair in columns.items():
        try:
            per_pair[lang_pair] = pearson(_combined(pair, params), pair.human)
        except ValueError as exc:
            raise DatasetError(f"language pair {lang_pair!r}: {exc}") from None
        try:
            base_per_pair[lang_pair] = pearson(pair.base, pair.human)
        except ValueError:
            base_per_pair[lang_pair] = None
        counts[lang_pair] = len(pair.human)
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
    columns, skipped = _prepare_segments(records, effective, base, strict)
    per_pair, base_per_pair, counts = _correlations(columns, effective)
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
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"grid for {field_.name!r} must be a list of numbers, got {values!r}")
            if not values:
                raise ValueError(f"grid for {field_.name!r} must not be empty")
            cleaned = []
            for v in values:
                if not isinstance(v, (int, float)) or isinstance(v, bool) or not 0 <= v <= sys.float_info.max:
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
        return cls(**data)


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
    # fallback flag; bh is sum(db * dh) and so on. tables holds, for
    # each alpha level, every (alpha, its penalty factor per segment).
    f1: list
    tables: list
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
        n = len(pair.dh)
        if not sxx > _DEGENERATE * spread + n * (16 * sys.float_info.epsilon * top) ** 2:
            return math.nan, math.inf
        total += sxy / math.sqrt(sxx * pair.hh)
        slack += 1.0 + spread / sxx + top * math.sqrt(n / sxx)
    return total / len(sums), _SCREEN_FLOOR + _ROUNDING * slack / len(sums)


def _screen(columns: Mapping[str, _Columns], grid: "TuneGrid") -> list[tuple]:
    """Grid vectors, in lexicographic order, whose exact objective may be
    the maximum or may raise.

    With the alphas fixed, the combined metric of a pair is ``b + beta*s +
    beta*omega*u``, where s is the penalized F1 (0 on fallback segments)
    and u the fallback flag, so every Pearson r follows from a few sums.
    """
    alphas = (grid.alpha1, grid.alpha2, grid.alpha3, grid.alpha4)
    pairs: list[_PairSums] = []
    for pair in columns.values():
        if len(pair.human) < 2 or max(pair.human) == min(pair.human):
            # Pearson raises at every point, so the first one tells how.
            return [(grid.alpha1[0], grid.alpha2[0], grid.alpha3[0], grid.alpha4[0], grid.beta[0], grid.omega[0])]
        dh = _scaled(_centred(pair.human))
        db = _centred(pair.base)
        du = _centred(pair.fallback)
        tables = [
            [(alpha, [math.exp(-alpha * p) for p in column]) for alpha in values]
            for values, column in zip(alphas, (pair.p_scene, pair.p_node, pair.p_edge, pair.len_penalty))
        ]
        pairs.append(
            _PairSums(
                f1=pair.f1, tables=tables, dh=dh, db=db, du=du, hh=math.fsum(d * d for d in dh), bh=_dot(db, dh),
                uh=_dot(du, dh), bb=_dot(db, db), uu=_dot(du, du), bu=_dot(db, du), top_base=max(map(abs, pair.base)),
            )
        )
    processes = _processes(
        math.prod(map(len, alphas)) * sum(len(pair.dh) for pair in pairs), _FAN_OUT_MIN_SCREEN_WORK
    )
    if processes > 1:
        from ._fanout import forked_screen  # only a run that fans out loads it

        return forked_screen(pairs, grid, processes)
    lower, candidates = _screen_sweep(pairs, grid)
    return [vector for upper, vector in candidates if upper >= lower]


def _screen_sweep(pairs: list[_PairSums], grid: "TuneGrid", prefix: tuple = ()) -> tuple[float, list]:
    """The best lower bound on the exact objective of the grid points whose
    alpha indices lie in the slices ``prefix`` (one per leading alpha
    level), and, in lexicographic order, ``(upper bound, vector)`` of
    those points that may reach it."""
    sweeps = [
        _alpha_sweep(pair.f1, [level[part] for level, part in zip(pair.tables, prefix)] + pair.tables[len(prefix):])
        for pair in pairs
    ]
    lower = -math.inf  # the best lower bound on any point's exact objective
    candidates: list[tuple[float, tuple]] = []
    prune_at = 64
    # Every pair's sweep visits the alpha tuples in the same order.
    for swept in zip(*sweeps):
        alphas = swept[0][0]
        sums = []
        for pair, (_, scores) in zip(pairs, swept):
            mean = sum(scores) / len(scores)
            ds = [x - mean for x in scores]
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
    return lower, candidates


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
    columns, _ = _prepare_segments(records, SwssParams(), base, strict)

    candidates = _screen(columns, grid)
    best_vector = None
    best_objective = -math.inf
    for vector in candidates:
        per_pair, _, _ = _correlations(columns, SwssParams(*vector))
        objective = _mean(per_pair.values())
        if objective > best_objective:
            best_objective = objective
            best_vector = vector
    logger.info(
        "grid search finished; best objective %.6f (%d of %d points re-checked)",
        best_objective, len(candidates), grid.size,
    )
    return SwssParams(*best_vector), best_objective
