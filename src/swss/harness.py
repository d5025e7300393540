"""Evaluation harness: dataset ingestion, metric-human correlation, and
parameter tuning.

A dataset is a newline-delimited JSON manifest; each record points at two
pre-parsed UCCA files and carries the human judgment for the candidate.
Metric quality is the segment-level Pearson correlation against the human
scores within each language pair, averaged with equal weight per pair.
"""

import functools
import itertools
import logging
import math
import operator
import sys
from collections import Counter
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Sequence, Union

from .errors import DatasetError, GraphError, _decode_json, _in_float_range, _read_lines
from .lexical import ExternalScoreTable, sentence_bleu
from .scoring import GraphFeatures, SwssParams, _check_scalar, _field_values, penalized_score, score_from_features
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

# Each ablation mode and the parameters it sets.
_ABLATED = {
    "full": {},
    "no-repr": {"alpha1": 0.0, "alpha2": 0.0, "alpha3": 0.0},
    "no-len": {"alpha4": 0.0},
    "base-only": {"beta": 0.0},
}
ABLATIONS = tuple(_ABLATED)

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
    lines = _read_lines(manifest, "manifest")
    base_dir = manifest.parent
    records: list[SegmentRecord] = []
    # One Path per distinct name, shared by every record that names it,
    # and one lookup of each file; keyed by name, as a Path is slow to hash.
    path_of = functools.cache(base_dir.joinpath)
    is_file = functools.cache(lambda name: path_of(name).is_file())
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        obj = _decode_json(line, DatasetError, manifest, lineno)
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
        if not _in_float_range(human):
            raise DatasetError(f"{manifest}:{lineno}: human_score must be finite")
        record = SegmentRecord(
            lang_pair=obj["lang_pair"],
            system=obj["system"],
            segment_id=obj["segment_id"],
            candidate_ucca=path_of(obj["candidate_ucca"]),
            reference_ucca=path_of(obj["reference_ucca"]),
            human_score=float(human),
        )
        for field_ in ("candidate_ucca", "reference_ucca"):
            name = obj[field_]
            if not name:
                raise DatasetError(f"{manifest}:{lineno}: field {field_!r} is empty")
            if not is_file(name):
                raise DatasetError(f"{manifest}:{lineno}: record {record.label}: missing UCCA file {path_of(name)}")
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


# Above this magnitude, the sum of the values, or a value's deviation
# from their mean, could leave the float range.
_HUGE = 2.0**960
_NOT_FINITE = "pearson is undefined for an input that is not finite"


def _tamed(values: Sequence[float], top: float) -> Sequence[float]:
    # Values of magnitude at most ``top``; if that is huge, scaled by the
    # power of two that brings ``top`` into [0.5, 1), as in ``_scaled``.
    if top <= _HUGE:
        return values
    shift = -math.frexp(top)[1]
    return [math.ldexp(v, shift) for v in values]


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient of two equal-length lists.

    Raises ValueError for fewer than two points, for a constant input,
    where the coefficient is undefined (never silently 0), and for an
    input that is not finite.
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise ValueError("pearson requires at least two points")
    # Tested before centring: the mean of a constant can be off by an
    # ulp, which leaves tiny non-zero deviations.
    x_top, x_bottom, y_top, y_bottom = max(xs), min(xs), max(ys), min(ys)
    if x_top == x_bottom or y_top == y_bottom:
        raise ValueError("pearson is undefined for a constant input")
    # The largest magnitudes: inf for an infinite input. A NaN that max
    # and min pass over makes r NaN.
    x_size, y_size = max(x_top, -x_bottom), max(y_top, -y_bottom)
    if not (math.isfinite(x_size) and math.isfinite(y_size)):
        raise ValueError(_NOT_FINITE)
    dx = _scaled(_centred(_tamed(xs, x_size)))
    dy = _scaled(_centred(_tamed(ys, y_size)))
    sxx = math.fsum(d * d for d in dx)
    syy = math.fsum(d * d for d in dy)
    r = math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(sxx * syy)
    if math.isnan(r):
        raise ValueError(_NOT_FINITE)
    return max(-1.0, min(1.0, r))


def apply_ablation(params: SwssParams, ablation: str) -> SwssParams:
    """Effective parameters for an ablation mode.

    no-repr zeroes the three structural penalty coefficients, no-len the
    length coefficient, and base-only the combination weight (leaving the
    base metric alone).
    """
    if ablation not in ABLATIONS:
        raise ValueError(f"unknown ablation {ablation!r}; expected one of {', '.join(ABLATIONS)}")
    return replace(params, **_ABLATED[ablation])


class _Columns(NamedTuple):
    # One language pair's segments, one list per quantity that does not
    # depend on the six scalar parameters, so tuning can sweep them
    # without re-parsing graphs. f1 is 0 on fallback segments, where
    # omega stands in for it; record is the index of the record behind
    # each entry.
    human: list
    base: list
    f1: list
    fallback: list
    p_scene: list
    p_node: list
    p_edge: list
    len_penalty: list
    record: list


class _Prepared(NamedTuple):
    # What the record phase leaves for the reports: the columns of each
    # language pair, the pairs in sorted order; (record index, path of the
    # graph that failed, its GraphError's message) of each skipped record,
    # in record order; and the number of graph files loaded, over all
    # processes.
    columns: dict[str, _Columns]
    skips: list[tuple[int, str, str]]
    files_loaded: int


def _partition(records: Sequence[SegmentRecord]) -> tuple[list[list[int]], set]:
    """Record indices in groups, and the set of the file paths named more
    than once.

    A group is the records that name a common file, directly or through
    other records; it lists their indices in record order, and groups
    follow the order of their first record. A task holds whole groups, so
    that each file is loaded once in all."""
    group = list(range(len(records)))  # union-find over record indices

    def find(i: int) -> int:
        while group[i] != i:
            group[i] = group[group[i]]
            i = group[i]
        return i

    first_use: dict = {}  # file path: the first record index that names it
    shared = set()
    for i, record in enumerate(records):
        for path in (record.candidate_ucca, record.reference_ucca):
            if path in first_use:
                shared.add(path)
            a, b = find(i), find(first_use.setdefault(path, i))
            group[max(a, b)] = min(a, b)
    members: dict[int, list[int]] = {}
    for i in range(len(records)):
        members.setdefault(find(i), []).append(i)
    return list(members.values()), shared


def _score_record(
    record: SegmentRecord, loaded: dict, shared: set,
    params: SwssParams, base: Union[str, ExternalScoreTable], lenient: bool,
) -> tuple[Optional[str], Union[tuple, str]]:
    """``None`` and the record's scores, or the path of the graph that
    failed, as a str, and its GraphError's message. The candidate is
    loaded first: a failed candidate's reference is not loaded.

    A file is loaded on first need, and its features, or its GraphError's
    message, are kept in ``loaded``, the dict of the record's group, only
    if the file is in ``shared``. So a file named once is never kept, and
    a shared file is kept until its group has been scored."""
    graphs = []
    for path in (record.candidate_ucca, record.reference_ucca):
        found = loaded.get(path)
        if found is None:
            try:
                found = GraphFeatures.of(load_graph(path, lenient=lenient))
            except GraphError as exc:
                found = str(exc)
            if path in shared:
                loaded[path] = found
        if isinstance(found, str):
            return str(path), found
        graphs.append(found)
    candidate, reference = graphs
    if isinstance(base, ExternalScoreTable):
        base_score = base.score(record.system, record.segment_id)
    else:
        base_score = sentence_bleu(candidate.tokens, reference.tokens)
    scored = score_from_features(candidate, reference, params)
    return None, (
        base_score, 0.0 if scored.fallback_used else scored.f1, scored.fallback_used,
        scored.p_scene, scored.p_node, scored.p_edge, scored.len_penalty,
    )


# Below this many records, scoring stays in the calling process. Timed
# by scripts/fanout_sizes.py in fresh processes on a 2-vCPU x86_64 host
# with Python 3.11 (medians of 9): fanned out, the benchmark corpora's
# records took 1.03-1.12 times the serial time at 24 records of JSON or
# mixed graphs (0.60 times for XML graphs), 0.67-0.85 times at 48,
# 0.56-0.94 times at 72 and 0.53-0.75 times at 600. So the break-even
# lies between 24 and 48 records; 75 stays until a speed change moves it.
_FAN_OUT_MIN_RECORDS = 75
# Below this many alpha tuples times segments, the grid screen stays in
# the calling process. In the same run the serial screen took 0.32-0.41
# us per unit; fanned out, it took 1.8-2.2 times the serial time at about
# 9,200 units (a 64-point grid over 572 or 576 segments) and 0.77 times
# at 94,208 (3,072 points over 368 segments). No size in between was
# timed, so the break-even is not known; 50,000 stays until it is.
_FAN_OUT_MIN_SCREEN_WORK = 50_000


def _prepare_segments(
    records: Sequence[SegmentRecord],
    params: SwssParams,
    base: Union[str, ExternalScoreTable],
    strict: bool,
) -> _Prepared:
    """Score every record once, into the value every report reads."""
    if isinstance(base, str) and base != "bleu":
        raise ValueError(f"unknown base metric {base!r}; expected 'bleu' or an ExternalScoreTable")
    # Imported here, so that ``import swss`` does not load it.
    from ._fanout import forked_results, task_ranges, usable_processes

    processes = usable_processes(len(records), _FAN_OUT_MIN_RECORDS)
    groups, shared = _partition(records)

    def run(span: range) -> list:
        results = []
        for group in groups[span.start : span.stop]:
            loaded: dict = {}
            for i in group:
                try:
                    result = _score_record(records[i], loaded, shared, params, base, not strict)
                except Exception as exc:
                    result = None, exc
                results.append((i, *result))
        return results

    # Every record has an outcome, whichever order its task scored it in.
    outcomes: list = [None] * len(records)
    for results in forked_results(run, task_ranges(len(groups), processes), processes):
        for i, failed, outcome in results:
            outcomes[i] = failed, outcome
    rows: dict[str, list[tuple]] = {}
    skips: list[tuple[int, str, str]] = []
    # Each file was loaded once, by whichever process scored its group:
    # every candidate, and the reference of each record whose candidate
    # loaded.
    loaded_paths = set()
    # In record order, so the first error raised and the warnings are
    # those of one pass over the records, whoever scored them.
    for i, (record, (failed, outcome)) in enumerate(zip(records, outcomes)):
        if isinstance(outcome, Exception):
            raise outcome
        loaded_paths.add(record.candidate_ucca)
        if failed != str(record.candidate_ucca):
            loaded_paths.add(record.reference_ucca)
        if failed is None:
            rows.setdefault(record.lang_pair, []).append((record.human_score, *outcome, i))
            continue
        if strict:
            raise DatasetError(f"record {record.label}: {outcome}") from None
        skips.append((i, failed, outcome))
        logger.warning("skipping record %s: %s", record.label, outcome)
    if skips:
        logger.warning("skipped %d record(s) with invalid UCCA parses", len(skips))
    skipped_in = Counter(records[i].lang_pair for i, _, _ in skips)
    for lang_pair in sorted(skipped_in.keys() - rows.keys()):
        logger.warning(
            "language pair %s left out of the report: all %d of its record(s) were skipped",
            lang_pair, skipped_in[lang_pair],
        )
    if not rows:
        raise DatasetError("no segments could be evaluated")
    return _Prepared(
        columns={lang_pair: _Columns(*map(list, zip(*rows[lang_pair]))) for lang_pair in sorted(rows)},
        skips=skips,
        files_loaded=len(loaded_paths),
    )


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


def _mean(values) -> float:
    values = list(values)
    return math.fsum(values) / len(values)


def _report(prepared: _Prepared, params: SwssParams, base: Union[str, ExternalScoreTable]) -> CorrelationReport:
    """The report of ``params`` on the ``prepared`` records."""
    per_pair: dict[str, float] = {}
    base_per_pair: dict[str, Optional[float]] = {}
    for lang_pair, pair in prepared.columns.items():
        try:
            per_pair[lang_pair] = pearson(_combined(pair, params), pair.human)
        except ValueError as exc:
            raise DatasetError(f"language pair {lang_pair!r}: {exc}") from None
        try:
            base_per_pair[lang_pair] = pearson(pair.base, pair.human)
        except ValueError:
            base_per_pair[lang_pair] = None
    defined = [r for r in base_per_pair.values() if r is not None]
    return CorrelationReport(
        per_pair=per_pair,
        base_per_pair=base_per_pair,
        average=_mean(per_pair.values()),
        base_average=_mean(defined) if len(defined) == len(base_per_pair) else None,
        n={lang_pair: len(pair.human) for lang_pair, pair in prepared.columns.items()},
        skipped=len(prepared.skips),
        params=params,
        base_name=base if isinstance(base, str) else base.metric_name,
    )


def _reports(
    records: Sequence[SegmentRecord],
    params: Optional[SwssParams],
    base: Union[str, ExternalScoreTable],
    ablations: Sequence[str],
    strict: bool,
) -> list[CorrelationReport]:
    """``evaluate``'s report for each of ``ablations``, from one preparation
    of the columns: they depend on none of the parameters an ablation
    changes."""
    if not records:
        raise DatasetError("no records to evaluate")
    params = params if params is not None else SwssParams()
    ablated = [apply_ablation(params, ablation) for ablation in ablations]
    prepared = _prepare_segments(records, params, base, strict)
    return [_report(prepared, effective, base) for effective in ablated]


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
    invalid UCCA parse aborts the run. Otherwise every graph is loaded
    with ``lenient=True``: a remote edge whose endpoint is missing is
    dropped and the segment is scored, while a segment with any other
    invalid parse is skipped and counted. An unresolvable base score is
    always an error.
    """
    return _reports(records, params, base, (ablation,), strict)[0]


_ALPHA_VALUES = (0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0)


@dataclass(frozen=True)
class TuneGrid:
    """Value lists for the parameter grid search.

    Lists are sorted internally, so the search visits points in
    lexicographic order and ties resolve to the smallest parameter vector.
    """

    alpha1: tuple = _ALPHA_VALUES
    alpha2: tuple = _ALPHA_VALUES
    alpha3: tuple = _ALPHA_VALUES
    alpha4: tuple = _ALPHA_VALUES
    beta: tuple = (0.05, 0.1, 0.2, 0.5, 1.0)
    omega: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)

    def __post_init__(self):
        for field_ in fields(self):
            values = getattr(self, field_.name)
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"grid for {field_.name!r} must be a list of numbers, got {values!r}")
            if not values:
                raise ValueError(f"grid for {field_.name!r} must not be empty")
            for v in values:
                _check_scalar(field_.name, v, f"grid value for {field_.name!r}")
            object.__setattr__(self, field_.name, tuple(sorted(set(map(float, values)))))

    @property
    def size(self) -> int:
        return math.prod(map(len, astuple(self)))

    @classmethod
    def from_dict(cls, data: Mapping) -> "TuneGrid":
        return cls(**_field_values(cls, data, "grid parameter"))


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


def _alpha_sweep(f1: list, tables: list, start: int, stop: int):
    """Yield ``(alphas, scores)`` for the alpha tuples whose indices in
    lexicographic order lie in ``range(start, stop)``, in that order,
    where ``scores[i]`` is segment i's F1 times its four penalty factors;
    partial products are shared between neighbouring tuples."""
    # The tuples under one value of each level.
    widths = [math.prod(map(len, tables[level + 1 :])) for level in range(len(tables))]

    def walk(prefix, partial, level, first):
        if level == len(tables):
            yield prefix, partial
            return
        for k, (alpha, factors) in enumerate(tables[level]):
            low = first + k * widths[level]
            if low < stop and low + widths[level] > start:
                yield from walk(prefix + (alpha,), list(map(operator.mul, partial, factors)), level + 1, low)

    return walk((), f1, 0, 0)


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
        # Squared by a product: for a huge beta it gives inf, and so a
        # re-check, where ``** 2`` raises OverflowError.
        rounding = 16 * sys.float_info.epsilon * top
        if not sxx > _DEGENERATE * spread + n * (rounding * rounding):
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
    axes = astuple(grid)  # alpha1..alpha4, beta, omega
    alphas = axes[:4]
    pairs: list[_PairSums] = []
    for pair in columns.values():
        top_base = max(map(abs, pair.base))
        if max(pair.human) == min(pair.human) or max(top_base, max(pair.human), -min(pair.human)) > _HUGE:
            # Pearson raises at every point, or the sums below could
            # overflow: every point is re-checked.
            return list(itertools.product(*axes))
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
                uh=_dot(du, dh), bb=_dot(db, db), uu=_dot(du, du), bu=_dot(db, du), top_base=top_base,
            )
        )
    # Imported here, so that ``import swss`` does not load it.
    from ._fanout import forked_results, task_ranges, usable_processes

    total = math.prod(map(len, alphas))
    processes = usable_processes(total * sum(len(pair.dh) for pair in pairs), _FAN_OUT_MIN_SCREEN_WORK)
    results = forked_results(functools.partial(_screen_sweep, pairs, grid), task_ranges(total, processes), processes)
    lower = max(task_lower for task_lower, _ in results)
    return [vector for _, candidates in results for upper, vector in candidates if upper >= lower]


def _screen_sweep(pairs: list[_PairSums], grid: "TuneGrid", span: range) -> tuple[float, list]:
    """The best lower bound on the exact objective of the grid points whose
    alpha tuples lie in ``span``, a contiguous range of alpha-tuple indices
    in lexicographic order, and, in that order, ``(upper bound, vector)``
    of those points that may reach it.

    A sweep over part of the grid prunes with its own best lower bound,
    which is never above the best of the whole grid, so the candidates of
    sweeps over contiguous parts, joined in order and kept where they
    reach the best of all, are those of one sweep over the whole grid."""
    sweeps = [_alpha_sweep(pair.f1, pair.tables, span.start, span.stop) for pair in pairs]
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
    report = _tuned(records, grid, base, strict)
    return report.params, report.average


def _tuned(
    records: Sequence[SegmentRecord], grid: TuneGrid, base: Union[str, ExternalScoreTable], strict: bool
) -> CorrelationReport:
    """``grid_search``'s argmax as ``evaluate``'s report of it, whose
    ``average`` is the objective, from the columns the search prepared."""
    if not records:
        raise DatasetError("no records to tune on")
    logger.info("grid search over %d parameter points on %d records", grid.size, len(records))
    prepared = _prepare_segments(records, SwssParams(), base, strict)

    candidates = _screen(prepared.columns, grid)
    # Of equal averages, max keeps the first: the smallest vector.
    best = max(
        (_report(prepared, SwssParams(*vector), base) for vector in candidates),
        key=lambda report: report.average,
    )
    logger.info(
        "grid search finished; best objective %.6f (%d of %d points re-checked)",
        best.average, len(candidates), grid.size,
    )
    return best
