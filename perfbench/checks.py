"""Output checks: every report is recomputed from per-record values.

The per-record values come from the replay child, which calls the public
functions one record at a time; the correlations here use
``statistics.correlation``, not ``swss.harness.pearson``. Each check
returns a list of human-readable failures, empty when the output is right.
"""

import itertools
import math
import random
import statistics

# Replay row layout (see child.job_replay).
BASE, SWSS, F1, FALLBACK, P_SCENE, P_NODE, P_EDGE, LEN = range(8)

R_TOLERANCE = 1e-9
OBJECTIVE_TOLERANCE = 1e-12
GRID_SAMPLE = 256
PARAM_NAMES = ("alpha1", "alpha2", "alpha3", "alpha4", "beta", "omega")


def outcome_failures(rows: list, truth: list) -> int:
    """Records whose outcome contradicts the generator's ground truth: a
    valid record skipped, or a record with a corrupt file scored."""
    return sum((row is not None) != entry["valid"] for row, entry in zip(rows, truth))


def _by_pair(values, truth, rows):
    groups: dict = {}
    for value, entry, row in zip(values, truth, rows):
        if row is not None:
            groups.setdefault(entry["lang_pair"], []).append(value)
    return groups


def _correlation(xs, ys):
    try:
        return statistics.correlation(xs, ys)
    except statistics.StatisticsError:
        return None


def check_evaluate(report: dict, rows: list, truth: list, humans: list) -> list:
    failures = []
    corrupt = sum(not entry["valid"] for entry in truth)
    if report["skipped"] != corrupt:
        failures.append(f"skipped {report['skipped']} records, the corpus has {corrupt} corrupt ones")
    expected_n: dict = {}
    for entry in truth:
        if entry["valid"]:
            expected_n[entry["lang_pair"]] = expected_n.get(entry["lang_pair"], 0) + 1
    if report["n"] != expected_n:
        failures.append(f"n per pair {report['n']} != {expected_n}")
    if len(rows) != len(truth):
        return failures + [f"replay scored {len(rows)} records, the corpus has {len(truth)}"]

    beta = report["params"]["beta"]
    combined = _by_pair([row and row[BASE] + beta * row[SWSS] for row in rows], truth, rows)
    bases = _by_pair([row and row[BASE] for row in rows], truth, rows)
    human = _by_pair(humans, truth, rows)
    rs = []
    for lang_pair in sorted(human):
        r = _correlation(combined[lang_pair], human[lang_pair])
        rs.append(r)
        got = report["per_pair"].get(lang_pair)
        if r is None or got is None or abs(r - got) > R_TOLERANCE:
            failures.append(f"{lang_pair}: r = {got!r}, recomputed {r!r}")
        base_r = _correlation(bases[lang_pair], human[lang_pair])
        got_base = report["base_per_pair"].get(lang_pair)
        if (base_r is None) != (got_base is None) or (
            base_r is not None and abs(base_r - got_base) > R_TOLERANCE
        ):
            failures.append(f"{lang_pair}: base r = {got_base!r}, recomputed {base_r!r}")
    if None not in rs and abs(math.fsum(rs) / len(rs) - report["average"]) > R_TOLERANCE:
        failures.append(f"average r = {report['average']!r}, recomputed {math.fsum(rs) / len(rs)!r}")
    return failures


def objective(point: dict, rows: list, truth: list, humans: list):
    """Average per-pair correlation of base + beta * score at ``point``,
    recomputed from the replay's F1, fallback flag and penalties."""
    combined = []
    for row in rows:
        if row is None:
            combined.append(None)
            continue
        if row[FALLBACK]:
            score = point["omega"]
        else:
            exponent = (
                point["alpha1"] * row[P_SCENE]
                + point["alpha2"] * row[P_NODE]
                + point["alpha3"] * row[P_EDGE]
                + point["alpha4"] * row[LEN]
            )
            score = row[F1] * math.exp(-exponent)
        combined.append(row[BASE] + point["beta"] * score)
    xs = _by_pair(combined, truth, rows)
    ys = _by_pair(humans, truth, rows)
    rs = [_correlation(xs[pair], ys[pair]) for pair in sorted(ys)]
    if None in rs:
        return None
    return math.fsum(rs) / len(rs)


def check_tune(
    tune: dict, grid: dict, best_average: float, rows: list, truth: list, humans: list, seed: int
) -> list:
    failures = []
    params = tune["params"]
    for name in PARAM_NAMES:
        if params[name] not in [float(v) for v in grid[name]]:
            failures.append(f"argmax {name} = {params[name]!r} is not a grid value")
    size = math.prod(len(grid[name]) for name in PARAM_NAMES)
    if tune["grid_size"] != size:
        failures.append(f"grid_size {tune['grid_size']} != {size}")
    if abs(tune["objective"] - best_average) > OBJECTIVE_TOLERANCE:
        failures.append(f"objective {tune['objective']!r} != evaluate(best).average {best_average!r}")

    points = list(itertools.product(*(grid[name] for name in PARAM_NAMES)))
    if len(points) > GRID_SAMPLE:
        points = random.Random(seed).sample(points, GRID_SAMPLE)
    for values in points:
        point = dict(zip(PARAM_NAMES, values))
        value = objective(point, rows, truth, humans)
        if value is not None and value > tune["objective"] + R_TOLERANCE:
            failures.append(f"grid point {point} reaches {value!r} > argmax objective {tune['objective']!r}")
            break
    return failures
