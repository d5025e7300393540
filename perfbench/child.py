"""One benchmark job in a fresh interpreter.

Users run ``swss evaluate`` or ``swss tune`` once per process, so every
timed job starts cold: nothing the program may memoise at module level
survives from one job to the next. The runner (``run.py``) starts one
child at a time and reads the JSON object the child prints last.

Jobs:
  warm      import and load the manifest once (fills byte-code caches)
  evaluate  time one ``harness.evaluate`` with the default parameters
  tune      time one ``harness.grid_search`` over the corpus grid
            (``--one-point`` shrinks the grid to its first point)
  replay    score every record through the public per-record calls, for
            the output checks; ``--spans`` also traces each call

Run from the repository root with ``src`` on ``PYTHONPATH``.
"""

import argparse
import hashlib
import json
import logging
import resource
import sys
import time
from pathlib import Path


# A fixed pure-Python workload that touches no swss code. The host's speed
# swings by tens of percent while other tenants load it; timing this loop
# right before and right after each job lets the runner scale the job's
# times to one reference speed.
_CALIBRATION_WORDS = ["w%d" % (i * 7919 % 50021) for i in range(2000)]


def calibrate(rounds: int = 50) -> float:
    start = time.perf_counter()
    for r in range(rounds):
        counts: dict = {}
        for word in _CALIBRATION_WORDS:
            counts[word] = counts.get(word, 0) + len(word) + r
        sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    return time.perf_counter() - start


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(args) -> tuple:
    """Import the package and load the inputs the way ``swss.cli`` does."""
    start = time.perf_counter()
    import swss  # noqa: F401  (the import is part of set-up time)
    from swss import harness, lexical

    records = harness.load_dataset(Path(args.corpus) / "manifest.jsonl")
    loaded = time.perf_counter()
    base = "bleu"
    if args.base.startswith("tsv:"):
        base = lexical.load_external_scores(args.base[len("tsv:"):])
    done = time.perf_counter()
    times = {
        "setup_s": done - start,
        "load_dataset_s": loaded - start,
        "load_external_scores_s": done - loaded,
    }
    return records, base, times


def _digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def job_warm(args) -> dict:
    records, _, times = _setup(args)
    return {"records": len(records), **times}


def job_evaluate(args) -> dict:
    records, base, times = _setup(args)
    from swss import SwssParams, harness

    start = time.perf_counter()
    report = harness.evaluate(records, SwssParams(), base=base)
    elapsed = time.perf_counter() - start
    payload = report.to_dict()
    return {
        **times,
        "evaluate_s": elapsed,
        "peak_rss_mib": _peak_rss_mib(),
        "report": payload,
        "report_sha256": _digest(payload),
    }


def _load_grid(args):
    from swss import TuneGrid

    with open(Path(args.corpus) / "grid.json", encoding="utf-8") as handle:
        data = json.load(handle)
    if args.one_point:
        data = {name: values[:1] for name, values in data.items()}
    return TuneGrid.from_dict(data)


def job_tune(args) -> dict:
    records, base, times = _setup(args)
    from swss import harness

    grid = _load_grid(args)
    start = time.perf_counter()
    best, objective = harness.grid_search(records, grid, base=base)
    elapsed = time.perf_counter() - start
    payload = {"params": best.to_dict(), "objective": objective, "grid_size": grid.size}
    return {
        **times,
        "tune_s": elapsed,
        "peak_rss_mib": _peak_rss_mib(),
        "report": payload,
        "report_sha256": _digest(payload),
    }


class Tracer:
    """Spans kept in memory: (record, name, start_ns, end_ns, parent).

    ``parent`` is the index of the enclosing span or -1. Every span of a
    record sits below that record's own span, so the record index is the
    span id the layers share.
    """

    def __init__(self):
        self.spans: list = []
        self.stack = [-1]
        self.record = -1

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1]
        self.stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans[index] = (self.record, name, start, end, parent)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced


class _NoTracer:
    record = -1

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def _patch(tracer: Tracer, stems: list) -> list:
    """Route the calls made inside the public functions through spans.

    The functions look these names up in their own module at call time,
    so rebinding the module attribute is enough. Returns what to restore.
    """
    from swss import core_words, scoring, ucca_graph

    def stem(token):
        stems.append(token)
        return tracer.call("porter.stem", original_stem, token)

    original_stem = core_words.porter_stem
    saved = [
        (ucca_graph, "build_graph", ucca_graph.build_graph),
        (scoring, "extract_core_words", scoring.extract_core_words),
        (core_words, "porter_stem", original_stem),
    ]
    ucca_graph.build_graph = tracer.wrap("ucca_graph.build_graph", ucca_graph.build_graph)
    scoring.extract_core_words = tracer.wrap("core_words.extract_core_words", scoring.extract_core_words)
    core_words.porter_stem = stem
    return saved


def job_replay(args) -> dict:
    records, base, times = _setup(args)
    from swss import GraphError, SwssParams, harness, lexical, scoring, ucca_graph

    tracer = Tracer() if args.spans else _NoTracer()
    stems: list = []
    saved = _patch(tracer, stems) if args.spans else []
    params = SwssParams()
    loaded_paths: list = []

    def load(path):
        loaded_paths.append(str(path))
        return tracer.call(f"ucca_graph.load_graph.{path.suffix[1:]}", ucca_graph.load_graph, path, lenient=True)

    def one(record):
        try:
            candidate = load(record.candidate_ucca)
            reference = load(record.reference_ucca)
        except GraphError:
            return None
        if isinstance(base, str):
            base_score = tracer.call(
                "lexical.sentence_bleu", lexical.sentence_bleu, candidate.tokens(), reference.tokens()
            )
        else:
            base_score = tracer.call("lexical.external_score", base.score, record.system, record.segment_id)
        b = tracer.call("scoring.swss", scoring.swss, candidate, reference, params)
        return [base_score, b.swss, b.f1, b.fallback_used, b.p_scene, b.p_node, b.p_edge, b.len_penalty]

    rows = []
    start = time.perf_counter()
    for i, record in enumerate(records):
        tracer.record = i
        rows.append(tracer.call("record", one, record))
    replay_s = time.perf_counter() - start
    for module, name, value in saved:
        setattr(module, name, value)

    result = {**times, "replay_s": replay_s, "rows": rows}
    if args.spans:
        result.update(_trace_extras(args, tracer, stems, loaded_paths, rows, records))
    if args.best:
        with open(args.best, encoding="utf-8") as handle:
            best = SwssParams.from_dict(json.load(handle))
        result["best_average"] = harness.evaluate(records, best, base=base).average
    return result


def _trace_extras(args, tracer, stems, loaded_paths, rows, records) -> dict:
    from swss import GraphError, harness, ucca_graph

    with open(args.spans, "w", encoding="utf-8") as handle:
        json.dump(tracer.spans, handle, separators=(",", ":"))

    # Pearson over the largest language pair, as one grid point computes it.
    by_pair: dict = {}
    for record, row in zip(records, rows):
        if row is not None:
            xs, ys = by_pair.setdefault(record.lang_pair, ([], []))
            xs.append(row[0] + 0.2 * row[1])
            ys.append(record.human_score)
    xs, ys = max(by_pair.values(), key=lambda pair: len(pair[0]))
    samples = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(20):
            harness.pearson(xs, ys)
        samples.append((time.perf_counter() - start) / 20 * 1e6)

    probe = {"graph_errors": 0, "unexpected_errors": 0, "loaded": 0, "files": {}}
    for path in sorted(Path(args.corpus, "probe").iterdir()):
        try:
            ucca_graph.load_graph(path, lenient=True)
            outcome = "loaded"
        except GraphError:
            outcome = "graph_errors"
        except Exception as exc:  # an escape of any other kind is what the probe counts
            outcome = "unexpected_errors"
            probe["files"][path.name] = type(exc).__name__
        probe[outcome] += 1
    return {
        "pearson_us": sorted(samples)[len(samples) // 2],
        "stem_calls": len(stems),
        "stem_distinct": len(set(stems)),
        "load_calls": len(loaded_paths),
        "load_distinct": len(set(loaded_paths)),
        "probe": probe,
    }


JOBS = {"warm": job_warm, "evaluate": job_evaluate, "tune": job_tune, "replay": job_replay}


def main() -> int:
    parser = argparse.ArgumentParser(description="run one cold benchmark job")
    parser.add_argument("job", choices=sorted(JOBS))
    parser.add_argument("--corpus", required=True, help="corpus directory (manifest.jsonl, grid.json)")
    parser.add_argument("--base", default="bleu", help="'bleu' or 'tsv:PATH'")
    parser.add_argument("--one-point", action="store_true", help="tune over the first grid point only")
    parser.add_argument("--best", help="JSON parameter file to re-evaluate after a replay")
    parser.add_argument("--spans", help="trace the replay and write its spans here")
    args = parser.parse_args()
    # The same logging set-up as swss.cli.main, so skip warnings cost what they cost users.
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    before = calibrate()
    result = JOBS[args.job](args)
    result["calibration_s"] = [before, calibrate()]
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
