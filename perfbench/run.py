#!/usr/bin/env python3
"""swss benchmark runner: cold evaluate/tune runs with checked outputs.

    python3 perfbench/run.py --workload da-bleu --seed 1 --seconds 35 --trace 0

Run from the repository root. The runner writes the workload's corpus for
the seed under ``perfbench/.work``, then, for ``--seconds``, starts one
child interpreter at a time (``child.py``): a cold ``evaluate`` and a
cold ``tune`` per repetition (with ``--trace 1`` also a one-point
``tune``). Every job is cold because users run the CLI once per process.
A final replay child scores every record through the public per-record
calls (traced with ``--trace 1``), and the runner recomputes every report
from those values.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``. The line before it holds the
run's metadata (commit, Python, CPU count, seed, corpus shape, report
digests). Exit code 2 means the benchmark could not run at all.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
# Seconds that child.calibrate() takes at the reference speed. Other
# tenants of the host slow it by tens of percent for stretches of seconds
# to minutes, so every child also times the calibration loop, and each
# time metric is scaled by REFERENCE_CALIBRATION_S / (the run's median
# calibration time): it reads as seconds at the reference speed. The
# metadata line keeps the raw times.
REFERENCE_CALIBRATION_S = 0.065


class ChildFailed(Exception):
    pass


def run_child(job: str, corpus, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), job, "--corpus", str(corpus.root), "--base", corpus.base]
    cmd += extra
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{job} child timed out after {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{job} child exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_jobs(corpus, seconds: float, trace: bool) -> tuple:
    """Cold jobs, one child at a time, in repetitions until the run's time
    is used. Returns the children's results by job, and the repetitions."""
    jobs = [("evaluate",), ("tune",)]
    if trace:
        jobs.append(("tune", "--one-point"))
    results: dict = {}
    started = time.monotonic()
    reps = 0
    while reps < MIN_REPS or time.monotonic() + (time.monotonic() - started) / reps <= started + seconds:
        for job in jobs:
            results.setdefault(" ".join(job), []).append(run_child(job[0], corpus, *job[1:]))
        reps += 1
    return results, reps


def per_calibration(child: dict, key: str) -> float:
    """A child's time in units of its own calibration time, for comparing
    single children with each other."""
    return child[key] / statistics.fmean(child["calibration_s"])


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def source_sha256() -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "swss").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple:
    import checks
    import corpus as corpus_module
    import layers

    corpus = corpus_module.generate(workload, seed, work / "corpus", ROOT)
    truth = json.loads(corpus.truth.read_text())
    entries = truth["records"]
    humans = [json.loads(line)["human_score"] for line in corpus.manifest.read_text().splitlines()]
    grid = json.loads(corpus.grid.read_text())
    meta = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "commit": commit_id(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "shape": truth["shape"],
    }

    warm = run_child("warm", corpus)
    jobs, reps = timed_jobs(corpus, seconds, trace)
    best_file = work / "best.json"
    best_file.write_text(json.dumps(jobs["tune"][0]["report"]["params"]))
    replay_args = ["--best", str(best_file)]
    spans_file = HERE / ".work" / f"spans-{workload}.json"
    if trace:
        replay_args += ["--spans", str(spans_file)]
    replay = run_child("replay", corpus, *replay_args)

    failures = []
    for job, children in jobs.items():
        digests = {child["report_sha256"] for child in children}
        if len(digests) != 1:
            failures.append(f"{job}: {len(digests)} different reports from identical runs")
    failures += checks.check_evaluate(jobs["evaluate"][0]["report"], replay["rows"], entries, humans)
    failures += checks.check_tune(
        jobs["tune"][0]["report"], grid, replay["best_average"], replay["rows"], entries, humans, seed
    )
    failed = checks.outcome_failures(replay["rows"], entries)
    meta["report_sha256"] = {job: children[0]["report_sha256"] for job, children in jobs.items()}
    meta["reps"] = reps
    meta["check_failures"] = failures

    children = [child for results in jobs.values() for child in results]
    calibrations = [c for child in [warm, *children, replay] for c in child["calibration_s"]]
    speed = REFERENCE_CALIBRATION_S / statistics.median(calibrations)

    def raw(key: str, job=None) -> float:
        return statistics.median([child[key] for child in (jobs[job] if job else children)])

    evaluate_s = raw("evaluate_s", "evaluate") * speed
    tune_s = raw("tune_s", "tune") * speed
    meta["raw_median_s"] = {
        "evaluate_s": raw("evaluate_s", "evaluate"),
        "tune_s": raw("tune_s", "tune"),
        "setup_s": raw("setup_s"),
        "calibration_s": statistics.median(calibrations),
    }
    meta["samples"] = {
        job: [[child[key], *child["calibration_s"]] for child in jobs[job]]
        for job, key in (("evaluate", "evaluate_s"), ("tune", "tune_s"))
    }
    if not trace:
        metrics = {
            "setup_s": raw("setup_s") * speed,
            "evaluate_s": evaluate_s,
            "tune_s": tune_s,
            "peak_rss_mib": max(raw("peak_rss_mib", "evaluate"), raw("peak_rss_mib", "tune")),
        }
    else:
        metrics = layers.span_metrics(json.loads(spans_file.read_text()), speed)
        one_point_s = raw("tune_s", "tune --one-point") * speed
        size = truth["shape"]["grid_points"]
        scored = [row for row in replay["rows"] if row is not None]
        metrics.update(
            {
                "ucca_graph.load_graph.calls": replay["load_calls"],
                "ucca_graph.load_graph.distinct_files": replay["load_distinct"],
                "ucca_graph.load_graph.repeat_frac": 1 - replay["load_distinct"] / replay["load_calls"],
                "porter.stem.calls": replay["stem_calls"],
                "porter.stem.distinct_frac": replay["stem_distinct"] / replay["stem_calls"],
                "scoring.fallback_frac": sum(row[checks.FALLBACK] for row in scored) / len(scored),
                "lexical.load_external_scores_s": raw("load_external_scores_s") * speed,
                "harness.load_dataset_s": raw("load_dataset_s") * speed,
                "harness.grid_point_us": (tune_s - one_point_s) / (size - 1) * 1e6,
                "harness.prep_s": one_point_s,
                "harness.pearson_us": replay["pearson_us"] * speed,
                "ucca_graph.graph_errors": replay["probe"]["graph_errors"],
                "ucca_graph.unexpected_errors": replay["probe"]["unexpected_errors"],
                "trace.overhead_frac": per_calibration(replay, "replay_s")
                / statistics.median(per_calibration(child, "evaluate_s") for child in jobs["evaluate"])
                - 1,
                "failed_frac": failed / len(entries),
            }
        )
        meta["probe"] = replay["probe"]
    return metrics, failed, failures, meta


def unit_of(name: str) -> str:
    """The unit a metric's name implies (BENCHMARK.json uses the same)."""
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_s"):
        return "s"
    if "_us" in name:
        return "us"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import corpus as corpus_module
    except ImportError as exc:
        print(f"error: cannot import the swss package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in corpus_module.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / corpus_module.VOCABULARY_FILE).is_file():
        print(f"error: vocabulary {corpus_module.VOCABULARY_FILE} not found", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        metrics, failed, failures, meta = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except ChildFailed as exc:
        # A crash of the program counts every record as failed.
        records = len((work / "corpus" / "manifest.jsonl").read_text().splitlines())
        metrics, failed, failures, meta = {}, records, [str(exc)], {"shape": {"records": records}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = meta["shape"]["records"]
    if failures:
        failed = attempted
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(meta, sort_keys=True))
    result = {
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
