#!/usr/bin/env python3
"""Time the record phase and the grid screen, serial and fanned out, at
the sizes around the fan-out thresholds.

    python3 scripts/fanout_sizes.py                 # 9 pairs of runs per case

The script writes the benchmark corpora (``perfbench/corpus.py``) into a
temporary directory: for each workload shape, one corpus per
``segments_per_pair`` in 1, 3, 6, 12 and 25 (24 to 600 records), each
a shape derived from the workload's and registered in this process
only, and the workload's own corpus for seed 1. Then, for each case, it
starts fresh child processes in turn, serial and fanned out, and each
child times one call:

- the record phase (``_prepare_segments``) on each derived corpus;
- the grid screen (``_screen``) on each workload's own corpus, with the
  workload's grid and with the default ``TuneGrid()``; the records are
  scored first, untimed.

A serial child pins itself to one CPU before it imports ``swss``. A
fanned child lowers both fan-out thresholds to 1, so that it fans out
over every usable CPU whatever the size. Last, it times one
``calibrate()`` of ``perfbench/child.py`` per usable CPU, started side
by side in forked processes, against one alone: a ratio near 1 says
that every CPU was there, near the CPU count that they took turns.

It prints one JSON object on stdout: the machine, the commit and
whether ``src/`` differs from it, and per case the median and quartiles
of the serial and fanned seconds and the ratio of the medians. Only the
standard library is used, and nothing is written in the repository.
"""

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (1, 3, 6, 12, 25)  # segments_per_pair: 3 language pairs of 8 systems each
SEED = 1
REPEATS = 9  # serial and fanned runs per case


def child(spec: dict) -> dict:
    """One timed call, in a fresh process: ``spec`` names the phase, the
    corpus, the grid and the mode."""
    if spec["mode"] == "serial":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from swss import SwssParams, TuneGrid, harness, lexical

    if spec["mode"] == "fanned":
        harness._FAN_OUT_MIN_RECORDS = 1
        harness._FAN_OUT_MIN_SCREEN_WORK = 1
    records = harness.load_dataset(Path(spec["manifest"]))
    base = spec["base"]
    if base.startswith("tsv:"):
        base = lexical.load_external_scores(base[len("tsv:"):])
    if spec["phase"] == "prepare":
        start = time.perf_counter()
        harness._prepare_segments(records, SwssParams(), base, False)
        return {"seconds": time.perf_counter() - start, "records": len(records)}
    grid = TuneGrid()
    if spec["grid"] is not None:
        with open(spec["grid"], encoding="utf-8") as handle:
            grid = TuneGrid.from_dict(json.load(handle))
    columns = harness._prepare_segments(records, SwssParams(), base, False).columns
    start = time.perf_counter()
    harness._screen(columns, grid)
    seconds = time.perf_counter() - start
    alpha_tuples = len(grid.alpha1) * len(grid.alpha2) * len(grid.alpha3) * len(grid.alpha4)
    segments = sum(len(pair.human) for pair in columns.values())
    return {"seconds": seconds, "points": grid.size, "alpha_tuples": alpha_tuples, "segments": segments}


def run_child(spec: dict) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, __file__, "--child", json.dumps(spec)], env=env, capture_output=True, text=True, check=False
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: child {spec} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def timed(spec: dict) -> dict:
    """Serial and fanned children in turn, ``REPEATS`` of each, the first
    of each pair alternating between the two."""
    seconds = {"serial": [], "fanned": []}
    found = {}
    for r in range(REPEATS):
        for mode in ("serial", "fanned") if r % 2 == 0 else ("fanned", "serial"):
            found = run_child({**spec, "mode": mode})
            seconds[mode].append(found.pop("seconds"))
    serial, fanned = summary(seconds["serial"]), summary(seconds["fanned"])
    return {
        **found,
        "serial_s": serial,
        "fanned_s": fanned,
        "fanned_over_serial": fanned["median"] / serial["median"],
    }


def side_by_side(calibrate, copies: int) -> float:
    """The mean time of ``copies`` forked ``calibrate()`` calls that start
    together."""
    go_r, go_w = os.pipe()
    results = []
    for _ in range(copies):
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(go_w)
                os.read(go_r, 1)
                os.write(write, repr(calibrate()).encode())
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        results.append((pid, read))
    os.close(go_r)
    os.write(go_w, b"x" * copies)
    os.close(go_w)
    times = []
    for pid, read in results:
        with open(read, "rb") as pipe:
            times.append(float(pipe.read()))
        os.waitpid(pid, 0)
    return statistics.fmean(times)


def calibration() -> dict:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from child import calibrate

    copies = len(os.sched_getaffinity(0))
    alone, together = [], []
    for r in range(REPEATS):
        for how in ("alone", "together") if r % 2 == 0 else ("together", "alone"):
            if how == "alone":
                alone.append(side_by_side(calibrate, 1))
            else:
                together.append(side_by_side(calibrate, copies))
    return {
        "copies": copies,
        "alone_s": summary(alone),
        "side_by_side_s": summary(together),
        "side_by_side_over_alone": statistics.median(together) / statistics.median(alone),
    }


def git(*args: str) -> str:
    proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=False)
    return proc.stdout.strip()


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(child(json.loads(args.child))))
        return 0
    if not hasattr(os, "sched_setaffinity") or not hasattr(os, "fork"):
        parser.error("this script needs os.sched_setaffinity and os.fork")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import corpus as corpus_module

    result = {
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "usable_cpus": len(os.sched_getaffinity(0)),
        },
        "commit": git("rev-parse", "HEAD") or "unknown",
        "src_modified": bool(git("status", "--porcelain", "--", "src")),
        "repeats": REPEATS,
        "prepare": [],
        "screen": [],
    }
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="fanout-sizes-") as tmp:
        for workload, shape in list(corpus_module.WORKLOADS.items()):
            for size in SIZES:
                name = f"{workload}@{size}"
                corpus_module.WORKLOADS[name] = dataclasses.replace(shape, segments_per_pair=size)
                corpus = corpus_module.generate(name, SEED, Path(tmp) / name, ROOT)
                spec = {"phase": "prepare", "manifest": str(corpus.manifest), "base": corpus.base}
                result["prepare"].append({"workload": workload, "segments_per_pair": size, **timed(spec)})
            corpus = corpus_module.generate(workload, SEED, Path(tmp) / workload, ROOT)
            for grid in ("workload", "default"):
                spec = {
                    "phase": "screen",
                    "manifest": str(corpus.manifest),
                    "base": corpus.base,
                    "grid": str(corpus.grid) if grid == "workload" else None,
                }
                result["screen"].append({"workload": workload, "grid": grid, **timed(spec)})
    result["calibration"] = calibration()
    result["elapsed_s"] = time.perf_counter() - start
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
