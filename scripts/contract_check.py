#!/usr/bin/env python3
"""Check that the working tree gives the outputs that commit REF gives.

    python3 scripts/contract_check.py REF
    python3 scripts/contract_check.py REF --expect-change tune

The script exports REF's ``src/`` with ``git archive`` and writes the
benchmark corpora (``perfbench/corpus.py``) of every workload for seeds
1-3 once. With the running interpreter it then runs, once on REF's
``src/`` and once on the working tree's:

- ``swss evaluate --ablation all --out`` and ``swss tune --out`` on each
  corpus, with the corpus's base metric and grid;
- ``swss score`` on the two ``tests/data`` figure fixtures, and
  ``swss inspect`` and ``swss inspect --json`` on each of them.

It prints one table: per run, the sha256 digests of stdout, stderr and
the ``--out`` file, and the exit code, each as REF's, or as REF's and
then the working tree's where they differ. It exits 1 if any run's
outputs differ, unless every run that differs is named by an
``--expect-change NAME``: NAME names a run by its full name
(``da-bleu/1/tune``) or by one part of it (``da-bleu``, ``1``,
``tune``, ``fixtures``). Only the standard library is used.
"""

import argparse
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
FIXTURES = (ROOT / "tests" / "data" / "figure_sentence.json", ROOT / "tests" / "data" / "figure_sentence.xml")
STREAMS = ("stdout", "stderr", "out", "exit")


class Parser(argparse.ArgumentParser):
    # A usage mistake is an input error: exit 1, as ``swss`` does, not
    # argparse's 2, which the project keeps for internal errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def export_src(ref: str, dest: Path) -> Path:
    """REF's ``src/`` directory, extracted under ``dest``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"], capture_output=True, check=False
    )
    if archive.returncode != 0:
        raise SystemExit(f"error: cannot export src/ of {ref!r}: {archive.stderr.decode(errors='replace').strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        # The "data" filter, where this Python has it, refuses members
        # that would land outside ``dest``.
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return dest / "src"


def write_corpora(dest: Path) -> dict:
    """``{run name: swss arguments}`` for the runs on the benchmark
    corpora, which are written under ``dest``; ``OUT`` stands for the
    ``--out`` file."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import corpus as corpus_module

    runs = {}
    for workload in corpus_module.WORKLOADS:
        for seed in SEEDS:
            corpus = corpus_module.generate(workload, seed, dest / f"{workload}-{seed}", ROOT)
            common = [str(corpus.manifest), "--base", corpus.base, "--out", "OUT"]
            runs[f"{workload}/{seed}/evaluate"] = ["evaluate", *common, "--ablation", "all"]
            runs[f"{workload}/{seed}/tune"] = ["tune", *common, "--grid", str(corpus.grid)]
    return runs


def fixture_runs() -> dict:
    runs = {"fixtures/score": ["score", *map(str, FIXTURES)]}
    for path in FIXTURES:
        runs[f"fixtures/inspect/{path.suffix[1:]}"] = ["inspect", str(path)]
        runs[f"fixtures/inspect-json/{path.suffix[1:]}"] = ["inspect", str(path), "--json"]
    return runs


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def outputs(src: Path, args: list, out: Path, cwd: Path) -> dict:
    """The digests of one ``swss`` run on the package in ``src``, and its
    exit code."""
    out.unlink(missing_ok=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    command = [sys.executable, "-m", "swss.cli", *(str(out) if arg == "OUT" else arg for arg in args)]
    proc = subprocess.run(command, cwd=cwd, env=env, capture_output=True, check=False)
    return {
        "stdout": digest(proc.stdout),
        "stderr": digest(proc.stderr),
        "out": digest(out.read_bytes()) if out.exists() else "-",
        "exit": str(proc.returncode),
    }


def main(argv: list) -> int:
    parser = Parser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="the commit to compare the working tree with")
    parser.add_argument(
        "--expect-change", action="append", default=[], metavar="NAME", help="a run, or part of a run name, that may differ"
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="contract-") as tmp:
        tmp = Path(tmp)
        trees = {"ref": export_src(args.ref, tmp / "ref"), "work": ROOT / "src"}
        runs = {**write_corpora(tmp / "corpora"), **fixture_runs()}
        parts = {part for name in runs for part in (name, *name.split("/"))}
        unknown = [name for name in args.expect_change if name not in parts]
        if unknown:
            parser.error(f"--expect-change {unknown[0]!r} names no run")
        width = max(map(len, runs))
        print(f"{'run':<{width}}  " + "  ".join(f"{stream:<12}" for stream in STREAMS))
        changed = []
        for name, run_args in runs.items():
            # Both trees write the same --out path from the same directory,
            # so no output differs by where it was made.
            found = {tree: outputs(src, run_args, tmp / "out.json", tmp) for tree, src in trees.items()}
            cells = []
            for stream in STREAMS:
                ref, work = found["ref"][stream], found["work"][stream]
                cells.append(f"{ref:<12}" if ref == work else f"{ref} -> {work}")
            differs = found["ref"] != found["work"]
            if differs:
                changed.append(name)
            print(f"{name:<{width}}  " + "  ".join(cells) + ("  CHANGED" if differs else ""), flush=True)

    expected = set(args.expect_change)
    unexpected = [name for name in changed if not expected & {name, *name.split("/")}]
    print(f"{len(changed)} of {len(runs)} runs changed; {len(unexpected)} not expected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
