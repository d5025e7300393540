#!/usr/bin/env python3
"""Check that the tests catch a fixed set of hand-made faults.

    python3 scripts/mutation_check.py            # every mutation
    python3 scripts/mutation_check.py NAME ...   # only those named

Each entry of MUTATIONS is one fault: a file, an exact snippet of its
current source, the text that replaces it, and the pytest selectors of
the tests that must catch it. For each entry, one at a time, the script
copies the repository's ``src/`` and ``tests/`` to a temporary
directory, makes the one replacement there and runs only the selected
tests, with a fixed hypothesis seed and no shrinking. The mutation is caught when they
fail. The script prints one line per entry and exits 1 if any mutation
survived or could not be applied. The repository itself is never
changed; ``tests/test_checks.py`` checks that every snippet still occurs
exactly once, so a refactor that moves the code flags the stale entry.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# A pytest plugin for the copy: a failing example need not be shrunk to a
# minimal one, and shrinking can take minutes.
NO_SHRINK = """from hypothesis import Phase, settings

settings.register_profile("no-shrink", phases=[Phase.explicit, Phase.reuse, Phase.generate])
settings.load_profile("no-shrink")
"""


class Mutation(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple


HARNESS = "src/swss/harness.py"
FANOUT = "src/swss/_fanout.py"
UCCA_GRAPH = "src/swss/ucca_graph.py"
GRID_ORACLE = "tests/test_harness.py::TestGridSearchOracle"
SHARED_FILES = "tests/test_harness.py::TestSharedFiles"
WORKER_POOL = "tests/test_harness.py::TestWorkerPool"
SPLIT_SCREEN = "tests/test_harness.py::TestSplitScreen"
# The caller's merge of one child's results: both phases depend on it.
CHILD_RESULTS_MERGED = (
    '            done.update(marshal.loads(memoryview(data)[1:]) if data[:1] == b"m" else _unpickled(data[1:]))\n'
)
VALIDATOR_ORACLE = "tests/test_ucca_graph.py::TestValidation::test_agrees_with_reference_validator"
XML_ORACLE = "tests/test_ucca_graph.py::TestXmlReference::test_agrees_with_reference_parser"

MUTATIONS = (
    Mutation(
        "screen-bounds-zero",
        HARNESS,
        "return total / len(sums), _SCREEN_FLOOR + _ROUNDING * slack / len(sums)",
        "return total / len(sums), 0.0",
        (GRID_ORACLE,),
    ),
    Mutation(
        "screen-no-degenerate-recheck",
        HARNESS,
        "        if not sxx > _DEGENERATE * spread + n * (16 * sys.float_info.epsilon * top) ** 2:\n"
        "            return math.nan, math.inf\n",
        "",
        (GRID_ORACLE,),
    ),
    Mutation(
        "fallback-scored-with-f1",
        HARNESS,
        "penalized_score(omega if u else f, u, ps, pn, pe, ln, params)",
        "penalized_score(f, u, ps, pn, pe, ln, params)",
        (GRID_ORACLE, f"{SHARED_FILES}::test_matches_per_record_oracle"),
    ),
    Mutation(
        "clipping-condition",
        "src/swss/core_words.py",
        "if used < other_counts.get(stem, 0):",
        "if used <= other_counts.get(stem, 0):",
        ("tests/test_acceptance.py::test_criterion_2_matching_oracle",),
    ),
    Mutation(
        "cache-errors-not-kept",
        HARNESS,
        "            if not last:\n                self._kept[path] = found",
        "            if not last and not isinstance(found, GraphError):\n                self._kept[path] = found",
        (f"{SHARED_FILES}::test_features_are_kept_only_until_last_use",),
    ),
    Mutation(
        "cache-no-eviction",
        HARNESS,
        "found = self._kept.pop(path, None) if last else self._kept.get(path)",
        "found = self._kept.get(path)",
        (f"{SHARED_FILES}::test_features_are_kept_only_until_last_use",),
    ),
    Mutation(
        "cache-failed-candidates-reference-not-counted",
        HARNESS,
        "reference = features.take(record.reference_ucca, load=not candidate_failed)",
        "reference = None if candidate_failed else features.take(record.reference_ucca)",
        (f"{SHARED_FILES}::test_features_are_kept_only_until_last_use",),
    ),
    Mutation(
        "cache-single-use-paths-kept",
        HARNESS,
        "            if not last:\n                self._kept[path] = found",
        "            self._kept[path] = found",
        (f"{SHARED_FILES}::test_features_are_kept_only_until_last_use",),
    ),
    Mutation(
        "pool-merge-in-arrival-order",
        FANOUT,
        "outcomes[i] = GraphError(outcome)",
        "outcomes[outcomes.index(None)] = GraphError(outcome)",
        (f"{WORKER_POOL}::test_first_error_in_record_order_wins", f"{WORKER_POOL}::test_matches_serial_run_and_oracle"),
    ),
    Mutation(
        "pool-partition-splits-shared-files",
        FANOUT,
        "            group[max(a, b)] = min(a, b)\n",
        "            pass\n",
        (
            f"{WORKER_POOL}::test_tasks_partition_records_and_keep_shared_files_together",
            f"{WORKER_POOL}::test_workers_score_and_load_each_file_once",
        ),
    ),
    Mutation(
        "pool-in-daemonic-worker",
        HARNESS,
        "multiprocessing is not None and multiprocessing.current_process().daemon",
        "False",
        (f"{WORKER_POOL}::test_runs_serially_in_a_daemonic_worker",),
    ),
    Mutation(
        "pool-forked-while-threads-run",
        HARNESS,
        "threading.active_count() > 1",
        "False",
        (f"{WORKER_POOL}::test_runs_serially_while_other_threads_run",),
    ),
    Mutation(
        "fan-out-caller-skips-its-share",
        FANOUT,
        "            done = _take_tasks(queue, run)\n",
        "            done = {}\n",
        (
            f"{WORKER_POOL}::test_workers_score_and_load_each_file_once",
            f"{WORKER_POOL}::test_features_are_kept_only_until_last_use",
        ),
    ),
    Mutation(
        "fan-out-child-outcomes-dropped",
        FANOUT,
        CHILD_RESULTS_MERGED,
        "            pass\n",
        (
            f"{WORKER_POOL}::test_workers_score_and_load_each_file_once",
            f"{WORKER_POOL}::test_matches_serial_run_and_oracle",
        ),
    ),
    Mutation(
        "fan-out-fork-error-raised",
        FANOUT,
        "        except OSError as exc:\n",
        "        except OSError as exc:\n            raise\n",
        (f"{WORKER_POOL}::test_failed_fork_gives_fewer_processes",),
    ),
    Mutation(
        "screen-child-results-dropped",
        FANOUT,
        CHILD_RESULTS_MERGED,
        "            pass\n",
        (f"{SPLIT_SCREEN}::test_matches_serial_screen",),
    ),
    Mutation(
        "screen-task-filtered-by-its-own-lower-bound",
        FANOUT,
        "for _, candidates in results for upper, vector in candidates if upper >= lower]",
        "for task_lower, candidates in results for upper, vector in candidates if upper >= task_lower]",
        (f"{SPLIT_SCREEN}::test_matches_serial_screen", f"{SPLIT_SCREEN}::test_rechecks_as_many_points_as_serial_screen"),
    ),
    Mutation(
        "screen-tasks-joined-out-of-order",
        FANOUT,
        "for _, candidates in results for upper",
        "for _, candidates in results[::-1] for upper",
        (f"{SPLIT_SCREEN}::test_matches_serial_screen",),
    ),
    Mutation(
        "fan-out-dead-child-unnoticed",
        FANOUT,
        "            if code:\n",
        "            if False:\n",
        (f"{WORKER_POOL}::test_dead_child_raises", f"{WORKER_POOL}::test_no_child_outlives_the_call"),
    ),
    Mutation(
        "stem-memo-unbounded",
        "src/swss/porter.py",
        "    if len(_memo) < _MEMO_SIZE:\n",
        "    if True:\n",
        ("tests/test_porter.py::test_memo_is_bounded_and_keeps_what_the_steps_give",),
    ),
    Mutation(
        "features-ignore-include-remote",
        "src/swss/scoring.py",
        "critical_edges=self.critical_edges_with_remote if include_remote else self.critical_edges,",
        "critical_edges=self.critical_edges,",
        ("tests/test_scoring.py::TestSwss::test_features_path_matches_graph_based_oracle",),
    ),
    Mutation(
        "peel-without-remote-edges",
        UCCA_GRAPH,
        "        indegree[child] += 1\n        successors[parent].append(child)\n",
        "        if not remote:\n            indegree[child] += 1\n            successors[parent].append(child)\n",
        (VALIDATOR_ORACLE,),
    ),
    Mutation(
        "peel-count-check-skipped",
        UCCA_GRAPH,
        "    if len(peeled) < len(indegree):",
        "    if False:",
        (VALIDATOR_ORACLE,),
    ),
    Mutation(
        "xml-implicit-units-kept",
        UCCA_GRAPH,
        "    if implicit:\n        for node_id in implicit:",
        "    if False:\n        for node_id in implicit:",
        (XML_ORACLE,),
    ),
    Mutation(
        "xml-edges-into-implicit-units-kept",
        UCCA_GRAPH,
        "unit_edges[node_id] = [e for e in unit_edges[node_id] if e[0] not in implicit]",
        "unit_edges[node_id] = list(unit_edges[node_id])",
        (XML_ORACLE,),
    ),
    Mutation(
        "json-unknown-node-field-ignored",
        UCCA_GRAPH,
        "        if len(entry) != 1:\n            raise GraphError(f\"nodes[{i}]: unknown field",
        "        if False:\n            raise GraphError(f\"nodes[{i}]: unknown field",
        ("tests/test_ucca_graph.py::TestJsonParsing::test_unknown_node_field_named",),
    ),
)


def apply(mutation: Mutation, tree: Path) -> None:
    path = tree / mutation.file
    source = path.read_text(encoding="utf-8")
    count = source.count(mutation.old)
    if count != 1:
        raise ValueError(f"snippet occurs {count} times in {mutation.file}, expected once")
    path.write_text(source.replace(mutation.old, mutation.new), encoding="utf-8")


def run_one(mutation: Mutation) -> str:
    """'caught', 'SURVIVED', or 'ERROR: ...' for one mutation."""
    with tempfile.TemporaryDirectory(prefix="swss-mutant-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")
        (tree / "no_shrink.py").write_text(NO_SHRINK, encoding="utf-8")
        try:
            apply(mutation, tree)
        except ValueError as exc:
            return f"ERROR: {exc}"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-p", "no_shrink",
             "--hypothesis-seed=0", *mutation.tests],
            cwd=tree,
            env={**os.environ, "PYTHONPATH": str(tree / "src")},
            capture_output=True,
            text=True,
        )
    # pytest exits 1 when a test failed; 0 means every selected test passed.
    if proc.returncode == 1:
        return "caught"
    if proc.returncode == 0:
        return "SURVIVED"
    return f"ERROR: pytest exited {proc.returncode}: {proc.stdout.strip().splitlines()[-1:]}"


def main(argv: list) -> int:
    names = {m.name for m in MUTATIONS}
    unknown = [name for name in argv if name not in names]
    if unknown:
        print(f"error: unknown mutation {unknown[0]!r}; known: {', '.join(sorted(names))}", file=sys.stderr)
        return 1
    selected = [m for m in MUTATIONS if not argv or m.name in argv]
    failures = 0
    start = time.perf_counter()
    for mutation in selected:
        began = time.perf_counter()
        outcome = run_one(mutation)
        failures += outcome != "caught"
        print(f"{mutation.name:<48} {outcome} ({time.perf_counter() - began:.1f} s)", flush=True)
    print(f"{len(selected) - failures} of {len(selected)} mutations caught in {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
