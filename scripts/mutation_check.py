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
SCORING = "src/swss/scoring.py"
ERRORS = "src/swss/errors.py"
GRID_ORACLE = "tests/test_harness.py::TestGridSearchOracle"
SHARED_FILES = "tests/test_harness.py::TestSharedFiles"
WORKER_POOL = "tests/test_harness.py::TestWorkerPool"
SPLIT_SCREEN = "tests/test_harness.py::TestSplitScreen"
PREPARED = "tests/test_harness.py::TestPrepared"
MEMORY_RULE = "test_features_are_kept_only_while_their_group_is_scored"
# The caller's merge of one child's results: both phases depend on it.
CHILD_RESULTS_MERGED = "            done.update(marshal.loads(task) for task in marshal.loads(data))\n"
VALIDATOR_ORACLE = "tests/test_ucca_graph.py::TestValidation::test_agrees_with_reference_validator"
XML_ORACLE = "tests/test_ucca_graph.py::TestXmlReference::test_agrees_with_reference_parser"

MUTATIONS = (
    Mutation(
        "screen-bounds-zero",
        HARNESS,
        "return total / len(sums), _SCREEN_FLOOR + _ROUNDING * slack / len(sums)",
        "return total / len(sums), 0.0",
        (GRID_ORACLE, "tests/test_harness.py::TestScreenBound"),
    ),
    Mutation(
        "screen-no-degenerate-recheck",
        HARNESS,
        "        if not sxx > _DEGENERATE * spread + n * (rounding * rounding):\n"
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
        "pair-drop-unwarned",
        HARNESS,
        "    for lang_pair in sorted(skipped_in.keys() - rows.keys()):\n",
        "    for lang_pair in ():\n",
        ("tests/test_harness.py::TestDroppedPair",),
    ),
    Mutation(
        "ablation-reports-read-unablated-params",
        HARNESS,
        "for effective in ablated]",
        "for effective in [params for _ in ablated]]",
        (f"{SHARED_FILES}::test_ablation_ladder_matches_single_runs_and_oracle",),
    ),
    Mutation(
        "pearson-nan-clamped",
        HARNESS,
        "    if math.isnan(r):\n        raise ValueError(_NOT_FINITE)\n",
        "",
        ("tests/test_harness.py::TestPearson::test_input_that_is_not_finite_is_an_error",),
    ),
    Mutation(
        "pearson-constant-input-unchecked",
        HARNESS,
        "    if x_top == x_bottom or y_top == y_bottom:\n"
        '        raise ValueError("pearson is undefined for a constant input")\n',
        "",
        (
            "tests/test_harness.py::TestPearson::test_constant_input_is_an_error",
            "tests/test_harness.py::TestPearson::test_constant_with_inexact_mean_is_an_error",
        ),
    ),
    Mutation(
        "pearson-not-clamped",
        HARNESS,
        "    return max(-1.0, min(1.0, r))\n",
        "    return r\n",
        ("tests/test_harness.py::TestPearson::test_rounding_past_one_is_clamped",),
    ),
    Mutation(
        "pearson-huge-inputs-not-scaled",
        HARNESS,
        "    if top <= _HUGE:\n",
        "    if True:\n",
        ("tests/test_harness.py::TestPearson::test_inputs_up_to_the_float_maximum",),
    ),
    Mutation(
        "ablation-zeroes-the-wrong-alpha",
        HARNESS,
        '"no-repr": {"alpha1": 0.0, "alpha2": 0.0, "alpha3": 0.0},',
        '"no-repr": {"alpha1": 0.0, "alpha2": 0.0, "alpha4": 0.0},',
        ("tests/test_harness.py::TestEvaluate::test_no_repr_equals_zeroed_alphas",),
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
        "            if path in shared:\n                loaded[path] = found",
        "            if path in shared and not isinstance(found, str):\n                loaded[path] = found",
        (f"{SHARED_FILES}::{MEMORY_RULE}",),
    ),
    Mutation(  # one dict for the whole run
        "cache-no-eviction",
        HARNESS,
        "    def run(n: int):\n        for group in tasks[n]:\n            loaded: dict = {}\n",
        "    kept: dict = {}\n\n    def run(n: int):\n        for group in tasks[n]:\n            loaded = kept\n",
        (f"{SHARED_FILES}::{MEMORY_RULE}",),
    ),
    Mutation(  # one dict for each task, which may hold several groups
        "cache-kept-for-the-whole-task",
        HARNESS,
        "        for group in tasks[n]:\n            loaded: dict = {}\n",
        "        loaded: dict = {}\n        for group in tasks[n]:\n",
        (f"{SHARED_FILES}::{MEMORY_RULE}",),
    ),
    Mutation(  # the reference is loaded, and the candidate's message returned
        "cache-failed-candidates-reference-not-skipped",
        HARNESS,
        "        if isinstance(found, str):\n            return loads, str(path), found\n        graphs.append(found)\n",
        "        graphs.append(found)\n"
        "    for path, found in zip((record.candidate_ucca, record.reference_ucca), graphs):\n"
        "        if isinstance(found, str):\n"
        "            return loads, str(path), found\n",
        (f"{SHARED_FILES}::{MEMORY_RULE}",),
    ),
    Mutation(
        "cache-single-use-paths-kept",
        HARNESS,
        "            if path in shared:\n",
        "            if True:\n",
        (f"{SHARED_FILES}::{MEMORY_RULE}",),
    ),
    Mutation(  # a task stops at its first unexpected exception
        "record-error-ends-its-task",
        HARNESS,
        "                try:\n"
        "                    result = _score_record(records[i], loaded, shared, params, base, not strict)\n"
        "                except Exception as exc:\n"
        "                    result = 0, None, exc\n",
        "                result = _score_record(records[i], loaded, shared, params, base, not strict)\n",
        (f"{WORKER_POOL}::test_first_error_in_record_order_wins_over_group_order",),
    ),
    Mutation(
        "pool-merge-in-arrival-order",
        HARNESS,
        "            outcomes[i] = failed, outcome\n",
        "            outcomes[outcomes.index(None)] = failed, outcome\n",
        (
            f"{WORKER_POOL}::test_first_error_in_record_order_wins_over_group_order",
            f"{WORKER_POOL}::test_first_error_in_record_order_wins",
            f"{WORKER_POOL}::test_matches_serial_run_and_oracle",
        ),
    ),
    Mutation(
        "pool-partition-splits-shared-files",
        HARNESS,
        "            group[max(a, b)] = min(a, b)\n",
        "            pass\n",
        (
            f"{WORKER_POOL}::test_tasks_partition_records_and_keep_shared_files_together",
            f"{WORKER_POOL}::test_workers_score_and_load_each_file_once",
        ),
    ),
    Mutation(
        "pool-in-daemonic-worker",
        FANOUT,
        "multiprocessing is not None and multiprocessing.current_process().daemon",
        "False",
        (f"{WORKER_POOL}::test_runs_serially_in_a_daemonic_worker",),
    ),
    Mutation(
        "pool-forked-while-threads-run",
        FANOUT,
        "threading.active_count() > 1",
        "False",
        (f"{WORKER_POOL}::test_runs_serially_while_other_threads_run",),
    ),
    Mutation(
        "fan-out-caller-skips-its-share",
        FANOUT,
        "        done = {} if queue is None else _take_tasks(queue, run)\n",
        "        done = {}\n",
        (
            f"{WORKER_POOL}::test_workers_score_and_load_each_file_once",
            f"{WORKER_POOL}::{MEMORY_RULE}",
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
        "fan-out-missing-task-not-rerun",
        FANOUT,
        "    return [done[n] if n in done else _task_results(run, n) for n in range(count)]\n",
        "    return [done.get(n, []) for n in range(count)]\n",
        (f"{WORKER_POOL}::test_fault_only_in_children_gives_the_serial_output",),
    ),
    Mutation(
        "fan-out-child-sends-a-failed-task-empty",
        FANOUT,
        "            except ValueError:  # an object marshal cannot take, such as an exception\n"
        "                pass\n",
        "            except ValueError:\n"
        "                sent.append(marshal.dumps((n, [])))\n",
        (f"{WORKER_POOL}::test_fault_only_in_children_gives_the_serial_output",),
    ),
    Mutation(  # a child's outcomes arrive without the files their scoring loaded
        "prepared-child-loads-dropped",
        FANOUT,
        CHILD_RESULTS_MERGED,
        "            done.update((n, [(i, 0, *rest) for i, _, *rest in items])"
        " for n, items in map(marshal.loads, marshal.loads(data)))\n",
        (PREPARED,),
    ),
    Mutation(  # each task that no child sent is run here twice, and both runs are returned
        "prepared-rerun-counted-twice",
        FANOUT,
        "    return [done[n] if n in done else _task_results(run, n) for n in range(count)]\n",
        "    rerun = [_task_results(run, n) for n in range(count) if n not in done]\n"
        "    return [done[n] if n in done else _task_results(run, n) for n in range(count)] + rerun\n",
        (PREPARED,),
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
        (f"{SPLIT_SCREEN}::test_each_task_is_swept_once",),
    ),
    Mutation(
        "screen-task-filtered-by-its-own-lower-bound",
        HARNESS,
        "for _, candidates in results for upper, vector in candidates if upper >= lower]",
        "for task_lower, candidates in results for upper, vector in candidates if upper >= task_lower]",
        (f"{SPLIT_SCREEN}::test_matches_serial_screen", f"{SPLIT_SCREEN}::test_rechecks_as_many_points_as_serial_screen"),
    ),
    Mutation(
        "screen-tasks-joined-out-of-order",
        HARNESS,
        "for _, candidates in results for upper",
        "for _, candidates in results[::-1] for upper",
        (f"{SPLIT_SCREEN}::test_matches_serial_screen",),
    ),
    Mutation(  # each task also sweeps the first tuple of the next task's range
        "screen-range-overlaps-the-next",
        HARNESS,
        "            if low < stop and low + widths[level] > start:\n",
        "            if low <= stop and low + widths[level] > start:\n",
        (f"{SPLIT_SCREEN}::test_sweep_walks_its_range_of_the_alpha_tuples",),
    ),
    Mutation(
        "one-process-run-opens-a-pipe",
        FANOUT,
        "            if min(processes, count) > 1:\n",
        "            if True:\n",
        (f"{WORKER_POOL}::test_one_process_opens_no_pipe_and_forks_nothing",),
    ),
    Mutation(  # a dead child's pipe data is decoded
        "fan-out-dead-child-unnoticed",
        FANOUT,
        "            if code:  # a dead child's pipe holds no whole list: its tasks run here\n",
        "            if False:\n",
        (f"{WORKER_POOL}::test_dead_child_gives_the_serial_output",),
    ),
    Mutation(
        "tune-out-writes-the-stdout-payload",
        "src/swss/cli.py",
        '_write_out(payload["params"], args.out)',
        "_write_out(payload, args.out)",
        ("tests/test_cli.py::TestTune::test_out_file_is_what_evaluate_params_reads",),
    ),
    Mutation(  # the argmax is kept, but its report is the default point's
        "tune-report-of-the-default-point",
        HARNESS,
        "    return best\n",
        "    return replace(_report(prepared, SwssParams(), base), params=best.params)\n",
        ("tests/test_cli.py::TestTune::test_out_file_is_what_evaluate_params_reads",),
    ),
    Mutation(
        "report-base-average-of-defined-pairs",
        HARNESS,
        "base_average=_mean(defined) if len(defined) == len(base_per_pair) else None,",
        "base_average=_mean(defined) if defined else None,",
        ("tests/test_harness.py::TestEvaluate::test_base_average_is_none_when_one_pair_has_a_constant_base",),
    ),
    Mutation(
        "grid-value-rule-skipped",
        HARNESS,
        '                _check_scalar(field_.name, v, f"grid value for {field_.name!r}")\n',
        "                pass\n",
        ("tests/test_harness.py::TestTuneGrid",),
    ),
    Mutation(
        "number-rule-accepts-a-bool",
        ERRORS,
        "    return isinstance(value, (int, float)) and not isinstance(value, bool)\n",
        "    return isinstance(value, (int, float))\n",
        ("tests/test_scoring.py::TestCombine::test_non_finite_base_rejected", "tests/test_scoring.py::TestParams"),
    ),
    Mutation(
        "unknown-key-ignored",
        SCORING,
        "    if unknown:\n        raise ValueError(f\"unknown {kind}",
        "    if False:\n        raise ValueError(f\"unknown {kind}",
        (
            "tests/test_scoring.py::TestParams::test_unknown_key_rejected",
            "tests/test_harness.py::TestTuneGrid::test_unknown_key_rejected",
        ),
    ),
    Mutation(
        "combine-accepts-a-non-finite-base",
        SCORING,
        "    if not _in_float_range(base_score):\n",
        "    if False:\n",
        ("tests/test_scoring.py::TestCombine::test_non_finite_base_rejected",),
    ),
    Mutation(
        "reader-keeps-the-byte-order-mark",
        ERRORS,
        'open(path, encoding="utf-8-sig")',
        'open(path, encoding="utf-8")',
        ("tests/test_cli.py::TestByteOrderMark",),
    ),
    Mutation(
        "synthetic-count-unchecked",
        "src/swss/synthetic.py",
        "    if n_segments < 1:\n",
        "    if False:\n",
        ("tests/test_cli.py::TestSyntheticDatasetScript::test_usage_error_exits_one",),
    ),
    Mutation(  # of the relations, only the swap catches this one
        "length-penalty-of-the-candidate-alone",
        SCORING,
        "len_penalty = (candidate_stats.tokens + reference_stats.tokens) / 2",
        "len_penalty = candidate_stats.tokens",
        ("tests/test_harness.py::TestRelations::test_swapping_candidate_and_reference_changes_nothing",),
    ),
    Mutation(  # only the relation tests catch this one
        "pearson-mean-by-ordered-sum",
        HARNESS,
        "    mean = math.fsum(values) / len(values)\n",
        "    mean = sum(values) / len(values)\n",
        ("tests/test_harness.py::TestRelations",),
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
        SCORING,
        "candidate_stats, reference_stats = candidate.stats_with_remote, reference.stats_with_remote",
        "candidate_stats, reference_stats = candidate.stats, reference.stats",
        ("tests/test_scoring.py::TestSwss::test_features_path_matches_graph_based_oracle",),
    ),
    Mutation(
        "fallback-penalized-by-default",
        SCORING,
        "    if fallback_used and not params.fallback_applies_penalties:\n        return f1\n",
        "",
        ("tests/test_scoring.py::TestSwss::test_fallback_skips_penalties_by_default",),
    ),
    Mutation(
        "ratio-penalty-is-the-ratio",
        SCORING,
        "    return 1.0 - min(c1, c2) / max(c1, c2)\n",
        "    return min(c1, c2) / max(c1, c2)\n",
        ("tests/test_scoring.py::TestRatioPenalty::test_examples",),
    ),
    Mutation(
        "brevity-penalty-ratio-inverted",
        "src/swss/lexical.py",
        "brevity = math.exp(1.0 - len(reference_tokens) / len(candidate_tokens))",
        "brevity = math.exp(1.0 - len(candidate_tokens) / len(reference_tokens))",
        ("tests/test_lexical.py::TestSentenceBleu::test_brevity_penalty_applies_to_short_candidates",),
    ),
    Mutation(
        "human-score-finiteness-unchecked",
        HARNESS,
        "        if not _in_float_range(human):\n",
        "        if False:\n",
        ("tests/test_harness.py::TestLoadDataset::test_human_score_that_is_not_finite_rejected",),
    ),
    Mutation(
        "internal-error-exits-one",
        "src/swss/cli.py",
        "        traceback.print_exc()\n        return 2\n",
        "        traceback.print_exc()\n        return 1\n",
        ("tests/test_cli.py::TestCliSurface::test_internal_error_exits_two",),
    ),
    Mutation(
        "remote-critical-edge-counted-as-primary",
        UCCA_GRAPH,
        "                    remote_critical += 1\n",
        "                    critical += 1\n",
        ("tests/test_ucca_graph.py::TestFigureFixture::test_critical_edges",),
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
    Mutation(  # two elements with one ID become one unit
        "xml-repeated-unit-id-merged",
        UCCA_GRAPH,
        "                if node_id in unit_edges:\n"
        '                    raise GraphError(f"duplicate node id {node_id!r}")\n',
        "",
        ("tests/test_ucca_graph.py::TestXmlErrors::test_repeated_unit_id",),
    ),
    Mutation(
        "no-primary-parent-unnamed",
        UCCA_GRAPH,
        "            if n_parents == 0:\n",
        "            if False:\n",
        (
            "tests/test_ucca_graph.py::TestValidation::test_node_without_primary_parent_named",
            "tests/test_ucca_graph.py::TestValidation::test_terminal_without_primary_parent_named",
        ),
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
