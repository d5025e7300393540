"""Run numbered tasks in forked processes, the calling one included.

``harness`` imports this module only for a run that fans out, so neither
``import swss`` nor a serial run loads it. ``forked_results`` is the one
fork primitive: the caller writes every task number into one pipe and
forks; every process then takes task numbers until the pipe is empty, and
each child sends its results back through a pipe of its own. Record
scoring (``forked_outcomes``) and the grid screen (``forked_screen``) both
run on it.
"""

import itertools
import logging
import marshal
import math
import os
import traceback
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, NoReturn, Optional, Sequence, Union

from .errors import GraphError
from .harness import SegmentRecord, TuneGrid, _outcomes, _PairSums, _screen_sweep
from .lexical import ExternalScoreTable
from .scoring import SwssParams

logger = logging.getLogger(__name__)

# Tasks per process, so that processes that finish early take more. With
# 16, the caller and a child finished within about 10 ms of each other
# on the benchmark corpora (median); with 4, up to 74 ms apart.
TASKS_PER_PROCESS = 16
# Task numbers go through a pipe as 4-byte records in one write, which an
# empty pipe (at least one 4 KiB page) always holds.
MAX_TASKS = 1024


def _task_results(run: Callable[[int], Iterable], n: int) -> list:
    """The items of ``run(n)``, ended by the exception that stopped them."""
    items = []
    try:
        for item in run(n):
            items.append(item)
    except Exception as exc:
        items.append(exc)
    return items


def _take_tasks(queue: int, run: Callable[[int], Iterable]) -> dict:
    """``{task number: _task_results}`` of every task whose number this
    process reads from the pipe ``queue``, until it is empty."""
    done = {}
    while number := os.read(queue, 4):
        n = int.from_bytes(number, "little")
        done[n] = _task_results(run, n)
    return done


class _ChildTraceback(Exception):
    """The traceback, as text, of an exception raised in a forked child:
    the cause of the exception the calling process raises for it."""


def _pickled(done: dict) -> bytes:
    """``done`` and the traceback text of each exception that ended a
    task, pickled; an exception that pickle cannot take is replaced by a
    RuntimeError that carries its repr."""
    import pickle  # only a task that raised needs it

    tracebacks = {}
    for n, items in done.items():
        if items and isinstance(items[-1], Exception):
            error = items[-1]
            tracebacks[n] = "".join(traceback.format_exception(error))
            try:
                pickle.loads(pickle.dumps(error))
            except Exception:
                items[-1] = RuntimeError(f"a worker process raised an exception it could not send: {error!r}")
    return pickle.dumps((done, tracebacks))


def _unpickled(data: bytes) -> dict:
    """What ``_pickled`` packed, each exception with its traceback text as
    its cause."""
    import pickle

    done, tracebacks = pickle.loads(data)
    for n, text in tracebacks.items():
        done[n][-1].__cause__ = _ChildTraceback(text)
    return done


def _run_child(queue: int, send: int, run: Callable[[int], Iterable]) -> NoReturn:
    """Run tasks from ``queue`` in a forked child, send their results into
    the pipe ``send`` (with marshal, or with pickle when an unexpected
    exception ended a task), and exit: never return into the caller's
    frames."""
    status = 1
    try:
        done = _take_tasks(queue, run)
        try:
            data = b"m" + marshal.dumps(done)
        except ValueError:  # an object marshal cannot take, such as an exception
            data = b"p" + _pickled(done)
        with open(send, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def forked_results(run: Callable[[int], Iterable], count: int, processes: int) -> list:
    """``_task_results(run, n)`` for every task n in ``range(count)``, run
    by this process and up to ``processes - 1`` forked children, each
    taking tasks from one pipe until it is empty. A task's items reach the
    caller as marshal or pickle rebuilds them; an exception raised in a
    child has that child's traceback text as its cause. Where a pipe or a
    fork fails, the processes already there run every task. No child
    outlives the call."""
    queue = None
    children: dict[int, Optional[BinaryIO]] = {}  # pid: its result pipe, None once reaped
    try:
        try:
            queue, feed = os.pipe()
            os.write(feed, b"".join(n.to_bytes(4, "little") for n in range(count)))
            os.close(feed)
            for _ in range(min(processes, count) - 1):
                result, send = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(result)
                    os.close(send)
                    raise
                if pid == 0:
                    _run_child(queue, send, run)
                os.close(send)
                children[pid] = os.fdopen(result, "rb")
        except OSError as exc:
            logger.warning("could not start a worker process (%s); running with %d process(es)", exc, len(children) + 1)
        # The tasks' inputs reach the children through the fork; only
        # results come back through a pipe.
        if queue is None:
            done = {n: _task_results(run, n) for n in range(count)}
        else:
            done = _take_tasks(queue, run)
        for pid, pipe in children.items():
            data = pipe.read()
            pipe.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children[pid] = None
            if code:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
                raise RuntimeError(f"worker process {pid} {how} before it sent its results")
            done.update(marshal.loads(memoryview(data)[1:]) if data[:1] == b"m" else _unpickled(data[1:]))
    finally:
        if queue is not None:
            os.close(queue)
        for pid, pipe in children.items():
            if pipe is not None:
                import signal  # only an interrupted call kills a child

                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return [done[n] for n in range(count)]


def partition(records: Sequence[SegmentRecord], count: int) -> list[list[int]]:
    """Record indices in about ``count`` tasks, each in record order. The
    records that name a common file share a task, so that each file is
    loaded once in all."""
    group = list(range(len(records)))  # union-find over record indices

    def find(i: int) -> int:
        while group[i] != i:
            group[i] = group[group[i]]
            i = group[i]
        return i

    first_use: dict[Path, int] = {}
    for i, record in enumerate(records):
        for path in (record.candidate_ucca, record.reference_ucca):
            a, b = find(i), find(first_use.setdefault(path, i))
            group[max(a, b)] = min(a, b)
    members: dict[int, list[int]] = {}
    for i in range(len(records)):
        members.setdefault(find(i), []).append(i)
    size = -(-len(records) // count)
    tasks: list[list[int]] = [[]]
    for indices in members.values():
        if len(tasks[-1]) >= size:
            tasks.append([])
        tasks[-1].extend(indices)
    return [sorted(task) for task in tasks]


def forked_outcomes(
    records: Sequence[SegmentRecord],
    params: SwssParams,
    base: Union[str, ExternalScoreTable],
    lenient: bool,
    processes: int,
) -> list:
    """The ``_outcomes`` of every record, scored in ``forked_results`` tasks
    and put back at each record's index. Where a task stopped at an
    unexpected exception, that is its record's outcome, and the records
    after it in the task have none (None)."""
    tasks = partition(records, min(processes * TASKS_PER_PROCESS, MAX_TASKS))

    def run(n: int):
        for outcome in _outcomes([records[i] for i in tasks[n]], params, base, lenient):
            # A GraphError crosses the pipe as its message.
            yield str(outcome) if isinstance(outcome, GraphError) else outcome

    outcomes: list = [None] * len(records)
    for task, results in zip(tasks, forked_results(run, len(tasks), processes)):
        for i, outcome in zip(task, results):
            outcomes[i] = GraphError(outcome) if isinstance(outcome, str) else outcome
    return outcomes


def screen_tasks(sizes: Sequence[int], count: int) -> list[tuple]:
    """At least ``count`` tasks where the alpha grid has that many tuples,
    and fewer than ``2 * count``, that split it into contiguous runs in
    lexicographic order. Each task is one slice per leading alpha level
    (``sizes`` holds the level sizes): one index at every level but the
    last, a run of indices at that one."""
    depth = 1
    while depth < len(sizes) and math.prod(sizes[:depth]) < count:
        depth += 1
    outer, last = math.prod(sizes[: depth - 1]), sizes[depth - 1]
    runs = min(last, -(-count // outer))
    parts = [slice(last * k // runs, last * (k + 1) // runs) for k in range(runs)]
    return [
        (*(slice(i, i + 1) for i in prefix), part)
        for prefix in itertools.product(*map(range, sizes[: depth - 1]))
        for part in parts
    ]


def forked_screen(pairs: list[_PairSums], grid: TuneGrid, processes: int) -> list[tuple]:
    """``harness._screen``'s grid vectors, swept in ``forked_results``
    tasks. A task prunes with its own best lower bound, which is never
    above the best of all, so keeping the joined candidates that reach the
    best of all gives the serial screen's list."""
    sizes = (len(grid.alpha1), len(grid.alpha2), len(grid.alpha3), len(grid.alpha4))
    tasks = screen_tasks(sizes, min(processes * TASKS_PER_PROCESS, MAX_TASKS // 2))
    results = forked_results(lambda n: _screen_sweep(pairs, grid, tasks[n]), len(tasks), processes)
    for result in results:
        if isinstance(result[-1], Exception):
            raise result[-1]
    lower = max(task_lower for task_lower, _ in results)
    return [vector for _, candidates in results for upper, vector in candidates if upper >= lower]
