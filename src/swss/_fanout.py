"""Score records in forked processes, the calling one included.

``harness`` imports this module only for a run that fans out, so neither
``import swss`` nor a serial run loads it. The caller writes every task
number into one pipe and forks; every process then takes task numbers
until the pipe is empty and runs ``harness._outcomes`` on each task, and
each child sends its outcomes back through a pipe of its own.
"""

import os
import pickle
import signal
import traceback
from pathlib import Path
from typing import BinaryIO, NoReturn, Optional, Sequence, Union

from .errors import GraphError
from .harness import SegmentRecord, _outcomes
from .lexical import ExternalScoreTable
from .scoring import SwssParams

# Tasks per process, so that processes that finish early take more.
TASKS_PER_PROCESS = 4
# Task numbers go through a pipe as 4-byte records in one write, which an
# empty pipe (at least one 4 KiB page) always holds.
MAX_TASKS = 1024


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


def _take_tasks(queue: int, tasks: list, records: Sequence[SegmentRecord], *job) -> dict:
    """``{record index: outcome}`` of every task whose number this
    process reads from the pipe ``queue``, until it is empty. Where a task
    stopped early, the records after its exception have no outcome."""
    done = {}
    while number := os.read(queue, 4):
        indices = tasks[int.from_bytes(number, "little")]
        done.update(zip(indices, _outcomes([records[i] for i in indices], *job)))
    return done


class _ChildTraceback(Exception):
    """The traceback, as text, of an exception raised in a forked child:
    the cause of the exception the calling process raises for it."""


def _run_child(queue: int, send: int, tasks: list, records: Sequence[SegmentRecord], *job) -> NoReturn:
    """Score tasks from ``queue`` in a forked child, pickle its outcomes
    and the text of each unexpected exception's traceback into the pipe
    ``send``, and exit: never return into the caller's frames."""
    status = 1
    try:
        done = _take_tasks(queue, tasks, records, *job)
        tracebacks = {}
        for i, outcome in done.items():
            if isinstance(outcome, Exception) and not isinstance(outcome, GraphError):
                tracebacks[i] = "".join(traceback.format_exception(outcome))
                try:
                    pickle.loads(pickle.dumps(outcome))
                except Exception:
                    done[i] = RuntimeError(f"a worker process raised an exception it could not send: {outcome!r}")
        with open(send, "wb") as pipe:
            pickle.dump((done, tracebacks), pipe)
        status = 0
    finally:
        os._exit(status)


def forked_outcomes(
    records: Sequence[SegmentRecord],
    params: SwssParams,
    base: Union[str, ExternalScoreTable],
    lenient: bool,
    processes: int,
) -> list:
    """``_outcomes`` of every record, scored by this process and
    ``processes - 1`` forked children, each taking tasks from one pipe
    until it is empty, and put back at each record's index. Where a task
    stopped early, the records after its exception have no outcome (None).
    No child outlives the call."""
    job = (params, base, lenient)
    tasks = partition(records, min(processes * TASKS_PER_PROCESS, MAX_TASKS))
    queue, feed = os.pipe()
    os.write(feed, b"".join(n.to_bytes(4, "little") for n in range(len(tasks))))
    os.close(feed)
    children: dict[int, Optional[BinaryIO]] = {}  # pid: its result pipe, None once reaped
    try:
        for _ in range(min(processes, len(tasks)) - 1):
            result, send = os.pipe()
            pid = os.fork()
            if pid == 0:
                _run_child(queue, send, tasks, records, *job)
            os.close(send)
            children[pid] = os.fdopen(result, "rb")
        # The records, parameters and base table reach the children through
        # the fork; only outcomes come back through a pipe.
        shares = [_take_tasks(queue, tasks, records, *job)]
        for pid, pipe in children.items():
            data = pipe.read()
            pipe.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children[pid] = None
            if code:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
                raise RuntimeError(f"worker process {pid} {how} before it sent its outcomes")
            done, tracebacks = pickle.loads(data)
            for i, text in tracebacks.items():
                done[i].__cause__ = _ChildTraceback(text)
            shares.append(done)
    finally:
        os.close(queue)
        for pid, pipe in children.items():
            if pipe is not None:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    outcomes: list = [None] * len(records)
    for done in shares:
        for i, outcome in done.items():
            outcomes[i] = outcome
    return outcomes
