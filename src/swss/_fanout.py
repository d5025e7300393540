"""Run numbered tasks in forked processes, the calling one included. A
task is a number n and its work ``run(n)``: this module knows no records,
files or grid points, only what a caller's ``run`` yields.

``harness`` imports this module inside the two phases that use it, record
scoring and the grid screen, so ``import swss`` does not load it. Each
run of a phase splits its work into tasks and makes one
``forked_results`` call: the caller writes every task number into one
pipe and forks; every process then takes task numbers until the pipe is
empty, and each child sends back, through a pipe of its own, the results
of every task that marshal can take. The caller runs any other task
again, a dead child's included; with one process it opens no pipe, forks
nothing and runs every task. This module imports nothing from ``swss``.
"""

import logging
import marshal
import os
import sys
import threading
from typing import BinaryIO, Callable, Iterable, NoReturn, Optional

logger = logging.getLogger(__name__)

# Tasks per process, so that processes that finish early take more. With
# 16, the caller and a child finished within about 10 ms of each other
# on the benchmark corpora (median); with 4, up to 74 ms apart.
TASKS_PER_PROCESS = 16
# Task numbers go through a pipe as 4-byte records in one write, which an
# empty pipe (at least one 4 KiB page) always holds.
MAX_TASKS = 1024


def usable_processes(work: int, minimum: int) -> int:
    """Processes to do ``work`` units with, this one included: 1, to do
    them in this process alone, below ``minimum`` units."""
    if work < minimum or not hasattr(os, "sched_getaffinity"):
        return 1
    # A fork is unsafe while other threads run, and a daemonic
    # multiprocessing worker may not start children.
    multiprocessing = sys.modules.get("multiprocessing")
    if threading.active_count() > 1 or multiprocessing is not None and multiprocessing.current_process().daemon:
        return 1
    return len(os.sched_getaffinity(0))


def task_count(processes: int) -> int:
    """Tasks to split a phase into for ``processes`` processes, at most
    ``MAX_TASKS``: one, all the work in order, for a single process."""
    return 1 if processes < 2 else min(processes * TASKS_PER_PROCESS, MAX_TASKS)


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


def _run_child(queue: int, send: int, run: Callable[[int], Iterable]) -> NoReturn:
    """Run tasks from ``queue`` in a forked child, send ``(task number,
    results)`` of each into the pipe ``send``, marshalled one by one in a
    marshalled list, and exit: never return into the caller's frames. A
    task that raised, or whose results marshal cannot take, is not sent;
    the caller runs it."""
    status = 1
    try:
        sent = []
        for n, items in _take_tasks(queue, run).items():
            try:
                sent.append(marshal.dumps((n, items)))
            except ValueError:  # an object marshal cannot take, such as an exception
                pass
        with open(send, "wb") as pipe:
            pipe.write(marshal.dumps(sent))
        status = 0
    finally:
        os._exit(status)


def forked_results(run: Callable[[int], Iterable], count: int, processes: int) -> list:
    """``_task_results(run, n)`` for every task n in ``range(count)``, run
    by this process and up to ``processes - 1`` forked children, each
    taking tasks from one pipe until it is empty. A task's items reach the
    caller as marshal rebuilds them. Each task is deterministic, so one
    that no process sent (it raised, marshal cannot take its items, or its
    child died: that logs a WARNING) runs here once every child is reaped:
    with one process or one task, every task. Where a pipe or a fork fails,
    the processes already there take every task. No child outlives the call."""
    queue = None
    children: dict[int, Optional[BinaryIO]] = {}  # pid: its result pipe, None once reaped
    try:
        try:
            if min(processes, count) > 1:
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
        # Inputs reach the children through the fork; results come back by pipe.
        done = {} if queue is None else _take_tasks(queue, run)
        for pid, pipe in children.items():
            data = pipe.read()
            pipe.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children[pid] = None
            if code:  # a dead child's pipe holds no whole list: its tasks run here
                how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
                logger.warning("worker process %d %s; running its tasks here", pid, how)
                continue
            done.update(marshal.loads(task) for task in marshal.loads(data))
    finally:
        if queue is not None:
            os.close(queue)
        for pid, pipe in children.items():
            if pipe is not None:
                import signal  # only an interrupted call kills a child

                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return [done[n] if n in done else _task_results(run, n) for n in range(count)]
