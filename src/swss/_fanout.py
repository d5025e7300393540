"""Run a phase's tasks in forked processes, the calling one included. A
task is one element of a list, such as a range of unit indices, and its
work ``run(task)`` returns one value: this module knows no records,
files or grid points, only those values.

``harness`` imports this module inside the two phases that use it, record
scoring and the grid screen, so ``import swss`` does not load it. Each
run of a phase cuts its ordered units into ``task_ranges`` and makes one
``forked_results`` call: the caller writes every task number into one
pipe and forks; every process then takes task numbers until the pipe is
empty, and each child sends back, through a pipe of its own, the value
of every task that marshal can take. The caller runs any other task
again, a dead child's included, and so raises the first failing task's
exception itself; with one process it opens no pipe, forks nothing and
runs every task. This module imports nothing from ``swss``.
"""

import logging
import marshal
import os
import sys
import threading
from typing import Any, BinaryIO, Callable, NoReturn, Optional, Sequence

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


def task_ranges(units: int, processes: int) -> list[range]:
    """``range(units)`` cut, in order, into contiguous ranges whose sizes
    differ by at most one: about ``TASKS_PER_PROCESS`` per process, but
    no more than ``units`` or ``MAX_TASKS``, and one of all the units for
    a single process."""
    count = 1 if processes < 2 else min(units, processes * TASKS_PER_PROCESS, MAX_TASKS)
    return [range(units * k // count, units * (k + 1) // count) for k in range(count)]


def _take_tasks(queue: int, run: Callable[[Any], Any], tasks: Sequence) -> dict:
    """``{n: run(tasks[n])}`` of every task number n that this process
    reads from the pipe ``queue``, until it is empty, but for the tasks
    that raised: the caller runs those again."""
    done = {}
    while number := os.read(queue, 4):
        n = int.from_bytes(number, "little")
        try:
            done[n] = run(tasks[n])
        except Exception:
            pass
    return done


def _run_child(queue: int, send: int, run: Callable[[Any], Any], tasks: Sequence) -> NoReturn:
    """Run tasks from ``queue`` in a forked child, send ``(task number,
    value)`` of each into the pipe ``send``, marshalled one by one in a
    marshalled list, and exit: never return into the caller's frames. A
    task that raised, or whose value marshal cannot take, is not sent;
    the caller runs it."""
    status = 1
    try:
        sent = []
        for n, value in _take_tasks(queue, run, tasks).items():
            try:
                sent.append(marshal.dumps((n, value)))
            except ValueError:  # an object marshal cannot take, such as an exception
                pass
        with open(send, "wb") as pipe:
            pipe.write(marshal.dumps(sent))
        status = 0
    finally:
        os._exit(status)


def forked_results(run: Callable[[Any], Any], tasks: Sequence, processes: int) -> list:
    """``[run(task) for task in tasks]``, run by this process and up to
    ``processes - 1`` forked children, each taking task numbers from one
    pipe until it is empty. A child's value reaches the caller as marshal
    rebuilds it. Each task is deterministic, so one that no process sent
    (it raised, marshal cannot take its value, or its child died: that
    logs a WARNING) runs here, in task order, once every child is reaped:
    with one process or one task, every task. So the first failing task's
    exception is raised from this process's own run of it. Where a pipe or
    a fork fails, the processes already there take every task. No child
    outlives the call."""
    count = len(tasks)
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
                        _run_child(queue, send, run, tasks)
                    os.close(send)
                    children[pid] = os.fdopen(result, "rb")
        except OSError as exc:
            logger.warning("could not start a worker process (%s); running with %d process(es)", exc, len(children) + 1)
        # Inputs reach the children through the fork; results come back by pipe.
        done = {} if queue is None else _take_tasks(queue, run, tasks)
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
    return [done[n] if n in done else run(task) for n, task in enumerate(tasks)]
