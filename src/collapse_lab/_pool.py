"""Independent tasks on forked worker processes: the experiment grids' cells
(``experiments._run_cells``), the cluster-regression grid's property tasks
and cells (``experiments._run_cluster_grid``) and the cluster suite's fits
(``clustering.build_cluster_suite``).

The workers outlive a round. The first round that needs two of them forks one
per CPU, and every later round in the process reuses them, so a worker runs
the code as it was when it was forked. Each worker has its own pipe. A round
sends each worker it uses the round's job, pickled once, then one task index
at a time, and the worker sends back each task's outcome. A worker exits when
its pipe ends: at exit, where ``shutdown`` closes the pipes, or when the
process that forked it dies.
"""

from __future__ import annotations

import os
import pickle

from .errors import TaskError

# the pool: (process, connection) per worker, forked at the first round that
# needs two; a slot whose worker dies gets a new one
_workers: list[tuple] = []
_finalizer = None  # runs shutdown at exit, before multiprocessing joins live children
# the text a task fails with when its worker dies, as concurrent.futures words it
_DIED = ("A process in the process pool was terminated abruptly while the future was "
         "running or pending.")


def outcomes(run, tasks: list[dict], order=None) -> list[tuple[bool, object]]:
    """``_outcome`` of ``run(**task)`` for each task, in task order.

    ``run`` is a module-level function, or a ``functools.partial`` of one over
    the inputs the tasks share. It is pickled once per round with the tasks,
    and unpickled once in each worker the round uses. Task indices go to idle
    workers in ``order`` (task order by default), and only the outcomes are
    pickled back. A task that ends its worker fails alone, once, with
    BrokenProcessPool, and a new worker takes the dead one's place. The tasks
    run in this process where there is one task, one CPU or no ``fork`` start
    method."""
    count = min(len(tasks), _cpu_count())
    if count < 2 or _fork_context() is None:
        return [_outcome(run, task) for task in tasks]
    return _forked_outcomes(count, run, tasks, range(len(tasks)) if order is None else order)


def describe(exc: Exception) -> str:
    """``"Type: message"`` of a task's exception; of a ``TaskError``, that of
    the exception it stands for."""
    return str(exc) if isinstance(exc, TaskError) else f"{type(exc).__name__}: {exc}"


def shutdown() -> None:
    """Close every worker's pipe and join the workers. The next round that
    needs workers forks new ones."""
    workers = _workers[:]
    _workers.clear()
    for _, connection in workers:
        connection.close()
    for process, _ in workers:
        process.join()


def _outcome(run, task: dict) -> tuple[bool, object]:
    """(True, result) of a task, or (False, exception) if it raised."""
    try:
        return True, run(**task)
    except Exception as exc:
        return False, exc


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _fork_context():
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    # explicit: Python 3.14 makes forkserver the default on Linux
    return multiprocessing.get_context("fork")


def _forked_outcomes(count: int, run, tasks: list[dict], order) -> list:
    """``_outcome`` of each task, computed on the pool's first ``count``
    workers. A task whose outcome does not unpickle here fails with
    BrokenProcessPool too, and its worker goes on. On any error out of the
    round itself, the workers still running a task are killed and the pool is
    shut down."""
    from multiprocessing.connection import wait

    job = pickle.dumps((run, tasks), pickle.HIGHEST_PROTOCOL)
    _ready()
    indices = iter(order)
    held: dict[int, int] = {}  # slot: index of the task its worker runs
    fed: set[int] = set()  # slots whose worker holds this round's job

    def give(slot: int) -> None:
        index = next(indices, None)
        if index is None:
            return
        held[slot] = index
        connection = _workers[slot][1]
        try:
            if slot not in fed:
                fed.add(slot)
                connection.send_bytes(job)
            connection.send(index)
        except OSError:  # the worker is gone: its pipe reads EOF below
            pass

    results = {}
    try:
        for slot in range(count):
            give(slot)
        while held:
            slots = {_workers[slot][1]: slot for slot in held}
            for connection in wait(list(slots)):
                slot = slots[connection]
                index = held.pop(slot)
                try:
                    results[index] = _received(connection.recv_bytes())
                except (EOFError, OSError):
                    results[index] = False, _broken()
                    _replace(slot)
                    fed.discard(slot)
                give(slot)
    except BaseException:
        for slot in held:
            _workers[slot][0].kill()
        shutdown()
        raise
    return [results[index] for index in range(len(tasks))]


def _received(data: bytes) -> tuple[bool, object]:
    try:
        return pickle.loads(data)
    except Exception as exc:
        broken = _broken()
        broken.__cause__ = exc
        return False, broken


def _broken() -> Exception:
    from concurrent.futures.process import BrokenProcessPool

    return BrokenProcessPool(_DIED)


def _ready() -> None:
    """Fork the workers the pool lacks, up to one per CPU, and replace each
    that died since the last round. The first fork registers ``shutdown`` to
    run at exit."""
    global _finalizer
    if _finalizer is None:
        from multiprocessing import util

        _finalizer = util.Finalize(None, shutdown, exitpriority=10)
    for slot, (process, _) in enumerate(_workers):
        if not process.is_alive():
            _replace(slot)
    while len(_workers) < _cpu_count():
        _workers.append(_fork())


def _replace(slot: int) -> None:
    process, connection = _workers[slot]
    connection.close()
    process.join()
    _workers[slot] = _fork()


def _fork() -> tuple:
    context = _fork_context()
    parent_end, child_end = context.Pipe()
    process = context.Process(target=_serve, args=(child_end, parent_end))
    process.start()
    child_end.close()
    return process, parent_end


def _serve(connection, parent_end) -> None:
    """A worker's loop: take each round's job, then run each task index it is
    sent, until its pipe ends. It first closes its copies of the pool's pipe
    ends, so that each pipe ends when the process that forked the pool dies."""
    parent_end.close()
    for _, other in _workers:
        other.close()
    _workers.clear()
    job = None
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError):
            return
        if isinstance(message, int):
            connection.send_bytes(_forked_task(job, message))
        else:
            job = message


def _forked_task(job: tuple, index: int) -> bytes:
    """The pickled ``_outcome`` of a task, as its worker sends it back. A
    failed task's exception goes as itself where it survives a pickle round
    trip, as every package error does (``errors.CollapseLabError``);
    otherwise a ``TaskError`` carries its text. A result that does not
    pickle fails with the pickling error."""
    run, tasks = job
    finished, value = _outcome(run, tasks[index])
    if finished:
        try:
            return pickle.dumps((True, value), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            value = exc
    try:
        data = pickle.dumps((False, value), pickle.HIGHEST_PROTOCOL)
        pickle.loads(data)
        return data
    except Exception:
        return pickle.dumps((False, TaskError(describe(value))), pickle.HIGHEST_PROTOCOL)
