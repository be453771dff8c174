"""Independent tasks on forked worker processes: the experiment grids' cells
(``experiments._run_cells``), the cluster-regression grid's property tasks
and cells (``experiments._run_cluster_grid``) and the cluster suite's fits
(``clustering.build_cluster_suite``).
"""

from __future__ import annotations

import os

# a worker's (run, tasks), set by the pool's initializer: a forked worker
# inherits both, so neither the caller's closure nor its inputs are pickled
_JOB: tuple | None = None


def outcomes(run, tasks: list[dict], order=None) -> list[tuple[bool, object]]:
    """``_outcome`` of ``run(**task)`` for each task, in task order.

    The tasks run on forked worker processes, one per CPU, and only their
    results are pickled back. They are submitted in ``order`` (task indices,
    task order by default). They run in this process where there is one task,
    one CPU or no ``fork`` start method."""
    workers = min(len(tasks), _cpu_count())
    context = _fork_context() if workers > 1 else None
    if context is None:
        return [_outcome(run, task) for task in tasks]
    return _forked_outcomes(context, workers, run, tasks,
                            range(len(tasks)) if order is None else order)


def _outcome(run, task: dict) -> tuple[bool, object]:
    """(True, result) of a task, or (False, exception) if it raised. A
    worker sends the exception back as itself; every package error pickles
    (``errors.CollapseLabError``)."""
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


def _set_job(run, tasks: list[dict]) -> None:
    global _JOB
    _JOB = (run, tasks)


def _forked_task(index: int) -> tuple[bool, object]:
    run, tasks = _JOB
    return _outcome(run, tasks[index])


def _forked_outcomes(context, workers: int, run, tasks: list[dict], order) -> list:
    """``_outcome`` of each task, computed on ``workers`` forked processes. A
    worker that dies breaks the pool and leaves the tasks it had not finished
    without an outcome; each of those runs again alone in a fresh pool, so
    only a task that kills its own worker fails, with BrokenProcessPool. So
    does a task whose outcome pickles in its worker but does not unpickle
    here: the pool breaks as it reads it."""
    outcomes, broken = _pool_outcomes(context, workers, run, tasks, order)
    for index in broken:
        outcomes.update(_pool_outcomes(context, 1, run, tasks, [index])[0])
    return [outcomes[index] for index in range(len(tasks))]


def _pool_outcomes(context, workers: int, run, tasks: list[dict], indices):
    """({index: outcome}, [index left by a broken pool]) for the tasks at
    ``indices``, submitted in that order. A task whose outcome does not
    pickle in its worker fails with the pickling error. The pool's processes
    are joined before this returns."""
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    outcomes, broken = {}, []
    pool = ProcessPoolExecutor(workers, mp_context=context, initializer=_set_job,
                               initargs=(run, tasks))
    try:
        futures = {index: pool.submit(_forked_task, index) for index in indices}
        for index, future in futures.items():
            try:
                outcomes[index] = future.result()
            except Exception as exc:
                outcomes[index] = False, exc
                if isinstance(exc, BrokenProcessPool):
                    broken.append(index)
    finally:
        # on an error, tasks not yet started are dropped rather than run
        pool.shutdown(wait=True, cancel_futures=True)
    return outcomes, broken
