"""The worker pool: workers that outlive a round, a round's job sent once per
worker, a dying worker replaced, and no worker left behind at exit or when
the process that forked them is killed."""

import functools
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import collapse_lab
from collapse_lab import _pool

pytestmark = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="tasks run on worker processes only where fork exists")

SRC = str(Path(collapse_lab.__file__).resolve().parents[1])


class Unpickled:
    """Appends the unpickling process's pid to a file each time it is unpickled."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return _unpickled, (self.path,)


def _unpickled(path):
    with open(path, "a") as fh:
        fh.write(f"{os.getpid()}\n")
    return Unpickled(path)


def _pid(unpickled, n):
    time.sleep(0.01)  # so that both workers take tasks
    return os.getpid()


def _logged_pid(path, die, n):
    with open(path, "a") as fh:
        fh.write(f"{n} {os.getpid()}\n")
    if n == die:
        os._exit(3)
    time.sleep(0.01)
    return os.getpid()


def _lock_at(n, at):
    return threading.Lock() if n == at else n


def _worker_pids():
    return {process.pid for process, _ in _pool._workers}


def _alive(pid: int) -> bool:
    """Whether the process runs; a zombie that no one has reaped yet does not."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def test_rounds_reuse_the_workers_and_send_each_job_once(tmp_path, monkeypatch):
    monkeypatch.setattr(_pool, "_cpu_count", lambda: 2)
    unpickled = tmp_path / "unpickled"
    rounds = []
    for _ in range(2):
        run = functools.partial(_pid, Unpickled(str(unpickled)))
        outcomes = _pool.outcomes(run, [{"n": n} for n in range(6)])
        assert all(finished for finished, _ in outcomes)
        rounds.append({pid for _, pid in outcomes})
    assert rounds[0] == rounds[1] == _worker_pids()
    assert len(rounds[0]) == 2
    # each worker unpickled each round's job once
    assert sorted(map(int, unpickled.read_text().split())) == sorted([*rounds[0]] * 2)


def test_a_dying_task_fails_alone_and_its_worker_is_replaced(tmp_path, monkeypatch):
    monkeypatch.setattr(_pool, "_cpu_count", lambda: 2)
    log = tmp_path / "log"
    outcomes = _pool.outcomes(functools.partial(_logged_pid, str(log), 2),
                              [{"n": n} for n in range(6)])
    runs = [line.split() for line in log.read_text().splitlines()]
    assert sorted(n for n, _ in runs) == [str(n) for n in range(6)]  # each task ran once
    assert [finished for finished, _ in outcomes] == [True, True, False, True, True, True]
    assert isinstance(outcomes[2][1], BrokenProcessPool)
    dead = int(dict(runs)["2"])
    assert dead not in _worker_pids()
    assert len(_worker_pids()) == 2
    after = _pool.outcomes(functools.partial(_logged_pid, str(log), -1),
                           [{"n": n} for n in range(4)])
    assert {pid for _, pid in after} == _worker_pids()


def test_a_result_that_does_not_pickle_fails_alone(monkeypatch):
    monkeypatch.setattr(_pool, "_cpu_count", lambda: 2)
    outcomes = _pool.outcomes(functools.partial(_lock_at, at=1), [{"n": n} for n in range(3)])
    assert outcomes[0] == (True, 0) and outcomes[2] == (True, 2)
    assert not outcomes[1][0]
    assert _pool.describe(outcomes[1][1]) == "TypeError: cannot pickle '_thread.lock' object"


def _child(script: str) -> list[str]:
    return [sys.executable, "-c", "\n".join([
        f"import sys; sys.path.insert(0, {SRC!r})",
        "import functools, json, os, time",
        "from collapse_lab import _pool",
        "_pool._cpu_count = lambda: 2",
        "_pool.outcomes(functools.partial(os.getpid), [{}, {}])",
        "print(json.dumps([process.pid for process, _ in _pool._workers]), flush=True)",
        script])]


def test_workers_are_joined_at_exit():
    done = subprocess.run(_child(""), capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    pids = json.loads(done.stdout)
    assert len(pids) == 2
    assert [pid for pid in pids if _alive(pid)] == []


def test_a_killed_process_leaves_no_worker():
    child = subprocess.Popen(_child("time.sleep(60)"), stdout=subprocess.PIPE, text=True)
    try:
        pids = json.loads(child.stdout.readline())
        assert len(pids) == 2
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=10)
    finally:
        child.kill()
        child.stdout.close()
        child.wait()
    deadline = time.monotonic() + 5
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert [pid for pid in pids if _alive(pid)] == []
